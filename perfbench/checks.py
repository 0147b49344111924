"""Correctness checks on the program's outputs.

Each check is computed here, from the signal the benchmark generated, and
uses nothing from the program but the output under test. ``CheckFailed``
marks a property that must hold on every operation; an operation that
raises it is counted as failed. Recovery guarantees that are stated as
rates (l2/l2 for the randomized pipeline) return a flag instead, and are
judged over the whole run.
"""

from __future__ import annotations

import math

import numpy as np

SUCCESS_FACTOR = 1.8    # l2/l2: error^2 <= 1.8 * ||x_tail(k)||^2
PRONY_TOL = 1e-8        # relative, for re-measurement and recovery error


class CheckFailed(Exception):
    """An output broke a property that must hold on every operation."""


def tail_sq(x: np.ndarray, k: int) -> float:
    """Energy outside the k largest magnitudes of x."""
    a = np.sort(np.abs(x) ** 2)
    return float(a[: max(a.size - k, 0)].sum())


def meets_l2l2(x: np.ndarray, x_hat: np.ndarray, k: int) -> bool:
    """Squared error after the best global sign <= 1.8 x squared k-tail.

    On an exactly k-sparse x the tail is 0, so this is exact recovery.
    """
    err = min(float(np.sum((x - x_hat) ** 2)), float(np.sum((x + x_hat) ** 2)))
    return err <= SUCCESS_FACTOR * tail_sq(x, k)


def check_decode(y: np.ndarray, block_rows: int, result,
                 top_select: int) -> None:
    """Structural properties of one randomized decode."""
    if y.shape != (block_rows,):
        raise CheckFailed(f"len(y) = {y.shape}, block rows sum to {block_rows}")
    if not np.isin(result.S1, result.S0).all():
        raise CheckFailed("S1 is not a subset of S0")
    if not np.isin(result.S2, result.S1).all():
        raise CheckFailed("S2 is not a subset of S1")
    if result.S1.size > top_select:
        raise CheckFailed(f"|S1| = {result.S1.size} > top_select = {top_select}")
    if not (np.all(np.isfinite(result.values)) and np.all(np.isfinite(y))):
        raise CheckFailed("non-finite measurement or estimate")


def remeasure(x: np.ndarray, k: int) -> np.ndarray:
    """The 4k-1 magnitudes of x, from an explicit DFT matrix: |z_0..z_{2k-1}|
    of the unitary DFT, then |z_0 + ... + z_a| for a = 1..2k-1."""
    n = x.shape[0]
    F = np.exp(-2j * math.pi * np.outer(np.arange(2 * k), np.arange(n)) / n)
    z = F @ x / math.sqrt(n)
    return np.concatenate([np.abs(z), np.abs(np.cumsum(z)[1:])])


def twin_phase_error(x_hat: np.ndarray, x: np.ndarray) -> float:
    """min over global phase phi and over {x_hat, its conjugate reflection
    x_hat'[t] = conj(x_hat[-t mod n])} of ||x - e^{i phi} x_hat||."""
    twin = np.conj(x_hat[(-np.arange(x_hat.shape[0])) % x_hat.shape[0]])
    best = math.inf
    for cand in (x_hat, twin):
        ip = np.vdot(cand, x)
        phase = ip / abs(ip) if ip != 0 else 1.0
        best = min(best, float(np.linalg.norm(x - phase * cand)))
    return best


def check_prony(x: np.ndarray, x_hat: np.ndarray, y: np.ndarray, k: int) -> None:
    """The deterministic scheme's guarantee on one signal."""
    if y.shape != (4 * k - 1,):
        raise CheckFailed(f"y has {y.shape} entries, expected {4 * k - 1}")
    gap = float(np.max(np.abs(remeasure(x_hat, k) - y)))
    if gap > PRONY_TOL * float(np.max(y)):
        raise CheckFailed(f"output re-measures {gap:.3e} away from y")
    err = twin_phase_error(x_hat, x)
    if not err < PRONY_TOL * float(np.linalg.norm(x)):
        raise CheckFailed(f"recovery error {err:.3e} (x norm "
                          f"{np.linalg.norm(x):.3e})")


def wilson(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval of a binomial rate."""
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2)) / denom
    return max(0.0, center - half), min(1.0, center + half)
