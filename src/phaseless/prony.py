"""Deterministic magnitude-only recovery of k-sparse complex signals.

The scheme measures 4k-1 magnitudes: the first 2k unitary DFT coefficients
z_0..z_{2k-1}, plus the 2k-1 running sums |z_0 + ... + z_a| for a >= 1.
Decoding anchors the phase of the first nonzero coefficient at zero and
resolves the remaining coefficients in order: in the frame of the running
sum s before z_j, |s|, |z_j| and |s + z_j| are all measured, so they pin
z_j down to at most two candidates (the law-of-cosines angle up to sign).
These checks depend on y alone, so they are made once and prune no branch:
the leaves are the sign vectors over the coefficients that split, 4^(k-1)
for a generic signal, walked depth first in prefix-aligned chunks of at
most max(_GRID_VALUES / n, 1) leaves. On one x86 core (BENCH_grid-chunk.json),
k = 9, 10, 11 at n=64 took a median 0.020, 0.16, 0.75 s. BRANCH_CAP is
checked before walking, so every k >= 12 raises NumericalFailure at once.

A leaf becomes a signal one way, annihilating-filter support recovery
(Vetterli, Marziliano, Blu, IEEE TSP 2002), which is all prony_solve does:
the annihilating polynomial is evaluated on the n-point grid of roots of
unity by one product with the grid's powers, the support is where its k
smallest values lie, and the values are the least-squares fit of the 2k
coefficients there. The walk factors each Hankel block once, for every
leaf that shares it: a leaf's leading m x m block H_m holds coefficients
0 .. 2m-2, so a chunk's leaves form a prefix tree, and each distinct
prefix borders its parent's H_{m-1}^-1 and det H_{m-1} by one Schur
step into det H_m and, for m < k, H_m^-1; at m = k the step solves the
k x k system that siblings differing only in the last coefficient share.
A system with a leading block that fails the determinant screen at any
order is left to a pivoted LU. The walk fits only leaves whose k-th
smallest value is far below the (k+1)-th, takes the first fit that
re-measures within BRANCH_TOL of y, and polishes it by Gauss-Newton on
the 4k-1 magnitudes.

The result is exact up to a global phase times the conjugate reflection
(t -> -t mod n with conjugated values), which no magnitude can tell apart.
That pins down random (generic) k-sparse signals, as criterion 1 shows,
but not every k-sparse one: at n=64, k=4 the spike 1.3 delta_2 and the
4-sparse 0.65 (delta_1 + delta_33 + e^{i pi/32} (delta_63 - delta_31))
have identical measurements and lie 1.84 apart up to twin and phase. A
spike at t with (a + 1) t = 0 mod n, for a running sum a followed by a
nonzero coefficient, zeroes that sum and leaves the next phase free:
NumericalFailure ("running sum vanished"), e.g. t = 32 at k = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import _integer

__all__ = [
    "ComplexSignal",
    "DeterministicScheme",
    "InconsistentMeasurements",
    "NumericalFailure",
    "det_measure",
    "det_recover",
    "prony_solve",
    "conjugate_reflection",
]


ZERO_TOL = 1e-9       # relative to max(y): first-nonzero detection
BRANCH_TOL = 1e-6     # relative to max(y): running-sum consistency
BRANCH_CAP = 4 ** 10  # phase-chain leaves one recovery may walk
# (k + 1) n values of the grid basis a recovery evaluates on: 256 MiB of
# complex128. DeterministicScheme refuses a larger (n, k).
GRID_CAP = 1 << 24
_GRID_VALUES = 1 << 16  # |P| values on the grid one chunk of leaves holds
# k-th over (k+1)-th smallest |annihilator| on the grid. A true leaf built at
# a tangent step sits a few BRANCH_TOL off the truth, which lifts |P| at its
# roots: the true leaves of two valid n=64, k=8 signals read 2.6e-3 and 2.6e-2.
_GAP_RATIO = 0.1


class InconsistentMeasurements(ValueError):
    """No value satisfies the given magnitude constraints."""


class NumericalFailure(RuntimeError):
    """The phase chain broke at a vanished running sum, or the walk would
    exceed BRANCH_CAP."""


@dataclass
class ComplexSignal:
    values: np.ndarray           # complex128, length n
    leaves: int = 0              # phase-chain leaves det_recover walked


@dataclass(frozen=True)
class DeterministicScheme:
    """Fixed measurement operator for (n, k); always exactly 4k-1 rows.
    An (n, k) whose grid basis, (k + 1) n values, passes GRID_CAP is
    refused: recovery could not hold it."""

    n: int
    k: int

    def __post_init__(self):
        for name in ("n", "k"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not 1 <= 2 * self.k <= self.n:
            raise ValueError(f"need 1 <= 2k <= n, got n={self.n}, k={self.k}")
        if (self.k + 1) * self.n > GRID_CAP:
            raise ValueError(f"(k + 1) n = {(self.k + 1) * self.n} grid values "
                             f"exceed GRID_CAP = 2^24 (n={self.n}, k={self.k})")

    @property
    def n_measurements(self) -> int:
        return 4 * self.k - 1


def det_measure(scheme: DeterministicScheme, x: np.ndarray) -> np.ndarray:
    """y = |Phi x|: 2k DFT coefficient magnitudes then 2k-1 running sums."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (scheme.n,):
        raise ValueError(f"signal shape {x.shape} != ({scheme.n},)")
    z = np.fft.fft(x)[: 2 * scheme.k] / math.sqrt(scheme.n)
    running = np.cumsum(z)
    return np.concatenate([np.abs(z), np.abs(running[1:])])


def prony_solve(fourier_coeffs: np.ndarray, n: int, k: int) -> ComplexSignal:
    """Recover a <=k-sparse x from its first 2k unitary DFT coefficients.

    The support is where the Hankel null vector's annihilating polynomial
    is smallest on the n-point grid, and the values are the least-squares
    fit on it. A sparser x leaves its spare support positions at round-off.
    """
    DeterministicScheme(n, k)  # the one owner of the (n, k) rule
    g = np.asarray(fourier_coeffs, dtype=np.complex128)
    if g.shape != (2 * k,):
        raise ValueError(f"need exactly 2k = {2 * k} coefficients, got {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("coefficients must be finite")
    if np.max(np.abs(g)) == 0:
        return ComplexSignal(np.zeros(n, dtype=np.complex128))
    values = np.abs(_null_vectors(g, k) @ _grid_basis(n, k))
    support = np.sort(np.argsort(values)[:k])
    x = np.zeros(n, dtype=np.complex128)
    x[support] = _fit(g, support, n)[1]
    return ComplexSignal(x)


def _null_vectors(g: np.ndarray, k: int) -> np.ndarray:
    """Annihilating polynomials of g's rows, lowest coefficient first: null
    vectors of their k x (k+1) Hankel systems H[a] = g[a : a + k + 1]."""
    hankel = np.lib.stride_tricks.sliding_window_view(g, k + 1, axis=-1)
    return np.linalg.svd(hankel)[2][..., -1, :].conj()


def _grid_basis(n: int, k: int) -> np.ndarray:
    """G[m, t] = exp(-2 pi i m t / n) for m <= k: poly @ G is the annihilating
    polynomial P at every grid point, where a support position t is a root."""
    m_t = np.outer(np.arange(k + 1), np.arange(n)) % n
    return np.exp(-2j * math.pi / n * m_t)


def _fit(g: np.ndarray, support: np.ndarray, n: int):
    """Phi's columns at support (2k DFT rows, then 2k-1 running sums), and
    the values there whose DFT rows best fit the coefficients g."""
    dft = np.exp(-2j * math.pi * np.outer(np.arange(g.size), support) / n)
    dft /= math.sqrt(n)
    rows = np.concatenate([dft, np.cumsum(dft, axis=0)[1:]])
    return rows, np.linalg.lstsq(dft, g, rcond=None)[0]


def conjugate_reflection(x: np.ndarray) -> np.ndarray:
    """The measurement-equivalent twin: x'[t] = conj(x[-t mod n])."""
    x = np.asarray(x, dtype=np.complex128)
    out = np.conj(x[(-np.arange(x.shape[0])) % x.shape[0]])
    return out


def _phase_chain(scheme: DeterministicScheme, z_mag: np.ndarray,
                 sum_mag: np.ndarray, anchor: int, tol_zero: float,
                 tol_branch: float, chunk: int):
    """Every coefficient sequence consistent with every magnitude measurement,
    yielded in (leaves, shares) chunks of at most ``chunk``, a power of two.

    In the frame of the running sum S_{j-1}, the law of cosines on the
    measured |S_{j-1}|, |z_j| and |S_j| gives z_j = |z_j| (cos +- i sin):
    two candidates 2 |z_j| sin apart, or one on S_{j-1}'s line (sin = 0)
    when |z_j| sin <= tol_branch, so a roundoff sin splits no tangent step.
    So each step's check, candidates and turn arg S_j - arg S_{j-1} depend
    on y alone and are resolved once, before the first chunk, where the
    first failing step raises. A leaf's phases are the sum of every step's
    contribution (its coefficient's angle in its frame, and its turn, which
    every later coefficient inherits), and the minus branch of a split step
    negates that step's contribution. So the leaves are the sign vectors
    over the split steps. The first split is cut to its plus branch: its
    minus branch is the entrywise conjugate of every leaf, the twin the
    scheme cannot distinguish anyway. Leaf i takes the minus branch at the
    b-th remaining split when bit b of i, counted from the highest, is set,
    which is depth-first, plus-first order. Chunks are aligned ranges of i,
    yielded as (leaves, shares): a chunk's leaves come in runs of
    ``shares[c]`` that share coefficients 0 .. c, 2 to the number of the
    chunk's splits after c. A step's phase depends only on the splits up to
    it, so a run's leaves share those coefficients byte for byte, and where
    a chunk holds more than one run of them, no run spans two chunks.
    """
    two_k = 2 * scheme.k
    frame = np.zeros(two_k, dtype=np.complex128)  # plus z_j in S_{j-1}'s frame
    frame[anchor] = z_mag[anchor]
    turn = np.zeros(two_k)
    splits = []
    prev = float(z_mag[anchor])                   # |S_{j-1}|
    for j in range(anchor + 1, two_k):
        mag = float(z_mag[j]) if z_mag[j] > tol_zero else 0.0
        cur = float(sum_mag[j - 1])               # |S_j|
        plus = 0j
        if mag == 0:
            if abs(cur - prev) > tol_branch:
                raise InconsistentMeasurements(
                    f"z_{j} = 0 but |S_{j}| = {cur} != |S_{j - 1}| = {prev}")
        elif prev <= tol_zero:
            raise NumericalFailure(
                f"running sum vanished before coefficient {j}; "
                "phase chain breaks")
        else:
            cos = (cur ** 2 - mag ** 2 - prev ** 2) / (2 * mag * prev)
            # allow roundoff past the triangle bound, scaled to the inputs
            if (abs(cos) - 1.0) * 2 * mag * prev > \
                    tol_branch * max(1.0, cur + mag + prev):
                raise InconsistentMeasurements(
                    f"no phase of z_{j} gives |S_{j}| = {cur} from "
                    f"|z_{j}| = {mag}, |S_{j - 1}| = {prev}")
            cos = max(-1.0, min(1.0, cos))
            sin = math.sqrt(max(0.0, 1.0 - cos * cos))
            split = mag * sin > tol_branch
            plus = complex(mag * cos, mag * sin if split else 0.0)
            if split:
                splits.append(j)
        frame[j] = plus
        turn[j] = np.angle(prev + plus)
        prev = cur
    splits = splits[1:]  # conjugate-twin cut
    # row j: step j's share of every phase, its angle at j, its turn after j
    contrib = np.triu(np.tile(turn[:, None], two_k), 1)
    contrib += np.diag(np.angle(frame))
    base, flip = contrib.sum(axis=0), -2 * contrib[splits]
    # a chunk's leaves differ only at its low splits, whose phases are
    # exponentiated once; the high splits turn a chunk by one phase vector
    low = min(len(splits), chunk.bit_length() - 1)
    high = len(splits) - low
    # leaves of a chunk in a row that share g[0 .. c]: 2 to the number of
    # its splits after c
    later = low - np.searchsorted(splits[high:], np.arange(two_k), "right")
    shares = tuple(1 << int(count) for count in later)
    bits = (np.arange(1 << low)[:, None] >> np.arange(low)[::-1]) & 1
    table = np.exp(1j * (bits @ flip[high:] + base))
    table *= np.abs(frame)
    shifts = np.arange(high)[::-1]
    for start in range(1 << high):
        yield (table * np.exp(1j * (((start >> shifts) & 1) @ flip[:high])),
               shares)


class _Grid:
    """Per-recovery workspace: the grid basis (see _grid_basis), and for
    every row of a chunk its annihilator, P's values on the grid and |P|,
    16 (k + 1) + 24 n bytes a row: 1.5 MiB of P and |P| at n <= 2^16, and
    1.6 MiB in all at n=64, k=8. It is one allocation, made before the walk:
    glibc's malloc raises its heap-trim threshold to twice the largest
    block it has mapped and freed, so separate buffers or temporaries per
    chunk were trimmed and faulted in again several times per recovery.
    Over 60 n=64, k=8 recoveries, ru_minflt read 0.6k, against 29k when
    the workspace held 256 rows' values at a time. It also holds the
    determinant screen's scale, the largest coefficient magnitude: every
    leaf has the measured magnitudes, so one number serves the recovery."""

    def __init__(self, rows: int, n: int, k: int, scale: float):
        self.k = k
        self.scale = scale
        self.basis = _grid_basis(n, k)
        split = [rows * (k + 1), rows * n]
        buf = np.empty(sum(split) + (rows * n + 1) // 2, dtype=np.complex128)
        poly, values, mags = np.split(buf, np.cumsum(split))
        self.poly = poly.reshape(rows, k + 1)
        self.values = values.reshape(rows, n)
        self.mags = mags.view(np.float64)[: rows * n].reshape(rows, n)


def _screened(dets: np.ndarray, scale: float, order: int) -> np.ndarray:
    """The Hankel determinant screen: |det| above 1e-10 scale^order."""
    return np.abs(dets) > 1e-10 * max(scale ** order, 1e-300)


def _direct_solutions(heads: np.ndarray, scale: float, k: int):
    """Each head's (2, k) solutions (see _hankel_solutions) from its own
    k x k leading block, by a pivoted LU, and whether the block passes the
    screen."""
    lead = np.lib.stride_tricks.sliding_window_view(
        heads[:, : 2 * k - 1], k, axis=1)
    rhs = np.zeros((heads.shape[0], k, 2), dtype=np.complex128)
    rhs[:, k - 1, 0] = -1.0
    rhs[:, : k - 1, 1] = -heads[:, k: 2 * k - 1]
    solvable = _screened(np.linalg.det(lead), scale, k)
    sol = np.zeros((heads.shape[0], k, 2), dtype=np.complex128)
    try:
        sol[solvable] = np.linalg.solve(lead[solvable], rhs[solvable])
    except np.linalg.LinAlgError:
        # a pivot-level singularity slipped past the determinant screen
        solvable[:] = False
    return sol.swapaxes(1, 2), solvable


def _hankel_solutions(leaves: np.ndarray, shares, scale: float, k: int):
    """Each head's solutions of H p = -e_k and H p = -[g[k .. 2k-2], 0], as
    (heads, 2, k), and whether its blocks H_1 .. H_k all pass the screen,
    for the heads of runs of ``shares[2k-2]`` leaves, which share H = H_k.

    H_m = [[H_{m-1}, b], [b^T, d]], with b = g[m-1 .. 2m-3] and d = g[2m-2],
    is read from the prefix g[0 .. 2m-2], so the runs of each order refine
    those of the order before, and each prefix borders its parent's inverse
    by one Schur step. With v = [-H_{m-1}^-1 b, 1], the pivot is s = v^T
    g[m-1 .. 2m-2] = d - b^T H_{m-1}^-1 b, det H_m = s det H_{m-1}, and
    H_m^-1 = [[H_{m-1}^-1, 0], [0, 0]] + v v^T / s (Golub, Van Loan,
    Matrix Computations, 4.7). At m < k the step grows -H_m^-1; at m = k
    it gives the solutions -v / s and -[H_{k-1}^-1 g[k .. 2k-2], 0] -
    v (v^T [g[k .. 2k-2], 0]) / s, and no k x k inverse. A failed prefix's
    pivot is replaced by 1, so no pivot that failed the screen is read;
    its heads are left to the direct solve."""
    neg_inv = np.zeros((1, 0, 0), dtype=np.complex128)  # H_0: the whole chunk
    det = np.ones(1, dtype=np.complex128)
    passed = np.ones(1, dtype=bool)
    for m in range(1, k + 1):
        prefixes = leaves[:: shares[2 * m - 2]]
        parents = neg_inv.shape[0]
        children = prefixes.shape[0] // parents
        # b, and at order k also g[k .. 2k-2], times -H_{m-1}^-1
        rhs = 1 if m < k else 2
        windows = prefixes[:, m - 1 + np.add.outer(np.arange(rhs),
                                                   np.arange(m - 1))]
        sol = np.empty((prefixes.shape[0], rhs, m), dtype=np.complex128)
        np.matmul(windows.reshape(parents, children * rhs, m - 1), neg_inv,
                  out=sol.reshape(parents, children * rhs, m)[..., : m - 1])
        v = sol[:, 0]
        v[:, m - 1] = 1.0
        s = np.einsum("pi,pi->p", v, prefixes[:, m - 1: 2 * m - 1])
        det = np.repeat(det, children) * s
        passed = np.repeat(passed, children) & _screened(det, scale, m)
        s[~passed] = 1.0
        if m == k:
            break
        grown = v[:, :, None] * (v / -s[:, None])[:, None, :]
        grown.reshape(parents, children, m, m)[..., : m - 1, : m - 1] += \
            neg_inv[:, None]
        neg_inv = grown
    sol[:, 1, k - 1] = 0.0
    dot = np.einsum("pi,pi->p", v[:, : k - 1], windows[:, 1])
    v /= -s[:, None]
    sol[:, 1] += dot[:, None] * v
    return sol, passed


def _grid_annihilator_filter(leaves: np.ndarray, shares,
                             grid: _Grid) -> tuple[np.ndarray, np.ndarray]:
    """The leaves worth fitting, and the supports (rows) their annihilating
    polynomials P read off the n-point grid: where the k smallest |P| lie.

    The leading k x k Hankel block of a leaf holds every coefficient but the
    last, so it is solved once per head, a run of ``shares[2k-2]`` leaves
    (see _phase_chain): by the Schur walk up the chunk's prefixes of
    _hankel_solutions, or by the direct solve when one of the block's
    leading blocks fails the screen there. The last coefficient enters the
    recurrence linearly: p = p0 + z_last * q. Such a leaf is kept when its
    k-th smallest |P| is at most _GAP_RATIO times the (k+1)-th. A leaf
    whose leading block is singular takes its Hankel null vector instead
    and is always kept, ahead of the others: a signal sparser than k has
    no gap at order k, and is the preimage to prefer.
    """
    k, rows, siblings = grid.k, leaves.shape[0], shares[2 * grid.k - 2]
    sol, solvable = _hankel_solutions(leaves, shares, grid.scale, k)
    direct = ~solvable
    if direct.any():
        sol[direct], solvable[direct] = _direct_solutions(
            leaves[::siblings][direct], grid.scale, k)
    poly = grid.poly[:rows]
    by_head = poly.reshape(-1, siblings, k + 1)
    np.multiply(leaves.reshape(-1, siblings, 2 * k)[..., -1:], sol[:, None, 0],
                out=by_head[..., :k])
    by_head[..., :k] += sol[:, None, 1]
    by_head[..., k] = 1.0
    solvable = np.repeat(solvable, siblings)
    if not solvable.all():
        poly[~solvable] = _null_vectors(leaves[~solvable], k)
    values, mags = grid.values[:rows], grid.mags[:rows]
    np.abs(np.matmul(poly, grid.basis, out=values), out=mags)
    mags.sort(axis=1)
    kept = np.where(~solvable | (mags[:, k - 1] <= _GAP_RATIO * mags[:, k]))[0]
    kept = kept[np.argsort(solvable[kept], kind="stable")]
    # the kept leaves' |P| again, unsorted: the same floats as mags held
    supports = np.argsort(np.abs(values[kept]), axis=1)[:, :k]
    return kept, np.sort(supports, axis=1)


def det_recover(scheme: DeterministicScheme, y: np.ndarray) -> ComplexSignal:
    """Invert det_measure up to global phase (times conjugate reflection)."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (scheme.n_measurements,):
        raise ValueError(
            f"need {scheme.n_measurements} measurements, got {y.shape}")
    if not np.all(np.isfinite(y) & (y >= 0)):
        raise ValueError("measurements must be finite and nonnegative")
    two_k = 2 * scheme.k
    scale = float(np.max(y))
    tol_zero = ZERO_TOL * scale
    tol_branch = BRANCH_TOL * scale
    z_mag = y[:two_k]
    sum_mag = y[two_k:]

    nonzero = np.where(z_mag > tol_zero)[0]
    if nonzero.size == 0:
        return ComplexSignal(np.zeros(scheme.n, dtype=np.complex128))
    anchor = int(nonzero[0])
    # past the anchor, each nonzero coefficient may split every leaf in two,
    # except the first, whose split is the conjugate-twin cut
    if 1 << max(nonzero.size - 2, 0) > BRANCH_CAP:
        raise NumericalFailure(
            f"phase search may walk 2^{nonzero.size - 2} leaves > BRANCH_CAP")

    # the most leaves, a power of two, whose |P| fit _GRID_VALUES: at least 1
    chunk = 1 << (max(_GRID_VALUES // scheme.n, 1).bit_length() - 1)
    walked, grid = 0, _Grid(chunk, scheme.n, scheme.k, float(np.max(z_mag)))
    for leaves, shares in _phase_chain(scheme, z_mag, sum_mag, anchor,
                                       tol_zero, tol_branch, chunk):
        walked += leaves.shape[0]
        for idx, support in zip(*_grid_annihilator_filter(
                leaves, shares, grid)):
            rows, v = _fit(leaves[idx], support, scheme.n)
            if np.max(np.abs(np.abs(rows @ v) - y)) <= tol_branch:
                x = np.zeros(scheme.n, dtype=np.complex128)
                x[support] = _polish(rows, v, y)
                return ComplexSignal(x, walked)
    raise InconsistentMeasurements(
        "no branch re-measures to the given y; y was not produced by this scheme")


def _polish(rows: np.ndarray, v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gauss-Newton on the magnitudes y = |rows @ v|, keeping each step only
    while it lowers the re-measurement gap. A leaf built at a tangent step
    can sit about BRANCH_TOL off the truth, and so does its fit; one step
    brings it to round-off. Only the winner is polished, so the verdict
    judges each leaf's own fit."""
    u = rows @ v
    gap = np.max(np.abs(np.abs(u) - y))
    while gap > np.finfo(float).eps * np.max(y):  # above round-off
        # d|u| / d(Re v, Im v) = (Re w, -Im w) with w = conj(u) / |u| * rows
        w = np.exp(-1j * np.angle(u))[:, None] * rows
        step = np.linalg.lstsq(np.concatenate([w.real, -w.imag], axis=1),
                               y - np.abs(u), rcond=None)[0]
        trial = v + step[: v.size] + 1j * step[v.size:]
        u = rows @ trial
        trial_gap = np.max(np.abs(np.abs(u) - y))
        if not trial_gap < gap:
            break
        v, gap = trial, trial_gap
    return v
