"""Deterministic magnitude-only recovery of exactly k-sparse complex signals.

The scheme measures 4k-1 magnitudes: the first 2k unitary DFT coefficients
z_0..z_{2k-1}, plus the 2k-1 running sums |z_0 + ... + z_a| for a >= 1.
Decoding anchors the phase of the first nonzero coefficient at zero and
walks the remaining coefficients in order: knowing the partial sum s, the
magnitude |z_j|, and |s + z_j| pins z_j down to at most two candidates (the
law-of-cosines angle is determined up to sign). The running-sum checks do
not prune in practice: for every signal measured with k = 1..8 the walk
ended with exactly 4^(k-1) leaves, so the search grows 4x per unit of k,
and every k >= 10 exceeds the BRANCH_CAP of 65536 branches and raises
NumericalFailure. Each leaf is screened by an annihilating filter on the
n-point grid, and the survivors are handed to the annihilating-polynomial
solver and validated by re-measuring. The winner is exact up to a global
phase times the inherent
conjugate-reflection symmetry of magnitude measurements (t -> -t mod n with
conjugated values produces identical measurements, so no decoder can split
that pair).

The annihilating-polynomial solver recovers a k-sparse vector from 2k
consecutive DFT coefficients in O(k^3): solve the k x (k+1) Hankel system
for the polynomial whose roots are the support's roots of unity, snap
companion-matrix eigenvalues to the grid, then least-squares the values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComplexSignal",
    "DeterministicScheme",
    "PhaseUnderdetermined",
    "InconsistentMeasurements",
    "NumericalFailure",
    "det_measure",
    "det_recover",
    "resolve_phase",
    "prony_solve",
    "conjugate_reflection",
]


ZERO_TOL = 1e-9       # relative to max(y): first-nonzero detection
BRANCH_TOL = 1e-6     # relative to max(y): running-sum consistency
BRANCH_CAP = 65536    # phase-chain branches before giving up


class PhaseUnderdetermined(ValueError):
    """|x| and |x + a| with a = 0 leave the phase of x free."""


class InconsistentMeasurements(ValueError):
    """No value satisfies the given magnitude constraints."""


class NumericalFailure(RuntimeError):
    """Root snapping or branch search fell apart (ill-conditioned input)."""


@dataclass
class ComplexSignal:
    values: np.ndarray           # complex128, length n
    sparsity: int

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class DeterministicScheme:
    """Fixed measurement operator for (n, k); always exactly 4k-1 rows."""

    n: int
    k: int

    def __post_init__(self):
        if not 1 <= 2 * self.k <= self.n:
            raise ValueError(f"need 1 <= 2k <= n, got n={self.n}, k={self.k}")

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


def resolve_phase(mag_x: float, a: complex, mag_sum: float,
                  tol: float = 1e-10) -> list[complex]:
    """All x with |x| = mag_x and |x + a| = mag_sum, given a.

    Generically two candidates, reflections of each other about a's
    direction; collinear cases collapse to one. Raises
    PhaseUnderdetermined when a = 0 and mag_x > 0 (any phase works), and
    InconsistentMeasurements when the triangle inequality is violated
    beyond tol.
    """
    abs_a = abs(a)
    if mag_x < 0 or mag_sum < 0:
        raise ValueError("magnitudes must be nonnegative")
    if mag_x == 0:
        if abs(mag_sum - abs_a) > tol:
            raise InconsistentMeasurements(
                f"|0 + a| = {abs_a}, measured {mag_sum}")
        return [0j]
    if abs_a == 0:
        raise PhaseUnderdetermined("a = 0 leaves the phase free")
    cos_val = (mag_sum ** 2 - mag_x ** 2 - abs_a ** 2) / (2 * mag_x * abs_a)
    if abs(cos_val) > 1.0:
        # allow roundoff past the triangle boundary, scaled to the inputs
        slack = (abs(cos_val) - 1.0) * 2 * mag_x * abs_a
        if slack > tol * max(1.0, mag_sum + mag_x + abs_a):
            raise InconsistentMeasurements(
                f"no phase gives |x+a| = {mag_sum} from |x| = {mag_x}, |a| = {abs_a}")
        cos_val = math.copysign(1.0, cos_val)
    sin_val = math.sqrt(max(0.0, 1.0 - cos_val * cos_val))
    unit = a / abs_a
    first = mag_x * unit * complex(cos_val, sin_val)
    if sin_val == 0.0:
        return [complex(first)]
    second = mag_x * unit * complex(cos_val, -sin_val)
    return [complex(first), complex(second)]


def prony_solve(fourier_coeffs: np.ndarray, n: int, k: int) -> ComplexSignal:
    """Recover a <=k-sparse x from its first 2k unitary DFT coefficients.

    Rank-deficient Hankel systems (effective sparsity below k) are retried
    at the smaller size; roots that refuse to snap onto the n-point unit
    circle grid raise NumericalFailure.
    """
    g = np.asarray(fourier_coeffs, dtype=np.complex128)
    if g.shape != (2 * k,):
        raise ValueError(f"need exactly 2k = {2 * k} coefficients, got {g.shape}")
    if k == 0 or np.max(np.abs(g)) == 0:
        return ComplexSignal(np.zeros(n, dtype=np.complex128), 0)
    H = np.empty((k, k + 1), dtype=np.complex128)
    for a in range(k):
        H[a] = g[a: a + k + 1]
    lead = H[:, :k]
    sing = np.linalg.svd(lead, compute_uv=False)
    if sing[0] == 0 or sing[-1] / sing[0] < 1e-10:
        return prony_solve(g[: 2 * (k - 1)], n, k - 1)
    p = np.linalg.solve(lead, -H[:, k]) if k > 1 else -H[:, 1] / H[:, 0]
    poly = np.concatenate([[1.0 + 0j], p[::-1]])
    roots = np.roots(poly)

    mags = np.abs(roots)
    if np.any(mags == 0):
        raise NumericalFailure("zero annihilator root")
    on_circle = roots / mags
    # angle -2*pi*t/n  ->  support position t
    t = np.round((-np.angle(on_circle)) * n / (2 * math.pi)).astype(np.int64) % n
    snapped = np.exp(-2j * math.pi * t / n)
    snap_residual = float(np.max(np.abs(on_circle - snapped)))
    if snap_residual > 2 * math.sin(math.pi / (2 * n)) * 1.5:
        raise NumericalFailure(
            f"root snap residual {snap_residual:.3e} exceeds half the grid gap")
    support = np.unique(t)
    V = np.power.outer(np.exp(-2j * math.pi * support / n),
                       np.arange(2 * k)).T
    coeffs, *_ = np.linalg.lstsq(V, g, rcond=None)
    values = np.zeros(n, dtype=np.complex128)
    values[support] = coeffs * math.sqrt(n)
    return ComplexSignal(values, int(support.size))


def conjugate_reflection(x: np.ndarray) -> np.ndarray:
    """The measurement-equivalent twin: x'[t] = conj(x[-t mod n])."""
    x = np.asarray(x, dtype=np.complex128)
    out = np.conj(x[(-np.arange(x.shape[0])) % x.shape[0]])
    return out


def to_interleaved(x: np.ndarray) -> np.ndarray:
    """Wire format for complex vectors: [re0, im0, re1, im1, ...] float64."""
    x = np.asarray(x, dtype=np.complex128)
    out = np.empty(2 * x.shape[-1], dtype=np.float64)
    out[0::2] = x.real
    out[1::2] = x.imag
    return out


def from_interleaved(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-1] % 2:
        raise ValueError("interleaved array must have even length")
    return a[0::2] + 1j * a[1::2]


def _phase_chain(scheme: DeterministicScheme, z_mag: np.ndarray,
                 sum_mag: np.ndarray, anchor: int, tol_zero: float,
                 tol_branch: float) -> tuple[np.ndarray, np.ndarray]:
    """All coefficient sequences consistent with every magnitude measurement.

    Branches are carried as arrays (one row per surviving prefix) so a step
    costs a handful of vector operations regardless of how many prefixes
    are alive. Every prefix here satisfies its measurements exactly; only
    the sparse-on-grid structure, applied later, tells impostors from the
    truth. The very first two-way split is cut to one branch: while the
    running sum is still real, the minus branch is the entrywise conjugate
    of the plus branch, which is the twin the scheme cannot distinguish
    anyway.

    Returns (leaves, parent): leaves with equal parent came from one prefix
    and differ only in the last coefficient.
    """
    two_k = 2 * scheme.k
    coeffs = np.zeros((1, two_k), dtype=np.complex128)
    coeffs[0, anchor] = z_mag[anchor]
    state = np.array([z_mag[anchor]], dtype=np.complex128)
    state_real = True
    parent = np.zeros(1, dtype=np.int64)
    for j in range(anchor + 1, two_k):
        target = float(sum_mag[j - 1])  # measured |z_0 + ... + z_j|
        parent = np.arange(state.shape[0])
        if z_mag[j] <= tol_zero:
            keep = np.abs(np.abs(state) - target) <= tol_branch
            coeffs, state, parent = coeffs[keep], state[keep], parent[keep]
        else:
            zm = float(z_mag[j])
            abs_s = np.abs(state)
            live = abs_s > tol_zero
            if not np.all(live):
                # a vanished running sum leaves the next phase free; those
                # prefixes cannot be continued discretely
                coeffs, state, abs_s = coeffs[live], state[live], abs_s[live]
                parent = parent[live]
            if state.shape[0] == 0:
                raise NumericalFailure(
                    f"running sum vanished before coefficient {j}; "
                    "phase chain breaks")
            cos_val = (target ** 2 - zm ** 2 - abs_s ** 2) / (2 * zm * abs_s)
            slack = tol_branch * np.maximum(1.0, target + zm + abs_s) \
                / (2 * zm * abs_s)
            feasible = np.abs(cos_val) <= 1.0 + slack
            coeffs, state = coeffs[feasible], state[feasible]
            parent = parent[feasible]
            cos_val = np.clip(cos_val[feasible], -1.0, 1.0)
            if state.shape[0] == 0:
                raise InconsistentMeasurements(
                    f"no candidate prefix survives measurement {j}")
            sin_val = np.sqrt(np.maximum(0.0, 1.0 - cos_val * cos_val))
            # the two branches lie 2 * zm * sin apart; that close, they are
            # one tangent branch, and a roundoff sin would move its leaf
            # off the grid
            sin_val[zm * sin_val <= tol_branch] = 0.0
            unit = state / np.abs(state)
            plus = zm * unit * (cos_val + 1j * sin_val)
            split = sin_val > 1e-14
            if state_real and state.shape[0] == 1 and bool(split[0]):
                split = np.zeros_like(split)  # conjugate-twin cut
            minus = zm * unit[split] * (cos_val[split] - 1j * sin_val[split])
            n_new = state.shape[0] + int(split.sum())
            if n_new > BRANCH_CAP:
                raise NumericalFailure(
                    f"phase search exceeded {BRANCH_CAP} branches")
            new_coeffs = np.concatenate([coeffs, coeffs[split]], axis=0)
            new_coeffs[: state.shape[0], j] = plus
            new_coeffs[state.shape[0]:, j] = minus
            state = np.concatenate([state + plus, state[split] + minus])
            parent = np.concatenate([parent, parent[split]])
            coeffs = new_coeffs
            if np.any(np.abs(state.imag) > tol_zero):
                state_real = False
        if state.shape[0] == 0:
            raise InconsistentMeasurements(
                f"no candidate prefix survives measurement {j}")
    return coeffs, parent


def _grid_annihilator_filter(leaves: np.ndarray, parent: np.ndarray, n: int,
                             k: int) -> tuple[np.ndarray, list[int]]:
    """Rank leaves by how well an order-k recurrence with all roots on the
    n-point unit-circle grid annihilates them.

    The leading Hankel block of a leaf holds every coefficient but the last,
    so it is factored once per prefix (see _phase_chain) and the last
    coefficient enters the recurrence linearly: p = p0 + z_last * q.

    Returns (indices of leaves whose annihilator has >= k grid roots,
    indices whose leading Hankel block was singular and need the slow path).
    """
    _, first, inv = np.unique(parent, return_index=True, return_inverse=True)
    heads = leaves[first]
    lead = np.lib.stride_tricks.sliding_window_view(
        heads[:, : 2 * k - 1], k, axis=1)
    rhs = np.zeros((heads.shape[0], k, 2), dtype=np.complex128)
    rhs[:, : k - 1, 0] = -heads[:, k: 2 * k - 1]
    rhs[:, k - 1, 1] = -1.0
    dets = np.linalg.det(lead)
    # siblings share |z_last|, so the head's scale is every sibling's
    scale = np.max(np.abs(heads), axis=1) ** k
    solvable = np.abs(dets) > 1e-13 * np.maximum(scale, 1e-300)
    sol = np.zeros((heads.shape[0], k, 2), dtype=np.complex128)
    try:
        sol[solvable] = np.linalg.solve(lead[solvable], rhs[solvable])
    except np.linalg.LinAlgError:
        # a pivot-level singularity slipped past the determinant screen;
        # redo the heads one by one and push failures to the slow path
        for h in np.where(solvable)[0]:
            try:
                sol[h] = np.linalg.solve(lead[h], rhs[h])
            except np.linalg.LinAlgError:
                solvable[h] = False
    solvable = solvable[inv]
    p = sol[inv, :, 0] + leaves[:, 2 * k - 1, None] * sol[inv, :, 1]
    p = p[solvable]
    candidates = np.empty(0, dtype=np.int64)
    if p.shape[0]:
        poly = np.concatenate([p, np.ones((p.shape[0], 1))], axis=1)
        # the polynomial at every grid point exp(-2 pi i t / n) is the
        # length-n DFT of its zero-padded coefficients
        values = np.abs(np.fft.fft(poly, n=n, axis=1))
        thresh = 1e-8 * np.maximum(1.0, values.max(axis=1, keepdims=True))
        enough = (values <= thresh).sum(axis=1) >= k
        candidates = np.where(solvable)[0][enough]
    return candidates, list(np.where(~solvable)[0])


def det_recover(scheme: DeterministicScheme, y: np.ndarray) -> ComplexSignal:
    """Invert det_measure up to global phase (times conjugate reflection)."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (scheme.n_measurements,):
        raise ValueError(
            f"need {scheme.n_measurements} measurements, got {y.shape}")
    if np.any(y < 0):
        raise ValueError("measurements must be nonnegative")
    two_k = 2 * scheme.k
    scale = float(np.max(y))
    if scale == 0:
        return ComplexSignal(np.zeros(scheme.n, dtype=np.complex128), 0)
    tol_zero = ZERO_TOL * scale
    tol_branch = BRANCH_TOL * scale
    z_mag = y[:two_k]
    sum_mag = y[two_k:]

    nonzero = np.where(z_mag > tol_zero)[0]
    if nonzero.size == 0:
        return ComplexSignal(np.zeros(scheme.n, dtype=np.complex128), 0)
    anchor = int(nonzero[0])

    leaves, parent = _phase_chain(scheme, z_mag, sum_mag, anchor, tol_zero,
                                  tol_branch)
    candidates, slow = _grid_annihilator_filter(leaves, parent, scheme.n,
                                                scheme.k)

    last_err = None
    for idx in list(candidates) + slow:
        try:
            cand = prony_solve(leaves[idx], scheme.n, scheme.k)
        except (NumericalFailure, np.linalg.LinAlgError) as exc:
            last_err = exc
            continue
        if np.max(np.abs(det_measure(scheme, cand.values) - y)) <= tol_branch:
            return cand
    if last_err is not None:
        raise NumericalFailure(f"no branch reconstructed: {last_err}")
    raise InconsistentMeasurements(
        "no branch re-measures to the given y; y was not produced by this scheme")
