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
most _CHUNK_LEAVES. At n=64 on one x86 core (BENCH_prony-stream.json),
k = 9, 10, 11 took a median 0.10, 1.0, 5.0 s. BRANCH_CAP is checked before
walking, so every k >= 12 raises NumericalFailure at once.

A leaf becomes a signal one way, annihilating-filter support recovery
(Vetterli, Marziliano, Blu, IEEE TSP 2002), which is all prony_solve does:
the annihilating polynomial is evaluated on the n-point grid of roots of
unity, the support is where its k smallest values lie, and the values are
the least-squares fit of the 2k coefficients there. The walk fits only
leaves whose k-th smallest value is far below the (k+1)-th, takes the
first fit that re-measures within BRANCH_TOL of y, and polishes it by
Gauss-Newton on the 4k-1 magnitudes.

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
BRANCH_CAP = 4 ** 10  # phase-chain leaves one recovery may walk
_CHUNK_LEAVES = 1024  # leaves filtered and solved at once
_GAP_RATIO = 1e-3     # k-th over (k+1)-th smallest |annihilator| on the grid


class PhaseUnderdetermined(ValueError):
    """|x| and |x + a| with a = 0 leave the phase of x free."""


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
    """Fixed measurement operator for (n, k); always exactly 4k-1 rows."""

    n: int
    k: int

    def __post_init__(self):
        for name in ("n", "k"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # frozen
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
    direction. They lie 2 * mag_x * sin apart; when mag_x * sin <= tol they
    are one tangent candidate on a's line (sin = 0), so that a roundoff sin
    neither splits a collinear case nor moves it off that line. Raises
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
    if mag_x * sin_val <= tol:
        return [complex(mag_x * unit * cos_val)]
    return [complex(mag_x * unit * complex(cos_val, s))
            for s in (sin_val, -sin_val)]


def prony_solve(fourier_coeffs: np.ndarray, n: int, k: int) -> ComplexSignal:
    """Recover a <=k-sparse x from its first 2k unitary DFT coefficients.

    The support is where the Hankel null vector's annihilating polynomial
    is smallest on the n-point grid, and the values are the least-squares
    fit on it. A sparser x leaves its spare support positions at round-off.
    """
    g = np.asarray(fourier_coeffs, dtype=np.complex128)
    if g.shape != (2 * k,):
        raise ValueError(f"need exactly 2k = {2 * k} coefficients, got {g.shape}")
    if k == 0 or np.max(np.abs(g)) == 0:
        return ComplexSignal(np.zeros(n, dtype=np.complex128))
    support = np.sort(np.argsort(_grid_values(_null_vectors(g, k), n))[:k])
    x = np.zeros(n, dtype=np.complex128)
    x[support] = _fit(g, support, n)[1]
    return ComplexSignal(x)


def _null_vectors(g: np.ndarray, k: int) -> np.ndarray:
    """Annihilating polynomials of g's rows, lowest coefficient first: null
    vectors of their k x (k+1) Hankel systems H[a] = g[a : a + k + 1]."""
    hankel = np.lib.stride_tricks.sliding_window_view(g, k + 1, axis=-1)
    return np.linalg.svd(hankel)[2][..., -1, :].conj()


def _grid_values(poly: np.ndarray, n: int) -> np.ndarray:
    """|P| at every grid point exp(-2 pi i t / n), where a support position
    t is a root: the length-n DFT of the zero-padded coefficients."""
    return np.abs(np.fft.fft(poly, n=n, axis=-1))


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
                 tol_branch: float):
    """Every coefficient sequence consistent with every magnitude measurement,
    yielded as (leaves, parent) chunks of at most _CHUNK_LEAVES.

    In the frame of the running sum S_{j-1}, whose magnitude is measured,
    z_j is one of resolve_phase's candidates and the minus candidate is the
    conjugate of the plus one. So each step's check, candidates and turn
    arg S_j - arg S_{j-1} depend on y alone and are resolved once, before
    the first chunk; a step's errors are raised there. A leaf's phases are
    the sum of every step's contribution (its coefficient's angle in its
    frame, and its turn, which every later coefficient inherits), and the
    minus branch of a split step negates that step's contribution. So the
    leaves are the sign vectors over the split steps. The first split is
    cut to its plus branch: its minus branch is the entrywise conjugate of
    every leaf, the twin the scheme cannot distinguish anyway. Leaf i takes
    the minus branch at the b-th remaining split when bit b of i, counted
    from the highest, is set, which is depth-first, plus-first order.
    Chunks are aligned ranges of i, so siblings (leaves with equal parent,
    differing only in the last coefficient) share a chunk.
    """
    two_k = 2 * scheme.k
    frame = np.zeros(two_k, dtype=np.complex128)  # plus z_j in S_{j-1}'s frame
    frame[anchor] = z_mag[anchor]
    turn = np.zeros(two_k)
    splits = []
    prev = float(z_mag[anchor])                   # |S_{j-1}|
    for j in range(anchor + 1, two_k):
        mag = float(z_mag[j]) if z_mag[j] > tol_zero else 0.0
        if mag > 0 and prev <= tol_zero:
            raise NumericalFailure(
                f"running sum vanished before coefficient {j}; "
                "phase chain breaks")
        cands = resolve_phase(mag, prev, float(sum_mag[j - 1]), tol_branch)
        frame[j] = cands[0]
        turn[j] = np.angle(prev + cands[0])
        if len(cands) == 2:
            splits.append(j)
        prev = float(sum_mag[j - 1])
    splits = splits[1:]  # conjugate-twin cut
    # row j: step j's share of every phase, its angle at j, its turn after j
    contrib = np.triu(np.tile(turn[:, None], two_k), 1)
    contrib += np.diag(np.angle(frame))
    base, flip = contrib.sum(axis=0), -2 * contrib[splits]
    shifts = np.arange(len(splits))[::-1]
    last = int(two_k - 1 in splits)  # siblings differ in the last bit
    mag, total = np.abs(frame), 1 << len(splits)
    for start in range(0, total, _CHUNK_LEAVES):
        i = np.arange(start, min(start + _CHUNK_LEAVES, total))
        # in place, holding only the chunk across the yield: more temporaries
        # tipped glibc's malloc into trimming and regrowing the heap per chunk
        phases = ((i[:, None] >> shifts) & 1) @ flip
        phases += base
        leaves = np.exp(1j * phases)
        del phases
        leaves *= mag
        yield leaves, i >> last


def _grid_annihilator_filter(leaves: np.ndarray, parent: np.ndarray, n: int,
                             k: int) -> tuple[np.ndarray, np.ndarray]:
    """The leaves worth fitting, and the supports (rows) their annihilating
    polynomials P read off the n-point grid: where the k smallest |P| lie.

    The leading Hankel block of a leaf holds every coefficient but the last,
    so it is factored once per prefix (see _phase_chain) and the last
    coefficient enters the recurrence linearly: p = p0 + z_last * q. Such a
    leaf is kept when its k-th smallest |P| is at most _GAP_RATIO times the
    (k+1)-th. A leaf whose leading block is singular takes its Hankel null
    vector instead and is always kept, ahead of the others: a signal
    sparser than k has no gap at order k, and is the preimage to prefer.
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
    solvable = np.abs(dets) > 1e-10 * np.maximum(scale, 1e-300)
    sol = np.zeros((heads.shape[0], k, 2), dtype=np.complex128)
    try:
        sol[solvable] = np.linalg.solve(lead[solvable], rhs[solvable])
    except np.linalg.LinAlgError:
        # a pivot-level singularity slipped past the determinant screen
        solvable[:] = False
    solvable = solvable[inv]
    poly = np.ones((leaves.shape[0], k + 1), dtype=np.complex128)
    poly[:, :k] = sol[inv, :, 0] + leaves[:, 2 * k - 1, None] * sol[inv, :, 1]
    poly[~solvable] = _null_vectors(leaves[~solvable], k)
    values = _grid_values(poly, n)
    ranked = np.sort(values, axis=1)
    gapped = ranked[:, k - 1] <= _GAP_RATIO * ranked[:, k]
    kept = np.where(~solvable | gapped)[0]
    kept = kept[np.argsort(solvable[kept], kind="stable")]
    return kept, np.sort(np.argsort(values[kept], axis=1)[:, :k], axis=1)


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

    walked = 0
    for leaves, parent in _phase_chain(scheme, z_mag, sum_mag, anchor,
                                       tol_zero, tol_branch):
        walked += leaves.shape[0]
        for idx, support in zip(*_grid_annihilator_filter(
                leaves, parent, scheme.n, scheme.k)):
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
