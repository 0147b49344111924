"""The end-to-end sublinear decoder for phaseless sparse recovery.

Stages, in order:

1. identification    - candidate superset S0 from the A block.
2. estimation        - magnitude estimates on S0 from the B block;
                       S1 = largest ``top_select`` of them.
3. tail energy       - L, a guarded estimate of (1/k) * energy outside S1,
                       from the B buckets that no member of S1 hashes to:
                       the median over B's repetitions of their scaled
                       means.
4. pruning           - S2 = members of S1 whose estimated magnitude clears a
                       level-dependent threshold built from L; keeps the
                       relative-sign tests above the interference floor.
5. relative signs    - agree/differ votes on pairs of S2, read off as two
                       sign classes by one eigenvector (signs.py).
6. assembly          - signed magnitudes on S2 from one synchronization
                       over every replica's votes. ``decode`` is the
                       one-replica case. A member no vote reached keeps its
                       bare magnitude; a graph in more than one component
                       sets ``signs_failed``.

Every stage reads measurements through block slices and the columns of the
candidates, which each block recomputes from its stream, so the work after
sensing is polynomial in k and log n, not in n; the diagnostics counters
record exactly how much was touched. The candidate sets are sorted index
arrays, and each stage hands the next positions in them: S1 is S0 at the
top estimates' positions, S2 is S1 at the mask ``prune`` returns, and the
sign graph's edges are positions in S2.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .ensemble import EnsembleError, Measurements, SensingEnsemble, \
    f_inverse_density
from .signs import SignGraph, build_sign_graph, recover_communities
from .sketch import estimate_magnitudes, identify_heavy

__all__ = [
    "TailEnergyEstimate",
    "TailEstimationError",
    "DecodeDiagnostics",
    "RecoveryResult",
    "estimate_tail_energy",
    "prune",
    "decode",
    "decode_amplified",
]


class TailEstimationError(RuntimeError):
    """S1 hit every bucket of B; countsketch_rows is misconfigured."""


@dataclass
class TailEnergyEstimate:
    L: float
    per_rep: np.ndarray          # kept repetitions' values; L is their median


@dataclass
class DecodeDiagnostics:
    """Logical access counters for the decoding stages (not the sensing)."""

    y_reads: int = 0             # measurement entries read
    index_reads: int = 0         # column entries fetched
    edges_sampled: int = 0       # F rows meeting S2 in exactly two spots

    def total_touches(self) -> int:
        return self.y_reads + self.index_reads


@dataclass
class RecoveryResult:
    n: int
    values: np.ndarray           # signed estimates, aligned to S2
    S0: np.ndarray               # identified candidates, sorted
    S1: np.ndarray               # the top_select largest of S0, sorted
    S2: np.ndarray               # pruned S1: the estimate's support, sorted
    tail_energy: TailEnergyEstimate
    signs_failed: bool           # |S2| > 1 and the summed graph is disconnected
    diagnostics: DecodeDiagnostics = field(default_factory=DecodeDiagnostics)

    def to_dense(self) -> np.ndarray:
        x = np.zeros(self.n)
        x[self.S2] = self.values
        return x

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "estimate": [[int(i), float(v)] for i, v in
                         zip(self.S2, self.values)],
            "S0": [int(i) for i in self.S0],
            "S1": [int(i) for i in self.S1],
            "S2": [int(i) for i in self.S2],
            "L": self.tail_energy.L,
            "L_per_rep": [float(v) for v in self.tail_energy.per_rep],
            "signs_failed": self.signs_failed,
            "diagnostics": asdict(self.diagnostics),
        }, indent=2)


def estimate_tail_energy(ensemble: SensingEnsemble, measurements: Measurements,
                         S1: np.ndarray,
                         diagnostics: DecodeDiagnostics | None = None
                         ) -> TailEnergyEstimate:
    """Median over B's repetitions of the scaled mean squared measurement
    of the buckets that S1 misses.

    B is a count-sketch: in each repetition every coordinate falls in one
    of ``countsketch_rows`` buckets, independently of S1's. So a bucket no
    member of S1 hashes to has expected squared measurement
    (energy outside S1) / countsketch_rows, and a repetition's mean over
    such buckets, scaled by c1 * countsketch_rows / k, tracks
    (1/k) * ||x restricted off S1||^2. A repetition whose every bucket S1
    hits is dropped from the median; if all of them drop, countsketch_rows
    was too small for this S1 and estimation fails.
    """
    ensemble.check(measurements)
    block = ensemble.blocks["B"]
    hit_rows = block.bucket_rows(np.asarray(S1, dtype=np.int64))
    missed = np.ones(block.n_rows, dtype=bool)
    missed[hit_rows] = False
    missed = missed.reshape(block.reps, block.n_buckets)
    yB = measurements.y[ensemble.rows("B")].reshape(missed.shape)
    count = missed.sum(axis=1)
    kept = count > 0
    if diagnostics is not None:
        diagnostics.index_reads += int(hit_rows.size)
        diagnostics.y_reads += int(count.sum())
    if not kept.any():
        raise TailEstimationError(
            f"S1 hit every bucket of B (|S1|={len(S1)}); increase "
            "countsketch_rows")
    with np.errstate(over="ignore"):   # a y past 1e154 squares to inf
        sums = np.where(missed, yB ** 2, 0.0).sum(axis=1)
    scale = ensemble.config.c1 * block.n_buckets / ensemble.k
    per_rep = scale * (sums[kept] / count[kept])
    return TailEnergyEstimate(L=float(np.median(per_rep)), per_rep=per_rep)


def prune(estimates: np.ndarray, L: float, k: int, C0: float) -> np.ndarray:
    """Keep the largest prefix of the candidates (by estimated magnitude)
    that clears the level-dependent threshold
    k*L / (C0 * 2^l0 * (log2(5k) - l0 + 2)^2), k*L times F level l0's
    density (``f_inverse_density``), where 2^l0 < m <= 2^(l0+1) for prefix
    length m. Returns a boolean mask aligned to ``estimates``; ties at the
    cut are all kept, and an all-false mask means the zero vector."""
    z_sorted = -np.sort(-estimates)
    l0 = np.ceil(np.log2(np.arange(1, estimates.size + 1))) - 1
    threshold = k * L / f_inverse_density(k, l0, C0)
    passing = np.flatnonzero(z_sorted ** 2 > threshold)
    return estimates >= (z_sorted[passing[-1]] if passing.size else np.inf)


def _sign_stage(ensemble: SensingEnsemble, measurements: Measurements,
                S2: np.ndarray, estimates: np.ndarray,
                diagnostics: DecodeDiagnostics) -> SignGraph:
    name = ensemble.f_block(S2.size)
    graph = build_sign_graph(ensemble.blocks[name],
                             measurements.y[ensemble.rows(name)], S2, estimates)
    diagnostics.edges_sampled += graph.pair_rows
    diagnostics.y_reads += graph.pair_rows
    diagnostics.index_reads += graph.entries
    return graph


def decode(ensemble: SensingEnsemble, measurements: Measurements
           ) -> RecoveryResult:
    """Run the full pipeline on one set of measurements: the one-replica
    ``decode_amplified``."""
    return decode_amplified([ensemble], [measurements])


def decode_amplified(ensembles: list[SensingEnsemble],
                     y_list: list[Measurements]) -> RecoveryResult:
    """Run the full pipeline with one sign stage per replica, and read the
    signs off all their votes at once.

    Candidate sets, magnitudes and pruning come from the first ensemble.
    When |S2| > 1, every replica, the first included, runs the sign stage
    on S2, and all their reads are counted. A vote on (u, v) relates the
    signs of x_u and x_v whichever replica cast it, so one
    ``recover_communities`` over the summed graph gives the labels, and the
    values are labels · magnitude. A member no vote reached, a lone member
    of S2 included, keeps its bare magnitude. When the summed graph is not
    connected (an isolated member is a component of its own),
    ``signs_failed`` is set: each component takes the signs of its own
    leading eigenvector, which no vote relates to the others'.
    """
    if not ensembles or len(ensembles) != len(y_list):
        raise ValueError("need matching, nonempty ensemble and measurement lists")
    primary = ensembles[0]
    for ens, meas in zip(ensembles, y_list):
        if ens.n != primary.n:
            raise EnsembleError(f"replicas must share the signal length: "
                                f"n={ens.n} (first ensemble: n={primary.n})")
        ens.check(meas)
        if not (meas.y.min() >= 0 and np.isfinite(meas.y.max())):
            raise EnsembleError("measurements must be finite and nonnegative")
    measurements = y_list[0]
    diagnostics = DecodeDiagnostics()
    cfg = primary.config

    yA = measurements.y[primary.rows("A")]
    S0 = identify_heavy(primary.blocks["A"], cfg.heavy_K, yA)
    diagnostics.y_reads += yA.size

    estimates = estimate_magnitudes(primary.blocks["B"],
                                    measurements.y[primary.rows("B")], S0)
    diagnostics.y_reads += S0.size * cfg.countsketch_reps
    diagnostics.index_reads += S0.size * cfg.countsketch_reps

    # S0 is sorted, so a stable sort breaks ties by lower index
    top = np.sort(np.argsort(-estimates, kind="stable")[:cfg.top_select])
    S1, est1 = S0[top], estimates[top]
    tail = estimate_tail_energy(primary, measurements, S1, diagnostics)
    keep = prune(est1, tail.L, primary.k, cfg.C0)
    S2, est2 = S1[keep], est1[keep]

    values, signs_failed = est2, False
    if S2.size > 1:
        graphs = [_sign_stage(ens, meas, S2, est2, diagnostics)
                  for ens, meas in zip(ensembles, y_list)]
        edges = zip(*((g.edge_u, g.edge_v, g.weights) for g in graphs))
        graph = SignGraph(S2, *map(np.concatenate, edges), signed=True)
        values = recover_communities(graph) * est2
        signs_failed = not graph.connected
    return RecoveryResult(n=primary.n, values=values, S0=S0, S1=S1, S2=S2,
                          tail_energy=tail, signs_failed=signs_failed,
                          diagnostics=diagnostics)
