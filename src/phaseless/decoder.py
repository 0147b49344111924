"""The end-to-end sublinear decoder for phaseless sparse recovery.

Stages, in order:

1. identification    - candidate superset S0 from the A block.
2. estimation        - magnitude estimates on S0 from the B block;
                       S1 = largest ``top_select`` of them.
3. tail energy       - L, a guarded estimate of (1/k) * energy outside S1,
                       from rows of E whose support misses S1 entirely:
                       the median over E's bands of their scaled means.
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
arrays, and the magnitude estimates an array aligned to S0 that later
stages index through ``np.searchsorted``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .ensemble import EnsembleError, Measurements, SensingEnsemble, \
    e_inverse_density, f_inverse_density
from .signs import ClusterLabels, SignGraph, build_sign_graph, \
    recover_communities
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
    """Every band of E was hit by S1; the E row budget is misconfigured."""


@dataclass
class TailEnergyEstimate:
    L: float
    per_rep: np.ndarray          # kept bands' values, median of which is L


@dataclass
class DecodeDiagnostics:
    """Logical access counters for the decoding stages (not the sensing)."""

    y_reads: int = 0             # measurement entries read
    index_reads: int = 0         # column entries fetched
    edges_sampled: int = 0       # F rows meeting S2 in exactly two spots

    def total_touches(self) -> int:
        return self.y_reads + self.index_reads

    def as_dict(self) -> dict:
        return {"y_reads": self.y_reads, "index_reads": self.index_reads,
                "edges_sampled": self.edges_sampled}


@dataclass
class RecoveryResult:
    n: int
    indices: np.ndarray          # support of the estimate (= S2), sorted
    values: np.ndarray           # signed estimates on the support
    S0: np.ndarray
    S1: np.ndarray
    S2: np.ndarray
    tail_energy: TailEnergyEstimate | None
    labels: ClusterLabels | None  # of the summed vote graph; None if |S2| < 2
    signs_failed: bool           # |S2| > 1 and the summed graph is disconnected
    diagnostics: DecodeDiagnostics = field(default_factory=DecodeDiagnostics)

    def to_dense(self) -> np.ndarray:
        x = np.zeros(self.n)
        x[self.indices] = self.values
        return x

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "estimate": [[int(i), float(v)] for i, v in
                         zip(self.indices, self.values)],
            "S0": [int(i) for i in self.S0],
            "S1": [int(i) for i in self.S1],
            "S2": [int(i) for i in self.S2],
            "L": None if self.tail_energy is None else self.tail_energy.L,
            "L_per_rep": None if self.tail_energy is None else
                         [float(v) for v in self.tail_energy.per_rep],
            "signs_failed": self.signs_failed,
            "diagnostics": self.diagnostics.as_dict(),
        }, indent=2)


def estimate_tail_energy(ensemble: SensingEnsemble, measurements: Measurements,
                         S1: np.ndarray,
                         diagnostics: DecodeDiagnostics | None = None
                         ) -> TailEnergyEstimate:
    """Median over the bands of E of the scaled mean squared measurement of
    rows disjoint from S1.

    E's rows split into ``rep_log_n`` bands of ceil(C1 * k) rows each.
    Conditioned on missing S1, a row's squared measurement has expectation
    density * (energy outside S1), so a band's mean scaled by
    c1 / (k * density) tracks (1/k) * ||x restricted off S1||^2; that factor
    is c1 for every k >= 2, where the density is 1/k. Bands with no
    disjoint row are dropped from the median; if all of them drop,
    construction constants were too small for this S1 and estimation fails.
    """
    ensemble.check(measurements)
    cfg = ensemble.config
    scale = cfg.c1 * (e_inverse_density(ensemble.k) / ensemble.k)
    block = ensemble.blocks["E"]
    hit_rows, _, _ = block.rows_of_many(np.asarray(S1, dtype=np.int64))
    disjoint = np.ones(block.n_rows, dtype=bool)
    disjoint[hit_rows] = False
    disjoint = disjoint.reshape(cfg.rep_log_n, -1)
    yE = measurements.y[ensemble.rows("E")].reshape(disjoint.shape)
    count = disjoint.sum(axis=1)
    kept = count > 0
    if diagnostics is not None:
        diagnostics.index_reads += int(hit_rows.size)
        diagnostics.y_reads += int(count.sum())
    if not kept.any():
        raise TailEstimationError(
            f"no band of E had a row disjoint from S1 (|S1|={len(S1)}); "
            "increase C1 or rep_log_n")
    sums = np.where(disjoint, yE ** 2, 0.0).sum(axis=1)
    per_rep = scale * (sums[kept] / count[kept])
    return TailEnergyEstimate(L=float(np.median(per_rep)), per_rep=per_rep)


def prune(S1: np.ndarray, estimates: np.ndarray, L: float, k: int,
          C0: float) -> np.ndarray:
    """Keep the largest prefix of S1 (by estimated magnitude) that clears the
    level-dependent threshold  k*L / (C0 * 2^l0 * (log2(5k) - l0 + 2)^2),
    k*L times F level l0's density (``f_inverse_density``), where
    2^l0 < m <= 2^(l0+1) for prefix length m. ``S1`` is sorted and
    ``estimates`` is aligned to it. Ties at the cut are all kept. Empty
    result is legal and means the zero vector."""
    S1 = np.asarray(S1, dtype=np.int64)
    z_sorted = -np.sort(-estimates)
    l0 = np.ceil(np.log2(np.arange(1, S1.size + 1))) - 1
    threshold = k * L / f_inverse_density(k, l0, C0)
    passing = np.flatnonzero(z_sorted ** 2 > threshold)
    if passing.size == 0:
        return np.empty(0, dtype=np.int64)
    return S1[estimates >= z_sorted[passing[-1]]]


def _select_top(S0: np.ndarray, estimates: np.ndarray, cap: int) -> np.ndarray:
    """Largest ``cap`` candidates by estimate (aligned to the sorted S0);
    ties broken by lower index."""
    if S0.size <= cap:
        return S0
    return np.sort(S0[np.lexsort((S0, -estimates))[:cap]])


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

    S1 = _select_top(S0, estimates, cfg.top_select)
    tail = estimate_tail_energy(primary, measurements, S1, diagnostics)
    S2 = prune(S1, estimates[np.searchsorted(S0, S1)], tail.L, primary.k,
               cfg.C0)
    est2 = estimates[np.searchsorted(S0, S2)]

    labels, values, signs_failed = None, est2, False
    if S2.size > 1:
        graphs = [_sign_stage(ens, meas, S2, est2, diagnostics)
                  for ens, meas in zip(ensembles, y_list)]
        edges = [(g.edge_u, g.edge_v, g.weights) for g in graphs]
        graph = SignGraph(S2, *map(np.concatenate, zip(*edges)), signed=True)
        labels = recover_communities(graph)
        values = np.where(labels.isolated, 1, labels.labels) * est2
        signs_failed = not graph.connected
    return RecoveryResult(n=primary.n, indices=S2, values=values,
                          S0=S0, S1=S1, S2=S2, tail_energy=tail,
                          labels=labels, signs_failed=signs_failed,
                          diagnostics=diagnostics)
