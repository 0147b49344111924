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
5. relative signs    - sign-class bisection of S2 (signs.py).
6. assembly          - signed magnitudes on S2, un-flipping the ensemble's
                       D at the very end.

Every stage reads measurements through block slices and the columns of the
candidates, which each block recomputes from its stream, so the work after
sensing is polynomial in k and log n, not in n; the diagnostics counters
record exactly how much was touched. The candidate sets are sorted index
arrays, and the magnitude estimates an array aligned to S0 that later
stages index through ``np.searchsorted``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import Measurements, SensingEnsemble
from .signs import ClusterLabels, SignGraph, assign_signs, build_sign_graph, \
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
    n_excluded: int = 0          # bands of E with no disjoint row


@dataclass
class DecodeDiagnostics:
    """Logical access counters for the decoding stages (not the sensing)."""

    y_reads: int = 0             # measurement entries read
    index_reads: int = 0         # column entries fetched
    rows_touched: int = 0        # measurement rows used in some estimate/test
    edges_sampled: int = 0       # F rows meeting S2 in exactly two spots

    def total_touches(self) -> int:
        return self.y_reads + self.index_reads

    def as_dict(self) -> dict:
        return {"y_reads": self.y_reads, "index_reads": self.index_reads,
                "rows_touched": self.rows_touched,
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
    labels: ClusterLabels | None
    signs_failed: bool
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
    cfg = ensemble.config
    scale = cfg.c1 * (max(ensemble.k, 2) / ensemble.k)   # E density 1/max(k, 2)
    block = ensemble.blocks["E"]
    hit_rows, _, _ = block.rows_of_many(np.asarray(S1, dtype=np.int64))
    disjoint = np.ones(block.n_rows, dtype=bool)
    disjoint[hit_rows] = False
    disjoint = disjoint.reshape(cfg.rep_log_n, -1)
    yE = measurements.block("E").reshape(disjoint.shape)
    count = disjoint.sum(axis=1)
    kept = count > 0
    if diagnostics is not None:
        diagnostics.index_reads += int(hit_rows.size)
        diagnostics.y_reads += int(count.sum())
        diagnostics.rows_touched += int(count.sum())
    if not kept.any():
        raise TailEstimationError(
            f"no band of E had a row disjoint from S1 (|S1|={len(S1)}); "
            "increase C1 or rep_log_n")
    sums = np.where(disjoint, yE ** 2, 0.0).sum(axis=1)
    per_rep = scale * (sums[kept] / count[kept])
    return TailEnergyEstimate(L=float(np.median(per_rep)), per_rep=per_rep,
                              n_excluded=int(np.sum(~kept)))


def prune(S1: np.ndarray, estimates: np.ndarray, L: float, k: int,
          C0: float) -> np.ndarray:
    """Keep the largest prefix of S1 (by estimated magnitude) that clears the
    level-dependent threshold  k*L / (C0 * 2^l0 * (log2(5k) - l0 + 2)^2),
    where 2^l0 < m <= 2^(l0+1) for prefix length m. ``S1`` is sorted and
    ``estimates`` is aligned to it. Ties at the cut are all kept. Empty
    result is legal and means the zero vector."""
    S1 = np.asarray(S1, dtype=np.int64)
    z_sorted = -np.sort(-estimates)
    l0 = np.ceil(np.log2(np.arange(1, S1.size + 1))) - 1
    threshold = k * L / (C0 * 2.0 ** l0 * (math.log2(5 * k) - l0 + 2) ** 2)
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
                diagnostics: DecodeDiagnostics
                ) -> tuple[ClusterLabels | None, SignGraph | None, bool]:
    if S2.size == 0:
        return None, None, False
    if S2.size == 1:
        return ClusterLabels(np.ones(1, dtype=np.int64), flagged=True), None, False
    level, name = ensemble.f_block(S2.size)
    graph = build_sign_graph(ensemble.blocks[name], measurements.block(name),
                             S2, estimates, level=level)
    diagnostics.edges_sampled += graph.pair_rows
    diagnostics.y_reads += graph.pair_rows
    diagnostics.rows_touched += graph.pair_rows
    diagnostics.index_reads += graph.entries
    try:
        labels = recover_communities(graph)
    except Exception:
        return None, graph, True
    return labels, graph, labels.flagged and graph.n_edges == 0


def decode(ensemble: SensingEnsemble, measurements: Measurements
           ) -> RecoveryResult:
    """Run the full pipeline on one set of measurements."""
    diagnostics = DecodeDiagnostics()
    cfg = ensemble.config

    yA = measurements.block("A")
    S0 = identify_heavy(ensemble.blocks["A"], cfg.heavy_K, yA)
    diagnostics.y_reads += yA.size
    diagnostics.rows_touched += yA.size

    estimates = estimate_magnitudes(ensemble.blocks["B"], measurements.block("B"), S0)
    diagnostics.y_reads += S0.size * cfg.countsketch_reps
    diagnostics.index_reads += S0.size * cfg.countsketch_reps
    diagnostics.rows_touched += S0.size * cfg.countsketch_reps

    S1 = _select_top(S0, estimates, cfg.top_select)
    tail = estimate_tail_energy(ensemble, measurements, S1, diagnostics)
    S2 = prune(S1, estimates[np.searchsorted(S0, S1)], tail.L, ensemble.k,
               cfg.C0)
    est2 = estimates[np.searchsorted(S0, S2)]

    labels, _, signs_failed = _sign_stage(ensemble, measurements, S2, est2,
                                          diagnostics)
    if S2.size == 0:
        indices = S2
        values = np.empty(0)
    elif labels is None or signs_failed:
        # sign stage failed: report bare magnitudes, flagged, no sign games
        indices = S2
        values = est2
        signs_failed = True
    else:
        indices, values = assign_signs(labels, est2, S2)
        values = values * ensemble.D[indices]  # undo the sensing-side flip
    return RecoveryResult(n=ensemble.n, indices=indices, values=values,
                          S0=S0, S1=S1, S2=S2, tail_energy=tail,
                          labels=labels, signs_failed=signs_failed,
                          diagnostics=diagnostics)


def decode_amplified(ensembles: list[SensingEnsemble],
                     y_list: list[Measurements]) -> RecoveryResult:
    """Majority-vote variant: candidate sets, magnitudes and pruning come
    from the first ensemble; every ensemble casts one vote per coordinate
    for its relative sign against the anchor, the largest-magnitude member
    of S2. The first ensemble votes with the labels ``decode`` found; each
    other one runs the sign stage on S2, and its reads are counted too.

    Votes are cast in signal space: each replica's label pair is un-flipped
    by that replica's own D before voting, so replicas with different D
    agree on what they are voting about.
    """
    if not ensembles or len(ensembles) != len(y_list):
        raise ValueError("need matching, nonempty ensemble and measurement lists")
    primary = ensembles[0]
    base = decode(primary, y_list[0])
    S2 = base.S2
    if S2.size <= 1 or base.labels is None:
        return base
    mags = np.abs(base.values)               # base.indices is S2
    anchor = int(np.argmax(mags))            # position of the anchor in S2

    diagnostics = base.diagnostics
    voters = [(primary, base.labels)]
    for ens, meas in zip(ensembles[1:], y_list[1:]):
        labels, _, _ = _sign_stage(ens, meas, S2, mags, diagnostics)
        if labels is not None:
            voters.append((ens, labels))
    votes = np.zeros(S2.size)
    for ens, labels in voters:
        signed = ens.D[S2] * labels.labels
        votes += signed * signed[anchor]
    rel_signs = np.where(votes >= 0, 1, -1)
    return RecoveryResult(n=primary.n, indices=S2, values=rel_signs * mags,
                          S0=base.S0, S1=base.S1, S2=S2,
                          tail_energy=base.tail_energy, labels=base.labels,
                          signs_failed=False, diagnostics=diagnostics)
