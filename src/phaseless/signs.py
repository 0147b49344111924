"""Relative-sign recovery over the pruned candidate set.

Each row of the selected F level whose support meets the candidate set in
exactly two coordinates {u, v} is a noisy probe of whether x_u and x_v share
a sign: with matching row signs, |y| lands nearer |est_u + est_v| when the
coordinates agree and nearer |est_u - est_v| when they differ (and the other
way around for opposite row signs). Rows that pass the test become edges of
an undirected multigraph on the candidate set; agreeing pairs pass more
often than disagreeing ones, so the two sign classes appear as the two
communities of the graph.

Community recovery is spectral bisection (power iteration on the centered
weighted adjacency) followed by weighted local-majority sweeps to a
fixpoint. The returned labels are arbitrary up to a global flip, which is
all the magnitude-only model can promise anyway.

The candidate set is a sorted index array; its magnitude estimates and the
returned labels are arrays aligned to it, and edge endpoints are mapped to
positions with ``np.searchsorted``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sparse import ColumnBlock

__all__ = [
    "SignGraph",
    "ClusterLabels",
    "build_sign_graph",
    "recover_communities",
    "assign_signs",
]

POWER_TOL = 1e-8
MAX_REFINE_SWEEPS = 50


@dataclass
class SignGraph:
    vertices: np.ndarray          # candidate coordinates (sorted)
    edge_u: np.ndarray            # per distinct edge, smaller endpoint
    edge_v: np.ndarray            # per distinct edge, larger endpoint
    weights: np.ndarray           # multiplicity of each edge
    level: int                    # F level exponent the rows came from
    pair_rows: int = 0            # rows whose support met the set in exactly 2
    entries: int = 0              # column entries fetched for the set

    @property
    def n_edges(self) -> int:
        return int(self.weights.sum())


@dataclass
class ClusterLabels:
    labels: np.ndarray            # +1 / -1 per vertex, aligned to the vertices
    flagged: bool = False         # isolated vertices or degenerate spectrum


def build_sign_graph(F_block: ColumnBlock, yF: np.ndarray,
                     S2: np.ndarray, estimates: np.ndarray,
                     level: int = -1) -> SignGraph:
    """Run the same-sign test on every row meeting S2 in exactly two spots.

    ``S2`` is sorted and ``estimates`` holds its magnitude estimates,
    aligned to it.
    """
    S2 = np.asarray(S2, dtype=np.int64)
    if S2.size < 2:
        return SignGraph(S2, np.empty(0, np.int64), np.empty(0, np.int64),
                         np.empty(0, np.int64), level, 0)
    rows, sigs, owners = F_block.rows_of_many(S2)
    n_entries = int(rows.size)
    hits = np.bincount(rows, minlength=F_block.n_rows)
    pair_entry = hits[rows] == 2
    rows, sigs, owners = rows[pair_entry], sigs[pair_entry], owners[pair_entry]
    order = np.argsort(rows, kind="stable")
    rows, sigs, owners = rows[order], sigs[order], owners[order]
    u, v = owners[0::2], owners[1::2]
    su, sv = sigs[0::2], sigs[1::2]
    yq = yF[rows[0::2]]
    eu = estimates[np.searchsorted(S2, u)]
    ev = estimates[np.searchsorted(S2, v)]
    d_same = np.abs(yq - (eu + ev))
    d_diff = np.abs(yq - np.abs(eu - ev))
    add = np.where(su == sv, d_same < d_diff, d_same > d_diff)
    n_pair_rows = int(u.size)
    u, v = u[add], v[add]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if lo.size:
        key = lo * np.int64(F_block.n_cols) + hi
        uniq, w = np.unique(key, return_counts=True)
        lo = uniq // F_block.n_cols
        hi = uniq % F_block.n_cols
    else:
        w = np.empty(0, np.int64)
    return SignGraph(S2, lo, hi, w, level, n_pair_rows, n_entries)


def _adjacency(g: SignGraph) -> np.ndarray:
    i = np.searchsorted(g.vertices, g.edge_u)
    j = np.searchsorted(g.vertices, g.edge_v)
    W = np.zeros((g.vertices.size, g.vertices.size))
    np.add.at(W, (np.r_[i, j], np.r_[j, i]), np.r_[g.weights, g.weights])
    return W


def recover_communities(g: SignGraph) -> ClusterLabels:
    """Bisect the graph into the two sign classes.

    Deterministic given the graph: power iteration starts from one fixed
    random vector. Isolated vertices default to +1 and flag the result as
    low-confidence.
    """
    n = g.vertices.size
    if n == 0:
        raise ValueError("empty vertex set")
    if n == 1:
        return ClusterLabels(np.ones(1, dtype=np.int64), flagged=True)
    W = _adjacency(g)
    degree = W.sum(axis=1)
    isolated = degree == 0
    flagged = bool(isolated.any())

    mean_w = W.sum() / (n * n)
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    max_iter = max(8, math.ceil(10 * math.log2(n)))
    for _ in range(max_iter):
        nxt = W @ v - mean_w * v.sum()
        norm = np.linalg.norm(nxt)
        if norm == 0:
            break
        nxt /= norm
        if min(np.linalg.norm(nxt - v), np.linalg.norm(nxt + v)) < POWER_TOL:
            v = nxt
            break
        v = nxt
    labels = np.where(v >= 0, 1, -1).astype(np.int64)

    for _ in range(MAX_REFINE_SWEEPS):
        changed = False
        for i in range(n):
            s = W[i] @ labels
            if s > 0 and labels[i] < 0:
                labels[i] = 1
                changed = True
            elif s < 0 and labels[i] > 0:
                labels[i] = -1
                changed = True
        if not changed:
            break
    labels[isolated] = 1
    return ClusterLabels(labels, flagged=flagged)


def assign_signs(labels: ClusterLabels, estimates: np.ndarray,
                 S2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed sparse estimate on S2: value_i = label_i * |est_i|, with the
    labels and estimates both aligned to S2.

    Global orientation is arbitrary; both are accepted downstream.
    """
    return np.asarray(S2, dtype=np.int64), labels.labels * estimates
