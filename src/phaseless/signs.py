"""Relative-sign recovery over the pruned candidate set.

Each row of the selected F level whose support meets the candidate set in
exactly two coordinates {u, v} is a noisy probe of whether x_u and x_v share
a sign: with matching row signs, |y| lands nearer |est_u + est_v| when the
coordinates agree and nearer |est_u - est_v| when they differ (and the other
way around for opposite row signs). Every decisive row casts one vote on
the pair, +1 for agree and -1 for differ; a tie casts none. The votes form
a signed multigraph on the candidate set, and reading the two sign classes
off it is Z2 synchronization: the labels are the signs of the leading
eigenvector of the summed vote matrix, followed by one local-majority
sweep. An unsigned graph (edges only, no votes) is bisected the same way
after centring its adjacency. The returned labels are arbitrary up to a
global flip, which is all the magnitude-only model can promise anyway, and
they relate two vertices only when the graph connects them
(``SignGraph.connected``).

The candidate set is a sorted index array; its magnitude estimates and the
returned labels are arrays aligned to it, and an edge's endpoints are
positions in it, which the vote matrix indexes directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SignGraph",
    "build_sign_graph",
    "recover_communities",
]


@dataclass
class SignGraph:
    vertices: np.ndarray          # candidate coordinates (sorted)
    edge_u: np.ndarray            # per edge, one endpoint's vertex position
    edge_v: np.ndarray            # per edge, the other endpoint's position
    weights: np.ndarray           # per edge; repeated pairs add up
    pair_rows: int = 0            # rows whose support met the set in exactly 2
    entries: int = 0              # column entries fetched for the set
    signed: bool = False          # weights are votes: +1 agree, -1 differ

    @property
    def n_edges(self) -> int:
        return int(np.abs(self.weights).sum())

    @cached_property
    def W(self) -> np.ndarray:
        """(|V|, |V|) symmetric vote matrix: the summed weight of each pair,
        both ways round."""
        m = self.vertices.size
        W = np.bincount(self.edge_u * m + self.edge_v, self.weights,
                        minlength=m * m).reshape(m, m)
        return W + W.T

    @cached_property
    def reach(self) -> np.ndarray:
        """(|V|, |V|) booleans: u reaches v over pairs whose summed weight
        is nonzero, and an isolated vertex only itself. Boolean
        reachability: ceil(log2 |V|) squarings of (W != 0) | I."""
        m = self.vertices.size
        reach = (self.W != 0) | np.eye(m, dtype=bool)
        for _ in range((m - 1).bit_length()):
            reach = reach @ reach
        return reach

    @property
    def connected(self) -> bool:
        """Every vertex reaches every other; an isolated vertex is a
        component of its own."""
        return bool(self.reach.all())


def build_sign_graph(F_block, yF: np.ndarray, S2: np.ndarray,
                     estimates: np.ndarray) -> SignGraph:
    """Vote on the relative sign of every pair that a row meets S2 in.

    ``S2`` is sorted and ``estimates`` holds its magnitude estimates,
    aligned to it. The edges are positions in S2.
    """
    S2 = np.asarray(S2, dtype=np.int64)
    counts, rows, sigs = F_block.entries(S2)
    hits = np.bincount(rows, minlength=F_block.n_rows)
    pair_entry = np.flatnonzero(hits[rows] == 2)
    order = pair_entry[np.argsort(rows[pair_entry], kind="stable")]
    owners = np.repeat(np.arange(S2.size), counts)[order]   # S2 positions
    pu, pv = owners[0::2], owners[1::2]
    yq = yF[rows[order[0::2]]]
    eu, ev = estimates[pu], estimates[pv]
    d_same = np.abs(yq - (eu + ev))
    d_diff = np.abs(yq - np.abs(eu - ev))
    sigs = sigs[order]
    vote = (np.sign(d_diff - d_same) * sigs[0::2] * sigs[1::2]).astype(np.int64)
    cast = vote != 0
    return SignGraph(S2, pu[cast], pv[cast], vote[cast], int(pu.size),
                     int(rows.size), signed=True)


def _leading_signs(M: np.ndarray) -> np.ndarray:
    return np.where(np.linalg.eigh(M)[1][:, -1] >= 0, 1, -1)


def recover_communities(g: SignGraph) -> np.ndarray:
    """Split the vertices into the two sign classes: +1 / -1 labels,
    aligned to the vertices.

    The labels are the signs of the leading eigenvector of the vote matrix
    W (of W minus its mean entry for an unsigned graph, whose classes show
    only as denser blocks), then one sweep that sets each vertex to the
    sign of its weighted neighbours' labels where that is not a tie.
    Centring a signed graph would remove exactly its "all one sign"
    direction. A disconnected signed graph takes one eigenvector per
    component, so each component's labels agree with its own votes; how
    two components relate is not determined. A vertex whose row of W is
    zero is isolated: it defaults to +1. Deterministic given the graph.
    """
    n = g.vertices.size
    if n == 0:
        raise ValueError("empty vertex set")
    W = g.W
    if g.signed:
        # no vote relates two components, and W's leading eigenvector is
        # zero off one of them: read each component on its own
        M, first = W, g.reach.argmax(axis=1)   # lowest vertex it reaches
    else:
        M, first = W - W.sum() / (n * n), np.zeros(n, np.int64)
    labels = np.empty(n, np.int64)
    for c in np.flatnonzero(first == np.arange(n)):   # components' lowest
        part = np.flatnonzero(first == c)
        labels[part] = _leading_signs(M[part[:, None], part])
    field = W @ labels
    labels = np.where(field > 0, 1, np.where(field < 0, -1, labels))
    labels[~W.any(axis=1)] = 1
    return labels

