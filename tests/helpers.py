"""Shared test utilities: dense oracles, planted-signal generators, SBM."""

from __future__ import annotations

import math

import numpy as np

from phaseless.signs import SignGraph
from phaseless.sparse import ColumnBlock


def block_entries(block):
    """Every column's (rows, signs, owners), read through rows_of_many."""
    return block.rows_of_many(np.arange(block.n_cols))


def dense_block(block):
    """Materialize a block for oracle comparisons from its column entries."""
    rows, signs, owners = block_entries(block)
    out = np.zeros((block.n_rows, block.n_cols))
    out[rows, owners] = signs
    return out


class ListBlock(ColumnBlock):
    """A block given entry by entry, for hand-built test cases."""

    def __init__(self, n_rows, n_cols, rows, cols, signs):
        self.n_rows, self.n_cols = n_rows, n_cols
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.signs = np.asarray(signs, dtype=np.int8)

    def entries(self, columns):
        picked = [np.flatnonzero(self.cols == c) for c in columns]
        picked = [p[np.argsort(self.rows[p], kind="stable")] for p in picked]
        take = np.concatenate(picked) if picked else np.empty(0, np.int64)
        counts = np.array([p.size for p in picked], dtype=np.int64)
        return counts, self.rows[take], self.signs[take]


def dense_det_matrix(n: int, k: int) -> np.ndarray:
    """The deterministic scheme's full (4k-1) x n matrix, built directly."""
    F = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / math.sqrt(n)
    rows = [F[a] for a in range(2 * k)]
    rows += [F[: a + 1].sum(axis=0) for a in range(1, 2 * k)]
    return np.array(rows)


def spikes_plus_tail(rng, n, k, ratio=100.0, tail_norm=1.0):
    """k strong spikes over a normalized Gaussian tail; returns (x, support)."""
    x = np.zeros(n)
    pos = rng.choice(n, k, replace=False)
    mags = 10.0 ** rng.uniform(0, 1, k)
    mags *= math.sqrt(ratio * tail_norm ** 2 / np.sum(mags ** 2))
    x[pos] = mags * rng.choice([-1.0, 1.0], k)
    off = np.ones(n, bool)
    off[pos] = False
    g = rng.standard_normal(n - k)
    x[off] = g / np.linalg.norm(g) * tail_norm
    return x, np.sort(pos)


def exact_sparse(rng, n, k):
    x = np.zeros(n)
    pos = rng.choice(n, k, replace=False)
    x[pos] = 10.0 ** rng.uniform(0, 1, k) * rng.choice([-1.0, 1.0], k)
    return x, np.sort(pos)


def random_complex_sparse(rng, n, k):
    x = np.zeros(n, dtype=np.complex128)
    pos = rng.choice(n, k, replace=False)
    x[pos] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return x, np.sort(pos)


def tail_sq(x, k):
    a = np.sort(np.abs(x))[::-1]
    return float(np.sum(a[k:] ** 2))


def sample_sbm(N: int, a: float, b: float, rng) -> tuple[SignGraph, np.ndarray]:
    """Two-community stochastic block model at edge rates a,b * log(N)/N."""
    labels = rng.choice([-1, 1], N)
    logn = math.log(N)
    iu, ju = np.triu_indices(N, k=1)
    p = np.where(labels[iu] == labels[ju], a * logn / N, b * logn / N)
    keep = rng.random(iu.size) < p
    u, v = iu[keep].astype(np.int64), ju[keep].astype(np.int64)
    graph = SignGraph(np.arange(N), u, v, np.ones(u.size, dtype=np.int64),
                      level=-1)
    return graph, labels


def bisection_accuracy(labels_out, truth: np.ndarray) -> float:
    pred = labels_out.labels
    agree = float(np.mean(pred == truth))
    return max(agree, 1.0 - agree)
