"""Stream-defined sparse +/-1 sign blocks.

Every measurement block in the sensing ensemble is a function of a stream
key and its shape: it stores no entries, and answers "which rows touch
column j, with which signs" by recomputing column j from counter-based
splitmix64 words. The decoder asks for the few columns it needs; sensing
asks for the nonzero columns of the signal. Densities run as low as a few
parts in ten thousand, so dense storage is never built.

Both block kinds (the Bernoulli blocks here, the hash blocks in
``sketch``) answer ``entries(columns)`` with (per-column counts, rows,
signs), grouped by column in the order asked and with rows increasing
within a column; ``ColumnBlock`` builds the rest of the interface on that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_U53 = 1.0 / 9007199254740992.0  # 2**-53
_CHUNK_WORDS = 1 << 20            # stream words drawn per sampling pass
# Words a column draws first: its mean entry count plus this many standard
# deviations. Any value gives the same entries; a column that runs short
# draws more.
_SLACK_SD = 4.0


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def splitmix64(key: int, idx) -> np.ndarray:
    """Counter-mode splitmix64: word i of stream ``key`` depends only on
    (key, i), so any words can be drawn in any order."""
    return _mix64(np.uint64(key) + np.asarray(idx, dtype=np.uint64) * _GOLDEN)


def _walk(col_keys: np.ndarray, inv: float, width: int):
    """Rows reached by the first ``width`` geometric gaps of each column's
    stream, and the words that drew them; both (columns, width)."""
    u = _mix64(col_keys[:, None] + np.arange(width, dtype=np.uint64) * _GOLDEN)
    uniform = (u >> np.uint64(11)) * _U53
    gaps = 1 + np.floor(np.log1p(-uniform) * inv)
    return np.cumsum(gaps.astype(np.int64), axis=1) - 1, u


def sample_bernoulli(key: int, n_rows: int, p: float, columns):
    """Entries of the given columns of an i.i.d. Bernoulli(p) sign block.

    Column j walks its own stream, keyed by word j of the block's stream:
    each word gives a geometric gap down the rows (top 53 bits) and a sign
    (low bit). Returns (counts, rows, signs): entries per column, and the
    int32 rows and int8 signs of all entries, grouped by column in the
    order given.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"density must be in (0, 1), got {p}")
    columns = np.asarray(columns, dtype=np.int64)
    mean = n_rows * p
    width = max(1, int(mean + _SLACK_SD * math.sqrt(mean)) + 2)
    inv = 1.0 / math.log1p(-p)
    counts, rows, signs = [], [], []
    step = max(1, _CHUNK_WORDS // width)
    for lo in range(0, columns.size, step):
        keys = splitmix64(key, columns[lo:lo + step])
        at, u = _walk(keys, inv, width)
        short = np.flatnonzero(at[:, -1] < n_rows)
        w = width
        while short.size:   # rare: redraw only the short columns, wider
            w *= 2
            at_s, u_s = _walk(keys[short], inv, w)
            pad = ((0, 0), (0, w - at.shape[1]))
            at = np.pad(at, pad, constant_values=n_rows)
            u = np.pad(u, pad)
            at[short], u[short] = at_s, u_s
            short = short[at_s[:, -1] < n_rows]
        inside = at < n_rows
        counts.append(inside.sum(axis=1))
        rows.append(at[inside].astype(np.int32))
        signs.append((u[inside] & np.uint64(1)).astype(np.int8) * 2 - 1)
    if not counts:
        return (np.zeros(0, np.int64), np.zeros(0, np.int32),
                np.zeros(0, np.int8))
    return np.concatenate(counts), np.concatenate(rows), np.concatenate(signs)


def apply_signed(n_rows: int, rows: np.ndarray, signs: np.ndarray,
                 values: np.ndarray) -> np.ndarray:
    """out[q] = sum of sign * value over the entries in row q, adding in
    entry order. ``values`` is a scratch array: it is multiplied by the
    signs in place."""
    values *= signs
    return np.bincount(rows, weights=values, minlength=n_rows)


class ColumnBlock:
    """Column access and signed apply for a block that defines
    ``entries(columns)``, ``n_rows`` and ``n_cols``."""

    def rows_of_many(self, columns):
        """Concatenated (row ids, signs, owning column) over several
        columns, grouped by column in the order given.

        Cost is the number of returned entries, not the block size.
        """
        columns = np.asarray(columns, dtype=np.int64)
        counts, rows, signs = self.entries(columns)
        return rows, signs, np.repeat(columns, counts)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Signed row sums over the entries of v's nonzero columns."""
        if v.shape[0] != self.n_cols:
            raise ValueError(f"vector length {v.shape[0]} != n_cols {self.n_cols}")
        cols = np.flatnonzero(v)
        counts, rows, signs = self.entries(cols)
        return apply_signed(self.n_rows, rows, signs, np.repeat(v[cols], counts))


@dataclass
class SparseSignMatrix(ColumnBlock):
    """n_rows x n_cols block whose cells are i.i.d. Bernoulli(p), each
    nonzero with a uniform +/-1 sign, defined by its stream key.

    It holds no entries until a call needs every column (sensing a signal
    with no zero entry); that call keeps its column-major result, and
    later calls slice it instead of sampling.
    """

    key: int
    n_rows: int
    n_cols: int
    p: float
    _full: tuple | None = field(default=None, repr=False, compare=False)

    @classmethod
    def bernoulli(cls, key: int, n_rows: int, n_cols: int, p: float
                  ) -> "SparseSignMatrix":
        if not 0.0 < p < 1.0:
            raise ValueError(f"density must be in (0, 1), got {p}")
        return cls(int(key), n_rows, n_cols, float(p))

    def entries(self, columns: np.ndarray):
        """(counts, rows, signs) of the columns: sampled, or sliced from
        the kept full-width result."""
        if self._full is None:
            if columns.size < self.n_cols:
                return sample_bernoulli(self.key, self.n_rows, self.p, columns)
            counts, rows, signs = sample_bernoulli(
                self.key, self.n_rows, self.p, np.arange(self.n_cols))
            indptr = np.zeros(self.n_cols + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._full = (indptr, rows, signs)
        indptr, rows, signs = self._full
        if columns.size == self.n_cols and np.array_equal(
                columns, np.arange(self.n_cols)):
            return np.diff(indptr), rows, signs
        starts = indptr[columns]
        counts = indptr[columns + 1] - starts
        take = _ranges(starts, counts)
        return counts, rows[take], signs[take]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices [s0, s0+1, ..., s0+c0-1, s1, ...] without a Python loop."""
    keep = counts > 0
    starts = starts[keep]
    counts = counts[keep]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    boundaries = np.cumsum(counts)[:-1]
    out[boundaries] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    np.cumsum(out, out=out)
    return out
