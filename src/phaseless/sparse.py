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
# continues its walk with its next words.
_SLACK_SD = 4.0


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def splitmix64(key: int, idx) -> np.ndarray:
    """Counter-mode splitmix64: word i of stream ``key`` depends only on
    (key, i), so any words can be drawn in any order."""
    return _mix64(np.uint64(key) + np.asarray(idx, dtype=np.uint64) * _GOLDEN)


def _walk(col_keys: np.ndarray, inv: float, first: int, width: int, last):
    """Rows reached by words ``first`` .. ``first + width - 1`` of each
    column's stream, walking geometric gaps down from row ``last``, and the
    words that drew them; both (columns, width)."""
    idx = np.arange(first, first + width, dtype=np.uint64)
    u = _mix64(col_keys[:, None] + idx * _GOLDEN)
    uniform = (u >> np.uint64(11)) * _U53
    gaps = 1 + np.floor(np.log1p(-uniform) * inv)
    return np.cumsum(gaps.astype(np.int64), axis=1) + last, u


def _signs(u: np.ndarray) -> np.ndarray:
    return (u & np.uint64(1)).astype(np.int8) * 2 - 1


def _draw_width(mean: float) -> int:
    return max(1, int(mean + _SLACK_SD * math.sqrt(mean)) + 2)


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
    width = _draw_width(n_rows * p)
    inv = 1.0 / math.log1p(-p)
    counts, rows, signs = [], [], []
    step = max(1, _CHUNK_WORDS // width)
    for lo in range(0, columns.size, step):
        keys = splitmix64(key, columns[lo:lo + step])
        at, u = _walk(keys, inv, 0, width, -1)
        inside = at < n_rows
        count = inside.sum(axis=1)
        r = at[inside].astype(np.int32)
        s = _signs(u[inside])
        # rare: a column still above the last row continues its walk from
        # its last row with its next words
        short = np.flatnonzero(inside[:, -1])
        last, word = at[short, -1:], width
        more_cols, more_rows, more_signs = [], [], []
        while short.size:
            w = _draw_width((n_rows - 1 - last.min()) * p)
            at, u = _walk(keys[short], inv, word, w, last)
            inside = at < n_rows
            more_cols.append(np.repeat(short, inside.sum(axis=1)))
            more_rows.append(at[inside])
            more_signs.append(u[inside])
            keep = inside[:, -1]
            short, last, word = short[keep], at[keep, -1:], word + w
        if more_cols:
            cols = np.concatenate(more_cols)
            order = np.argsort(cols, kind="stable")   # by column, walk order
            before = np.cumsum(count)[cols[order]]   # end of each main walk
            r = np.insert(r, before, np.concatenate(more_rows)[order])
            s = np.insert(s, before, _signs(np.concatenate(more_signs)[order]))
            count += np.bincount(cols, minlength=count.size)
        counts.append(count)
        rows.append(r)
        signs.append(s)
    if not counts:
        return (np.zeros(0, np.int64), np.zeros(0, np.int32),
                np.zeros(0, np.int8))
    return np.concatenate(counts), np.concatenate(rows), np.concatenate(signs)


def apply_signed(n_rows: int, rows: np.ndarray, signs: np.ndarray,
                 values: np.ndarray) -> np.ndarray:
    """out[q] = sum of sign * value over the entries in row q, adding in
    entry order. ``values`` is a scratch array: it is multiplied by the
    signs in place. The scatter reads int32 rows as they are."""
    values *= signs
    out = np.zeros(n_rows)
    np.add.at(out, rows, values)
    return out


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

    It holds no entries until a call asks for every column in order
    (sensing a signal with no zero entry); that call keeps its result for
    the next such call. Every other call samples its columns.
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
        """(counts, rows, signs) of the columns: sampled, or the kept
        result when the columns are exactly 0 .. n_cols - 1."""
        if columns.size != self.n_cols or not np.array_equal(
                columns, np.arange(self.n_cols)):
            return sample_bernoulli(self.key, self.n_rows, self.p, columns)
        if self._full is None:
            self._full = sample_bernoulli(self.key, self.n_rows, self.p, columns)
        return self._full
