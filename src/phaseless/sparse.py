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
Its ``apply`` asks for the nonzero columns at most ``APPLY_CHUNK`` at a
time, each aligned range with no zero entry as a chunk of its own, and
scatters each chunk into one output, so sensing a dense signal never holds
more than one chunk's entries in temporaries; a Bernoulli block keeps the
entries of each aligned full chunk it is asked for, so a range with no
zero entry reuses them whatever the other ranges hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))
_U53 = 1.0 / 9007199254740992.0  # 2**-53
_CHUNK_WORDS = 1 << 20            # stream words drawn per sampling pass
# Columns per scatter in ``ColumnBlock.apply``, and the unit in which a
# Bernoulli block keeps sampled columns.
APPLY_CHUNK = 2048
# Words a column draws first: its mean entry count plus this many standard
# deviations. Any value gives the same entries; a column that runs short
# continues its walk with its next words.
_SLACK_SD = 4.0


def _mix64(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, in place on the uint64 array ``z``, using
    ``scratch`` (same shape and dtype) for the shifted words."""
    np.right_shift(z, _S30, out=scratch)
    z ^= scratch
    z *= _M1
    np.right_shift(z, _S27, out=scratch)
    z ^= scratch
    z *= _M2
    np.right_shift(z, _S31, out=scratch)
    z ^= scratch
    return z


def splitmix64(key: int, idx) -> np.ndarray:
    """Counter-mode splitmix64: word i of stream ``key`` depends only on
    (key, i), so any words can be drawn in any order."""
    z = np.array(idx, dtype=np.uint64)
    z *= _GOLDEN
    z += np.uint64(key)
    return _mix64(z, np.empty_like(z))


def _walk(col_keys: np.ndarray, inv: float, first: int, width: int, last):
    """Rows reached by words ``first`` .. ``first + width - 1`` of each
    column's stream, walking geometric gaps down from row ``last``, and the
    words that drew them; both (columns, width)."""
    idx = np.arange(first, first + width, dtype=np.uint64)
    idx *= _GOLDEN
    u = col_keys[:, None] + idx
    scratch = np.empty_like(u)
    _mix64(u, scratch)
    np.right_shift(u, _S11, out=scratch)
    g = scratch.astype(np.float64)
    g *= -_U53                        # -uniform: a power of two, so exact
    np.log1p(g, out=g)
    g *= inv
    np.floor(g, out=g)
    g += 1
    gaps = scratch.view(np.int64)     # the shifted words are spent
    gaps[...] = g
    np.cumsum(gaps, axis=1, out=gaps)
    gaps += last
    return gaps, u


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


def apply_signed(out: np.ndarray, rows: np.ndarray, signs: np.ndarray,
                 values: np.ndarray) -> None:
    """out[q] += sign * value for every entry in row q, adding in entry
    order. ``values`` is a scratch array: it is multiplied by the signs in
    place. The scatter reads int32 rows as they are."""
    values *= signs
    np.add.at(out, rows, values)


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
        """Signed row sums over the entries of v's nonzero columns.

        The columns are taken in increasing order, at most ``APPLY_CHUNK``
        at a time, and scattered into one output, so every row adds its
        entries in column order and no temporary outgrows one chunk's
        entries. Each aligned ``APPLY_CHUNK``-column range with no zero
        entry is a chunk of its own.
        """
        if v.shape[0] != self.n_cols:
            raise ValueError(f"vector length {v.shape[0]} != n_cols {self.n_cols}")
        cols = np.flatnonzero(v)
        out = np.zeros(self.n_rows)
        pieces = [cols]
        if cols.size >= APPLY_CHUNK:
            # cut around each aligned range whose columns are all nonzero,
            # so it is asked for whole; fewer columns fill no such range
            first = np.searchsorted(cols, np.arange(0, self.n_cols, APPLY_CHUNK))
            full = first[np.diff(first, append=cols.size) == APPLY_CHUNK]
            pieces = np.split(cols, np.union1d(full, full + APPLY_CHUNK))
        for piece in pieces:
            for lo in range(0, piece.size, APPLY_CHUNK):
                chunk = piece[lo:lo + APPLY_CHUNK]
                counts, rows, signs = self.entries(chunk)
                apply_signed(out, rows, signs, np.repeat(v[chunk], counts))
        return out


@dataclass
class SparseSignMatrix(ColumnBlock):
    """n_rows x n_cols block whose cells are i.i.d. Bernoulli(p), each
    nonzero with a uniform +/-1 sign, defined by its stream key.

    It holds no entries until a call asks for exactly the columns
    lo .. lo + APPLY_CHUNK - 1 of an aligned chunk (lo a multiple of
    APPLY_CHUNK), as sensing a signal whose nonzero columns cover that
    chunk does; that call keeps its result for the next request of the same
    chunk. Every other call, a partial last chunk included, samples its
    columns.
    """

    key: int
    n_rows: int
    n_cols: int
    p: float
    _kept: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def bernoulli(cls, key: int, n_rows: int, n_cols: int, p: float
                  ) -> "SparseSignMatrix":
        if not 0.0 < p < 1.0:
            raise ValueError(f"density must be in (0, 1), got {p}")
        return cls(int(key), n_rows, n_cols, float(p))

    def entries(self, columns: np.ndarray):
        """(counts, rows, signs) of the columns: sampled, or the kept
        result when the columns are exactly one aligned full chunk."""
        lo = int(columns[0]) if columns.size == APPLY_CHUNK else -1  # -1: none
        if lo % APPLY_CHUNK or not np.array_equal(
                columns, np.arange(lo, lo + APPLY_CHUNK)):
            return sample_bernoulli(self.key, self.n_rows, self.p, columns)
        kept = self._kept.get(lo)
        if kept is None:
            kept = self._kept[lo] = sample_bernoulli(self.key, self.n_rows,
                                                     self.p, columns)
        return kept
