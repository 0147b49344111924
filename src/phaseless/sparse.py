"""Stream-defined sparse +/-1 sign blocks.

Every measurement block in the sensing ensemble is a function of a stream
key and its shape: it stores no entries, and answers "which rows touch
column j, with which signs" by recomputing column j from counter-based
splitmix64 words. The decoder asks for the few columns it needs; sensing
asks for the nonzero columns of the signal. Densities run as low as a few
parts in ten thousand, so dense storage is never built.

Both block kinds (the Bernoulli blocks here, the hash blocks in
``sketch``) have ``n_rows`` and ``n_cols`` and answer ``entries(columns)``,
for an int64 array of columns, with (per-column counts, rows, signs),
grouped by column in the order asked and with rows increasing within a
column; that is a block's whole interface. ``sample_bernoulli`` draws the
entries of a sequence of Bernoulli blocks, one or several, in one walk;
a block checks its density and row count once, when it is made.
``apply_blocks`` senses a signal, given as its sorted nonzero columns and
their values, through a stack of blocks in one pass, with no length-n array.
``APPLY_CHUNK`` bounds each request it makes, counted in (block, column)
pairs, so a k-sparse signal is one sampler walk for every Bernoulli block,
and sensing a dense signal, cut at every aligned range of ``APPLY_CHUNK``
columns, never holds more than one range's entries of one block in
temporaries. A range with no zero entry is asked for whole; a Bernoulli
block keeps its entries in about 17 bits each and reuses them, its rows
then in a narrower unsigned dtype than int32.
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
# The most (block, column) pairs in one request, the aligned column ranges
# ``apply_blocks`` cuts a dense signal at, and the unit in which a Bernoulli
# block keeps sampled columns.
APPLY_CHUNK = 2048
# Words a column draws first: its mean entry count plus this many standard
# deviations. Any value gives the same entries; a column that runs short
# is walked again from its first word with twice the words.
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


def splitmix64(key, idx) -> np.ndarray:
    """Counter-mode splitmix64: word i of stream ``key`` depends only on
    (key, i), so any words can be drawn in any order. An array of keys
    broadcasts against ``idx``."""
    z = np.array(idx, dtype=np.uint64)
    z *= _GOLDEN
    z = z + np.asarray(key, dtype=np.uint64)
    return _mix64(z, np.empty_like(z))


def _walk(col_keys: np.ndarray, inv, width: int):
    """Rows reached by words 0 .. ``width - 1`` of each column's stream,
    walking geometric gaps down from row -1, and the words that drew them;
    both ``col_keys.shape + (width,)``. A gap is floor(log1p(-u) * inv) + 1
    for a uniform u in [0, 1): u < 1 and inv = 1/log(1 - p) < 0 make the
    product >= 0 (+0.0 at u = 0), so the int64 cast floors it; the + 1s,
    from row -1, add i to word i after the cumulative sum."""
    idx = np.arange(width, dtype=np.uint64)
    idx *= _GOLDEN
    u = col_keys[..., None] + idx
    scratch = np.empty_like(u)
    _mix64(u, scratch)
    np.right_shift(u, _S11, out=scratch)
    g = scratch.astype(np.float64)
    g *= -_U53                        # -uniform: a power of two, so exact
    np.log1p(g, out=g)
    g *= inv
    gaps = scratch.view(np.int64)     # the shifted words are spent
    gaps[...] = g
    np.cumsum(gaps, axis=-1, out=gaps)
    gaps += np.arange(width)
    return gaps, u


def _signs(u: np.ndarray) -> np.ndarray:
    return (u & np.uint64(1)).astype(np.int8) * 2 - 1


def _draw_width(mean: float) -> int:
    return max(1, int(mean + _SLACK_SD * math.sqrt(mean)) + 2)


def sample_bernoulli(blocks, columns):
    """Entries of the given columns of a sequence of ``SparseSignMatrix``
    blocks; one walk covers every (block, column) pair.

    Column j of a block walks its own stream, keyed by word j of the
    block's stream: each word gives a geometric gap down the rows (top 53
    bits) and a sign (low bit). Returns (counts, rows, signs): entries per
    pair, and the int32 rows (within the pair's block) and int8 signs of
    all entries, grouped by block, then by column in the order given, so a
    call over several blocks returns the concatenation of their one-block
    calls. Every pair is walked at once, with as many words as the block
    with the most entries per column draws (a pair they leave above its
    block's last row is walked again), so the caller bounds the request
    (``apply_blocks`` asks for at most ``APPLY_CHUNK`` pairs). The blocks
    checked their densities and row counts when they were made.
    """
    columns = np.asarray(columns, dtype=np.int64)
    # per block: its columns' stream keys, row count and 1/log(1 - p),
    # shaped to broadcast against (block, column, word)
    width = max(_draw_width(b.n_rows * b.p) for b in blocks)
    inv = np.array([1.0 / math.log1p(-b.p) for b in blocks])[:, None, None]
    n_rows = np.array([b.n_rows for b in blocks], dtype=np.int64)[:, None, None]
    keys = splitmix64(np.array([b.key for b in blocks], dtype=np.uint64)[:, None],
                      columns)
    at, u = _walk(keys, inv, width)           # (block, col, word)
    inside = at < n_rows
    # rare: a pair still above its block's last row after its words is
    # walked again from word 0, doubling its words until it passes the row
    short = np.flatnonzero(inside[..., -1])
    inside.reshape(-1, width)[short] = False
    count = inside.sum(axis=-1).ravel()
    rows, signs = at[inside].astype(np.int32), _signs(u[inside])
    if short.size:
        owner = short // columns.size
        inv, n_rows = (a.reshape(-1)[owner, None] for a in (inv, n_rows))
        keys = keys.reshape(-1)[short]
        while True:
            width *= 2
            at, u = _walk(keys, inv, width)
            inside = at < n_rows
            if not inside[:, -1].any():
                break
        added = inside.sum(axis=1)
        before = np.repeat(np.cumsum(count)[short], added)  # its first walk's place
        rows = np.insert(rows, before, at[inside])
        signs = np.insert(signs, before, _signs(u[inside]))
        count[short] = added
    return count, rows, signs


def apply_signed(out: np.ndarray, rows: np.ndarray, signs: np.ndarray,
                 values: np.ndarray) -> None:
    """out[q] += sign * value for every entry in row q, adding in entry
    order. ``values`` is a scratch array: it is multiplied by the signs in
    place. The scatter reads int32 rows as they are."""
    values *= signs
    np.add.at(out, rows, values)


def apply_blocks(blocks, columns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Signed row sums of the blocks stacked in the order given (the first
    block's rows first) over the entries of a signal's sorted nonzero int64
    ``columns`` with their float64 ``values``; a column outside a block's
    0 .. n_cols - 1 raises ValueError.

    The columns are cut once: fewer than ``APPLY_CHUNK`` are one piece, more
    are cut at every multiple of ``APPLY_CHUNK``, one piece per aligned range
    they touch. Each hash block makes one ``entries`` request per piece, and
    the Bernoulli blocks are sampled together, as many per
    ``sample_bernoulli`` walk as keep the widest piece within ``APPLY_CHUNK``
    (block, column) pairs; a block alone in its walk makes an ``entries``
    request, which keeps a whole aligned range. Each request is scattered into
    its blocks' rows of one output; the requests go block by block, each
    block's pieces in increasing column order, so every row adds its entries
    in column order and no temporary outgrows one request's entries.
    """
    if columns.size and not 0 <= columns.min() <= columns.max() < min(
            block.n_cols for block in blocks):
        raise ValueError(f"columns {columns.min()} .. {columns.max()} are "
                         f"not all within a block's 0 .. n_cols - 1")
    start = np.cumsum([0] + [block.n_rows for block in blocks])
    out = np.zeros(start[-1])
    cuts = []   # cutting a sparse signal too would cost a walk per range
    if columns.size >= APPLY_CHUNK:
        ranges = columns // APPLY_CHUNK
        cuts = np.flatnonzero(ranges[1:] != ranges[:-1]) + 1
    pieces = (list(zip(np.split(columns, cuts), np.split(values, cuts)))
              if columns.size else [])
    bernoulli = [b for b, block in enumerate(blocks)
                 if isinstance(block, SparseSignMatrix)]
    per_walk = APPLY_CHUNK // max((cols.size for cols, _ in pieces), default=1)
    requests = ([[b] for b in range(len(blocks)) if b not in bernoulli]
                + [bernoulli[lo:lo + per_walk]
                   for lo in range(0, len(bernoulli), per_walk)])
    for group in requests:
        for cols, vals in pieces:
            if len(group) == 1:
                b, = group
                counts, rows, signs = blocks[b].entries(cols)
                apply_signed(out[start[b]:start[b + 1]], rows, signs,
                             np.repeat(vals, counts))
            else:
                counts, rows, signs = sample_bernoulli(
                    [blocks[b] for b in group], cols)
                per_block = counts.reshape(len(group), -1).sum(axis=1)
                apply_signed(out, rows + np.repeat(start[group], per_block),
                             signs, np.repeat(np.tile(vals, len(group)), counts))
    return out


@dataclass
class SparseSignMatrix:
    """n_rows x n_cols block whose cells are i.i.d. Bernoulli(p), each
    nonzero with a uniform +/-1 sign, defined by its stream key.

    It holds no entries until a call asks for exactly one aligned range
    lo .. lo + APPLY_CHUNK - 1 (lo a multiple of APPLY_CHUNK), as sensing
    a signal with no zero entry there does, and keeps that result for the
    next such request: its rows in the narrowest unsigned dtype that holds
    ``n_rows - 1``, in which a later request gets them back, and its signs
    packed one bit each. Every other call, a partial last range included,
    samples its columns.
    """

    key: int
    n_rows: int
    n_cols: int
    p: float
    _kept: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"density must be in (0, 1), got {self.p}")
        if not 1 <= self.n_rows < 2 ** 31:     # the sampler's rows are int32
            raise ValueError(f"n_rows must be in [1, 2^31), got {self.n_rows}")

    @classmethod
    def bernoulli(cls, key: int, n_rows: int, n_cols: int, p: float
                  ) -> "SparseSignMatrix":
        return cls(int(key), n_rows, n_cols, float(p))

    def entries(self, columns: np.ndarray):
        """(counts, rows, signs) of the columns: sampled, or the kept
        result when the columns are exactly one aligned range."""
        lo = int(columns[0]) if columns.size == APPLY_CHUNK else -1  # -1: none
        whole = lo % APPLY_CHUNK == 0 and np.array_equal(
            columns, np.arange(lo, lo + APPLY_CHUNK))
        kept = self._kept.get(lo) if whole else None
        if kept is not None:
            counts, rows, negative = kept
            bits = np.unpackbits(negative, count=rows.size).view(np.int8)
            return counts, rows, 1 - 2 * bits
        counts, rows, signs = sample_bernoulli([self], columns)
        if whole:
            self._kept[lo] = (counts, rows.astype(np.min_scalar_type(
                self.n_rows - 1)), np.packbits(signs < 0))
        return counts, rows, signs
