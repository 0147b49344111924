"""Heavy-hitter identification and magnitude estimation from magnitudes only.

Identification block (A). For each repetition, every coordinate is hashed
into a bucket and given a random sign. A bucket contributes 2b+1 measurement
rows (b = index bits): one over all its members, and for each bit position
one over members with that bit 0 and one with that bit 1. When a single
coordinate dominates its bucket, each bit of its index is recovered by
comparing the two sub-bucket magnitudes, so identification never looks at
signs - which is what makes the scheme usable when only |Phi x| is observed.
A candidate is kept only if its assembled index actually hashes back to the
bucket it was decoded from; more than 2K survivors are ranked by the median
over repetitions of their whole-bucket magnitudes and cut to 2K.

Estimation block (B). Plain bucket/sign hashing, several repetitions. The
candidates are known before estimation, so this is a set query (Price,
"Efficient sketches for the set query problem", SODA 2011): the estimate
of |x_i| is the median of the magnitude of i's bucket over the repetitions
in which no other candidate hashes to that bucket, or over all of them
when there is no such repetition. A bucket two candidates share is
evidence about neither: read, it would give a light candidate its heavy
neighbour's magnitude. The median of magnitudes (rather than of signed
values) is the phaseless-compatible variant and estimates |x_i| rather
than x_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse import splitmix64

__all__ = [
    "HashBlock",
    "SketchError",
    "build_hh_block",
    "build_countsketch_block",
    "identify_heavy",
    "estimate_magnitudes",
    "median",
]

CANDIDATE_CAP_FACTOR = 2  # |S0| <= this * K


class SketchError(ValueError):
    pass


@dataclass
class HashBlock:
    """Bucket/sign hash block, defined by its stream key.

    In repetition r, column i falls in bucket h = u % n_buckets with sign
    from bit 63 of u, where u is word r*n_cols + i of the key's stream.
    B's bucket count is a power of two, so its bucket is u's low bits; the
    sign takes the top bit, which leaves it independent of the bucket, as
    count-sketch needs.
    Each bucket owns ``stride`` consecutive rows, repetitions laid out one
    after another: with n_bits = 0 (the B block) just the bucket; with
    n_bits > 0 (the A block) [whole bucket, bit0=0, bit0=1, bit1=0, ...],
    where column i sits in the whole-bucket row and in one row per bit of
    its index.
    """

    key: int
    n_cols: int
    n_buckets: int
    reps: int
    n_bits: int = 0

    @property
    def stride(self) -> int:
        return 2 * self.n_bits + 1

    @property
    def n_rows(self) -> int:
        return self.reps * self.n_buckets * self.stride

    def _words(self, columns: np.ndarray, reps: np.ndarray) -> np.ndarray:
        return splitmix64(self.key, columns + reps * self.n_cols)

    def hash(self, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(len(columns), reps) bucket ids and +/-1 signs."""
        columns = np.asarray(columns, dtype=np.int64)
        u = self._words(columns[:, None], np.arange(self.reps))
        buckets = (u % np.uint64(self.n_buckets)).astype(np.int64)
        signs = (u >> np.uint64(63)).astype(np.int8) * 2 - 1
        return buckets, signs

    def bucket_in(self, columns: np.ndarray, reps: np.ndarray) -> np.ndarray:
        """Bucket of each column in the repetition beside it, one word each."""
        u = self._words(columns, reps)
        return (u % np.uint64(self.n_buckets)).astype(np.int64)

    def bucket_rows(self, columns: np.ndarray) -> np.ndarray:
        """Row of each column's whole bucket in every repetition."""
        reps = np.arange(self.reps)
        return (reps * self.n_buckets
                + self.bucket_in(columns[:, None], reps)) * self.stride

    def entries(self, columns: np.ndarray):
        buckets, signs = self.hash(columns)
        per_rep = np.zeros((columns.size, self.n_bits + 1), dtype=np.int64)
        bits = (columns[:, None] >> np.arange(self.n_bits)) & 1
        per_rep[:, 1:] = 1 + 2 * np.arange(self.n_bits) + bits
        base = (np.arange(self.reps) * self.n_buckets + buckets) * self.stride
        rows = base[:, :, None] + per_rep[:, None, :]
        width = self.reps * (self.n_bits + 1)
        return (np.full(columns.size, width, dtype=np.int64), rows.ravel(),
                np.repeat(signs, self.n_bits + 1, axis=1).ravel())


def build_hh_block(key: int, n: int, n_buckets: int, reps: int) -> HashBlock:
    """Identification block: rows per repetition r and bucket h, laid out
    contiguously: [whole bucket, bit0=0, bit0=1, bit1=0, bit1=1, ...], with
    one bit pair per bit of the largest column index n - 1."""
    return HashBlock(int(key), n, n_buckets, reps, max(1, (n - 1).bit_length()))


def build_countsketch_block(key: int, n: int, n_buckets: int,
                            reps: int) -> HashBlock:
    """Estimation block: one row per repetition and bucket."""
    return HashBlock(int(key), n, n_buckets, reps)


def identify_heavy(block: HashBlock, K: int, yA: np.ndarray) -> np.ndarray:
    """Candidate superset of the heavy coordinates, from the measurements
    ``yA`` of the identification block ``block``.

    Returns a sorted index array of size <= 2K. Reads the whole (K polylog)
    A block and nothing else. A bucket is live when its total is positive
    and its decoded index is below n; the index is kept when it hashes
    back to that bucket in that repetition. That costs one hash per live
    bucket; only when more than 2K are kept, one per repetition for each,
    to rank them by their median whole-bucket magnitude.
    """
    if yA.shape != (block.n_rows,):
        raise SketchError(f"A-block slice has {yA.shape}, expected ({block.n_rows},)")
    # bucket h of repetition r owns row r * n_buckets + h of (rows, stride):
    # its whole bucket, then its bit j = 0 and = 1 sub-buckets at 2j + 1
    # and 2j + 2. One contiguous pass sets slot t to yA[t + 1] > yA[t]; the
    # slot at 2j + 1 is bit j, weighted 2**j in int64, which is exact at
    # every n (a float64 sum is not past 2**53), and every other slot 0.
    # The last has no t + 1: zeroed
    above = np.empty(yA.size, dtype=np.int64)
    above[-1] = 0
    np.greater(yA[1:], yA[:-1], out=above[:-1])
    weights = np.zeros(block.stride, dtype=np.int64)
    weights[1::2] = 1 << np.arange(block.n_bits, dtype=np.int64)
    decoded = above.reshape(-1, block.stride) @ weights
    totals = yA[::block.stride]
    live = np.flatnonzero((totals > 0) & (decoded < block.n_cols))
    rep, bucket = np.divmod(live, block.n_buckets)
    found = decoded[live]                         # one per live bucket
    confirmed = np.sort(found[block.bucket_in(found, rep) == bucket])
    first = np.ones(confirmed.size, dtype=bool)   # first of equal values
    np.not_equal(confirmed[1:], confirmed[:-1], out=first[1:])
    candidates = confirmed[first]
    cap = CANDIDATE_CAP_FACTOR * K
    if candidates.size > cap:
        est = median(yA[block.bucket_rows(candidates)])
        keep = np.argsort(-est, kind="stable")[:cap]
        candidates = np.sort(candidates[keep])
    return candidates


def estimate_magnitudes(B_block: HashBlock, yB: np.ndarray,
                        indices: np.ndarray) -> np.ndarray:
    """Per index, the median of |bucket containing it| over the
    repetitions in which no other of ``indices`` shares that bucket (over
    all repetitions when there is none), as a float array aligned to
    ``indices``. NaN when a repetition it reads is NaN."""
    indices = np.asarray(indices, dtype=np.int64)
    outside = indices[(indices < 0) | (indices >= B_block.n_cols)]
    if outside.size:
        raise SketchError(f"index {outside[0]} out of range [0, {B_block.n_cols})")
    rows = B_block.bucket_rows(indices)
    values = yB[rows]
    shared = np.bincount(rows.ravel(), minlength=yB.size)[rows] > 1
    # a candidate that shares its bucket in every repetition reads them all
    shared &= ~shared.all(axis=-1, keepdims=True)
    # shared entries sort above the m read ones, and NaN sorts last: the
    # median of the read ones is the mean of sorted entries (m - 1) // 2
    # and m // 2, unless one of them is NaN
    values[shared] = np.inf
    s = np.sort(values, axis=-1)
    m = shared.shape[-1] - shared.sum(axis=-1)
    at = np.arange(indices.size)
    mid = (s[at, (m - 1) // 2] + s[at, m // 2]) / 2
    last = s[:, -1]
    return np.where(np.isnan(last), last, mid)


def median(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=-1)`` from one sort: the middle value of an odd
    count, (a + b) / 2 of the two middle values of an even one, and NaN
    for a row holding NaN (NaN sorts last). Adding 0.0 makes a zero median
    +0.0, as np.median's mean does."""
    s = np.sort(a, axis=-1)
    half = s.shape[-1] // 2
    if s.shape[-1] % 2:
        mid = s[..., half] + 0.0
    else:
        mid = (s[..., half - 1] + s[..., half] + 0.0) / 2
    last = s[..., -1]
    return np.where(np.isnan(last), last, mid)
