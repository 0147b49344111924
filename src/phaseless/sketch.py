"""Heavy-hitter identification and magnitude estimation from magnitudes only.

Identification block (A). For each repetition, every coordinate is hashed
into a bucket and given a random sign. A bucket contributes 2b+1 measurement
rows (b = index bits): one over all its members, and for each bit position
one over members with that bit 0 and one with that bit 1. When a single
coordinate dominates its bucket, each bit of its index is recovered by
comparing the two sub-bucket magnitudes, so identification never looks at
signs - which is what makes the scheme usable when only |Phi x| is observed.
A candidate is kept only if its assembled index actually hashes back to the
bucket it was decoded from; survivors are ranked by the median over
repetitions of their whole-bucket magnitudes and capped at 2K.

Estimation block (B). Plain bucket/sign hashing, several repetitions; the
estimate of |x_i| is the median over repetitions of the magnitude of i's
bucket. The median of magnitudes (rather than of signed values) is the
phaseless-compatible variant and estimates |x_i| rather than x_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse import ColumnBlock, splitmix64

__all__ = [
    "HashBlock",
    "SketchError",
    "build_hh_block",
    "build_countsketch_block",
    "identify_heavy",
    "estimate_magnitudes",
]

CANDIDATE_CAP_FACTOR = 2  # |S0| <= this * K


class SketchError(ValueError):
    pass


@dataclass
class HashBlock(ColumnBlock):
    """Bucket/sign hash block, defined by its stream key.

    In repetition r, column i falls in bucket h = u % n_buckets with sign
    from bit 1 of u, where u is word r*n_cols + i of the key's stream.
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

    def hash(self, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(len(columns), reps) bucket ids and +/-1 signs."""
        columns = np.asarray(columns, dtype=np.int64)
        words = columns[:, None] + np.arange(self.reps) * self.n_cols
        u = splitmix64(self.key, words)
        buckets = (u % np.uint64(self.n_buckets)).astype(np.int64)
        signs = ((u >> np.uint64(1)) & np.uint64(1)).astype(np.int8) * 2 - 1
        return buckets, signs

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


def build_hh_block(key: int, n: int, n_buckets: int, n_bits: int,
                   reps: int) -> HashBlock:
    """Identification block: rows per repetition r and bucket h, laid out
    contiguously: [whole bucket, bit0=0, bit0=1, bit1=0, bit1=1, ...]."""
    return HashBlock(int(key), n, n_buckets, reps, n_bits)


def build_countsketch_block(key: int, n: int, n_buckets: int,
                            reps: int) -> HashBlock:
    """Estimation block: one row per repetition and bucket."""
    return HashBlock(int(key), n, n_buckets, reps)


def identify_heavy(block: HashBlock, K: int, yA: np.ndarray) -> np.ndarray:
    """Candidate superset of the heavy coordinates, from the measurements
    ``yA`` of the identification block ``block``.

    Returns a sorted index array of size <= 2K. Reads the whole (K polylog)
    A block and nothing else.
    """
    if yA.shape != (block.n_rows,):
        raise SketchError(f"A-block slice has {yA.shape}, expected ({block.n_rows},)")
    y = yA.reshape(block.reps, block.n_buckets, block.stride)
    totals = y[:, :, 0]
    low = y[:, :, 1::2]   # bit = 0 sub-buckets
    high = y[:, :, 2::2]  # bit = 1 sub-buckets
    bits = (high > low).astype(np.int64)
    weights = 1 << np.arange(block.n_bits, dtype=np.int64)
    decoded = bits @ weights                      # (reps, n_buckets)
    live = (totals > 0) & (decoded < block.n_cols)
    candidates = np.unique(decoded[live])
    if candidates.size == 0:
        return candidates
    # keep only candidates whose index hashes back to a bucket that decoded it
    buckets = block.hash(candidates)[0]           # (m, reps)
    rep_idx = np.arange(block.reps)[None, :]
    decoded_here = decoded[rep_idx, buckets] == candidates[:, None]
    alive_here = live[rep_idx, buckets]
    confirmed = np.any(decoded_here & alive_here, axis=1)
    candidates = candidates[confirmed]
    if candidates.size == 0:
        return candidates
    est = np.median(totals[rep_idx, buckets[confirmed]], axis=1)
    cap = CANDIDATE_CAP_FACTOR * K
    if candidates.size > cap:
        keep = np.argsort(-est, kind="stable")[:cap]
        candidates = np.sort(candidates[keep])
    return candidates


def _bucket_values(block: HashBlock, yB: np.ndarray,
                   indices: np.ndarray) -> np.ndarray:
    """(len(indices), reps) magnitudes of each index's bucket per repetition.

    rows_of_many returns each column's rows contiguously, in the order the
    columns were given, and every column sits in exactly one bucket per
    repetition, so a plain reshape lines rows up with (index, repetition).
    """
    rows, _, _ = block.rows_of_many(np.asarray(indices, dtype=np.int64))
    reps = rows.size // len(indices)
    return yB[rows].reshape(len(indices), reps)


def estimate_magnitudes(B_block: HashBlock, yB: np.ndarray,
                        indices: np.ndarray) -> np.ndarray:
    """Per index, the median over repetitions of |bucket containing it|,
    as a float array aligned to ``indices``."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return np.empty(0)
    outside = indices[(indices < 0) | (indices >= B_block.n_cols)]
    if outside.size:
        raise SketchError(f"index {outside[0]} out of range [0, {B_block.n_cols})")
    return np.median(_bucket_values(B_block, yB, indices), axis=1)
