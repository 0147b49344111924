"""Heavy-hitter identification and magnitude estimation guarantees.

The probabilistic claims are checked as seeded Monte-Carlo rates with
ground truth computed exactly (tail norms by sorting), never per-instance.
"""

import numpy as np
import pytest

from phaseless.ensemble import build_ensemble
from phaseless.sketch import (CANDIDATE_CAP_FACTOR, SketchError,
                              build_countsketch_block, build_hh_block,
                              estimate_magnitudes, identify_heavy, median)
from phaseless.sparse import apply_blocks

from helpers import identify_heavy_reference, support, tail_sq


def make_block(key, n, K, reps=5):
    return build_hh_block(key, n, 2 * K, reps)


def estimate_one(block, y, i):
    return estimate_magnitudes(block, y, [i])[0]


def test_countsketch_sign_is_not_a_function_of_the_bucket():
    # B's bucket count is a power of two, so its bucket is the stream
    # word's low bits; a sign from one of those bits once gave every column
    # of a bucket the same sign. Pairs sharing a bucket must agree in sign
    # about half the time, as count-sketch's independent signs do.
    n, buckets = 4096, 1024
    buckets_of, signs = build_countsketch_block(9, n, buckets, 5).hash(np.arange(n))
    agree = pairs = 0
    for r in range(5):
        per_bucket = np.bincount(buckets_of[:, r], minlength=buckets)
        plus = np.bincount(buckets_of[:, r], weights=signs[:, r] > 0,
                           minlength=buckets)
        minus = per_bucket - plus
        agree += int((plus * (plus - 1) + minus * (minus - 1)).sum()) // 2
        pairs += int((per_bucket * (per_bucket - 1)).sum()) // 2
    assert pairs > 10000
    assert abs(agree / pairs - 0.5) < 0.03, agree / pairs


@pytest.mark.parametrize("block", [
    build_hh_block(3, 1000, 24, 4),
    build_countsketch_block(4, 1000, 64, 5),
], ids=["A", "B"])
def test_bucket_rows_are_the_whole_bucket_rows_of_entries(block):
    # a column's entries in a repetition start with its whole-bucket row
    columns = np.arange(block.n_cols)
    counts, rows, _ = block.entries(columns)
    assert np.all(counts == block.reps * (block.n_bits + 1))
    whole = rows.reshape(columns.size, block.reps, block.n_bits + 1)[:, :, 0]
    assert np.array_equal(block.bucket_rows(columns), whole)


def test_single_spike_is_identified():
    n = 512
    block = make_block(1, n, K=10)
    x = np.zeros(n)
    x[1] = 1.0
    S0 = identify_heavy(block, 10, np.abs(apply_blocks([block], *support(x))))
    assert 1 in S0


def test_equal_spikes_zero_tail_all_identified():
    n = 2048
    block = make_block(2, n, K=100)
    rng = np.random.default_rng(0)
    pos = rng.choice(n, 10, replace=False)
    x = np.zeros(n)
    x[pos] = 1.0
    S0 = identify_heavy(block, 100, np.abs(apply_blocks([block], *support(x))))
    assert np.isin(pos, S0).all()
    assert S0.size <= CANDIDATE_CAP_FACTOR * 100


def test_identification_rejects_malformed_slice():
    block = make_block(3, 256, K=5)
    with pytest.raises(SketchError):
        identify_heavy(block, 5, np.zeros(7))


def identified(block, K, yA):
    """identify_heavy's result, checked against the per-candidate rule."""
    got = identify_heavy(block, K, yA)
    want = identify_heavy_reference(block, K, yA)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want), (got, want)
    return got


def plant(block, indices, value=1.0, yA=None):
    """An A slice in which each index fills its bucket in every repetition
    with ``value``, bit rows included, unless an earlier index holds it."""
    yA = np.zeros(block.n_rows) if yA is None else yA
    y = yA.reshape(block.reps, block.n_buckets, block.stride)
    buckets = block.hash(np.asarray(indices))[0]
    bits = (np.asarray(indices)[:, None] >> np.arange(block.n_bits)) & 1
    for i, per_rep in enumerate(buckets):
        for r, h in enumerate(per_rep):
            if y[r, h, 0] == 0:
                y[r, h, 0] = value
                y[r, h, 1 + 2 * np.arange(block.n_bits) + bits[i]] = value
    return yA


@pytest.mark.parametrize("n, K, reps", [(256, 3, 1), (1000, 5, 4),
                                        (4096, 10, 6), (5000, 20, 7)])
def test_identification_matches_the_per_candidate_rule(n, K, reps):
    for t in range(10):
        rng = np.random.default_rng([n, K, reps, t])
        block = make_block(int(rng.integers(2 ** 62)), n, K, reps)
        x = rng.standard_normal(n) * 0.1
        x[rng.choice(n, K, replace=False)] = rng.uniform(1.0, 10.0, K)
        y = np.abs(apply_blocks([block], *support(x)))
        assert identified(block, K, y).size > 0
        noise = rng.exponential(size=block.n_rows)
        noise[rng.random(block.n_rows) < 0.2] = 0.0
        identified(block, K, noise)
        noise[rng.choice(block.n_rows, 20)] = np.nan
        identified(block, K, noise)


def test_identification_of_nothing_is_an_empty_index_array():
    block = make_block(4, 1024, K=5, reps=4)
    S0 = identified(block, 5, np.zeros(block.n_rows))
    assert S0.shape == (0,) and S0.dtype == np.int64


def test_indices_decoded_past_n_are_dropped():
    # 600 needs 10 bits, so a bucket can decode any index up to 1023
    n, K = 600, 8
    rng = np.random.default_rng(5)
    block = make_block(12, n, K, reps=5)
    yA = rng.exponential(size=block.n_rows)
    yA = plant(block, rng.choice(n, K, replace=False), 100.0, yA)
    y = yA.reshape(block.reps, block.n_buckets, block.stride)
    decoded = (y[:, :, 2::2] > y[:, :, 1::2]) @ (1 << np.arange(block.n_bits))
    assert (decoded >= n).any()
    S0 = identified(block, K, yA)
    assert S0.size > 0 and S0.max() < n


def test_an_index_decoded_in_every_repetition_is_one_candidate():
    block = make_block(6, 2048, K=4, reps=6)
    S0 = identified(block, 4, plant(block, [1234], 3.0))
    assert S0.tolist() == [1234]


def test_one_live_repetition_confirms_an_index():
    block = make_block(7, 2048, K=4, reps=6)
    yA = plant(block, [777], 3.0)
    y = yA.reshape(block.reps, block.n_buckets, block.stride)
    buckets = block.hash(np.array([777]))[0][0]
    for r in range(1, block.reps):
        y[r, buckets[r]] = 0.0    # dead in every other repetition
    assert identified(block, 4, yA).tolist() == [777]


def test_the_cap_breaks_ties_in_the_median_by_lower_index():
    n, K = 4096, 2
    block = build_hh_block(8, n, 256, 3)
    rng = np.random.default_rng(8)
    picks = []
    taken = np.zeros((block.reps, block.n_buckets), dtype=bool)
    for i in rng.permutation(n):     # indices that own all their buckets
        buckets = block.hash(np.array([i]))[0][0]
        if not taken[np.arange(block.reps), buckets].any():
            taken[np.arange(block.reps), buckets] = True
            picks.append(int(i))
        if len(picks) == 5 * CANDIDATE_CAP_FACTOR * K:
            break
    picks = sorted(picks)
    top, tied = picks[7:9], picks[:7] + picks[9:]
    S0 = identified(block, K, plant(block, tied, 2.0, plant(block, top, 3.0)))
    assert S0.tolist() == sorted(top + tied[:CANDIDATE_CAP_FACTOR * K - 2])


def test_containment_rate_planted_heavy():
    """Coordinates above the heaviness threshold land in S0 nearly always.

    1000 seeded trials; per trial, K/2 planted heavy coordinates over a
    Gaussian tail, heaviness verified against the exact tail norm.
    """
    n, K = 512, 24
    misses = trials = 0
    for t in range(1000):
        rng = np.random.default_rng(10_000 + t)
        block = make_block(20_000 + t, n, K=K)
        x = rng.standard_normal(n) * 0.5
        pos = rng.choice(n, K // 2, replace=False)
        x[pos] = rng.choice([-1.0, 1.0], K // 2) * rng.uniform(3.0, 6.0, K // 2)
        threshold = tail_sq(x, K) / K
        heavy = [i for i in range(n) if x[i] ** 2 > threshold]
        S0 = identify_heavy(block, K, np.abs(apply_blocks([block], *support(x))))
        trials += len(heavy)
        misses += int(np.sum(~np.isin(heavy, S0)))
    assert trials > 4000
    assert misses / trials <= 0.01, f"containment failure rate {misses/trials}"


def test_estimate_zero_signal():
    n = 256
    block = build_countsketch_block(5, n, 128, 5)
    y = np.abs(apply_blocks([block], *support(np.zeros(n))))
    for i in [0, 100, 255]:
        assert estimate_one(block, y, i) == 0.0


def test_estimate_single_spike_exact():
    n = 256
    block = build_countsketch_block(6, n, 128, 5)
    x = np.zeros(n)
    x[3] = 5.0
    y = np.abs(apply_blocks([block], *support(x)))
    assert estimate_one(block, y, 3) == 5.0


def test_estimate_out_of_range():
    block = build_countsketch_block(6, 64, 32, 3)
    y = np.zeros(block.n_rows)
    for bad in ([64], [3, -1], [0, 10 ** 6]):
        with pytest.raises(SketchError, match="out of range"):
            estimate_magnitudes(block, y, bad)


def test_estimate_error_bound_planted_spikes():
    """Per-spike error <= tail/sqrt(10k) in at least 95% of seeded trials
    (k = 10 spikes of magnitude 1 over a tail of norm 0.5, n = 4096)."""
    n, k = 4096, 10
    within = total = 0
    for t in range(150):
        rng = np.random.default_rng(30_000 + t)
        x = np.zeros(n)
        pos = rng.choice(n, k, replace=False)
        x[pos] = rng.choice([-1.0, 1.0], k)
        off = np.ones(n, bool)
        off[pos] = False
        g = rng.standard_normal(n - k)
        x[off] = g / np.linalg.norm(g) * 0.5
        block = build_countsketch_block(40_000 + t, n, 1024, 5)
        y = np.abs(apply_blocks([block], *support(x)))
        est = estimate_magnitudes(block, y, pos)
        for i, e in zip(pos, est):
            total += 1
            within += abs(e - abs(x[int(i)])) <= 0.5 / np.sqrt(100)
    assert within / total >= 0.95, within / total


def test_estimates_are_sign_blind():
    n = 512
    block = build_countsketch_block(9, n, 256, 5)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(n)
    ya = np.abs(apply_blocks([block], *support(x)))
    yb = np.abs(apply_blocks([block], *support(-x)))
    idx = np.arange(0, n, 37)
    assert np.array_equal(estimate_magnitudes(block, ya, idx),
                          estimate_magnitudes(block, yb, idx))


def test_median_absorbs_single_corrupted_repetition():
    n, W, reps = 256, 128, 5
    block = build_countsketch_block(11, n, W, reps)
    x = np.zeros(n)
    x[7] = 2.0
    y = np.abs(apply_blocks([block], *support(x)))
    clean = estimate_one(block, y, 7)
    y_corrupt = y.copy()
    y_corrupt[:W] = 1e6  # wipe out repetition 0 entirely
    assert estimate_one(block, y_corrupt, 7) == clean


def pair_sharing(block, count):
    """(0, j, shared): the first column j whose bucket column 0 shares in
    exactly ``count`` repetitions, and the boolean mask of those."""
    buckets = block.hash(np.arange(block.n_cols))[0]
    shared = buckets == buckets[0]
    j = next(j for j in range(1, block.n_cols) if shared[j].sum() == count)
    return 0, j, shared[j]


def test_a_candidate_reads_only_the_repetitions_it_has_to_itself():
    # a light candidate sharing a heavier one's bucket in 3 of 5 repetitions
    # once took that bucket's magnitude as its median; the set-query
    # estimate is the median, here the mean, of its 2 unshared buckets
    block = build_countsketch_block(12, 256, 8, 5)
    light, heavy, shared = pair_sharing(block, 3)
    rows = block.bucket_rows(np.array([light, heavy]))
    y = np.zeros(block.n_rows)
    y[rows[0, shared]] = 9.0
    y[rows[0, ~shared]] = [1.0, 2.0]
    y[rows[1, ~shared]] = [10.0, 12.0]
    est = estimate_magnitudes(block, y, [light, heavy])
    assert est.tolist() == [1.5, 11.0]
    # alone, each reads all 5 repetitions
    assert estimate_one(block, y, light) == 9.0
    assert estimate_one(block, y, heavy) == 9.0


def test_a_candidate_sharing_every_repetition_reads_them_all():
    block = build_countsketch_block(13, 256, 2, 5)
    a, b, _ = pair_sharing(block, 5)
    y = np.arange(1.0, block.n_rows + 1)
    est = estimate_magnitudes(block, y, [a, b])
    assert est[0] == est[1] == estimate_one(block, y, a)


def bits_of(a):
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


@pytest.mark.parametrize("shape", [(1,), (2,), (5,), (8,), (6, 1), (9, 4),
                                   (9, 5), (3, 8)])
def test_median_is_np_median_bit_for_bit(shape):
    rng = np.random.default_rng(list(shape))
    for a in (rng.standard_normal(shape),
              rng.exponential(size=shape),
              rng.choice([0.0, -0.0, 1.5, 2.0], shape),   # ties, signed zeros
              np.full(shape, 0.1)):
        assert bits_of(median(a)) == bits_of(np.median(a, axis=-1))


def test_median_of_a_row_holding_nan_is_nan():
    rng = np.random.default_rng(3)
    for reps in (5, 6):
        a = rng.exponential(size=(4, reps))
        a[1, 0] = np.nan    # sorts last, away from the middle
        a[3] = np.nan
        got = median(a)
        assert np.isnan(got[[1, 3]]).all()
        assert bits_of(got) == bits_of(np.median(a, axis=-1))


def test_estimates_keep_a_nan_repetition():
    # decode refuses non-finite y, but the stages take raw slices
    block = build_countsketch_block(10, 256, 128, 5)
    x = np.zeros(256)
    x[3] = 2.0
    y = np.abs(apply_blocks([block], *support(x)))
    y[block.hash(np.array([3]))[0][0, 2] + 2 * 128] = np.nan
    est = estimate_magnitudes(block, y, [3, 4])
    assert np.isnan(est[0]) and not np.isnan(est[1])


def test_identification_reads_scale_sublinearly():
    """The A block, all that identify_heavy reads, shrinks relative to n as
    n grows: each quadrupling of n adds two bit pairs per bucket."""
    ns = [1024, 4096, 16384]
    rows = [build_ensemble(n, 10).blocks["A"].n_rows for n in ns]
    assert rows[1] - rows[0] == rows[2] - rows[1] > 0
    assert rows[0] / ns[0] > rows[1] / ns[1] > rows[2] / ns[2]
