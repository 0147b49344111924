"""Kernel-level tests: the column sampler, the hash blocks, signed apply."""

import numpy as np
import pytest

from phaseless import sparse
from phaseless.sketch import build_countsketch_block, build_hh_block
from phaseless.sparse import SparseSignMatrix, sample_bernoulli, splitmix64

from helpers import dense_block


def test_sampler_is_deterministic():
    cols = np.arange(512)
    a = sample_bernoulli(99, 200, 0.05, cols)
    b = sample_bernoulli(99, 200, 0.05, cols)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    other = sample_bernoulli(100, 200, 0.05, cols)
    assert not np.array_equal(a[1], other[1])


def test_sampler_density_within_binomial_bounds():
    n_rows, n_cols, p = 400, 2048, 0.02
    counts, rows, signs = sample_bernoulli(3, n_rows, p, np.arange(n_cols))
    # per block
    n_cells = n_rows * n_cols
    sigma = np.sqrt(n_cells * p * (1 - p))
    assert abs(rows.size - n_cells * p) < 4 * sigma
    # per column: the counts are Binomial(n_rows, p); compare their mean and
    # variance, and bound the largest deviation
    mean, var = n_rows * p, n_rows * p * (1 - p)
    assert abs(counts.mean() - mean) < 4 * np.sqrt(var / n_cols)
    assert abs(counts.var() / var - 1) < 0.15
    assert np.abs(counts - mean).max() < 6 * np.sqrt(var)
    # per row: every row is hit at the same rate
    per_row = np.bincount(rows, minlength=n_rows)
    row_sigma = np.sqrt(n_cols * p * (1 - p))
    assert np.abs(per_row - n_cols * p).max() < 5 * row_sigma


def test_sampler_signs_are_unbiased():
    counts, rows, signs = sample_bernoulli(8, 300, 0.05, np.arange(4000))
    assert set(np.unique(signs)) == {-1, 1}
    assert abs(int(signs.sum())) < 4 * np.sqrt(signs.size)
    # and independent of the row they land in
    first = rows < 150
    assert abs(int(signs[first].sum())) < 4 * np.sqrt(first.sum())


def test_sampler_rejects_degenerate_density():
    with pytest.raises(ValueError):
        sample_bernoulli(1, 10, 0.0, [0])
    with pytest.raises(ValueError):
        sample_bernoulli(1, 10, 1.0, [0])
    with pytest.raises(ValueError):
        SparseSignMatrix.bernoulli(1, 10, 10, 1.0)


def test_apply_matches_dense_oracle():
    dense = dense_block(SparseSignMatrix.bernoulli(5, 300, 700, 0.04))
    rng = np.random.default_rng(0)
    block = SparseSignMatrix.bernoulli(5, 300, 700, 0.04)
    kept = None
    for _ in range(3):
        v = rng.standard_normal(700)
        sparse_v = v * (rng.random(700) < 0.02)
        # a signal with zero entries samples its nonzero columns ...
        assert np.allclose(block.apply(sparse_v), dense @ sparse_v, atol=1e-10)
        assert block._full is kept
        # ... and one with none keeps every column for the next such call
        assert np.allclose(block.apply(v), dense @ v, atol=1e-10)
        assert block._full is not None and (kept is None or block._full is kept)
        kept = block._full


def test_apply_signed_matches_bincount_bit_for_bit():
    rng = np.random.default_rng(2)
    for n_rows, size in ((1, 10), (50, 0), (300, 5000), (4096, 200000)):
        rows = rng.integers(0, n_rows, size).astype(np.int32)
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), size)
        values = rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8, size)
        want = np.bincount(rows, weights=values * signs, minlength=n_rows)
        got = sparse.apply_signed(n_rows, rows, signs, values.copy())
        assert got.shape == (n_rows,) and np.array_equal(got, want)


def test_hash_blocks_apply_matches_dense_oracle():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(300)
    for block in (build_hh_block(3, 300, 7, 9, 4),
                  build_countsketch_block(4, 300, 16, 5)):
        assert np.allclose(block.apply(v), dense_block(block) @ v, atol=1e-10)


def test_hash_block_rows_follow_the_stream_words():
    # column i's bucket and sign in repetition r come from word r*n + i
    n, buckets, bits, reps = 200, 11, 8, 3
    words = splitmix64(17, np.arange(reps * n)).reshape(reps, n)
    bucket = (words % np.uint64(buckets)).astype(np.int64)
    sign = ((words >> np.uint64(1)) & np.uint64(1)).astype(np.int8) * 2 - 1
    B = build_countsketch_block(17, n, buckets, reps)
    A = build_hh_block(17, n, buckets, bits, reps)
    stride = 2 * bits + 1
    for i in (0, 5, 199):
        rows, signs, _ = B.rows_of_many([i])
        assert rows.tolist() == [r * buckets + bucket[r, i] for r in range(reps)]
        assert signs.tolist() == sign[:, i].tolist()
        rows, signs, _ = A.rows_of_many([i])
        expect = []
        for r in range(reps):
            base = (r * buckets + bucket[r, i]) * stride
            expect += [base] + [base + 1 + 2 * t + ((i >> t) & 1)
                                for t in range(bits)]
        assert rows.tolist() == expect
        assert signs.tolist() == np.repeat(sign[:, i], bits + 1).tolist()


def test_apply_empty_rows_are_zero():
    m = SparseSignMatrix.bernoulli(8, 50, 40, 0.01)
    empty = ~dense_block(SparseSignMatrix.bernoulli(8, 50, 40, 0.01)).any(axis=1)
    assert empty.any()
    y = m.apply(np.ones(40))
    assert np.all(y[empty] == 0)


def test_cached_columns_match_on_the_fly_sample():
    cached = SparseSignMatrix.bernoulli(11, 123, 457, 0.07)
    cached.apply(np.ones(457))          # every column in order: kept
    kept = cached._full
    assert kept is not None
    fresh = SparseSignMatrix.bernoulli(11, 123, 457, 0.07)
    for query in ([0], [456, 3, 3, 200], np.arange(457)[::-1], np.arange(457)):
        for a, b in zip(cached.rows_of_many(query), fresh.rows_of_many(query)):
            assert np.array_equal(a, b) and a.dtype == b.dtype
    # every other request samples; exactly 0 .. n_cols - 1 reuses the result
    assert cached._full is kept
    assert all(a is b for a, b in zip(cached.entries(np.arange(457)), kept))
    assert fresh._full is not None      # asking for every column fills it
    other = SparseSignMatrix.bernoulli(11, 123, 457, 0.07)
    other.rows_of_many(np.arange(457)[::-1])
    other.rows_of_many(np.arange(456))
    assert other._full is None
