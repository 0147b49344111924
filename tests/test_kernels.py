"""Kernel-level tests: the column sampler, the hash blocks, signed apply."""

import numpy as np
import pytest

from phaseless import apply_phaseless, build_ensemble, sparse
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


CHUNK = sparse.APPLY_CHUNK
WIDE = 2 * CHUNK + 37               # two aligned full chunks and a partial one


def recorded_requests(monkeypatch, block):
    """The column arrays ``block.apply`` asks ``entries`` for, and what each
    request returned."""
    asked, entries = [], block.entries

    def recording(cols):
        asked.append((cols, entries(cols)))
        return asked[-1][1]

    monkeypatch.setattr(block, "entries", recording)
    return asked


def test_apply_matches_dense_oracle():
    dense = dense_block(SparseSignMatrix.bernoulli(5, 40, WIDE, 0.04))
    rng = np.random.default_rng(0)
    block = SparseSignMatrix.bernoulli(5, 40, WIDE, 0.04)
    kept = None
    for _ in range(3):
        v = rng.standard_normal(WIDE)
        sparse_v = v * (rng.random(WIDE) < 0.02)
        # a signal with zero entries samples its nonzero columns ...
        assert np.allclose(block.apply(sparse_v), dense @ sparse_v, atol=1e-10)
        assert block._kept.keys() == (kept or {}).keys()
        # ... and one with none keeps each aligned full chunk for the next
        # such call; the partial last chunk is sampled every time
        assert np.allclose(block.apply(v), dense @ v, atol=1e-10)
        assert sorted(block._kept) == [0, CHUNK]
        if kept is not None:
            assert all(block._kept[lo] is kept[lo] for lo in kept)
        kept = dict(block._kept)


def test_a_zero_entry_samples_only_its_own_chunk(monkeypatch):
    block = SparseSignMatrix.bernoulli(12, 60, WIDE, 0.05)
    v = np.random.default_rng(4).standard_normal(WIDE)
    block.apply(v)
    kept = dict(block._kept)
    v[5] = 0.0
    asked = recorded_requests(monkeypatch, block)
    fresh = SparseSignMatrix.bernoulli(12, 60, WIDE, 0.05)
    rows, signs, owners = fresh.rows_of_many(np.flatnonzero(v))
    want = np.bincount(rows, weights=v[owners] * signs, minlength=60)
    assert np.array_equal(block.apply(v), want)
    # the chunk holding the zero and the partial chunk sample; the chunk at
    # CHUNK is still asked for whole and gets its kept result back
    assert [cols.size for cols, _ in asked] == [CHUNK - 1, CHUNK, 37]
    assert asked[1][1] is kept[CHUNK]
    assert block._kept.keys() == kept.keys()


def test_apply_signed_matches_bincount_bit_for_bit():
    # the scatter adds into ``out`` in entry order, so entries split over
    # several calls sum exactly as one bincount over all of them
    rng = np.random.default_rng(2)
    for n_rows, size in ((1, 10), (50, 0), (300, 5000), (4096, 200000)):
        rows = rng.integers(0, n_rows, size).astype(np.int32)
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), size)
        values = rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8, size)
        want = np.bincount(rows, weights=values * signs, minlength=n_rows)
        for cuts in ([], [size // 3, size // 2]):
            out = np.zeros(n_rows)
            for part in np.split(np.arange(size), cuts):
                sparse.apply_signed(out, rows[part], signs[part],
                                    values[part].copy())
            assert np.array_equal(out, want)


def test_apply_is_one_bincount_in_column_order_across_chunks():
    rng = np.random.default_rng(3)
    full = rng.standard_normal(WIDE)
    middle = full.copy()
    middle[CHUNK:2 * CHUNK] = 0.0
    scattered = full * (rng.random(WIDE) < 0.7)   # no aligned range full
    spikes = np.zeros(WIDE)
    spikes[rng.choice(WIDE, 10, replace=False)] = rng.standard_normal(10)
    for block in (SparseSignMatrix.bernoulli(6, 90, WIDE, 0.03),
                  build_hh_block(7, WIDE, 40, 13, 3),
                  build_countsketch_block(8, WIDE, 64, 5)):
        for v in (full, middle, scattered, spikes, full):
            rows, signs, owners = block.rows_of_many(np.flatnonzero(v))
            want = np.bincount(rows, weights=v[owners] * signs,
                               minlength=block.n_rows)
            assert np.array_equal(block.apply(v), want)


def test_a_dense_signal_is_cut_at_every_aligned_range(monkeypatch):
    # no aligned range of v is full, yet v has more than APPLY_CHUNK nonzero
    # columns: one request per range it touches, each inside that range
    rng = np.random.default_rng(13)
    v = rng.standard_normal(WIDE) * (rng.random(WIDE) < 0.7)
    cols = np.flatnonzero(v)
    assert cols.size > CHUNK
    assert all(np.count_nonzero(v[lo:lo + CHUNK]) < CHUNK
               for lo in range(0, WIDE, CHUNK))
    for block in (SparseSignMatrix.bernoulli(6, 90, WIDE, 0.03),
                  build_hh_block(7, WIDE, 40, 13, 3),
                  build_countsketch_block(8, WIDE, 64, 5)):
        rows, signs, owners = block.rows_of_many(cols)
        want = np.bincount(rows, weights=v[owners] * signs,
                           minlength=block.n_rows)
        asked = recorded_requests(monkeypatch, block)
        assert np.array_equal(block.apply(v), want)
        assert [(c[0] // CHUNK, c[-1] // CHUNK) for c, _ in asked] == \
            [(0, 0), (1, 1), (2, 2)]
        assert np.array_equal(np.concatenate([c for c, _ in asked]), cols)


def test_a_sparse_signal_is_one_request_per_block(monkeypatch):
    # a k-sparse signal spread over every range is still one request per
    # block; a dense one is one request per aligned range, each a full
    # range, and a second sense gets the kept entries back
    ens = build_ensemble(4096, 10, rng_seed=6)
    rng = np.random.default_rng(6)
    spikes = np.zeros(4096)
    spikes[rng.choice(4096, 10, replace=False)] = rng.standard_normal(10)
    spikes[[0, 4095]] = 1.0
    dense = rng.standard_normal(4096)
    asked = {name: recorded_requests(monkeypatch, block)
             for name, block in ens.blocks.items()}
    apply_phaseless(ens, spikes)
    assert all(len(calls) == 1 for calls in asked.values())
    for calls in asked.values():
        calls.clear()
    apply_phaseless(ens, dense)
    first = {name: [result for _, result in calls]
             for name, calls in asked.items()}
    for calls in asked.values():
        assert [c.tolist() for c, _ in calls] == \
            [list(range(lo, lo + CHUNK)) for lo in (0, CHUNK)]
        calls.clear()
    apply_phaseless(ens, dense)
    for name, block in ens.blocks.items():
        if isinstance(block, SparseSignMatrix):
            assert all(a is b for (_, a), b in zip(asked[name], first[name]))


def test_hash_blocks_apply_matches_dense_oracle():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(300)
    for block in (build_hh_block(3, 300, 7, 9, 4),
                  build_countsketch_block(4, 300, 16, 5)):
        assert np.allclose(block.apply(v), dense_block(block) @ v, atol=1e-10)


def test_hash_block_rows_follow_the_stream_words():
    # column i's bucket and sign in repetition r come from word r*n + i:
    # the bucket from the word modulo the bucket count, the sign from bit 63
    n, buckets, bits, reps = 200, 11, 8, 3
    words = splitmix64(17, np.arange(reps * n)).reshape(reps, n)
    bucket = (words % np.uint64(buckets)).astype(np.int64)
    sign = (words >> np.uint64(63)).astype(np.int8) * 2 - 1
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
    cached = SparseSignMatrix.bernoulli(11, 123, WIDE, 0.07)
    cached.apply(np.ones(WIDE))         # every column: each full chunk kept
    kept = dict(cached._kept)
    assert sorted(kept) == [0, CHUNK]
    fresh = SparseSignMatrix.bernoulli(11, 123, WIDE, 0.07)
    for lo in kept:
        sampled = sample_bernoulli(11, 123, 0.07, np.arange(lo, lo + CHUNK))
        for a, b in zip(kept[lo], sampled):
            assert np.array_equal(a, b) and a.dtype == b.dtype
    for query in ([0], [WIDE - 1, 3, 3, 200], np.arange(WIDE)[::-1],
                  np.arange(WIDE), np.arange(CHUNK, 2 * CHUNK)):
        for a, b in zip(cached.rows_of_many(query), fresh.rows_of_many(query)):
            assert np.array_equal(a, b) and a.dtype == b.dtype
    # a request of exactly one aligned full chunk reuses its kept result ...
    assert cached._kept.keys() == kept.keys()
    for lo in kept:
        chunk = cached.entries(np.arange(lo, lo + CHUNK))
        assert all(a is b for a, b in zip(chunk, kept[lo]))
    assert sorted(fresh._kept) == [CHUNK]   # asking for the chunk keeps it
    # ... and every other request samples
    other = SparseSignMatrix.bernoulli(11, 123, WIDE, 0.07)
    for query in (np.array([5, 900, 4100]),               # candidate-style
                  np.arange(CHUNK)[::-1],                 # reversed
                  np.arange(2 * CHUNK, WIDE),             # the partial chunk
                  np.arange(CHUNK - 1),                   # part of a chunk
                  np.arange(1, CHUNK + 1),                # unaligned
                  np.arange(WIDE)):                       # several chunks
        other.rows_of_many(query)
    assert other._kept == {}
