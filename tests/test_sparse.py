import math

import numpy as np

from phaseless import sparse
from phaseless.sparse import SparseSignMatrix, sample_bernoulli

from helpers import column_entries, dense_block


def test_sampled_columns_are_well_formed():
    m = SparseSignMatrix.bernoulli(1, 60, 200, 0.05)
    for col in range(m.n_cols):
        rows, signs, _ = column_entries(m, [col])
        assert rows.dtype == np.int32 and signs.dtype == np.int8
        assert np.all(np.diff(rows) > 0)           # strictly increasing
        assert rows.size == 0 or (rows[0] >= 0 and rows[-1] < m.n_rows)
        assert np.all(np.abs(signs) == 1)


def test_rows_of_matches_dense():
    # the dense oracle samples every column in one pass; here each column
    # of a fresh block is sampled on its own
    dense = dense_block(SparseSignMatrix.bernoulli(4, 80, 120, 0.06))
    m = SparseSignMatrix.bernoulli(4, 80, 120, 0.06)
    for col in [0, 17, 63, 119]:
        rows, signs, _ = column_entries(m, [col])
        expected = np.where(dense[:, col] != 0)[0]
        assert np.array_equal(rows, expected)
        assert np.array_equal(signs, dense[expected, col])


def test_entries_are_grouped_in_input_order():
    m = SparseSignMatrix.bernoulli(4, 80, 120, 0.06)
    query = np.array([63, 0, 17])
    rows, signs, owners = column_entries(m, query)
    cursor = 0
    for col in query:
        r, s, _ = column_entries(m, [col])
        span = slice(cursor, cursor + r.size)
        assert np.array_equal(rows[span], r)
        assert np.array_equal(signs[span], s)
        assert np.all(owners[span] == col)
        cursor += r.size
    assert cursor == rows.size


def test_short_first_draw_never_truncates_a_column(monkeypatch):
    # with too few words drawn first, columns run short and must keep
    # drawing until they pass the last row
    cols = np.arange(300)
    blocks = [SparseSignMatrix.bernoulli(21, 50, 300, 0.3)]
    full = sample_bernoulli(blocks, cols)
    for slack in (-100.0, -2.0, 0.0):
        monkeypatch.setattr(sparse, "_SLACK_SD", slack)
        short = sample_bernoulli(blocks, cols)
        for a, b in zip(full, short):
            assert np.array_equal(a, b)


def test_column_does_not_depend_on_its_batch():
    blocks = [SparseSignMatrix.bernoulli(5, 400, 100, 0.02)]
    a = sample_bernoulli(blocks, [9, 3, 77])
    b = sample_bernoulli(blocks, [77])
    assert np.array_equal(a[1][-a[0][-1]:], b[1])
    assert np.array_equal(a[2][-a[0][-1]:], b[2])


def test_one_request_equals_its_chunked_requests():
    # the sampler walks every column it is asked for at once: a request of
    # 70000 columns (1.47M first-draw words) returns what its 2048-column
    # pieces return, dtypes included
    cols = np.random.default_rng(11).integers(0, 10 ** 7, 70000)
    blocks = [SparseSignMatrix.bernoulli(5, 400, 10 ** 7, 0.02)]
    whole = sample_bernoulli(blocks, cols)
    pieces = [sample_bernoulli(blocks, cols[lo:lo + 2048])
              for lo in range(0, cols.size, 2048)]
    for got, parts in zip(whole, zip(*pieces)):
        want = np.concatenate(parts)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    empty = sample_bernoulli(blocks, [])
    assert [a.dtype for a in empty] == [a.dtype for a in whole]
    assert all(a.size == 0 for a in empty)


def _blocks_with_short_and_full_pairs(counts, blocks) -> int:
    """Blocks in which some pairs outrun the words of the first walk and
    are walked again, and others do not: a pair outruns them when it has
    at least as many entries as words."""
    width = max(sparse._draw_width(b.n_rows * b.p) for b in blocks)
    short = counts.reshape(len(blocks), -1) >= width
    return int(np.sum(short.any(axis=1) & ~short.all(axis=1)))


def test_a_stacked_walk_equals_its_one_block_walks(monkeypatch):
    # blocks with their own keys, row counts and densities walk the same
    # columns in one call; the entries come grouped by block, then by
    # column, exactly as the one-block calls return them, also when some
    # pairs (at a slack of 0) or every pair (at -100) run short of their
    # first words and are walked again
    blocks = [SparseSignMatrix.bernoulli(key, n_rows, 10 ** 6, p)
              for key, n_rows, p in ((7, 50, 0.3), (2 ** 64 - 5, 1120, 0.01),
                                     (123456789, 3, 0.5))]
    cols = np.random.default_rng(12).integers(0, 10 ** 6, 40)
    for slack in (4.0, 0.0, -100.0):
        monkeypatch.setattr(sparse, "_SLACK_SD", slack)
        for columns in (cols, cols[:0]):
            stacked = sample_bernoulli(blocks, columns)
            if slack == 0.0 and columns.size:
                assert _blocks_with_short_and_full_pairs(
                    stacked[0], blocks) > 1
            single = [sample_bernoulli([block], columns) for block in blocks]
            for got, parts in zip(stacked, zip(*single)):
                want = np.concatenate(parts)
                assert got.dtype == want.dtype and np.array_equal(got, want)


_MASK64 = (1 << 64) - 1


def _splitmix64_word(key: int, i: int) -> int:
    """Word i of stream ``key``: splitmix64 over Python ints."""
    z = (key + i * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _reference_entries(key: int, n_rows: int, p: float, columns):
    """One block's entries, word by word: column j walks the stream keyed
    by word j of ``key``; word i moves floor(log1p(-u) / log1p(-p)) + 1
    rows down, u the top 53 bits as a fraction, and signs by its low bit."""
    inv = 1.0 / math.log1p(-p)
    counts, rows, signs = [], [], []
    for j in columns:
        column_key = _splitmix64_word(key, int(j))
        row, i, count = -1, 0, 0
        while True:
            u = _splitmix64_word(column_key, i)
            row += math.floor(math.log1p(-(u >> 11) * 2.0 ** -53) * inv) + 1
            if row >= n_rows:
                break
            rows.append(row)
            signs.append(1 if u & 1 else -1)
            count, i = count + 1, i + 1
        counts.append(count)
    return (np.array(counts, dtype=np.int64), np.array(rows, dtype=np.int32),
            np.array(signs, dtype=np.int8))


def test_the_walk_equals_a_word_by_word_reference(monkeypatch):
    # the sampler's arithmetic against splitmix64 and the geometric gap
    # computed one word at a time in Python, for one to three blocks, with
    # some columns walked again at a slack of 0, their entries spliced
    # between full ones, and every column walked again at a slack of -100
    blocks = [(7, 50, 0.3), (2 ** 64 - 5, 1120, 0.01), (123456789, 3, 0.5)]
    columns = np.array([0, 5, 999_999, 3, 5])
    for slack in (4.0, 0.0, -100.0):
        monkeypatch.setattr(sparse, "_SLACK_SD", slack)
        for used in (blocks[:1], blocks[:2], blocks):
            parts = [_reference_entries(*block, columns) for block in used]
            want = [np.concatenate(part) for part in zip(*parts)]
            made = [SparseSignMatrix.bernoulli(key, n_rows, 10 ** 6, p)
                    for key, n_rows, p in used]
            if slack == 0.0 and len(used) > 1:
                assert _blocks_with_short_and_full_pairs(want[0], made) > 1
            for g, w in zip(sample_bernoulli(made, columns), want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
