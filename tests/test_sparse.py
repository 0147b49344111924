import numpy as np

from phaseless import sparse
from phaseless.sparse import SparseSignMatrix, sample_bernoulli

from helpers import dense_block


def test_sampled_columns_are_well_formed():
    m = SparseSignMatrix.bernoulli(1, 60, 200, 0.05)
    for col in range(m.n_cols):
        rows, signs, _ = m.rows_of_many([col])
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
        rows, signs, _ = m.rows_of_many([col])
        expected = np.where(dense[:, col] != 0)[0]
        assert np.array_equal(rows, expected)
        assert np.array_equal(signs, dense[expected, col])


def test_rows_of_many_is_grouped_in_input_order():
    m = SparseSignMatrix.bernoulli(4, 80, 120, 0.06)
    query = np.array([63, 0, 17])
    rows, signs, owners = m.rows_of_many(query)
    cursor = 0
    for col in query:
        r, s, _ = m.rows_of_many([col])
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
    full = sample_bernoulli(21, 50, 0.3, cols)
    for slack in (-100.0, -2.0, 0.0):
        monkeypatch.setattr(sparse, "_SLACK_SD", slack)
        short = sample_bernoulli(21, 50, 0.3, cols)
        for a, b in zip(full, short):
            assert np.array_equal(a, b)


def test_column_does_not_depend_on_its_batch():
    a = sample_bernoulli(5, 400, 0.02, [9, 3, 77])
    b = sample_bernoulli(5, 400, 0.02, [77])
    assert np.array_equal(a[1][-a[0][-1]:], b[1])
    assert np.array_equal(a[2][-a[0][-1]:], b[2])


def test_one_request_equals_its_chunked_requests():
    # the sampler walks every column it is asked for at once: a request of
    # 70000 columns (1.47M first-draw words) returns what its 2048-column
    # pieces return, dtypes included
    cols = np.random.default_rng(11).integers(0, 10 ** 7, 70000)
    whole = sample_bernoulli(5, 400, 0.02, cols)
    pieces = [sample_bernoulli(5, 400, 0.02, cols[lo:lo + 2048])
              for lo in range(0, cols.size, 2048)]
    for got, parts in zip(whole, zip(*pieces)):
        want = np.concatenate(parts)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    empty = sample_bernoulli(5, 400, 0.02, [])
    assert [a.dtype for a in empty] == [a.dtype for a in whole]
    assert all(a.size == 0 for a in empty)
