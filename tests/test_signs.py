"""Sign-graph construction and community recovery."""

import numpy as np
import pytest

from phaseless.ensemble import EnsembleConfig
from phaseless.bench import edge_error_experiment
from phaseless.signs import SignGraph, build_sign_graph, recover_communities

from helpers import ListBlock, bisection_accuracy, sample_sbm


def one_row_block(n, support, signs):
    return ListBlock(1, n, np.zeros(len(support)), support, signs)


def test_zero_estimates_give_no_edges():
    # both distances coincide, and the test is strict
    block = one_row_block(10, [2, 5], [1, 1])
    est = np.array([0.0, 0.0])
    g = build_sign_graph(block, np.array([3.7]), np.array([2, 5]), est)
    assert g.n_edges == 0 and g.pair_rows == 1


def test_noiseless_same_sign_pair_adds_edge():
    # x = (3, 4), same true signs, matched row signs: y = 7 and 0 < 6
    block = one_row_block(10, [2, 5], [1, 1])
    est = np.array([3.0, 4.0])
    g = build_sign_graph(block, np.array([7.0]), np.array([2, 5]), est)
    assert g.n_edges == 1
    assert (g.edge_u[0], g.edge_v[0]) == (0, 1)     # positions in S2


def test_noiseless_opposite_sign_pair_votes_differ():
    # x = (3, -4), matched row signs: y = 1, nearer |3 - 4| than 3 + 4
    block = one_row_block(10, [2, 5], [1, 1])
    est = np.array([3.0, 4.0])
    g = build_sign_graph(block, np.array([1.0]), np.array([2, 5]), est)
    assert g.signed and g.n_edges == 1
    assert g.weights.tolist() == [-1]


def test_mismatched_row_signs_reverse_the_test():
    # same true signs but sigma_u != sigma_v: y = |3-4| = 1, and the
    # reversed inequality 6 > 0 holds, so the pair votes agree
    block = one_row_block(10, [2, 5], [1, -1])
    est = np.array([3.0, 4.0])
    g = build_sign_graph(block, np.array([1.0]), np.array([2, 5]), est)
    assert g.n_edges == 1
    assert g.weights.tolist() == [1]


def test_rows_meeting_set_in_one_or_three_spots_are_ignored():
    n = 12
    rows = np.array([0, 0, 0, 1], dtype=np.int64)
    cols = np.array([1, 2, 3, 1], dtype=np.int32)
    signs = np.ones(4, dtype=np.int8)
    block = ListBlock(2, n, rows, cols, signs)
    est = np.array([1.0, 1.0, 1.0])
    g = build_sign_graph(block, np.array([3.0, 1.0]), np.array([1, 2, 3]), est)
    assert g.pair_rows == 0 and g.n_edges == 0


def test_graph_is_undirected_and_weighted():
    n = 8
    block = ListBlock(2, n, [0, 0, 1, 1],
                      [4, 6, 6, 4],  # same pair twice, swapped
                      np.ones(4))
    est = np.array([1.0, 2.0])
    g = build_sign_graph(block, np.array([3.0, 3.0]), np.array([4, 6]), est)
    assert g.weights.tolist() == [1, 1]
    assert sorted(zip(g.edge_u.tolist(), g.edge_v.tolist())) == [(0, 1)] * 2
    assert g.W.tolist() == [[0.0, 2.0], [2.0, 0.0]]


def test_small_vertex_sets():
    with pytest.raises(ValueError):
        recover_communities(SignGraph(np.empty(0, np.int64),
                                      np.empty(0, np.int64),
                                      np.empty(0, np.int64),
                                      np.empty(0, np.int64)))
    single = SignGraph(np.array([9]), np.empty(0, np.int64),
                       np.empty(0, np.int64), np.empty(0, np.int64))
    assert recover_communities(single).tolist() == [1]
    assert not single.W.any()             # isolated: the label defaults


def test_two_disjoint_cliques_recover_exactly():
    verts = np.arange(10)
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    pairs += [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
    u = np.array([p[0] for p in pairs], dtype=np.int64)
    v = np.array([p[1] for p in pairs], dtype=np.int64)
    g = SignGraph(verts, u, v, np.ones(u.size, np.int64))
    labels = recover_communities(g)
    assert g.W.any(axis=1).all()          # no vertex isolated
    first = set(labels[:5])
    second = set(labels[5:])
    assert len(first) == 1 and len(second) == 1 and first != second


def test_isolated_vertex_flagged_and_defaulted():
    g = SignGraph(np.array([0, 1, 2]), np.array([0]), np.array([1]),
                  np.array([3]))
    labels = recover_communities(g)
    assert not g.connected                # what decode flags
    assert (~g.W.any(axis=1)).tolist() == [False, False, True]
    assert labels[2] == 1


def test_connected_counts_components_of_the_summed_votes():
    def graph(m, u, v, w):
        # coordinates 7 apart; the endpoints are positions among them
        return SignGraph(np.arange(m) * 7, np.asarray(u, dtype=np.int64),
                         np.asarray(v, dtype=np.int64), np.asarray(w),
                         signed=True)

    assert graph(1, [], [], []).connected            # one vertex
    assert graph(5, [0, 1, 2, 3], [1, 2, 3, 4], [1, -1, 1, 1]).connected
    assert not graph(4, [0, 2], [1, 3], [1, -1]).connected   # two chains
    assert not graph(3, [0], [1], [2]).connected     # an isolated vertex
    # votes that cancel on a pair leave it unrelated
    assert not graph(2, [0, 0], [1, 1], [1, -1]).connected
    # a path of eight edges is crossed end to end
    assert graph(9, range(8), range(1, 9), [1] * 8).connected


def test_a_vote_graph_reads_positions_not_coordinates():
    # the same rows over S2 = 7 * arange(m) and over 0..m-1 give the same
    # positional edges, W, labels and connectivity
    rng = np.random.default_rng(13)
    for m in (2, 5, 9, 16):
        n_rows = 40
        rows = rng.integers(0, n_rows, 6 * m)
        owners = rng.integers(0, m, rows.size)
        signs = rng.choice([-1, 1], rows.size)
        yF = rng.uniform(0.0, 4.0, n_rows)
        est = rng.uniform(0.5, 2.0, m)
        graphs = [build_sign_graph(ListBlock(n_rows, 7 * m, rows, S2[owners],
                                             signs), yF, S2, est)
                  for S2 in (7 * np.arange(m), np.arange(m))]
        spread, packed = graphs
        assert spread.n_edges > 0
        assert np.array_equal(spread.edge_u, packed.edge_u)
        assert np.array_equal(spread.edge_v, packed.edge_v)
        assert np.array_equal(spread.W, packed.W)
        assert np.array_equal(recover_communities(spread),
                              recover_communities(packed))
        assert spread.connected == packed.connected


def test_recovery_is_deterministic():
    rng = np.random.default_rng(5)
    g, _ = sample_sbm(128, 9, 1, rng)
    a = recover_communities(g)
    b = recover_communities(g)
    assert np.array_equal(a, b)


def test_sbm_at_threshold_quick():
    hits = 0
    for t in range(25):
        rng = np.random.default_rng(600 + t)
        g, truth = sample_sbm(512, 9, 1, rng)
        hits += bisection_accuracy(recover_communities(g), truth) == 1.0
    assert hits >= 22


def test_edge_rate_separation_with_planted_signs():
    """Per sampled pair, same-sign pairs vote agree strictly more often
    than cross-sign pairs; accumulated over >= 1000 pair rows. Pair sampling
    is sign-blind, so comparing per-pair agree-vote yields is fair."""
    import numpy as np
    from phaseless.bench import TrialSpec, gen_signal, _ensemble_seed
    from phaseless.ensemble import build_ensemble, apply_phaseless
    import math

    n, k = 4096, 10
    spec = TrialSpec(n=n, k=k, signal_model="spikes-plus-tail", trials=24,
                     seed=71)
    same_edges = cross_edges = 0
    same_pairs = cross_pairs = pair_rows = 0
    for t in range(spec.trials):
        x = gen_signal(spec, t)
        ens = build_ensemble(n, k, rng_seed=_ensemble_seed(71, t))
        meas = apply_phaseless(ens, x)
        support = np.sort(np.argsort(-np.abs(x))[:k])
        est = np.abs(x[support])
        name = ens.f_block(k)
        g = build_sign_graph(ens.blocks[name], meas.y[ens.rows(name)], support,
                             est)
        planted = np.sign(x[support])     # by position, as the edges are
        n_plus = int(np.sum(planted > 0))
        same_pairs += n_plus * (n_plus - 1) // 2 + \
            (k - n_plus) * (k - n_plus - 1) // 2
        cross_pairs += n_plus * (k - n_plus)
        pair_rows += g.pair_rows
        for u, v, w in zip(g.edge_u, g.edge_v, g.weights):
            if w < 0:
                continue
            if planted[int(u)] == planted[int(v)]:
                same_edges += int(w)
            else:
                cross_edges += int(w)
    assert pair_rows >= 1000
    same_rate = same_edges / same_pairs
    cross_rate = cross_edges / cross_pairs
    assert same_rate > cross_rate, (same_rate, cross_rate)


def test_edge_correctness_at_least_point_six_on_large_set():
    # 64 planted-sign coordinates; a single trial already samples well over
    # a thousand pair rows at this size
    wrong = edge_error_experiment(4096, 64, EnsembleConfig(), trials=3,
                                  seed=72)
    assert 1.0 - wrong >= 0.6, wrong
