"""Sign-graph construction and community recovery."""

import numpy as np
import pytest

from phaseless.ensemble import EnsembleConfig
from phaseless.bench import edge_error_experiment
from phaseless.signs import (ClusterLabels, SignGraph, assign_signs,
                             build_sign_graph, recover_communities)

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
    assert (g.edge_u[0], g.edge_v[0]) == (2, 5)


def test_noiseless_opposite_sign_pair_adds_no_edge():
    block = one_row_block(10, [2, 5], [1, 1])
    est = np.array([3.0, 4.0])
    g = build_sign_graph(block, np.array([1.0]), np.array([2, 5]), est)
    assert g.n_edges == 0


def test_mismatched_row_signs_reverse_the_test():
    # same true signs but sigma_u != sigma_v: y = |3-4| = 1, and the
    # reversed inequality 6 > 0 holds, so the edge is added
    block = one_row_block(10, [2, 5], [1, -1])
    est = np.array([3.0, 4.0])
    g = build_sign_graph(block, np.array([1.0]), np.array([2, 5]), est)
    assert g.n_edges == 1


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
    assert g.edge_u.tolist() == [4] and g.edge_v.tolist() == [6]
    assert g.weights.tolist() == [2]


def test_small_vertex_sets():
    with pytest.raises(ValueError):
        recover_communities(SignGraph(np.empty(0, np.int64),
                                      np.empty(0, np.int64),
                                      np.empty(0, np.int64),
                                      np.empty(0, np.int64), -1))
    single = SignGraph(np.array([9]), np.empty(0, np.int64),
                       np.empty(0, np.int64), np.empty(0, np.int64), -1)
    labels = recover_communities(single)
    assert labels.labels.tolist() == [1] and labels.flagged


def test_two_disjoint_cliques_recover_exactly():
    verts = np.arange(10)
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    pairs += [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
    u = np.array([p[0] for p in pairs], dtype=np.int64)
    v = np.array([p[1] for p in pairs], dtype=np.int64)
    g = SignGraph(verts, u, v, np.ones(u.size, np.int64), -1)
    labels = recover_communities(g)
    assert not labels.flagged
    first = set(labels.labels[:5])
    second = set(labels.labels[5:])
    assert len(first) == 1 and len(second) == 1 and first != second


def test_isolated_vertex_flagged_and_defaulted():
    g = SignGraph(np.array([0, 1, 2]), np.array([0]), np.array([1]),
                  np.array([3]), -1)
    labels = recover_communities(g)
    assert labels.flagged
    assert labels.labels[2] == 1


def test_recovery_is_deterministic():
    rng = np.random.default_rng(5)
    g, _ = sample_sbm(128, 9, 1, rng)
    a = recover_communities(g)
    b = recover_communities(g)
    assert np.array_equal(a.labels, b.labels)


def test_sbm_at_threshold_quick():
    hits = 0
    for t in range(25):
        rng = np.random.default_rng(600 + t)
        g, truth = sample_sbm(512, 9, 1, rng)
        hits += bisection_accuracy(recover_communities(g), truth) == 1.0
    assert hits >= 22


def test_assign_signs_and_flip_invariance():
    est = np.array([2.0, 1.5])
    labels = ClusterLabels(np.array([1, -1]))
    idx, vals = assign_signs(labels, est, np.array([3, 8]))
    assert vals.tolist() == [2.0, -1.5]
    flipped = ClusterLabels(np.array([-1, 1]))
    _, vals_f = assign_signs(flipped, est, np.array([3, 8]))
    x = np.zeros(10)
    x[3], x[8] = 2.0, -1.5
    xh = np.zeros(10)
    xh[[3, 8]] = vals
    xh_f = np.zeros(10)
    xh_f[[3, 8]] = vals_f
    err = min(np.sum((x - xh) ** 2), np.sum((x + xh) ** 2))
    err_f = min(np.sum((x - xh_f) ** 2), np.sum((x + xh_f) ** 2))
    assert err == err_f == 0.0


def test_edge_rate_separation_with_planted_signs():
    """Per sampled pair, same-sign pairs pass the test strictly more often
    than cross-sign pairs; accumulated over >= 1000 pair rows. Pair sampling
    is sign-blind, so comparing per-pair edge yields is fair."""
    import numpy as np
    from phaseless.bench import TrialSpec, gen_signal, _ensemble_seed
    from phaseless.ensemble import build_ensemble, apply_phaseless
    import math

    n, k = 4096, 10
    spec = TrialSpec(n=n, k=k, signal_model="spikes-plus-tail", trials=12,
                     seed=71)
    same_edges = cross_edges = 0
    same_pairs = cross_pairs = pair_rows = 0
    for t in range(spec.trials):
        x = gen_signal(spec, t)
        ens = build_ensemble(n, k, rng_seed=_ensemble_seed(71, t))
        meas = apply_phaseless(ens, x)
        support = np.sort(np.argsort(-np.abs(x))[:k])
        est = np.abs(x[support])
        level, name = ens.f_block(k)
        g = build_sign_graph(ens.blocks[name], meas.block(name), support, est,
                             level=level)
        planted = np.sign(ens.D * x)
        n_plus = int(np.sum(planted[support] > 0))
        same_pairs += n_plus * (n_plus - 1) // 2 + \
            (k - n_plus) * (k - n_plus - 1) // 2
        cross_pairs += n_plus * (k - n_plus)
        pair_rows += g.pair_rows
        for u, v, w in zip(g.edge_u, g.edge_v, g.weights):
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
