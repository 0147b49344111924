"""Pipeline-stage contracts: tail energy, pruning, full decode, voting."""

import math

import numpy as np
import pytest

from phaseless import (EnsembleConfig, TailEstimationError, apply_phaseless,
                       build_ensemble, decode, decode_amplified,
                       estimate_tail_energy, prune)
from phaseless.bench import min_flip_error_sq
from phaseless.signs import build_sign_graph

from helpers import exact_sparse, spikes_plus_tail

N, K = 1024, 8


def build(seed, **cfg):
    return build_ensemble(N, K, config=EnsembleConfig(**cfg), rng_seed=seed)


# -- tail energy ------------------------------------------------------------

def test_tail_energy_zero_for_covered_support():
    ens = build(1)
    rng = np.random.default_rng(0)
    x, pos = exact_sparse(rng, N, K)
    tail = estimate_tail_energy(ens, apply_phaseless(ens, x), pos)
    assert tail.L == 0.0
    assert np.all(tail.per_rep == 0.0)


def test_tail_energy_unbiased_concentration():
    """With c1 = 1 and a row budget giving ~200 disjoint rows per band of E,
    L/(energy off S1 / k) lands in [0.8, 1.2] in >= 99% of seeded trials
    (unit i.i.d. tail outside S1)."""
    hits = 0
    trials = 150
    cfg = EnsembleConfig(c1=1.0, C1=80.0)
    for t in range(trials):
        ens = build_ensemble(N, K, config=cfg, rng_seed=5000 + t)
        rng = np.random.default_rng(t)
        S1 = rng.choice(N, K, replace=False)
        x = rng.standard_normal(N)
        x[S1] = 0.0
        target = np.sum(x ** 2) / K
        tail = estimate_tail_energy(ens, apply_phaseless(ens, x), S1)
        hits += 0.8 * target <= tail.L <= 1.2 * target
    assert hits / trials >= 0.99, hits / trials


def test_tail_energy_ignores_s1_coordinates():
    ens = build(2)
    rng = np.random.default_rng(3)
    x, pos = exact_sparse(rng, N, K)
    S1 = pos
    base = estimate_tail_energy(ens, apply_phaseless(ens, x), S1)
    bumped = x.copy()
    bumped[pos] *= -3.7  # disjoint rows never see S1 coordinates
    after = estimate_tail_energy(ens, apply_phaseless(ens, bumped), S1)
    assert np.array_equal(base.per_rep, after.per_rep)


def test_tail_energy_all_blocks_excluded_raises():
    # k = 2 gives E density 1/2; with S1 = everything, any nonempty row hits
    ens = build_ensemble(128, 2, config=EnsembleConfig(C1=4.0), rng_seed=4)
    y = apply_phaseless(ens, np.zeros(128))
    with pytest.raises(TailEstimationError):
        estimate_tail_energy(ens, y, np.arange(128))


# -- prune -------------------------------------------------------------------

def prune_oracle(S1, estimates, L, k, C0):
    """Literal transcription of the threshold scan, kept independent."""
    z = sorted(estimates.tolist(), reverse=True)
    best = 0
    for m in range(1, len(z) + 1):
        l0 = -1
        while not (2 ** l0 < m <= 2 ** (l0 + 1)):
            l0 += 1
        thr = k * L / (C0 * 2.0 ** l0 * (math.log2(5 * k) - l0 + 2) ** 2)
        if z[m - 1] ** 2 > thr:
            best = m
    if best == 0:
        return np.empty(0, dtype=np.int64)
    cut = z[best - 1]
    return np.sort([int(i) for i, e in zip(S1, estimates) if e >= cut])


def test_prune_zero_threshold_keeps_positive_estimates():
    S1 = np.arange(6)
    est = np.array([3.0, 2.0, 0.0, 1.0, 0.0, 0.5])
    kept = prune(S1, est, L=0.0, k=4, C0=1.0)
    assert kept.tolist() == [0, 1, 3, 5]


def test_prune_everything_below_threshold_is_empty():
    S1 = np.arange(4)
    est = np.full(4, 0.01)
    kept = prune(S1, est, L=100.0, k=4, C0=1.0)
    assert kept.size == 0


def test_prune_matches_exhaustive_oracle_geometric():
    k, C0 = 10, 1.0
    S1 = np.arange(20)
    est = 2.0 ** -np.arange(20)
    for L in [0.0, 1e-6, 1e-4, 1e-2, 0.3, 2.0]:
        got = prune(S1, est, L, k, C0)
        want = prune_oracle(S1, est, L, k, C0)
        assert got.tolist() == want.tolist(), L


def test_prune_includes_ties_at_the_cut():
    S1 = np.arange(5)
    est = np.array([5.0, 1.0, 1.0, 1.0, 1.0])
    # threshold chosen so m = 2 qualifies but not m = 5
    k, C0 = 4, 1.0
    log5k = math.log2(20)
    L_mid = 0.9 ** 2 * C0 * 2.0 ** 1 * (log5k - 1 + 2) ** 2 / k
    kept = prune(S1, est, L_mid, k, C0)
    assert kept.tolist() == [0, 1, 2, 3, 4]  # all four tied values included


def test_prune_random_agrees_with_oracle():
    rng = np.random.default_rng(8)
    for t in range(25):
        size = int(rng.integers(1, 30))
        S1 = np.sort(rng.choice(200, size, replace=False))
        est = np.abs(rng.standard_normal(size))
        L = float(abs(rng.standard_normal()) * 0.1)
        got = prune(S1, est, L, 10, 0.5)
        want = prune_oracle(S1, est, L, 10, 0.5)
        assert got.tolist() == want.tolist()


# -- decode -------------------------------------------------------------------

def test_decode_zero_signal_returns_zero():
    ens = build(5)
    res = decode(ens, apply_phaseless(ens, np.zeros(N)))
    assert res.indices.size == 0
    assert np.all(res.to_dense() == 0)


def test_decode_s_chain_invariant():
    for t in range(8):
        ens = build(200 + t)
        rng = np.random.default_rng(t)
        x, _ = spikes_plus_tail(rng, N, K, ratio=60.0)
        res = decode(ens, apply_phaseless(ens, x))
        assert set(res.S2) <= set(res.S1) <= set(res.S0)
        assert res.S1.size <= ens.config.top_select
        assert np.array_equal(np.sort(res.indices), res.S2)


def test_decode_negated_signal_same_estimate():
    ens = build(6)
    x, _ = exact_sparse(np.random.default_rng(9), N, K)
    a = decode(ens, apply_phaseless(ens, x)).to_dense()
    b = decode(ens, apply_phaseless(ens, -x)).to_dense()
    assert np.array_equal(a, b)
    assert min_flip_error_sq(x, a) == min_flip_error_sq(-x, b)


def test_decode_exact_sparse_mini_rate():
    ok = 0
    for t in range(20):
        ens = build_ensemble(2048, 10, rng_seed=7000 + t)
        x, _ = exact_sparse(np.random.default_rng(t), 2048, 10)
        res = decode(ens, apply_phaseless(ens, x))
        ok += min_flip_error_sq(x, res.to_dense()) == 0.0
    assert ok >= 16


@pytest.mark.parametrize("n", [256, 4096])
def test_decode_one_sparse_signals(n):
    # k = 1 used to give E density 1, so every E row met S1 and the tail
    # estimate always raised
    ok = 0
    for t in range(30):
        ens = build_ensemble(n, 1, rng_seed=11_000 + t)
        x, _ = exact_sparse(np.random.default_rng(12_000 + t), n, 1)
        res = decode(ens, apply_phaseless(ens, x))
        ok += min_flip_error_sq(x, res.to_dense()) == 0.0
    assert ok >= 27, ok


def test_decode_signs_failure_still_returns_magnitudes():
    # C0 large enough that F rows almost never pair up: edgeless graph
    ens = build(7, C0=50.0, c_F=0.01)
    x, pos = exact_sparse(np.random.default_rng(11), N, K)
    res = decode(ens, apply_phaseless(ens, x))
    if res.signs_failed:  # overwhelmingly the case with this config
        assert np.all(res.values >= 0)  # bare magnitudes
        assert res.S2.size > 0
        assert np.allclose(np.sort(res.values),
                           np.sort(np.abs(x[res.indices])), atol=1e-12)


def test_decode_diagnostics_counters_positive():
    ens = build(8)
    x, _ = exact_sparse(np.random.default_rng(12), N, K)
    res = decode(ens, apply_phaseless(ens, x))
    d = res.diagnostics
    assert d.y_reads > 0 and d.index_reads > 0
    assert d.total_touches() == d.y_reads + d.index_reads
    # index reads = the B, E and F column entries of S0, S1 and S2
    cfg = ens.config
    expect = res.S0.size * cfg.countsketch_reps
    expect += ens.blocks["E"].rows_of_many(res.S1)[0].size
    if res.S2.size > 1:
        level = min(max(0, math.ceil(math.log2(res.S2.size))), ens.f_top_level)
        F = ens.blocks[f"F{2 ** level}"]
        expect += sum(F.rows_of_many([j])[0].size for j in res.S2)
    assert d.index_reads == expect


# -- amplified ----------------------------------------------------------------

def amplified_setup(seed, reps=3, **cfg):
    config = EnsembleConfig(**cfg)
    ensembles = [build_ensemble(N, K, config=config, rng_seed=seed + 17 * r)
                 for r in range(reps)]
    x, pos = exact_sparse(np.random.default_rng(seed), N, K)
    measurements = [apply_phaseless(e, x) for e in ensembles]
    return ensembles, measurements, x


def test_amplified_agrees_with_decode_when_unanimous():
    ensembles, measurements, x = amplified_setup(21)
    plain = decode(ensembles[0], measurements[0]).to_dense()
    amp = decode_amplified(ensembles, measurements).to_dense()
    # identical up to the arbitrary global orientation
    assert np.array_equal(amp, plain) or np.array_equal(amp, -plain)


def test_amplified_absorbs_one_corrupted_replica():
    ensembles, measurements, x = amplified_setup(22, reps=3)
    clean = decode_amplified(ensembles, measurements).to_dense()
    corrupted = measurements[1]
    bad = corrupted.y.copy()
    for name in ensembles[1].blocks:
        if name.startswith("F"):
            start, rows = corrupted.offsets[name], corrupted.block_rows[name]
            bad[start:start + rows] = np.random.default_rng(0).uniform(0, 10, rows)
    measurements_bad = [measurements[0],
                        type(corrupted)(y=bad, offsets=corrupted.offsets,
                                        block_rows=corrupted.block_rows),
                        measurements[2]]
    out = decode_amplified(ensembles, measurements_bad).to_dense()
    assert np.array_equal(out, clean) or np.array_equal(out, -clean)


def test_amplified_counts_every_replicas_reads():
    ensembles, measurements, _ = amplified_setup(24)
    base = decode(ensembles[0], measurements[0])
    assert base.S2.size > 1 and base.labels is not None
    estimates = np.abs(base.values)   # aligned to base.indices == base.S2
    expect = base.diagnostics.as_dict()
    level = min(math.ceil(math.log2(base.S2.size)), ensembles[0].f_top_level)
    for ens, meas in zip(ensembles[1:], measurements[1:]):
        name = f"F{2 ** level}"
        graph = build_sign_graph(ens.blocks[name], meas.block(name), base.S2,
                                 estimates, level=level)
        for counter in ("y_reads", "rows_touched", "edges_sampled"):
            expect[counter] += graph.pair_rows
        expect["index_reads"] += graph.entries
    amp = decode_amplified(ensembles, measurements)
    assert amp.diagnostics.as_dict() == expect


def test_amplified_validates_inputs():
    ensembles, measurements, _ = amplified_setup(23)
    with pytest.raises(ValueError):
        decode_amplified(ensembles, measurements[:2])
    with pytest.raises(ValueError):
        decode_amplified([], [])
