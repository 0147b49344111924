"""Pipeline-stage contracts: tail energy, pruning, full decode, voting."""

import dataclasses
import math

import numpy as np
import pytest

from phaseless import (EnsembleConfig, EnsembleError, Measurements,
                       TailEstimationError, apply_phaseless, build_ensemble,
                       decode, decode_amplified, decoder, estimate_tail_energy, prune,
                       sparse)
from phaseless.bench import (AMPLIFIED_REPLICAS, SUCCESS_FACTOR, TrialSpec,
                             _ensemble_seed, _run_one, gen_signal,
                             min_flip_error_sq, tail_norm_sq)
from phaseless.signs import SignGraph, build_sign_graph, recover_communities
from phaseless.sketch import SketchError

from helpers import column_entries, exact_sparse, spikes_plus_tail

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
    """With c1 = 1 and ~248 of B's 256 buckets per repetition missing S1,
    L/(energy off S1 / k) lands in [0.8, 1.2] in >= 99% of seeded trials
    (unit i.i.d. tail outside S1)."""
    hits = 0
    trials = 150
    cfg = EnsembleConfig(c1=1.0)
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
    bumped[pos] *= -3.7  # missed buckets never see S1 coordinates
    after = estimate_tail_energy(ens, apply_phaseless(ens, bumped), S1)
    assert np.array_equal(base.per_rep, after.per_rep)


def test_tail_energy_reads_only_the_b_buckets_that_s1_misses():
    ens = build(6)
    rng = np.random.default_rng(6)
    x, pos = spikes_plus_tail(rng, N, K)
    meas = apply_phaseless(ens, x)
    base = estimate_tail_energy(ens, meas, pos).per_rep
    B = ens.blocks["B"]
    b_rows = np.arange(ens.total_rows)[ens.rows("B")]
    hit = b_rows[B.bucket_rows(pos)].ravel()
    missed = np.setdiff1d(b_rows, hit)
    outside_b = np.setdiff1d(np.arange(ens.total_rows), b_rows)

    def per_rep(rows, factor):
        y = meas.y.copy()
        y[rows] *= factor
        return estimate_tail_energy(ens, dataclasses.replace(meas, y=y),
                                    pos).per_rep

    assert np.array_equal(per_rep(outside_b, 3.0), base)
    assert np.array_equal(per_rep(hit, 3.0), base)
    changed = per_rep(missed[:1], 3.0)
    assert not np.array_equal(changed, base)
    rep = (missed[0] - b_rows[0]) // B.n_buckets   # the scaled row's repetition
    assert np.flatnonzero(changed != base).tolist() == [rep]


def test_tail_energy_with_a_nan_band_is_nan():
    # decode refuses non-finite y; estimate_tail_energy keeps np.median's NaN
    ens = build(5)
    rng = np.random.default_rng(5)
    x, pos = spikes_plus_tail(rng, N, K)
    meas = apply_phaseless(ens, x)
    y = meas.y.copy()
    y[ens.rows("B")][:ens.blocks["B"].n_buckets] = np.nan
    tail = estimate_tail_energy(ens, dataclasses.replace(meas, y=y), pos)
    assert np.isnan(tail.per_rep).sum() == 1    # B's first repetition only
    assert math.isnan(tail.L)


@pytest.mark.parametrize("S1", [[-3, 5], [5, 10 ** 6]])
def test_tail_energy_refuses_columns_outside_the_signal(S1):
    # both once returned L = 1.505, hashing columns that do not exist
    ens = build_ensemble(256, 3, rng_seed=0)
    meas = apply_phaseless(ens, np.eye(256)[5])
    with pytest.raises(SketchError, match="out of range"):
        estimate_tail_energy(ens, meas, S1)


def test_tail_energy_all_blocks_excluded_raises():
    # with S1 = every coordinate, each of B's 4 buckets per repetition is
    # hit unless all 128 coordinates miss it (probability 4 * (3/4)^128)
    ens = build_ensemble(128, 2, config=EnsembleConfig(countsketch_rows=4),
                         rng_seed=4)
    y = apply_phaseless(ens, np.zeros(128))
    with pytest.raises(TailEstimationError, match="countsketch_rows"):
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
    kept = S1[prune(est, L=0.0, k=4, C0=1.0)]
    assert kept.tolist() == [0, 1, 3, 5]


def test_prune_everything_below_threshold_is_empty():
    S1 = np.arange(4)
    est = np.full(4, 0.01)
    mask = prune(est, L=100.0, k=4, C0=1.0)
    assert mask.shape == est.shape and mask.dtype == bool
    kept = S1[mask]
    assert kept.size == 0


def test_prune_matches_exhaustive_oracle_geometric():
    k, C0 = 10, 1.0
    S1 = np.arange(20)
    est = 2.0 ** -np.arange(20)
    for L in [0.0, 1e-6, 1e-4, 1e-2, 0.3, 2.0]:
        got = S1[prune(est, L, k, C0)]
        want = prune_oracle(S1, est, L, k, C0)
        assert got.tolist() == want.tolist(), L


def test_prune_includes_ties_at_the_cut():
    S1 = np.arange(5)
    est = np.array([5.0, 1.0, 1.0, 1.0, 1.0])
    # threshold chosen so m = 2 qualifies but not m = 5
    k, C0 = 4, 1.0
    log5k = math.log2(20)
    L_mid = 0.9 ** 2 * C0 * 2.0 ** 1 * (log5k - 1 + 2) ** 2 / k
    kept = S1[prune(est, L_mid, k, C0)]
    assert kept.tolist() == [0, 1, 2, 3, 4]  # all four tied values included


def test_prune_random_agrees_with_oracle():
    rng = np.random.default_rng(8)
    for t in range(25):
        size = int(rng.integers(1, 30))
        S1 = np.sort(rng.choice(200, size, replace=False))
        est = np.abs(rng.standard_normal(size))
        L = float(abs(rng.standard_normal()) * 0.1)
        got = S1[prune(est, L, 10, 0.5)]
        want = prune_oracle(S1, est, L, 10, 0.5)
        assert got.tolist() == want.tolist()


# -- decode -------------------------------------------------------------------

def test_decode_zero_signal_returns_zero():
    ens = build(5)
    res = decode(ens, apply_phaseless(ens, np.zeros(N)))
    assert res.S2.size == 0
    assert np.all(res.to_dense() == 0)


def test_decode_s_chain_invariant():
    for t in range(8):
        ens = build(200 + t)
        rng = np.random.default_rng(t)
        x, _ = spikes_plus_tail(rng, N, K, ratio=60.0)
        res = decode(ens, apply_phaseless(ens, x))
        assert set(res.S2) <= set(res.S1) <= set(res.S0)
        assert res.S1.size <= ens.config.top_select
        assert np.array_equal(np.sort(res.S2), res.S2)
        assert res.values.size == res.S2.size


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


@pytest.mark.parametrize("n, k, model", [(n, k, exact_sparse)
                                         for n in (256, 4096)
                                         for k in (2, 3, 4, 5)]
                         + [(4096, 3, spikes_plus_tail)])
def test_decode_small_k(n, k, model):
    # at small k a sign class is often reached only through "differ" votes,
    # so every decisive pair test must count. One ensemble serves all 40
    # signals: its first dense signal keeps the F columns, so the
    # spikes-plus-tail point does not resample them for every trial
    ens = build_ensemble(n, k, rng_seed=13_000 + 100 * k)
    ok = 0
    for t in range(40):
        x, _ = model(np.random.default_rng(14_000 + 100 * k + t), n, k)
        res = decode(ens, apply_phaseless(ens, x))
        ok += min_flip_error_sq(x, res.to_dense()) \
            <= SUCCESS_FACTOR * tail_norm_sq(x, k)
    assert ok >= 36, ok


def test_one_spike_keeps_no_false_candidate_with_its_magnitude():
    # with 32 buckets per B repetition, a false candidate shared the spike's
    # bucket in 3 of 5 repetitions, took its magnitude as its median
    # estimate and was kept in S2 beside it (error^2 about 100 tail^2)
    spec = TrialSpec(n=1024, k=1, signal_model="spikes-plus-tail", trials=60,
                     seed=2810)
    record = _run_one(spec, 52)
    assert record["success"], record


# the defaults' resolved config before B, A and F were made leaner: 256 B
# buckets at k = 10, the floor of 64 at k = 1
BEFORE_LEAN = {"hh_bucket_factor": 1.5, "c_F": 0.1875}


@pytest.mark.parametrize("n, k, model, seed, trial", [
    (4096, 10, "spikes-plus-tail", 2910, 2),
    (4096, 10, "spikes-plus-tail", 2910, 194),
    (64, 1, "spikes-plus-tail", 2903, 627),
    (4096, 10, "exact-sparse", 2970, 186)])
@pytest.mark.parametrize("lean", [False, True], ids=["before-lean", "default"])
def test_a_candidate_reads_only_the_b_buckets_it_has_to_itself(
        n, k, model, seed, trial, lean):
    # each trial once had a member of S0 share a heavier member's B bucket
    # in 3 of 5 repetitions and take its magnitude as the median: a false
    # candidate kept in S2 (the first three), or a true one given a wrong
    # value (the last, with S2 exactly the support)
    config = EnsembleConfig() if lean else EnsembleConfig(
        **BEFORE_LEAN, countsketch_rows=256 if k == 10 else 64)
    spec = TrialSpec(n=n, k=k, signal_model=model, trials=trial + 1,
                     seed=seed, config=config)
    record = _run_one(spec, trial)
    assert record["success"], record


def test_decode_signs_failure_still_returns_magnitudes():
    # C0 large enough that F rows almost never pair up: edgeless graph
    ens = build(7, C0=50.0, c_F=0.01)
    x, pos = exact_sparse(np.random.default_rng(11), N, K)
    res = decode(ens, apply_phaseless(ens, x))
    if res.signs_failed:  # overwhelmingly the case with this config
        assert np.all(res.values >= 0)  # bare magnitudes
        assert res.S2.size > 0
        assert np.allclose(np.sort(res.values),
                           np.sort(np.abs(x[res.S2])), atol=1e-12)


def test_decode_rejects_non_finite_measurements():
    # all-NaN y once decoded to an empty estimate without an error
    ens = build(9)
    x, _ = exact_sparse(np.random.default_rng(13), N, K)
    clean = apply_phaseless(ens, x)
    for bad in (np.nan, np.inf):
        y = np.full_like(clean.y, bad)
        with pytest.raises(EnsembleError, match="finite"):
            decode(ens, dataclasses.replace(clean, y=y))


def test_decode_diagnostics_counters_positive():
    ens = build(8)
    x, _ = exact_sparse(np.random.default_rng(12), N, K)
    res = decode(ens, apply_phaseless(ens, x))
    d = res.diagnostics
    assert d.y_reads > 0 and d.index_reads > 0
    assert d.total_touches() == d.y_reads + d.index_reads
    # index reads = the B column entries of S0 and S1 and the F ones of S2
    cfg = ens.config
    expect = (res.S0.size + res.S1.size) * cfg.countsketch_reps
    if res.S2.size > 1:
        level = min(math.ceil(math.log2(res.S2.size)), ens.f_top_level)
        F = ens.blocks[f"F{2 ** level}"]
        expect += sum(column_entries(F, [j])[0].size for j in res.S2)
    assert d.index_reads == expect


@pytest.mark.parametrize("n", [2 ** 49 + 1, 2 ** 54, 2 ** 60 + 1,
                               (1 << 63) // 5],
                         ids=["2^49+1", "2^54", "2^60+1", "largest"])
def test_decode_past_2_53_returns_the_exact_support(n):
    # identification once assembled each bucket's index as a float64 sum,
    # which rounds past 2^53: 1 of 10 supports decoded exactly at 2^54, 0
    # of 10 at 2^60. The A block once took its index width as a float
    # ceil(log2 n), one bit short at n = 2^j + 1 for j >= 49, so column
    # n - 1, which every support here holds, was never identified. The
    # last n is the largest build_ensemble accepts with its 5 hash
    # repetitions. No dense x of length n can exist here, so the library's
    # one sensing pass reads each support and its values.
    k = 10
    ens = build_ensemble(n, k, rng_seed=54)
    rng = np.random.default_rng(54)
    for _ in range(10):
        support = np.unique(np.append(
            rng.integers(0, n - 1, size=k - 1, dtype=np.int64), n - 1))
        values = rng.choice([-1.0, 1.0], support.size) * rng.uniform(
            1.0, 2.0, support.size)
        y = np.abs(sparse.apply_blocks(list(ens.blocks.values()), support,
                                       values))
        res = decode(ens, Measurements(y, n, k, ens.seed, ens.config))
        assert np.array_equal(res.S2, support)


# -- amplified ----------------------------------------------------------------

def amplified_setup(seed, reps=3, **cfg):
    config = EnsembleConfig(**cfg)
    ensembles = [build_ensemble(N, K, config=config, rng_seed=seed + 17 * r)
                 for r in range(reps)]
    x, pos = exact_sparse(np.random.default_rng(seed), N, K)
    measurements = [apply_phaseless(e, x) for e in ensembles]
    return ensembles, measurements, x


def test_amplified_agrees_with_decode_when_unanimous():
    # the summed graph picks its own global orientation, which magnitudes
    # cannot show: the values match exactly up to one global flip
    for seed in (21, 25, 26, 27):
        ensembles, measurements, _ = amplified_setup(seed)
        plain = decode(ensembles[0], measurements[0])
        amp = decode_amplified(ensembles, measurements)
        assert not plain.signs_failed and plain.S2.size > 1
        assert np.array_equal(amp.values, plain.values) \
            or np.array_equal(amp.values, -plain.values), seed


def test_decode_is_the_one_replica_amplified_decode():
    sizes, negative_anchor = set(), False
    for cfg in ({}, {"C0": 50.0, "c_F": 0.01}):
        for seed in range(6):
            ens = build(40 + seed, **cfg)
            rng = np.random.default_rng(400 + seed)
            x = (np.zeros(N), exact_sparse(rng, N, 1)[0],
                 exact_sparse(rng, N, K)[0])[seed % 3]
            meas = apply_phaseless(ens, x)
            plain = decode(ens, meas)
            assert plain.to_json() == decode_amplified([ens], [meas]).to_json()
            sizes.add(min(plain.S2.size, 2))
            if plain.S2.size > 1:
                negative_anchor |= plain.values[np.argmax(np.abs(plain.values))] < 0
    assert sizes == {0, 1, 2} and negative_anchor


def pattern(m):
    # the signal-space signs the crafted sign graphs below report
    return np.where(np.arange(m) % 3 == 1, -1, 1)


def chain_graph(S2, members):
    """A sign graph on S2: a chain through ``members`` (positions in S2)
    voting the relative signs of ``pattern``."""
    u, v = members[:-1], members[1:]
    p = pattern(S2.size)
    return SignGraph(S2, u, v, p[u] * p[v], signed=True)


def test_a_member_no_replica_reached_keeps_its_bare_magnitude(monkeypatch):
    # every replica's graph isolates the largest member of S2 and chains
    # the rest: that member keeps its bare magnitude, the rest keep their
    # relative signs, and the disconnected graph is flagged
    ensembles, measurements, _ = amplified_setup(24)

    def sign_stage(ens, meas, S2, estimates, diagnostics):
        rest = np.flatnonzero(np.arange(S2.size) != np.argmax(estimates))
        return chain_graph(S2, rest)

    monkeypatch.setattr(decoder, "_sign_stage", sign_stage)
    amp = decode_amplified(ensembles, measurements)
    est2 = np.abs(amp.values)
    largest = np.argmax(est2)
    rest = np.arange(est2.size) != largest
    assert amp.S2.size > 2 and amp.signs_failed
    assert amp.values[largest] > 0
    signs = np.sign(amp.values[rest]) * pattern(est2.size)[rest]
    assert np.all(signs == signs[0])


def test_a_disconnected_vote_graph_is_flagged(monkeypatch):
    # such graphs once went unflagged, since only an isolated member set
    # the flag: with no vote between the two chains, one chain's signs are
    # a coin flip
    ens = build(24)
    x, _ = exact_sparse(np.random.default_rng(24), N, K)
    seen = []

    def two_components(F_block, yF, S2, estimates):
        half = S2.size // 2
        g = chain_graph(S2, np.arange(half))
        h = chain_graph(S2, np.arange(half, S2.size))
        seen.append(SignGraph(S2, np.r_[g.edge_u, h.edge_u],
                              np.r_[g.edge_v, h.edge_v],
                              np.r_[g.weights, h.weights], signed=True))
        return seen[-1]

    monkeypatch.setattr(decoder, "build_sign_graph", two_components)
    res = decode(ens, apply_phaseless(ens, x))
    assert res.S2.size == 8 and res.signs_failed
    # each component keeps its eigenvector signs; no vote relates them
    labels = recover_communities(seen[0])
    assert np.array_equal(res.values, labels * np.abs(res.values))
    # and each 4-member chain's signs agree with its own votes
    signs = np.sign(res.values) * pattern(res.S2.size)
    for chain in (signs[:4], signs[4:]):
        assert np.all(chain == chain[0])


def test_amplified_relates_members_through_every_replica():
    # replica 1 alone reached the largest member and missed member 0, which
    # replicas 0 and 2 relate to the rest; a vote through that one member
    # once left member 0's sign a guess and flagged the result
    spec = TrialSpec(n=1024, k=10, seed=8034, pipeline="cphase-amplified",
                     config=EnsembleConfig(c_F=0.03))
    x = gen_signal(spec, 1)
    ensembles = [build_ensemble(spec.n, spec.k, config=spec.config,
                                rng_seed=_ensemble_seed(spec.seed, 1, r))
                 for r in range(AMPLIFIED_REPLICAS)]
    amp = decode_amplified(ensembles, [apply_phaseless(e, x) for e in ensembles])
    assert not amp.signs_failed
    assert np.array_equal(amp.S2, np.flatnonzero(x))
    agree = np.sign(amp.values) == np.sign(x[amp.S2])
    assert agree.all() or not agree.any()


def test_amplified_absorbs_one_corrupted_replica():
    ensembles, measurements, x = amplified_setup(22, reps=3)
    clean = decode_amplified(ensembles, measurements).to_dense()
    corrupted = measurements[1]
    bad = corrupted.y.copy()
    for name, block in ensembles[1].blocks.items():
        if name.startswith("F"):
            bad[ensembles[1].rows(name)] = \
                np.random.default_rng(0).uniform(0, 10, block.n_rows)
    measurements_bad = [measurements[0], dataclasses.replace(corrupted, y=bad),
                        measurements[2]]
    out = decode_amplified(ensembles, measurements_bad).to_dense()
    assert np.array_equal(out, clean) or np.array_equal(out, -clean)


def test_amplified_counts_every_replicas_reads():
    ensembles, measurements, _ = amplified_setup(24)
    base = decode(ensembles[0], measurements[0])
    assert base.S2.size > 1
    estimates = np.abs(base.values)   # aligned to base.S2
    expect = dataclasses.asdict(base.diagnostics)
    level = min(math.ceil(math.log2(base.S2.size)), ensembles[0].f_top_level)
    for ens, meas in zip(ensembles[1:], measurements[1:]):
        name = f"F{2 ** level}"
        graph = build_sign_graph(ens.blocks[name], meas.y[ens.rows(name)],
                                 base.S2, estimates)
        for counter in ("y_reads", "edges_sampled"):
            expect[counter] += graph.pair_rows
        expect["index_reads"] += graph.entries
    amp = decode_amplified(ensembles, measurements)
    assert dataclasses.asdict(amp.diagnostics) == expect


def test_amplified_replicas_without_evidence_do_not_vote():
    # the replicas' sign graphs are edgeless, so they add no vote to the
    # summed graph and the primary's evidence decides alone
    lean = EnsembleConfig(C0=50.0, c_F=0.01)
    for t in range(20):
        x, _ = exact_sparse(np.random.default_rng(15_000 + t), N, K)
        ensembles = [build(16_000 + t)]
        ensembles += [build_ensemble(N, K, config=lean,
                                     rng_seed=17_000 + 10 * t + r)
                      for r in range(4)]
        measurements = [apply_phaseless(e, x) for e in ensembles]
        plain = decode(ensembles[0], measurements[0])
        amp = decode_amplified(ensembles, measurements)
        assert min_flip_error_sq(x, amp.to_dense()) \
            <= min_flip_error_sq(x, plain.to_dense()), t
        # a vertex only the primary could reach is flagged by both
        assert amp.signs_failed == plain.signs_failed, t


def test_amplified_validates_inputs():
    ensembles, measurements, _ = amplified_setup(23)
    with pytest.raises(ValueError):
        decode_amplified(ensembles, measurements[:2])
    with pytest.raises(ValueError):
        decode_amplified([], [])
    # a NaN replica must not cast votes
    replica = measurements[1]
    nan = dataclasses.replace(replica, y=np.full_like(replica.y, np.nan))
    with pytest.raises(EnsembleError, match="finite"):
        decode_amplified(ensembles, [measurements[0], nan, measurements[2]])


def test_decode_refuses_negative_measurements():
    # no |Phi x| is negative: such a y once decoded to an empty estimate
    ensembles, measurements, _ = amplified_setup(23, reps=1)
    y = measurements[0].y.copy()
    y[ensembles[0].rows("B")] *= -1
    with pytest.raises(EnsembleError, match="nonnegative"):
        decode(ensembles[0], dataclasses.replace(measurements[0], y=y))


def test_decode_refuses_a_batch():
    # a (signals, rows) y once passed the row check and failed in the A
    # block with a SketchError about its slice
    ensembles, measurements, _ = amplified_setup(23, reps=1)
    y = np.stack([measurements[0].y] * 2)
    with pytest.raises(EnsembleError, match=rf"shape \(2, {y.shape[1]}\)"):
        decode(ensembles[0], dataclasses.replace(measurements[0], y=y))


def test_decode_refuses_a_y_that_is_not_an_array():
    # a list of the right length once passed the row check and failed in
    # decode with "'list' object has no attribute 'min'"
    ensembles, measurements, _ = amplified_setup(23, reps=1)
    listed = dataclasses.replace(measurements[0], y=measurements[0].y.tolist())
    with pytest.raises(EnsembleError, match="y must be a numpy array, got list"):
        decode(ensembles[0], listed)
    with pytest.raises(EnsembleError, match="numpy array"):
        estimate_tail_energy(ensembles[0], listed, np.arange(K))


def test_decode_refuses_an_integer_y():
    # an int64 y once passed every check, and decode failed in
    # estimate_magnitudes with "cannot convert float infinity to integer"
    ens = build_ensemble(256, 3, rng_seed=5)
    x, _ = exact_sparse(np.random.default_rng(5), 256, 3)
    y = apply_phaseless(ens, x).y
    for dtype in (np.int64, np.bool_, np.complex128):
        meas = Measurements(np.rint(y * 1000).astype(dtype), ens.n, ens.k,
                            ens.seed, ens.config)
        message = f"floating-point array, got dtype {np.dtype(dtype)}"
        with pytest.raises(EnsembleError, match=message):
            decode(ens, meas)
        with pytest.raises(EnsembleError, match=message):
            decode_amplified([ens], [meas])
        with pytest.raises(EnsembleError, match=message):
            estimate_tail_energy(ens, meas, np.arange(3))
    assert decode(ens, dataclasses.replace(meas, y=y.astype(np.float32))).S2.size


def test_decode_refuses_a_bare_y_in_place_of_measurements():
    # a bare array once failed with "'numpy.ndarray' object has no
    # attribute 'n'"
    ensembles, measurements, _ = amplified_setup(23, reps=1)
    y = measurements[0].y
    with pytest.raises(EnsembleError, match="got ndarray"):
        decode(ensembles[0], y)
    with pytest.raises(EnsembleError, match="got ndarray"):
        estimate_tail_energy(ensembles[0], y, np.arange(K))
    with pytest.raises(EnsembleError, match="got ndarray"):
        decode_amplified(ensembles, [y])


def test_amplified_refuses_replicas_of_another_n():
    # such a replica once raised a bare IndexError, or voted with columns
    # of another signal length when S2 lay below its n
    x, _ = exact_sparse(np.random.default_rng(33), N, 4)
    ensembles = [build_ensemble(N, 4, rng_seed=3),
                 build_ensemble(N // 2, 4, rng_seed=3)]
    measurements = [apply_phaseless(ensembles[0], x),
                    apply_phaseless(ensembles[1], x[: N // 2])]
    with pytest.raises(EnsembleError, match=f"n={N // 2}"):
        decode_amplified(ensembles, measurements)


# -- ensemble identity -------------------------------------------------------

@pytest.mark.parametrize("change", [{"c1": 0.5}, {"c_F": 0.5}, {"seed": 6}])
def test_measurements_from_another_ensemble_are_refused(change):
    # such pairs once decoded without an error, or failed with a bare
    # ValueError or IndexError, depending on which constant differed
    x, _ = exact_sparse(np.random.default_rng(31), N, K)
    ens = build(5)
    constants = {key: v for key, v in change.items() if key != "seed"}
    other = build_ensemble(N, K, config=dataclasses.replace(ens.config, **constants),
                           rng_seed=change.get("seed", 5))
    meas = apply_phaseless(other, x)
    field = next(iter(change))
    with pytest.raises(EnsembleError, match=field):
        decode(ens, meas)
    with pytest.raises(EnsembleError, match=field):
        estimate_tail_energy(ens, meas, np.arange(K))
    with pytest.raises(EnsembleError, match=field):
        decode_amplified([other, ens], [meas, meas])


def test_identity_is_compared_by_value():
    # a rebuild is a different object with the same identity, and decodes
    # what the first build sensed exactly as the first build does
    x, _ = spikes_plus_tail(np.random.default_rng(32), N, K)
    first = build(7)
    meas = apply_phaseless(first, x)
    again = build(7)
    assert again is not first and again.config is not first.config
    assert decode(again, meas).to_json() == decode(first, meas).to_json()
    with pytest.raises(EnsembleError, match="rows"):
        decode(again, dataclasses.replace(meas, y=meas.y[:-1]))
