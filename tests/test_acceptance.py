"""Acceptance suite: one test per shipping criterion, strictest settings.

Each test prints a single PASS line with the measured figure next to its
threshold (run with -s to see them). Heavy Monte-Carlo batches are shared
through module-scoped fixtures. Every tolerance is pinned here, not in
helper code.
"""

import itertools
import math
import time
from math import comb

import numpy as np
import pytest

from phaseless import (EnsembleConfig, DeterministicScheme, apply_phaseless,
                       build_ensemble, decode, decode_amplified, det_measure,
                       det_recover, prony_solve, row_count)
from phaseless.bench import (TrialSpec, gen_signal, min_flip_error_sq,
                             run_trials, tail_norm_sq, twin_phase_error,
                             wilson_interval, _ensemble_seed)
from phaseless.signs import recover_communities

from helpers import (bisection_accuracy, column_entries, exact_sparse,
                     random_complex_sparse, sample_sbm, tail_sq)

N, K = 4096, 10
TRIALS = 300


def report(num: int, ok: bool, text: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, text


# ---------------------------------------------------------------------------
# deterministic scheme
# ---------------------------------------------------------------------------

def test_criterion_1_deterministic_recovery():
    """n=64, k in 1..8, 500 signals: relative error < 1e-8 up to global
    phase (times the scheme's conjugate-reflection twin) in >= 99% of
    trials, 4k-1 measurements, under 10 s total."""
    n = 64
    successes = 0
    start = time.perf_counter()
    for t in range(500):
        k = 1 + t % 8
        rng = np.random.default_rng(1_000_000 + t)
        x, _ = random_complex_sparse(rng, n, k)
        scheme = DeterministicScheme(n, k)
        y = det_measure(scheme, x)
        assert y.shape == (4 * k - 1,)
        try:
            x_hat = det_recover(scheme, y).values
        except Exception:
            continue
        if twin_phase_error(x_hat, x) < 1e-8 * np.linalg.norm(x):
            successes += 1
    elapsed = time.perf_counter() - start
    ok = successes >= 495 and elapsed < 10.0
    report(1, ok, f"deterministic recovery {successes}/500 "
                  f"(>= 495), runtime {elapsed:.1f}s (< 10s)")


def test_criterion_2_prony_brute_force_equivalence():
    """200 random instances with n <= 16, k <= 3: the solver matches the
    support-enumeration oracle to 1e-10."""
    worst = 0.0
    for t in range(200):
        rng = np.random.default_rng(2_000_000 + t)
        n = int(rng.choice([8, 12, 16]))
        k = int(rng.integers(1, 4))
        x, _ = random_complex_sparse(rng, n, k)
        g = np.fft.fft(x)[: 2 * k] / math.sqrt(n)
        fast = prony_solve(g, n, k).values
        slow = _brute_force(g, n, k)
        assert slow is not None, f"oracle found no preimage (t={t})"
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    report(2, worst < 1e-10,
           f"prony vs brute force, worst deviation {worst:.2e} (< 1e-10)")


def _brute_force(g, n, k):
    F = np.exp(-2j * np.pi * np.outer(np.arange(2 * k), np.arange(n)) / n)
    F /= math.sqrt(n)
    for r in range(k + 1):
        for support in itertools.combinations(range(n), r):
            cols = F[:, list(support)]
            coef, *_ = np.linalg.lstsq(cols, g, rcond=None)
            if np.linalg.norm(cols @ coef - g) < 1e-9:
                x = np.zeros(n, complex)
                x[list(support)] = coef
                return x
    return None


# ---------------------------------------------------------------------------
# randomized pipeline, exact regime
# ---------------------------------------------------------------------------

def test_criterion_3_exact_sparse_recovery():
    """n=4096, k=10, 300 exactly sparse trials at the calibrated defaults:
    exact recovery (error exactly 0 after the best sign flip) in >= 90%,
    under 60 s total."""
    successes = 0
    start = time.perf_counter()
    for t in range(TRIALS):
        rng = np.random.default_rng(3_000_000 + t)
        x, _ = exact_sparse(rng, N, K)
        ens = build_ensemble(N, K, rng_seed=_ensemble_seed(333, t))
        result = decode(ens, apply_phaseless(ens, x))
        if min_flip_error_sq(x, result.to_dense()) == 0.0:
            successes += 1
    elapsed = time.perf_counter() - start
    ok = successes >= 0.90 * TRIALS and elapsed < 60.0
    report(3, ok, f"exact recovery {successes}/{TRIALS} (>= {int(0.9*TRIALS)}), "
                  f"runtime {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# randomized pipeline, noisy regime (shared batch for criteria 4-6)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def noisy_batch():
    spec = TrialSpec(n=N, k=K, signal_model="spikes-plus-tail", trials=TRIALS,
                     seed=444, tail_norm=1.0, spike_energy_ratio=100.0)
    rows = []
    for t in range(TRIALS):
        x = gen_signal(spec, t)
        ens = build_ensemble(N, K, rng_seed=_ensemble_seed(spec.seed, t))
        result = decode(ens, apply_phaseless(ens, x))
        off_s1 = x.copy()
        off_s1[result.S1] = 0.0
        off_s2 = x.copy()
        off_s2[result.S2] = 0.0
        rows.append({
            "err2": min_flip_error_sq(x, result.to_dense()),
            "tail2": tail_norm_sq(x, K),
            "tail10k2": tail_sq(x, 10 * K),
            "L": result.tail_energy.L,
            "mass_off_s1": float(np.sum(off_s1 ** 2)),
            "mass_off_s2": float(np.sum(off_s2 ** 2)),
        })
    return rows


def test_criterion_4_l2l2_guarantee(noisy_batch):
    """Squared error <= 1.8 * squared k-tail in more than 2/3 of trials,
    with the 95% binomial lower confidence bound above 2/3."""
    wins = sum(1 for r in noisy_batch if r["err2"] <= 1.8 * r["tail2"])
    lo, _ = wilson_interval(wins, len(noisy_batch))
    ok = lo > 2 / 3
    report(4, ok, f"l2/l2 success {wins}/{len(noisy_batch)}, "
                  f"95% CI lower bound {lo:.3f} (> {2/3:.3f})")


def test_criterion_5_tail_energy_sandwich(noisy_batch):
    """L <= tail^2/k in >= 95% of trials; the lower-side constant
    C' = k L / ||x_tail(10k)||^2 is positive with median > 0.1."""
    upper_ok = sum(1 for r in noisy_batch if r["L"] <= r["tail2"] / K)
    c_prime = np.array([K * r["L"] / r["tail10k2"] for r in noisy_batch])
    ok = (upper_ok >= 0.95 * len(noisy_batch)
          and c_prime.min() > 0.0
          and float(np.median(c_prime)) > 0.1)
    report(5, ok, f"L upper bound {upper_ok}/{len(noisy_batch)} (>= 95%), "
                  f"C' min {c_prime.min():.3f} (> 0), "
                  f"median {np.median(c_prime):.3f} (> 0.1)")


def test_criterion_6_candidate_mass_bounds(noisy_batch):
    """Energy left outside the selected and pruned sets stays within its
    constants (1.2x and 1.3x the squared k-tail) in >= 95% of trials each."""
    s1_ok = sum(1 for r in noisy_batch if r["mass_off_s1"] <= 1.2 * r["tail2"])
    s2_ok = sum(1 for r in noisy_batch if r["mass_off_s2"] <= 1.3 * r["tail2"])
    n = len(noisy_batch)
    ok = s1_ok >= 0.95 * n and s2_ok >= 0.95 * n
    report(6, ok, f"off-S1 mass <= 1.2*tail^2 in {s1_ok}/{n}, "
                  f"off-S2 mass <= 1.3*tail^2 in {s2_ok}/{n} (each >= 95%)")


# ---------------------------------------------------------------------------
# measurement budget
# ---------------------------------------------------------------------------

LIGHT = EnsembleConfig(C0=0.25, c_F=0.5, countsketch_reps=3,
                       hh_bucket_factor=1.0, hh_reps=3)
# ceilings for the light config, frozen from the row-count formulas
ROW_CEILINGS = {"A": 8.0, "B": 45.0, "F": 700.0, "total": 650.0}


def test_criterion_7_row_count_scaling():
    """Per-family rows stay under family-shaped bounds with one constant
    across n in 2^10..2^16, k in {1,4,16,64}; the heavy-hitter block keeps
    its deliberate extra log factor and is bounded per k log^2 n. Spot
    builds confirm that no seed changes the counts."""
    for n, k in [(1024, 1), (1024, 16), (8192, 64), (16384, 4)]:
        assert row_count(build_ensemble(n, k, config=LIGHT, rng_seed=1)) \
            == row_count(build_ensemble(n, k, config=LIGHT))
    series = sum((j + 2) ** 4 / 2 ** j for j in range(400))
    worst = {fam: 0.0 for fam in ROW_CEILINGS}
    for n_exp in range(10, 17):
        n = 2 ** n_exp
        for k in (1, 4, 16, 64):
            if k > n / 20:
                continue
            counts = row_count(build_ensemble(n, k, config=LIGHT))
            logn = math.log2(n)
            log5k = math.log2(5 * k)
            worst["A"] = max(worst["A"], counts["A_family"] / (k * logn ** 2))
            worst["B"] = max(worst["B"], counts["B_family"] / (k * logn))
            worst["F"] = max(worst["F"], counts["F_family"] / (k * log5k))
            worst["total"] = max(worst["total"], counts["total"] / (k * logn))
            # series-derived form of the F bound, not a fitted constant
            f_bound = LIGHT.c_F * (log5k + 1) * 10 * k * series \
                + math.ceil(log5k) + 1
            assert counts["F_family"] <= f_bound, (n, k)
    ok = all(worst[f] <= ROW_CEILINGS[f] for f in worst)
    report(7, ok, "row-count ratios " +
           ", ".join(f"{f}={worst[f]:.0f}<={ROW_CEILINGS[f]:.0f}" for f in worst))


def test_default_rows_per_k_log_n_do_not_grow():
    """The default config's rows/(k log2 n) does not increase over
    n = 2^10, 2^12, ..., 2^20 at k=10: hh_reps is one constant, so A grows
    as k log n. The per-family rows at n=4096 and 65536 are pinned."""
    k = 10
    assert {EnsembleConfig().resolve(k).hh_reps
            for e in range(10, 21)} == {5}
    ratios = [build_ensemble(2 ** e, k).total_rows / (k * e)
              for e in range(10, 21, 2)]
    assert all(b <= a for a, b in zip(ratios, ratios[1:])), ratios
    pinned = {4096: (6250, 640, 3965, 10855),
              65536: (8250, 640, 3965, 12855)}
    for n, want in pinned.items():
        counts = row_count(build_ensemble(n, k))
        assert tuple(counts[f"{fam}_family"] for fam in "ABF") \
            + (counts["total"],) == want, n


# ---------------------------------------------------------------------------
# community recovery
# ---------------------------------------------------------------------------

def test_criterion_8_sbm_recovery():
    """SBM(512, 9, 1): exact two-community recovery in >= 90% of 200
    graphs. SBM(512, 4, 4): no exact recoveries and chance-level accuracy
    (sanity control)."""
    exact = 0
    for g in range(200):
        rng = np.random.default_rng(8_000_000 + g)
        graph, truth = sample_sbm(512, 9, 1, rng)
        exact += bisection_accuracy(recover_communities(graph), truth) == 1.0
    control_exact = 0
    control_acc = []
    for g in range(100):
        rng = np.random.default_rng(8_500_000 + g)
        graph, truth = sample_sbm(512, 4, 4, rng)
        acc = bisection_accuracy(recover_communities(graph), truth)
        control_acc.append(acc)
        control_exact += acc == 1.0
    mean_acc = float(np.mean(control_acc))
    ok = exact >= 180 and control_exact == 0 and mean_acc < 0.65
    report(8, ok, f"SBM(9,1) exact {exact}/200 (>= 180); control (4,4) "
                  f"exact {control_exact}/100 (= 0), mean accuracy "
                  f"{mean_acc:.3f} (chance level, < 0.65)")


# ---------------------------------------------------------------------------
# amplification
# ---------------------------------------------------------------------------

def test_criterion_9_amplification_beats_single_shot():
    """Paired trials at k=16, n=4096 on a lean sign budget: the majority
    vote across five replicas makes strictly fewer relative-sign errors
    than one-shot decoding, one-sided sign test at p < 0.05."""
    n, k, trials, reps = 4096, 16, 100, 5
    cfg = EnsembleConfig(c_F=0.03)
    plain_err, amp_err = [], []
    for t in range(100):
        rng = np.random.default_rng(9_000_000 + t)
        x, _ = exact_sparse(rng, n, k)
        ensembles, measurements = [], []
        for r in range(reps):
            ens = build_ensemble(n, k, config=cfg,
                                 rng_seed=_ensemble_seed(999, t, r))
            ensembles.append(ens)
            measurements.append(apply_phaseless(ens, x))
        plain = decode(ensembles[0], measurements[0])
        amp = decode_amplified(ensembles, measurements)
        plain_err.append(_sign_errors(x, plain))
        amp_err.append(_sign_errors(x, amp))
    plain_err, amp_err = np.array(plain_err), np.array(amp_err)
    b = int(np.sum(plain_err > amp_err))
    c = int(np.sum(amp_err > plain_err))
    p = sum(comb(b + c, i) for i in range(b, b + c + 1)) / 2 ** (b + c) \
        if b + c else 1.0
    ok = amp_err.sum() < plain_err.sum() and p < 0.05
    report(9, ok, f"sign errors: single-shot {plain_err.sum()}, amplified "
                  f"{amp_err.sum()}; one-sided sign test p = {p:.2e} (< 0.05)")


def _sign_errors(x, result):
    mask = x[result.S2] != 0
    if not mask.any():
        return 0
    agree = np.sign(result.values[mask]) == np.sign(x[result.S2][mask])
    return int(min(np.sum(agree), np.sum(~agree)))


# ---------------------------------------------------------------------------
# sublinearity
# ---------------------------------------------------------------------------

def test_criterion_10_decode_touches_sublinear():
    """Average decoder touch counters grow by < 1.5x per doubling of n at
    fixed k (50 trials per size)."""
    k = 10
    means = []
    for n in (1024, 2048, 4096):
        touches = []
        for t in range(50):
            rng = np.random.default_rng(n * 1000 + t)
            x, _ = exact_sparse(rng, n, k)
            ens = build_ensemble(n, k, config=LIGHT,
                                 rng_seed=_ensemble_seed(n, t))
            result = decode(ens, apply_phaseless(ens, x))
            touches.append(result.diagnostics.total_touches())
        means.append(float(np.mean(touches)))
    growth = [means[i + 1] / means[i] for i in range(len(means) - 1)]
    ok = all(g < 1.5 for g in growth)
    report(10, ok, f"decode touches {['%.0f' % m for m in means]}, "
                   f"growth per doubling {['%.2f' % g for g in growth]} (< 1.5)")


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_criterion_11_invariant_suite():
    """Sign-blindness, global-phase invariance, candidate-chain nesting and
    bit-level determinism, re-asserted in one sweep."""
    ens = build_ensemble(1024, 8, rng_seed=4242)
    rng = np.random.default_rng(0)
    x, _ = exact_sparse(rng, 1024, 8)
    ok_blind = np.array_equal(apply_phaseless(ens, x).y,
                              apply_phaseless(ens, -x).y)

    xc, _ = random_complex_sparse(rng, 64, 4)
    scheme = DeterministicScheme(64, 4)
    ok_phase = np.max(np.abs(det_measure(scheme, xc * np.exp(0.9j))
                             - det_measure(scheme, xc))) <= 1e-12

    ok_chain = True
    for t in range(10):
        xi, _ = exact_sparse(np.random.default_rng(t), 1024, 8)
        res = decode(ens, apply_phaseless(ens, xi))
        ok_chain &= set(res.S2) <= set(res.S1) <= set(res.S0)
        ok_chain &= res.S1.size <= ens.config.top_select

    twin = build_ensemble(1024, 8, rng_seed=4242)
    every = np.arange(1024)
    ok_repro = all(
        np.array_equal(x, y)
        for b in ens.blocks
        for x, y in zip(column_entries(ens.blocks[b], every),
                        column_entries(twin.blocks[b], every))
    )

    spec = TrialSpec(n=512, k=4, trials=3, seed=77)
    r1 = [{k2: v for k2, v in r.items() if k2 != "wall_time"}
          for r in run_trials(spec).records]
    r2 = [{k2: v for k2, v in r.items() if k2 != "wall_time"}
          for r in run_trials(spec).records]
    ok_det = r1 == r2

    ok = ok_blind and ok_phase and ok_chain and ok_repro and ok_det
    report(11, ok, f"sign-blind={ok_blind}, phase-invariant={ok_phase}, "
                   f"S-chain={ok_chain}, rebuild-identical={ok_repro}, "
                   f"harness-deterministic={ok_det}")
