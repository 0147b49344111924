"""Heavy-hitter identification and magnitude estimation guarantees.

The probabilistic claims are checked as seeded Monte-Carlo rates with
ground truth computed exactly (tail norms by sorting), never per-instance.
"""

import numpy as np
import pytest

from phaseless.sketch import (CANDIDATE_CAP_FACTOR, SketchError,
                              build_countsketch_block, build_hh_block,
                              estimate_magnitudes, identify_heavy)

from helpers import tail_sq


def make_block(key, n, K, reps=5):
    return build_hh_block(key, n, 2 * K, int(np.ceil(np.log2(n))), reps)


def estimate_one(block, y, i):
    return estimate_magnitudes(block, y, [i])[0]


def test_single_spike_is_identified():
    n = 512
    block = make_block(1, n, K=10)
    x = np.zeros(n)
    x[1] = 1.0
    S0 = identify_heavy(block, 10, np.abs(block.apply(x)))
    assert 1 in S0


def test_equal_spikes_zero_tail_all_identified():
    n = 2048
    block = make_block(2, n, K=100)
    rng = np.random.default_rng(0)
    pos = rng.choice(n, 10, replace=False)
    x = np.zeros(n)
    x[pos] = 1.0
    S0 = identify_heavy(block, 100, np.abs(block.apply(x)))
    assert np.isin(pos, S0).all()
    assert S0.size <= CANDIDATE_CAP_FACTOR * 100


def test_identification_rejects_malformed_slice():
    block = make_block(3, 256, K=5)
    with pytest.raises(SketchError):
        identify_heavy(block, 5, np.zeros(7))


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
        S0 = identify_heavy(block, K, np.abs(block.apply(x)))
        trials += len(heavy)
        misses += int(np.sum(~np.isin(heavy, S0)))
    assert trials > 4000
    assert misses / trials <= 0.01, f"containment failure rate {misses/trials}"


def test_estimate_zero_signal():
    n = 256
    block = build_countsketch_block(5, n, 128, 5)
    y = np.abs(block.apply(np.zeros(n)))
    for i in [0, 100, 255]:
        assert estimate_one(block, y, i) == 0.0


def test_estimate_single_spike_exact():
    n = 256
    block = build_countsketch_block(6, n, 128, 5)
    x = np.zeros(n)
    x[3] = 5.0
    y = np.abs(block.apply(x))
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
        y = np.abs(block.apply(x))
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
    ya = np.abs(block.apply(x))
    yb = np.abs(block.apply(-x))
    idx = np.arange(0, n, 37)
    assert np.array_equal(estimate_magnitudes(block, ya, idx),
                          estimate_magnitudes(block, yb, idx))


def test_median_absorbs_single_corrupted_repetition():
    n, W, reps = 256, 128, 5
    block = build_countsketch_block(11, n, W, reps)
    x = np.zeros(n)
    x[7] = 2.0
    y = np.abs(block.apply(x))
    clean = estimate_one(block, y, 7)
    y_corrupt = y.copy()
    y_corrupt[:W] = 1e6  # wipe out repetition 0 entirely
    assert estimate_one(block, y_corrupt, 7) == clean


def test_identification_reads_scale_sublinearly():
    """The A block read by identify_heavy shrinks relative to n as n grows."""
    K, reps = 20, 4
    fractions = []
    for n in [1024, 4096, 16384]:
        bits = int(np.ceil(np.log2(n)))
        rows = 2 * K * (2 * bits + 1) * reps
        fractions.append(rows / n)
    assert fractions[0] > fractions[1] > fractions[2]
