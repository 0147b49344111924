"""Deterministic 4k-1 scheme: measurement layout, phase logic, solver."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseless import (DeterministicScheme, InconsistentMeasurements,
                       PhaseUnderdetermined, conjugate_reflection, det_measure,
                       det_recover, prony_solve, resolve_phase)
from phaseless.bench import twin_phase_error

from helpers import dense_det_matrix, random_complex_sparse


def test_measurement_count_is_4k_minus_1():
    for n, k in [(16, 1), (64, 5), (256, 8)]:
        scheme = DeterministicScheme(n, k)
        assert scheme.n_measurements == 4 * k - 1
        x = np.zeros(n, complex)
        x[0] = 1
        assert det_measure(scheme, x).shape == (4 * k - 1,)


def test_det_measure_matches_dense_matrix():
    rng = np.random.default_rng(0)
    for n, k in [(32, 3), (64, 6)]:
        x, _ = random_complex_sparse(rng, n, k)
        scheme = DeterministicScheme(n, k)
        oracle = np.abs(dense_det_matrix(n, k) @ x)
        assert np.allclose(det_measure(scheme, x), oracle, atol=1e-12)


def test_det_measure_zero_and_impulse():
    scheme = DeterministicScheme(32, 2)
    assert np.all(det_measure(scheme, np.zeros(32, complex)) == 0)
    x = np.zeros(32, complex)
    x[0] = 1.0  # flat spectrum: running sums count coefficients
    y = det_measure(scheme, x)
    root_n = math.sqrt(32)
    assert np.allclose(y[:4], 1 / root_n, atol=1e-12)
    assert np.allclose(y[4:], np.arange(2, 5) / root_n, atol=1e-12)


def test_global_phase_invariance():
    rng = np.random.default_rng(1)
    x, _ = random_complex_sparse(rng, 64, 4)
    scheme = DeterministicScheme(64, 4)
    base = det_measure(scheme, x)
    for phi in [0.3, 1.7, np.pi]:
        assert np.max(np.abs(det_measure(scheme, x * np.exp(1j * phi)) - base)) <= 1e-12


def test_scheme_rejects_bad_sizes():
    with pytest.raises(ValueError):
        DeterministicScheme(8, 5)  # 2k > n


# -- resolve_phase ------------------------------------------------------------

def test_resolve_phase_collinear_cases():
    assert resolve_phase(1.0, 1.0 + 0j, 2.0) == [(1 + 0j)]
    assert resolve_phase(1.0, 1.0 + 0j, 0.0) == [(-1 + 0j)]


def test_resolve_phase_two_candidates_from_forward_reference():
    x_ref = 5 * np.exp(1j * 0.7)
    a = 3 + 4j
    cands = resolve_phase(5.0, a, abs(x_ref + a))
    assert len(cands) == 2
    assert min(abs(c - x_ref) for c in cands) < 1e-9
    for c in cands:
        assert abs(abs(c) - 5.0) <= 1e-10
        assert abs(abs(c + a) - abs(x_ref + a)) <= 1e-10


def test_resolve_phase_error_cases():
    with pytest.raises(InconsistentMeasurements):
        resolve_phase(1.0, 1.0 + 0j, 5.0)  # triangle inequality broken
    with pytest.raises(PhaseUnderdetermined):
        resolve_phase(1.0, 0j, 1.0)
    assert resolve_phase(0.0, 2.0 + 0j, 2.0) == [0j]
    with pytest.raises(InconsistentMeasurements):
        resolve_phase(0.0, 2.0 + 0j, 5.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 10), st.floats(0.1, 10), st.floats(-np.pi, np.pi),
       st.floats(-np.pi, np.pi))
def test_resolve_phase_candidates_satisfy_constraints(mx, ma, phx, pha):
    x = mx * np.exp(1j * phx)
    a = ma * np.exp(1j * pha)
    for c in resolve_phase(mx, a, abs(x + a)):
        assert abs(abs(c) - mx) <= 1e-10
        assert abs(abs(c + a) - abs(x + a)) <= 1e-9 * max(1.0, mx + ma)


# -- prony_solve --------------------------------------------------------------

def fourier_prefix(x, k):
    return np.fft.fft(x)[: 2 * k] / math.sqrt(x.size)


def test_prony_single_spike():
    n = 64
    x = np.zeros(n, complex)
    x[17] = 2.0 - 1.0j
    rec = prony_solve(fourier_prefix(x, 1), n, 1)
    assert np.max(np.abs(rec.values - x)) < 1e-10


def test_prony_random_4_sparse():
    rng = np.random.default_rng(2)
    for t in range(10):
        x, _ = random_complex_sparse(rng, 64, 4)
        rec = prony_solve(fourier_prefix(x, 4), 64, 4)
        assert np.max(np.abs(rec.values - x)) < 1e-9


def test_prony_wide_dynamic_range():
    rng = np.random.default_rng(3)
    n, k = 256, 8
    x = np.zeros(n, complex)
    pos = rng.choice(n, k, replace=False)
    x[pos] = 10.0 ** rng.uniform(-2, 2, k) * np.exp(2j * np.pi * rng.random(k))
    rec = prony_solve(fourier_prefix(x, k), n, k)
    assert np.max(np.abs(rec.values - x)) < 1e-4 * np.max(np.abs(x))


def test_prony_rank_deficient_recurses():
    n, k = 64, 5
    rng = np.random.default_rng(4)
    x, _ = random_complex_sparse(rng, n, 3)  # true sparsity below k
    rec = prony_solve(fourier_prefix(x, k), n, k)
    assert np.max(np.abs(rec.values - x)) < 1e-8
    assert rec.sparsity <= k


def brute_force_recover(g, n, k):
    """Enumerate supports of size <= k, least-squares, pick zero residual."""
    F = np.exp(-2j * np.pi * np.outer(np.arange(2 * k), np.arange(n)) / n)
    F /= math.sqrt(n)
    best = None
    for r in range(k + 1):
        for support in itertools.combinations(range(n), r):
            cols = F[:, list(support)]
            coef, *_ = np.linalg.lstsq(cols, g, rcond=None)
            resid = np.linalg.norm(cols @ coef - g)
            if resid < 1e-9:
                x = np.zeros(n, complex)
                x[list(support)] = coef
                if best is None:
                    best = x
        if best is not None:
            return best
    return best


def test_prony_matches_brute_force_small():
    rng = np.random.default_rng(5)
    for t in range(25):
        n = int(rng.choice([8, 12, 16]))
        k = int(rng.integers(1, 4))
        x, _ = random_complex_sparse(rng, n, k)
        g = fourier_prefix(x, k)
        fast = prony_solve(g, n, k).values
        slow = brute_force_recover(g, n, k)
        assert slow is not None
        assert np.max(np.abs(fast - slow)) < 1e-10


# -- det_recover --------------------------------------------------------------

def test_recover_zero():
    scheme = DeterministicScheme(32, 2)
    out = det_recover(scheme, np.zeros(7))
    assert np.all(out.values == 0)


def test_recover_real_nonnegative_signal():
    rng = np.random.default_rng(6)
    n, k = 64, 4
    x = np.zeros(n, complex)
    x[rng.choice(n, k, replace=False)] = rng.uniform(0.5, 3.0, k)
    scheme = DeterministicScheme(n, k)
    out = det_recover(scheme, det_measure(scheme, x))
    assert twin_phase_error(out.values, x) < 1e-9 * np.linalg.norm(x)


def test_recover_round_trip_mixed_k():
    ok = 0
    for t in range(40):
        rng = np.random.default_rng(400 + t)
        k = 1 + t % 6
        x, _ = random_complex_sparse(rng, 64, k)
        scheme = DeterministicScheme(64, k)
        out = det_recover(scheme, det_measure(scheme, x))
        err = twin_phase_error(out.values, x) / np.linalg.norm(x)
        ok += err < 1e-8
    assert ok >= 39


def test_recover_near_tangent_one_sparse_signal():
    # criterion 1's trial 392: a k=1 signal at index 0, whose running sums
    # meet a tangent step with sin off zero by roundoff only
    rng = np.random.default_rng(1_000_392)
    x, support = random_complex_sparse(rng, 64, 1)
    assert support.tolist() == [0]
    scheme = DeterministicScheme(64, 1)
    out = det_recover(scheme, det_measure(scheme, x))
    assert twin_phase_error(out.values, x) < 1e-8 * np.linalg.norm(x)


def test_phase_shifted_signals_give_identical_recovery():
    rng = np.random.default_rng(7)
    x, _ = random_complex_sparse(rng, 64, 3)
    scheme = DeterministicScheme(64, 3)
    y1 = det_measure(scheme, x)
    y2 = det_measure(scheme, x * np.exp(1j * 1.234))
    assert np.allclose(y1, y2, atol=1e-12)
    a = det_recover(scheme, y1).values
    b = det_recover(scheme, y2).values
    assert np.max(np.abs(a - b)) < 1e-9


def test_recover_rejects_malformed_input():
    scheme = DeterministicScheme(32, 2)
    with pytest.raises(ValueError):
        det_recover(scheme, np.zeros(6))
    with pytest.raises(ValueError):
        det_recover(scheme, -np.ones(7))


def test_recover_flags_inconsistent_measurements():
    scheme = DeterministicScheme(32, 2)
    x = np.zeros(32, complex)
    x[[3, 11]] = [1.0, 2.0]
    y = det_measure(scheme, x)
    y[5] *= 3.0  # break one running sum
    with pytest.raises((InconsistentMeasurements, Exception)):
        det_recover(scheme, y)
