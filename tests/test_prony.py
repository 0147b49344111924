"""Deterministic 4k-1 scheme: measurement layout, phase logic, solver."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseless import (DeterministicScheme, InconsistentMeasurements,
                       NumericalFailure, PhaseUnderdetermined,
                       conjugate_reflection, det_measure, det_recover,
                       prony, prony_solve, resolve_phase)
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


def test_scheme_takes_integer_sizes_only():
    # these were accepted, then failed inside det_measure or det_recover
    for n, k, name in ((64, 2.5, "k"), (64.0, 2, "n"), (64, True, "k")):
        with pytest.raises(ValueError, match=name):
            DeterministicScheme(n, k)
    scheme = DeterministicScheme(np.int64(64), np.int64(3))
    assert type(scheme.n) is int and type(scheme.k) is int
    x, _ = random_complex_sparse(np.random.default_rng(3), 64, 3)
    assert twin_phase_error(det_recover(scheme, det_measure(scheme, x)).values,
                            x) < 1e-9


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


def test_resolve_phase_near_tangent_is_one_candidate():
    # a roundoff-sized sin must not split a tangent case in two
    mag_x, a, mag_sum, tol = 1.0, 3.0 + 4.0j, np.nextafter(6.0, 0.0), 1e-6
    cos_val = (mag_sum ** 2 - mag_x ** 2 - abs(a) ** 2) / (2 * mag_x * abs(a))
    sin_val = math.sqrt(1.0 - cos_val ** 2)
    assert 0.0 < 2 * mag_x * sin_val < tol
    (cand,) = resolve_phase(mag_x, a, mag_sum, tol)
    assert abs(cand - a / abs(a)) < 1e-12  # on a's line


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


def test_prony_sparser_than_k():
    n, k = 64, 5
    rng = np.random.default_rng(4)
    x, _ = random_complex_sparse(rng, n, 3)  # true sparsity below k
    rec = prony_solve(fourier_prefix(x, k), n, k)
    assert np.max(np.abs(rec.values - x)) < 1e-8
    assert np.count_nonzero(np.abs(rec.values) > 1e-9) <= k


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


def test_grid_filter_keeps_the_true_leaf_with_pronys_support():
    # det_recover reads supports from the grid filter, not prony_solve:
    # given the true 2k coefficients as its one leaf, the filter keeps it
    # and reads off the support prony_solve (checked above) returns
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(25):                         # the instances above
        n = int(rng.choice([8, 12, 16]))
        k = int(rng.integers(1, 4))
        cases.append((n, k, *random_complex_sparse(rng, n, k)))
    rng = np.random.default_rng(12)
    cases += [(64, k, *random_complex_sparse(rng, 64, k))
              for k in range(1, 9) for _ in range(40)]
    for n, k, x, pos in cases:
        g = fourier_prefix(x, k)
        kept, supports = prony._grid_annihilator_filter(
            g[None, :], np.zeros(1, dtype=np.int64), n, k)
        assert kept.tolist() == [0], (n, k)
        want = np.flatnonzero(prony_solve(g, n, k).values)
        assert np.array_equal(want, pos)
        assert np.array_equal(supports[0], want), (n, k)


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


def test_recover_clustered_support():
    # on this support the true leaf's Hankel block is near singular for most
    # value draws (a singular-value ratio below 1e-10)
    n, k = 64, 8
    support = [3, 4, 5, 6, 12, 24, 60, 63]
    scheme = DeterministicScheme(n, k)
    rng = np.random.default_rng(64_008)
    for _ in range(50):
        x = np.zeros(n, complex)
        x[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        out = det_recover(scheme, det_measure(scheme, x))
        assert twin_phase_error(out.values, x) < 1e-8 * np.linalg.norm(x)


def test_recover_leaf_built_off_the_truth():
    # prony-64-k8 workload seed 962, operation 227: one law-of-cosines sin is
    # small but real and falls under the tangent rule, so the true leaf is
    # built 2.9e-7 off the truth and its annihilator misses a fixed threshold
    n, k = 64, 8
    x = np.zeros(n, complex)
    x[[4, 16, 22, 31, 34, 41, 54, 58]] = [
        0.9044900210650529 + 2.420759019293308j,
        -0.19338878999996353 + 1.8332885839752917j,
        -0.10654983335796075 - 1.0800964836826423j,
        1.1245091356452928 + 1.448486459948356j,
        1.0878325610028943 + 0.816884100186816j,
        1.3276822856957295 + 1.0577734346677237j,
        0.3564741116513943 - 1.676976505701314j,
        1.142433183678652 + 0.9965848317265469j]
    scheme = DeterministicScheme(n, k)
    y = det_measure(scheme, x)
    out = det_recover(scheme, y)
    assert twin_phase_error(out.values, x) < 1e-8 * np.linalg.norm(x)
    gap = np.max(np.abs(det_measure(scheme, out.values) - y))
    assert gap <= 1e-8 * np.max(y)


def test_recover_sparser_than_k_with_near_singular_block():
    # the true leaf's rank-3 leading block has det / max^k = 1.8e-13
    n, k = 64, 4
    rng = np.random.default_rng([77, 4, 3, 6])
    x, support = random_complex_sparse(rng, n, 3)
    assert support.tolist() == [7, 45, 59]
    scheme = DeterministicScheme(n, k)
    out = det_recover(scheme, det_measure(scheme, x))
    assert twin_phase_error(out.values, x) < 1e-8 * np.linalg.norm(x)


def test_magnitudes_leave_some_sparse_signals_ambiguous():
    # a spike and an exactly 4-sparse signal share all 4k-1 magnitudes, so
    # no decoder recovers both; the guarantee is for random k-sparse signals
    n, k = 64, 4
    x1 = np.zeros(n, complex)
    x1[2] = 1.3
    x2 = np.zeros(n, complex)
    x2[[1, 33]] = 0.65
    x2[[63, 31]] = 0.65 * np.exp(1j * np.pi / 32) * np.array([1, -1])
    scheme = DeterministicScheme(n, k)
    y1, y2 = det_measure(scheme, x1), det_measure(scheme, x2)
    assert np.max(np.abs(y1 - y2)) < 1e-15
    assert twin_phase_error(x1, x2) > 1.8


@pytest.mark.parametrize("k, t", [(2, 32), (4, 16)])
def test_vanishing_running_sum_raises(k, t):
    # a spike at t with (a + 1) t = 0 mod n zeroes the running sum a, which
    # leaves the phase of the nonzero coefficient after it free
    x = np.zeros(64, complex)
    x[t] = 1.0
    scheme = DeterministicScheme(64, k)
    with pytest.raises(NumericalFailure, match="running sum vanished"):
        det_recover(scheme, det_measure(scheme, x))


def test_sparser_than_k_outcomes_are_exact_or_typed():
    # every outcome is the signal, another exact preimage of y, or a typed
    # error: never an approximate preimage passed off as a recovery
    n = 64
    cases = []
    for k in (2, 4, 8):
        for s in range(1, k):
            for seed in range(3):
                rng = np.random.default_rng([64, k, s, seed])
                cases.append((k, random_complex_sparse(rng, n, s)[0]))
    for t in range(n):
        x = np.zeros(n, complex)
        x[t] = 1.0
        cases.append((4, x))
    for k, x in cases:
        scheme = DeterministicScheme(n, k)
        y = det_measure(scheme, x)
        try:
            out = det_recover(scheme, y).values
        except (InconsistentMeasurements, NumericalFailure):
            continue
        if twin_phase_error(out, x) >= 1e-8 * np.linalg.norm(x):
            gap = np.max(np.abs(det_measure(scheme, out) - y))
            assert gap <= 1e-12 * np.max(y)


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
    for bad in (-np.ones(7), np.full(7, np.nan), np.full(7, np.inf)):
        with pytest.raises(ValueError):
            det_recover(scheme, bad)


def test_recover_flags_inconsistent_measurements():
    scheme = DeterministicScheme(32, 2)
    x = np.zeros(32, complex)
    x[[3, 11]] = [1.0, 2.0]
    y = det_measure(scheme, x)
    y[5] *= 3.0  # break one running sum
    with pytest.raises(InconsistentMeasurements):
        det_recover(scheme, y)


# -- streamed phase chain -----------------------------------------------------

def chain_chunks(scheme, x):
    """The (leaves, parent) chunks det_recover walks for signal x."""
    y = det_measure(scheme, x)
    scale = float(np.max(y))
    z_mag, sum_mag = y[: 2 * scheme.k], y[2 * scheme.k:]
    anchor = int(np.where(z_mag > prony.ZERO_TOL * scale)[0][0])
    return list(prony._phase_chain(scheme, z_mag, sum_mag, anchor,
                                   prony.ZERO_TOL * scale,
                                   prony.BRANCH_TOL * scale))


def sorted_rows(leaves):
    return leaves[np.lexsort(np.concatenate([leaves.real, leaves.imag], 1).T)]


def test_chunks_are_bounded_and_keep_siblings_together():
    # fails at the parent, whose walk is one array of every leaf
    rng = np.random.default_rng(8)
    scheme = DeterministicScheme(64, 7)
    x, _ = random_complex_sparse(rng, 64, 7)
    chunks = chain_chunks(scheme, x)
    assert len(chunks) > 1
    seen = set()
    for leaves, parent in chunks:
        assert leaves.shape[0] <= prony._CHUNK_LEAVES
        prefixes = [leaf[:-1].tobytes() for leaf in leaves]
        # equal parent <=> equal prefix, and no prefix spans two chunks
        pairs = set(zip(parent.tolist(), prefixes))
        assert len(pairs) == len(set(parent.tolist())) == len(set(prefixes))
        assert seen.isdisjoint(prefixes)
        seen.update(prefixes)


def test_chunks_union_is_the_one_chunk_walk(monkeypatch):
    # fails at the parent, which has no chunks
    rng = np.random.default_rng(9)
    k = 6
    scheme = DeterministicScheme(64, k)
    x, _ = random_complex_sparse(rng, 64, k)
    streamed = np.concatenate([leaves for leaves, _ in chain_chunks(scheme, x)])
    monkeypatch.setattr(prony, "_CHUNK_LEAVES", 4 ** (k - 1))
    (whole, _), = chain_chunks(scheme, x)
    assert whole.shape[0] == 4 ** (k - 1)
    assert np.array_equal(sorted_rows(streamed), sorted_rows(whole))


def test_every_leaf_meets_every_magnitude():
    # _phase_chain's contract: every leaf meets every magnitude measurement
    rng = np.random.default_rng(10)
    k = 6
    scheme = DeterministicScheme(64, k)
    x, _ = random_complex_sparse(rng, 64, k)
    y = det_measure(scheme, x)
    tol_branch = prony.BRANCH_TOL * float(np.max(y))
    leaves = np.concatenate([leaves for leaves, _ in chain_chunks(scheme, x)])
    assert leaves.shape[0] == 4 ** (k - 1)
    assert np.all(np.abs(np.abs(leaves) - y[: 2 * k]) <= tol_branch)
    sums = np.abs(np.cumsum(leaves, axis=1)[:, 1:])
    assert np.all(np.abs(sums - y[2 * k:]) <= tol_branch)


def test_broken_running_sum_raises_before_any_chunk():
    # every check depends on y alone, so it fails before any chunk
    rng = np.random.default_rng(11)
    k = 7
    scheme = DeterministicScheme(64, k)
    x, _ = random_complex_sparse(rng, 64, k)
    y = det_measure(scheme, x)
    z_mag, sum_mag = y[: 2 * k], y[2 * k:]
    sum_mag[-1] = sum_mag[-2] + z_mag[-1] + 1.0  # past the triangle bound
    scale = float(np.max(y))
    chain = prony._phase_chain(scheme, z_mag, sum_mag, 0,
                               prony.ZERO_TOL * scale, prony.BRANCH_TOL * scale)
    with pytest.raises(InconsistentMeasurements):
        next(chain)


def test_recover_k10_at_n64():
    # fails at the parent: every k >= 10 hit its 65536-branch cap
    scheme = DeterministicScheme(64, 10)
    for seed in (10_064, 10_065):
        x, _ = random_complex_sparse(np.random.default_rng(seed), 64, 10)
        out = det_recover(scheme, det_measure(scheme, x))
        assert twin_phase_error(out.values, x) < 1e-8 * np.linalg.norm(x)
        assert 0 < out.leaves <= 4 ** 9


def test_k12_raises_before_walking(monkeypatch):
    # fails at the parent, which walked until its branch cap
    def no_walk(*args):
        raise AssertionError("walked the phase chain")

    monkeypatch.setattr(prony, "_phase_chain", no_walk)
    scheme = DeterministicScheme(64, 12)
    x, _ = random_complex_sparse(np.random.default_rng(12), 64, 12)
    with pytest.raises(NumericalFailure, match="BRANCH_CAP"):
        det_recover(scheme, det_measure(scheme, x))
