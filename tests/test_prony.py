"""Deterministic 4k-1 scheme: measurement layout, phase logic, solver."""

import itertools
import math

import numpy as np
import pytest

from phaseless import (DeterministicScheme, InconsistentMeasurements,
                       NumericalFailure, conjugate_reflection, det_measure,
                       det_recover, prony, prony_solve)
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


def test_prony_solve_refuses_what_the_scheme_refuses():
    # these returned a length-3 "signal", and values although 2k > n
    for n, k in ((3, 4), (6, 4), (8, 0), (8, 2.0)):
        with pytest.raises(ValueError):
            prony_solve(np.ones(2 * int(k), complex), n, k)
    assert np.all(prony_solve(np.zeros(4, complex), 8, 2).values == 0)


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
            g[None, :], (1,) * (2 * k), prony._Grid(1, n, k, np.max(np.abs(g))))
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


def test_recover_tangent_steps_do_not_split():
    # a spike at index 0 makes every running sum collinear with the next
    # coefficient; roundoff leaves mag * sin a few 1e-9 off zero at some
    # steps, below tol_branch, so no step splits and one leaf is walked
    n, k = 64, 3
    x = np.zeros(n, complex)
    x[0] = 1.3
    scheme = DeterministicScheme(n, k)
    y = det_measure(scheme, x)
    prev, off_zero = y[0], 0
    for mag, cur in zip(y[1: 2 * k], y[2 * k:]):
        cos = min(1.0, (cur ** 2 - mag ** 2 - prev ** 2) / (2 * mag * prev))
        off_zero += 0 < mag * math.sqrt(1 - cos ** 2) < 1e-8
        prev = cur
    assert off_zero >= 2
    out = det_recover(scheme, y)
    assert out.leaves == 1
    assert twin_phase_error(out.values, x) < 1e-9


def test_recover_zero_coefficient_checks_its_running_sum():
    # x = delta_0 - delta_32 has z_0 = z_2 = 0, so |S_2| must equal |S_1|
    n, k = 64, 2
    x = np.zeros(n, complex)
    x[[0, 32]] = [1.0, -1.0]
    scheme = DeterministicScheme(n, k)
    y = det_measure(scheme, x)
    assert y[2] == 0
    assert twin_phase_error(det_recover(scheme, y).values, x) < 1e-9
    y[2 * k + 1] *= 1.5  # |S_2|
    with pytest.raises(InconsistentMeasurements, match="z_2 = 0"):
        det_recover(scheme, y)


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


# prony-64-k8 workload operations whose true leaf, built a few 1e-6 off the
# truth at a tangent step, has an annihilator gap ratio above 1e-3
OFF_TRUTH_LEAVES = {
    # seed 8905, operation 157: 8th smallest |P| 1.8e-5, gap ratio 2.6e-3
    "8905-157": ([6, 10, 13, 20, 27, 35, 51, 62], [
        -0.5785209696357897 + 0.5697456637555229j,
        -0.5937109971929275 + 0.3851301997254582j,
        -0.00251180834163178 - 0.3399979860368563j,
        0.04370155962128622 - 1.2152822354597743j,
        -1.0206262853574561 + 0.7268496591333763j,
        0.7151213344962631 - 0.19231902217589147j,
        0.09313695336481888 + 0.4684395383724906j,
        0.05368252286335476 - 0.8758756999061396j]),
    # seed 9117, operation 99: gap ratio 2.6e-2
    "9117-99": ([0, 10, 14, 22, 26, 30, 34, 55], [
        -2.5418780044652123 + 0.8670605890179829j,
        1.3897228521724947 - 0.1126287234455787j,
        0.8980907140166156 + 0.13682136915959994j,
        -0.4142088521947157 + 0.31159216433856196j,
        -0.8375230008645569 - 0.4365977529052495j,
        1.4330212047398696 + 1.8592939484598874j,
        -0.3199974753028131 - 0.567193980199478j,
        0.9599175236570263 - 0.3861835967432102j]),
}


@pytest.mark.parametrize("case", sorted(OFF_TRUTH_LEAVES))
def test_recover_true_leaf_whose_gap_ratio_is_above_1e_3(case):
    n, k = 64, 8
    support, values = OFF_TRUTH_LEAVES[case]
    x = np.zeros(n, complex)
    x[support] = values
    scheme = DeterministicScheme(n, k)
    out = det_recover(scheme, det_measure(scheme, x))
    assert twin_phase_error(out.values, x) < 1e-8 * np.linalg.norm(x)


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
    """The (leaves, shares) chunks det_recover walks for x."""
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
    rng = np.random.default_rng(8)
    k = 7
    scheme = DeterministicScheme(64, k)
    x, _ = random_complex_sparse(rng, 64, k)
    chunks = chain_chunks(scheme, x)
    assert len(chunks) > 1
    seen = [set() for _ in range(2 * k)]
    for leaves, shares in chunks:
        rows = leaves.shape[0]
        assert rows <= prony._CHUNK_LEAVES
        assert len(shares) == 2 * k and shares[-1] == 1
        assert shares[2 * k - 2] == 2        # this signal's last step splits
        assert shares[2 * k - 4] == 8        # and so do the two before it
        for c, size in enumerate(shares):
            # each run of ``size`` leaves shares its coefficients 0 .. c
            # byte for byte, and runs have distinct prefixes
            assert rows % size == 0
            prefixes = [leaf[: c + 1].tobytes() for leaf in leaves]
            runs = [prefixes[i:i + size] for i in range(0, rows, size)]
            assert all(len(set(run)) == 1 for run in runs)
            assert len(set(prefixes)) == len(runs)
            if size < rows:                   # no run spans two chunks
                assert seen[c].isdisjoint(prefixes)
                seen[c].update(prefixes)
    assert all(seen[c] for c in (2 * k - 4, 2 * k - 2))


def reference_filter(leaves, siblings, n, k):
    """_grid_annihilator_filter by its contract, with no shared block: every
    leaf's full k x k Hankel system solved by np.linalg.solve, under the
    same determinant screen (its head's max |coefficient|)."""
    heads = np.repeat(leaves[::siblings], siblings, axis=0)
    scale = np.max(np.abs(heads), axis=1) ** k
    lead = np.lib.stride_tricks.sliding_window_view(leaves[:, :-1], k, axis=1)
    solvable = np.abs(np.linalg.det(lead)) > 1e-10 * np.maximum(scale, 1e-300)
    poly = np.ones((leaves.shape[0], k + 1), dtype=np.complex128)
    poly[solvable, :k] = np.linalg.solve(
        lead[solvable], -leaves[solvable, k:, None])[..., 0]
    poly[~solvable] = prony._null_vectors(leaves[~solvable], k)
    values = np.abs(poly @ prony._grid_basis(n, k))
    ranked = np.sort(values, axis=1)
    gapped = ranked[:, k - 1] <= prony._GAP_RATIO * ranked[:, k]
    kept = np.concatenate([np.flatnonzero(~solvable),
                           np.flatnonzero(solvable & gapped)])
    return kept, np.sort(np.argsort(values[kept], axis=1)[:, :k], axis=1)


def test_shared_block_filter_matches_the_per_leaf_solve(monkeypatch):
    # the bordered solve per shared leading block, and its fall-back to the
    # direct solve, keep the same leaves with the same supports as solving
    # each leaf's own block
    n = 64
    direct_calls = []
    direct = prony._direct_solutions
    monkeypatch.setattr(prony, "_direct_solutions", lambda heads, scale, k: (
        direct_calls.append((k, case)) or direct(heads, scale, k)))
    rng = np.random.default_rng(13)
    cases = [(k, random_complex_sparse(rng, n, k)[0])
             for k in range(1, 9) for _ in range(3)]
    x = np.zeros(n, complex)
    x[[5, 21]] = [1.0, -1.0]                  # sum 0: g_0 = 0 at k = 2
    cases.append((2, x))
    for k in (4, 8):                           # sparser than k
        for s in (1, 2, k - 1):
            cases.append((k, random_complex_sparse(rng, n, s)[0]))
    # sum 0 at k = 4 and 8: H_1 = g_0 = 0 fails the screen while H_{k-1}
    # passes, so only the screen at every order sends them to the
    # direct solve
    zero_sum = []
    for k in (4, 8):
        x, _ = random_complex_sparse(rng, n, k)
        x[np.flatnonzero(x)[-1]] -= x.sum()
        zero_sum.append(len(cases))
        cases.append((k, x))
    # one-spike inputs: every t up to k = 6, and at k = 8, whose spikes walk
    # up to 11264 leaves each, every tenth
    for k, spikes in [(k, range(n)) for k in (1, 2, 3, 4, 6)] + \
            [(8, range(3, n, 10))]:
        for t in spikes:
            x = np.zeros(n, complex)
            x[t] = 1.0
            cases.append((k, x))
    chunks = 0
    for case, (k, x) in enumerate(cases):
        try:
            walk = chain_chunks(DeterministicScheme(n, k), x)
        except NumericalFailure:               # a vanished running sum
            continue
        scale = float(np.max(det_measure(DeterministicScheme(n, k), x)[: 2 * k]))
        for leaves, shares in walk:
            kept, supports = prony._grid_annihilator_filter(
                leaves, shares, prony._Grid(leaves.shape[0], n, k, scale))
            want_kept, want_supports = reference_filter(
                leaves, shares[2 * k - 2], n, k)
            if case in zero_sum:              # H_{k-1} passes its screen
                lead = np.lib.stride_tricks.sliding_window_view(
                    leaves[:, : 2 * k - 3], k - 1, axis=1)
                assert np.all(np.abs(np.linalg.det(lead))
                              > 1e-10 * scale ** (k - 1))
            assert kept.tolist() == want_kept.tolist(), (k, x.nonzero())
            assert np.array_equal(supports, want_supports), (k, x.nonzero())
            chunks += 1
    assert chunks > 200
    # the spikes' rank-1 blocks send k >= 3 runs to the direct path, and
    # so do the zero-sum signals' g_0 = 0
    assert any(k >= 3 for k, _ in direct_calls)
    assert {case for _, case in direct_calls} >= set(zero_sum)


def test_chunks_union_is_the_one_chunk_walk(monkeypatch):
    # fails at the parent, which has no chunks
    rng = np.random.default_rng(9)
    k = 6
    scheme = DeterministicScheme(64, k)
    x, _ = random_complex_sparse(rng, 64, k)
    streamed = np.concatenate([leaves
                               for leaves, *_ in chain_chunks(scheme, x)])
    monkeypatch.setattr(prony, "_CHUNK_LEAVES", 4 ** (k - 1))
    (whole, *_), = chain_chunks(scheme, x)
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
    leaves = np.concatenate([leaves for leaves, *_ in chain_chunks(scheme, x)])
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
