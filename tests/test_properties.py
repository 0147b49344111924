"""Every input to the sketch stages, the deterministic scheme and the
bench's tail metric ends in a typed outcome, property-tested.

Each property draws inputs around what its entry point takes, in six
cases: the right float64 array; the same in another shape (0-d, one entry
short or long, 2-D); and the right shape cast to bool, int64, float32 or
complex128, one case each. A floating or complex array has up to three entries set to
NaN, +-inf, -1 or 1e300, and a column argument may hold columns that are
negative or at least n. The call must return, or raise one of the
library's error types or a ``ValueError`` from one of the library's own
``raise`` statements. It must emit no warning: every warning is an error
inside the call. And it may return only for an input it takes, as its
docs state them.

Every example is bounded: n <= 4096, k <= 4 for the deterministic scheme,
blocks of at most 8 buckets and 5 repetitions, at most 50 examples per
case (tests/conftest.py derandomizes them).
"""

import dataclasses
import linecache
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaseless
from phaseless.bench import tail_norm_sq
from phaseless.decoder import TailEstimationError, estimate_tail_energy
from phaseless.ensemble import EnsembleError, build_ensemble
from phaseless.prony import (DeterministicScheme, InconsistentMeasurements,
                             NumericalFailure, det_measure, det_recover)
from phaseless.sketch import (SketchError, build_countsketch_block,
                              build_hh_block, estimate_magnitudes,
                              identify_heavy)

LIBRARY_ERRORS = (SketchError, EnsembleError, InconsistentMeasurements,
                  NumericalFailure, TailEstimationError)
PACKAGE = Path(phaseless.__file__).parent
SPECIALS = (np.nan, np.inf, -np.inf, -1.0, 1e300)
OTHER_SHAPES = ("0-d", "short", "long", "2-D")

bounded = settings(max_examples=50, deadline=None)
# the right float64 array, another shape, or the right shape in another dtype
changes = pytest.mark.parametrize(
    "change", ["none", "shape", np.bool_, np.int64, np.float32, np.complex128],
    ids=["none", "shape", "bool", "int64", "float32", "complex128"])
seeds = st.integers(0, 2 ** 32 - 1)


def column_lists(n):
    """Up to six columns of a length-n signal, some negative or >= n."""
    inside = st.integers(0, n - 1)
    outside = st.one_of(st.integers(-(2 ** 63), -1),
                        st.integers(n, 2 ** 63 - 1))
    return st.lists(st.one_of(*[inside] * 5, outside), max_size=6)


@st.composite
def arrays(draw, base, change):
    """``base``, a float64 vector: as it is (``change`` "none"), in a drawn
    shape ("shape"), or cast to the dtype ``change`` (a complex one gains an
    imaginary part). A floating or complex one has up to three special
    entries; an integer or bool one has base's values, as the cast makes
    them."""
    shape = draw(st.sampled_from(OTHER_SHAPES)) if change == "shape" else "right"
    a = {"right": base, "0-d": np.array(base[0]), "short": base[:-1],
         "long": np.append(base, base[:1]), "2-D": np.stack([base, base])
         }[shape].copy()
    dtype = np.float64 if isinstance(change, str) else change
    flat = a.reshape(-1)
    if flat.size and np.dtype(dtype).kind in "fc":
        for _ in range(draw(st.integers(0, 3))):
            flat[draw(st.integers(0, flat.size - 1))] = \
                draw(st.sampled_from(SPECIALS))
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")    # 1e300 to float32
        a = a.astype(dtype)
    if dtype is np.complex128:
        a += 1j * draw(st.sampled_from([1e-3, 1.0]))
    return a


def typed_outcome(call, *args):
    """``call(*args)``, or None when it raises a library error type or a
    ValueError from a ``raise`` in src/phaseless. Any other exception, a
    warning included, propagates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args)
        except LIBRARY_ERRORS:
            return None
        except ValueError as exc:
            tb = exc.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            path = tb.tb_frame.f_code.co_filename
            line = linecache.getline(path, tb.tb_lineno).strip()
            assert Path(path).parent == PACKAGE and line.startswith("raise"), \
                f"{type(exc).__name__}: {exc} at {path}:{tb.tb_lineno}"
            return None


def is_floats(a, shape):
    return isinstance(a, np.ndarray) and a.shape == shape \
        and np.issubdtype(a.dtype, np.floating)


def is_magnitudes(y, shape):
    """What a sketch stage takes: floats of its block's rows, none
    negative (NaN passes)."""
    return is_floats(y, shape) and not (y < 0).any()


def inside(columns, n):
    return all(0 <= c < n for c in columns)


@changes
@bounded
@given(st.data(), seeds, st.integers(1, 4096), st.integers(1, 8),
       st.integers(1, 5), st.integers(1, 4))
def test_identify_heavy_has_a_typed_outcome(change, data, seed, n, buckets,
                                            reps, K):
    block = build_hh_block(seed, n, buckets, reps)
    base = np.random.default_rng(seed).exponential(size=block.n_rows)
    yA = data.draw(arrays(base, change))
    S0 = typed_outcome(identify_heavy, block, K, yA)
    if S0 is not None:
        assert is_magnitudes(yA, (block.n_rows,))
        assert S0.dtype == np.int64 and S0.size <= 2 * K
        assert np.all(np.diff(S0) > 0) and np.all((S0 >= 0) & (S0 < n))


@changes
@bounded
@given(st.data(), seeds, st.integers(1, 4096), st.integers(1, 8),
       st.integers(1, 5))
def test_estimate_magnitudes_has_a_typed_outcome(change, data, seed, n,
                                                 buckets, reps):
    block = build_countsketch_block(seed, n, buckets, reps)
    base = np.random.default_rng(seed).exponential(size=block.n_rows)
    yB, indices = data.draw(arrays(base, change)), data.draw(column_lists(n))
    est = typed_outcome(estimate_magnitudes, block, yB, indices)
    if est is not None:
        assert is_magnitudes(yB, (block.n_rows,)) and inside(indices, n)
        assert is_floats(est, (len(indices),))


ENSEMBLE = build_ensemble(256, 3, rng_seed=5)


@changes
@bounded
@given(st.data(), seeds)
def test_estimate_tail_energy_has_a_typed_outcome(change, data, seed):
    x = np.random.default_rng(seed).standard_normal(ENSEMBLE.n)
    meas = phaseless.apply_phaseless(ENSEMBLE, x)
    meas = dataclasses.replace(meas, y=data.draw(arrays(meas.y, change)))
    S1 = data.draw(column_lists(ENSEMBLE.n))
    tail = typed_outcome(estimate_tail_energy, ENSEMBLE, meas, S1)
    if tail is not None:
        assert is_floats(meas.y, (ENSEMBLE.total_rows,))
        assert inside(S1, ENSEMBLE.n) and isinstance(tail.L, float)


def sparse_signal(seed, n, k):
    rng = np.random.default_rng(seed)
    x = np.zeros(n, dtype=np.complex128)
    x[rng.choice(n, k, replace=False)] = [1, 1j] @ rng.standard_normal((2, k))
    return x


schemes = st.builds(DeterministicScheme,
                    st.sampled_from([8, 16, 64, 256, 4096]), st.integers(1, 4))


@changes
@bounded
@given(st.data(), seeds, schemes)
def test_det_measure_has_a_typed_outcome(change, data, seed, scheme):
    base = np.random.default_rng(seed).standard_normal(scheme.n)
    x = data.draw(arrays(base, change))
    y = typed_outcome(det_measure, scheme, x)
    if y is not None:
        assert x.shape == (scheme.n,) and np.all(np.isfinite(x))
        assert is_floats(y, (scheme.n_measurements,))


@changes
@bounded
@given(st.data(), seeds, schemes)
def test_det_recover_has_a_typed_outcome(change, data, seed, scheme):
    base = det_measure(scheme, sparse_signal(seed, scheme.n, scheme.k))
    y = data.draw(arrays(base, change))
    out = typed_outcome(det_recover, scheme, y)
    if out is not None:
        assert not np.iscomplexobj(y) and y.shape == (scheme.n_measurements,)
        assert np.all(np.isfinite(y) & (y >= 0))
        assert out.values.shape == (scheme.n,)


@changes
@bounded
@given(st.data(), seeds, st.integers(1, 64), st.integers(-3, 70))
def test_tail_norm_sq_has_a_typed_outcome(change, data, seed, n, k):
    base = np.random.default_rng(seed).standard_normal(n)
    x = data.draw(arrays(base, change))
    tail = typed_outcome(tail_norm_sq, x, k)
    if tail is not None:
        assert x.ndim == 1 and k >= 0
        assert isinstance(tail, float) and not tail < 0
