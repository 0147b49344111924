"""Ensemble construction, sensing, and serialization contracts."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaseless
from phaseless import (EnsembleConfig, EnsembleError, Measurements,
                       apply_phaseless, build_ensemble, decode,
                       planned_row_counts, row_count)

from helpers import block_entries, exact_sparse

N, K, SEED = 1024, 8, 314


@pytest.fixture(scope="module")
def ens():
    return build_ensemble(N, K, rng_seed=SEED)


def test_offsets_partition_rows(ens):
    running = 0
    for name, block in ens.blocks.items():
        assert ens.offsets[name] == running
        assert ens.rows(name) == slice(running, running + block.n_rows)
        assert block.n_cols == N
        running += block.n_rows
    assert running == ens.total_rows
    counts = row_count(ens)
    assert counts["total"] == ens.total_rows
    last = list(ens.blocks)[-1]
    assert ens.offsets[last] + ens.blocks[last].n_rows == counts["total"]


def test_sensing_applies_the_blocks_to_the_signal_itself(ens):
    # y is |block x| for every block in order, with no sign flip in front
    rng = np.random.default_rng(6)
    for x in (exact_sparse(rng, N, K)[0], rng.standard_normal(N)):
        want = np.concatenate([np.abs(blk.apply(x)) for blk in ens.blocks.values()])
        assert np.array_equal(apply_phaseless(ens, x).y, want)


def test_planned_counts_match_measured(ens):
    planned = planned_row_counts(N, K, ens.config)
    measured = row_count(ens)
    for fam in "ABEF":
        assert planned[fam] == measured[f"{fam}_family"]
    assert planned["total"] == measured["total"]


def test_e_block_density_within_3_sigma(ens):
    # each E entry is nonzero with probability 1/k, in every band of E
    p = 1.0 / K
    block = ens.blocks["E"]
    bands = ens.config.rep_log_n
    band_rows = block.n_rows // bands
    assert band_rows * bands == block.n_rows
    cells = band_rows * block.n_cols
    sigma = math.sqrt(cells * p * (1 - p))
    nnz = np.bincount(block_entries(block)[0] // band_rows, minlength=bands)
    assert np.all(np.abs(nnz - cells * p) < 3 * sigma), nnz


def test_f_block_density_within_4_sigma(ens):
    log5k = math.log2(5 * K)
    for level in range(1, ens.f_top_level + 1):
        name = f"F{2 ** level}"
        block = ens.blocks[name]
        p = 1.0 / (ens.config.C0 * 2 ** level * (log5k - level + 2) ** 2)
        cells = block.n_rows * block.n_cols
        sigma = math.sqrt(cells * p * (1 - p))
        nnz = block_entries(block)[0].size
        assert abs(nnz - cells * p) < 4 * sigma, name


def test_f_levels_for_k_equal_one():
    # top_select = 2k = 2, so the ladder is level 1 alone, regardless of n
    e = build_ensemble(4096, 1, rng_seed=0)
    assert [name for name in e.blocks if name.startswith("F")] == ["F2"]
    assert [e.f_block(size) for size in (1, 2, 3, 8, 9, 1000)] == ["F2"] * 6


@pytest.mark.parametrize("k", [1, 3, 10])
@pytest.mark.parametrize("select", [1, 2, 5])
def test_f_ladder_is_exactly_the_reachable_levels(k, select):
    # the sign stage tests sets of 2 .. top_select candidates, so those
    # sizes name every built F level and no other
    cfg = EnsembleConfig(top_select=select * k)
    e = build_ensemble(4096, k, config=cfg, rng_seed=0)
    built = {name for name in e.blocks if name.startswith("F")}
    assert {e.f_block(s) for s in range(2, select * k + 1)} == built
    planned = planned_row_counts(4096, k, cfg)
    assert planned["F"] == sum(e.blocks[name].n_rows for name in built)
    assert planned["total"] == e.total_rows


def test_top_select_one_builds_no_f_level_and_decodes():
    e = build_ensemble(4096, 1, config=EnsembleConfig(top_select=1),
                       rng_seed=2)
    assert not any(name.startswith("F") for name in e.blocks)
    x = np.zeros(4096)
    x[77] = -3.0
    res = decode(e, apply_phaseless(e, x))
    assert res.S2.tolist() == [77] and np.allclose(np.abs(res.values), 3.0)


def test_e_density_is_capped_at_one_half():
    # at k = 1 a density of 1/k = 1 would put every coordinate in every row
    e = build_ensemble(4096, 1, rng_seed=0)
    assert e.blocks["E"].p == 0.5
    assert build_ensemble(4096, 3, rng_seed=0).blocks["E"].p == 1.0 / 3


def test_f_family_rows_obey_series_bound(ens):
    # sum_{i>=1} i^4 / 2^i converges to 150; the F family's row total is
    # bounded by c_F * 20k * (log2(5k) + 2) * that constant
    series = sum(i ** 4 / 2 ** i for i in range(1, 200))
    assert abs(series - 150.0) < 1e-9
    bound = ens.config.c_F * 20 * K * (math.log2(5 * K) + 2) * series
    assert row_count(ens)["F_family"] <= bound


def test_build_rejects_bad_dimensions():
    with pytest.raises(EnsembleError):
        build_ensemble(0, 1)
    with pytest.raises(EnsembleError):
        build_ensemble(100, 6)  # k > n/20


def test_config_validation():
    with pytest.raises(EnsembleError):
        EnsembleConfig(C0=-1.0).resolve(N, K)
    with pytest.raises(EnsembleError):
        EnsembleConfig(heavy_K=2).resolve(N, K)  # heavy_K < k
    with pytest.raises(EnsembleError):
        EnsembleConfig(countsketch_reps=0).resolve(N, K)


def test_config_checks_every_field_at_construction():
    # ranges are checked when a config is made, and a derived value when
    # resolve makes its config: 12 * C0^2 overflows to inf here
    for field, value in (("countsketch_reps", 0), ("heavy_K", -3), ("C1", 0.0)):
        with pytest.raises(EnsembleError, match=field):
            EnsembleConfig(**{field: value})
    with pytest.raises(EnsembleError, match="c_F"):
        EnsembleConfig(C0=1e200).resolve(N, K)


@pytest.mark.parametrize("n, k, name", [
    (1024.0, 8, "n"), (1024, True, "k"), (1024, 8.0, "k"), ("1024", 8, "n"),
])
def test_build_refuses_dimensions_that_are_not_integers(n, k, name):
    # n=1024.0 once saved a file that load refuses, and k=True built k=1
    with pytest.raises(EnsembleError, match=name):
        build_ensemble(n, k)


def test_numpy_integer_dimensions_round_trip(tmp_path):
    # numpy integers once reached save, which failed in json.dumps
    ens = build_ensemble(np.int64(N), np.int64(K), rng_seed=np.int64(SEED))
    assert all(type(v) is int for v in (ens.n, ens.k, ens.seed))
    x, _ = exact_sparse(np.random.default_rng(4), N, K)
    meas = apply_phaseless(ens, x)
    meas.save(tmp_path / "meas.npz")
    loaded = Measurements.load(tmp_path / "meas.npz")
    assert (loaded.n, loaded.k, loaded.seed) == (N, K, SEED)
    rebuilt = build_ensemble(loaded.n, loaded.k, config=loaded.config,
                             rng_seed=loaded.seed)
    assert decode(rebuilt, loaded).to_json() == decode(ens, meas).to_json()


@pytest.mark.parametrize("field", ["C0", "C1", "c1", "c_F", "hh_bucket_factor"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_constants(field, value):
    # c1=NaN once decoded to an empty estimate, C1=NaN escaped as a bare
    # ValueError and C0=inf as an OverflowError; JSON config files can
    # carry NaN and Infinity
    with pytest.raises(EnsembleError, match=field):
        EnsembleConfig(**{field: value}).resolve(4096, 3)
    with pytest.raises(EnsembleError, match=field):
        build_ensemble(4096, 3, config=EnsembleConfig.from_json(
            json.dumps({field: value})))


@pytest.mark.parametrize("field, value", [
    ("rep_log_n", 3.0), ("hh_reps", 3.0), ("countsketch_reps", True),
    ("heavy_K", "40"), ("c1", "0.7"), ("C0", "0.5"), ("hh_bucket_factor", False),
])
def test_config_rejects_values_of_the_wrong_type(field, value):
    # float counts escaped as a bare TypeError from SeedSequence, True
    # counted one repetition, and string constants failed in arithmetic
    with pytest.raises(EnsembleError, match=field):
        EnsembleConfig(**{field: value})
    with pytest.raises(EnsembleError, match=field):
        EnsembleConfig.from_json(json.dumps({field: value}))


def test_the_seed_is_a_build_argument_not_a_constant():
    assert "seed" not in EnsembleConfig.__dataclass_fields__
    with pytest.raises(EnsembleError, match="seed"):
        EnsembleConfig.from_json('{"seed": 9}')
    assert build_ensemble(N, K, rng_seed=9).seed == 9
    assert build_ensemble(N, K).seed == 0
    for seed in (-1, 2.5, "3"):
        with pytest.raises(EnsembleError, match="rng_seed"):
            build_ensemble(N, K, rng_seed=seed)


def test_config_json_round_trip():
    cfg = EnsembleConfig().resolve(N, K)
    again = EnsembleConfig.from_json(cfg.to_json())
    assert again == cfg
    with pytest.raises(EnsembleError, match="unknown"):
        EnsembleConfig.from_json('{"nope": 1}')


def test_rebuild_is_bit_identical(ens):
    again = build_ensemble(N, K, rng_seed=SEED)
    assert list(again.blocks) == list(ens.blocks)
    for name in ens.blocks:
        a, b = block_entries(ens.blocks[name]), block_entries(again.blocks[name])
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


def test_sign_blindness_is_exact(ens):
    x, _ = exact_sparse(np.random.default_rng(1), N, K)
    assert np.array_equal(apply_phaseless(ens, x).y,
                          apply_phaseless(ens, -x).y)


def test_zero_signal_measures_zero(ens):
    y = apply_phaseless(ens, np.zeros(N))
    assert np.all(y.y == 0)


def test_single_spike_measurements_two_valued(ens):
    x = np.zeros(N)
    x[37] = -2.5
    y = apply_phaseless(ens, x).y
    assert set(np.unique(y)) <= {0.0, 2.5}


def test_dense_sensing_temporaries_stay_chunk_sized():
    # each block scatters its columns a chunk at a time into one output, so
    # a warm dense sense allocates about a chunk's entries, not the block's
    big = build_ensemble(16384, 10, rng_seed=5)
    x = np.random.default_rng(5).standard_normal(16384)
    first = apply_phaseless(big, x).y
    tracemalloc.start()
    try:
        again = apply_phaseless(big, x).y
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(again, first)
    assert peak < 12e6


def test_measurements_nonnegative_and_sized(ens):
    x, _ = exact_sparse(np.random.default_rng(7), N, K)
    meas = apply_phaseless(ens, x)
    assert meas.y.shape == (ens.total_rows,)
    assert np.all(meas.y >= 0)
    assert meas.y[ens.rows("B")].shape == (ens.blocks["B"].n_rows,)


def test_apply_rejects_bad_signals(ens):
    with pytest.raises(EnsembleError):
        apply_phaseless(ens, np.zeros(N - 1))
    bad = np.zeros(N)
    bad[0] = np.nan
    with pytest.raises(EnsembleError):
        apply_phaseless(ens, bad)


def test_apply_refuses_a_complex_signal(ens):
    # a complex x was once cast to its real part with only a warning
    with pytest.raises(EnsembleError, match="real"):
        apply_phaseless(ens, np.zeros(N, dtype=np.complex128))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_sign_blindness_property(seed):
    small = build_ensemble(256, 3, rng_seed=5)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(256) * rng.integers(0, 2, 256)
    assert np.array_equal(apply_phaseless(small, x).y,
                          apply_phaseless(small, -x).y)


def test_measurements_serialization_round_trip(tmp_path, ens):
    x, _ = exact_sparse(np.random.default_rng(4), N, K)
    meas = apply_phaseless(ens, x)
    path = tmp_path / "meas.npz"
    meas.save(path)
    loaded = Measurements.load(path)
    assert loaded.y.dtype == np.float64
    assert loaded.y.tobytes() == meas.y.tobytes()
    assert (loaded.n, loaded.k, loaded.seed, loaded.config) == (N, K, SEED, ens.config)
    # the file alone rebuilds its ensemble, which decodes it as before
    rebuilt = build_ensemble(loaded.n, loaded.k, config=loaded.config,
                             rng_seed=loaded.seed)
    assert decode(rebuilt, loaded).to_json() == decode(ens, meas).to_json()


def test_measurement_batch_blocks_slice_the_last_axis(tmp_path, ens):
    rng = np.random.default_rng(5)
    batch = [apply_phaseless(ens, exact_sparse(rng, N, K)[0]) for _ in range(3)]
    path = tmp_path / "batch.npz"
    dataclasses.replace(batch[0], y=np.stack([meas.y for meas in batch])).save(path)
    loaded = Measurements.load(path)
    assert loaded.y.shape == (3, ens.total_rows)
    for t, meas in enumerate(batch):
        assert loaded.y[t].tobytes() == meas.y.tobytes()
        for name in ens.blocks:
            assert np.array_equal(loaded.y[:, ens.rows(name)][t],
                                  meas.y[ens.rows(name)])


def test_measurements_load_rejects_other_versions(tmp_path, ens):
    path = tmp_path / "old.npz"
    # version 1 files name the bands of E as blocks E0, E1, ..., version 2
    # ones hold the F1 level and the levels above top_select, and versions
    # up to 3 store the row layout and need a separate ensemble file;
    # version 4 files hold |Phi D x| for a stored sign flip D, so decoding
    # one now would return D x
    for version in range(5):
        header = {"format": Measurements.FORMAT, "version": version,
                  "offsets": {"A": 0}, "block_rows": {"A": 3}}
        np.savez(path, header=np.frombuffer(json.dumps(header).encode(),
                                            dtype=np.uint8), y=np.zeros(3))
        with pytest.raises(EnsembleError, match="version"):
            Measurements.load(path)


@pytest.mark.parametrize("key, value", [
    ("n", None), ("k", None), ("seed", None), ("k", "3"), ("n", 1024.0),
    ("seed", True),
])
def test_measurements_load_rejects_a_bad_identity(tmp_path, ens, key, value):
    # a missing key was a bare KeyError, and "k": "3" loaded and then
    # failed in build_ensemble
    path = tmp_path / "bad.npz"
    meas = apply_phaseless(ens, np.zeros(N))
    meas.save(path)
    with np.load(path) as data:
        header, y = json.loads(bytes(data["header"]).decode()), data["y"]
    if value is None:
        del header[key]
    else:
        header[key] = value
    np.savez(path, header=np.frombuffer(json.dumps(header).encode(),
                                        dtype=np.uint8), y=y)
    with pytest.raises(EnsembleError, match=f"{key} must be an integer"):
        Measurements.load(path)


def test_public_names_resolve():
    for name in phaseless.__all__:
        assert getattr(phaseless, name) is not None, name
