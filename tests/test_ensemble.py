"""Ensemble construction, sensing, and serialization contracts."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseless import (EnsembleConfig, EnsembleError, Measurements,
                       SensingEnsemble, apply_phaseless, build_ensemble,
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
        assert block.n_cols == N
        running += block.n_rows
    assert running == ens.total_rows
    counts = row_count(ens)
    assert counts["total"] == ens.total_rows
    last = list(ens.blocks)[-1]
    assert ens.offsets[last] + ens.blocks[last].n_rows == counts["total"]


def test_d_is_signs(ens):
    assert ens.D.shape == (N,)
    assert np.all(np.abs(ens.D) == 1)


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
    for level in range(ens.f_top_level + 1):
        name = f"F{2 ** level}"
        block = ens.blocks[name]
        p = 1.0 / (ens.config.C0 * 2 ** level * (log5k - level + 2) ** 2)
        cells = block.n_rows * block.n_cols
        sigma = math.sqrt(cells * p * (1 - p))
        nnz = block_entries(block)[0].size
        assert abs(nnz - cells * p) < 4 * sigma, name


def test_f_levels_for_k_equal_one():
    # ceil(log2(5)) = 3, so levels run 0..3 regardless of n
    e = build_ensemble(4096, 1, rng_seed=0)
    assert [name for name in e.blocks if name.startswith("F")] == \
        ["F1", "F2", "F4", "F8"]
    assert [e.f_block(size) for size in (1, 2, 3, 8, 9, 1000)] == \
        [(0, "F1"), (1, "F2"), (2, "F4"), (3, "F8"), (3, "F8"), (3, "F8")]


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


def test_config_json_round_trip():
    cfg = EnsembleConfig().resolve(N, K)
    again = EnsembleConfig.from_json(cfg.to_json())
    assert again == cfg
    with pytest.raises(EnsembleError, match="unknown"):
        EnsembleConfig.from_json('{"nope": 1}')


def test_rebuild_is_bit_identical(ens):
    again = build_ensemble(N, K, rng_seed=SEED)
    assert np.array_equal(again.D, ens.D)
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


def test_measurements_nonnegative_and_sized(ens):
    x, _ = exact_sparse(np.random.default_rng(7), N, K)
    meas = apply_phaseless(ens, x)
    assert meas.y.shape == (ens.total_rows,)
    assert np.all(meas.y >= 0)
    assert meas.block("B").shape == (ens.blocks["B"].n_rows,)


def test_apply_rejects_bad_signals(ens):
    with pytest.raises(EnsembleError):
        apply_phaseless(ens, np.zeros(N - 1))
    bad = np.zeros(N)
    bad[0] = np.nan
    with pytest.raises(EnsembleError):
        apply_phaseless(ens, bad)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_sign_blindness_property(seed):
    small = build_ensemble(256, 3, rng_seed=5)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(256) * rng.integers(0, 2, 256)
    assert np.array_equal(apply_phaseless(small, x).y,
                          apply_phaseless(small, -x).y)


def test_ensemble_serialization_round_trip(tmp_path, ens):
    path = tmp_path / "ens.npz"
    ens.save(path)
    with np.load(path) as data:
        assert data.files == ["header"]     # no block arrays, no D
    loaded = SensingEnsemble.load(path)
    assert loaded.n == ens.n and loaded.k == ens.k
    assert loaded.config == ens.config
    assert np.array_equal(loaded.D, ens.D)
    cols = np.array([0, 99, 1023])
    for name in ens.blocks:
        for a, b in zip(loaded.blocks[name].rows_of_many(cols),
                        ens.blocks[name].rows_of_many(cols)):
            assert np.array_equal(a, b)
    x, _ = exact_sparse(np.random.default_rng(3), N, K)
    assert np.array_equal(apply_phaseless(loaded, x).y,
                          apply_phaseless(ens, x).y)
    dense = np.random.default_rng(3).standard_normal(N)
    assert np.array_equal(apply_phaseless(loaded, dense).y,
                          apply_phaseless(ens, dense).y)


def test_ensemble_load_rejects_other_versions(tmp_path, ens):
    path = tmp_path / "old.npz"
    # version 2 headers still carried the config field f_inner_reps, and
    # version 3 ones built E as rep_log_n separate blocks
    for version in (1, 2, 3):
        header = {"format": SensingEnsemble.FORMAT, "version": version,
                  "n": N, "k": K, "seed": SEED,
                  "config": {"f_inner_reps": 1}}
        np.savez(path, header=np.frombuffer(json.dumps(header).encode(),
                                            dtype=np.uint8))
        with pytest.raises(EnsembleError, match="version"):
            SensingEnsemble.load(path)


def test_measurements_serialization_round_trip(tmp_path, ens):
    x, _ = exact_sparse(np.random.default_rng(4), N, K)
    meas = apply_phaseless(ens, x)
    path = tmp_path / "meas.npz"
    meas.save(path)
    loaded = Measurements.load(path)
    assert np.array_equal(loaded.y, meas.y)
    assert loaded.offsets == meas.offsets
    assert np.array_equal(loaded.block("E"), meas.block("E"))


def test_measurement_batch_blocks_slice_the_last_axis(tmp_path, ens):
    rng = np.random.default_rng(5)
    batch = [apply_phaseless(ens, exact_sparse(rng, N, K)[0]) for _ in range(3)]
    path = tmp_path / "batch.npz"
    Measurements(y=np.stack([meas.y for meas in batch]), offsets=ens.offsets,
                 block_rows=batch[0].block_rows).save(path)
    loaded = Measurements.load(path)
    assert loaded.y.shape == (3, ens.total_rows)
    for t, meas in enumerate(batch):
        for name in ens.blocks:
            assert np.array_equal(loaded.block(name)[t], meas.block(name))


def test_measurements_load_rejects_other_versions(tmp_path):
    path = tmp_path / "old.npz"
    # version 1 files name the bands of E as blocks E0, E1, ...
    for version, offsets in ((0, {}), (1, {"E0": 0, "E1": 1, "E2": 2})):
        header = {"format": Measurements.FORMAT, "version": version,
                  "offsets": offsets, "block_rows": dict.fromkeys(offsets, 1)}
        np.savez(path, header=np.frombuffer(json.dumps(header).encode(),
                                            dtype=np.uint8), y=np.zeros(3))
        with pytest.raises(EnsembleError, match="version"):
            Measurements.load(path)
