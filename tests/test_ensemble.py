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
                       apply_phaseless, build_ensemble, decode, row_count)
from phaseless.sparse import APPLY_CHUNK, SparseSignMatrix, apply_blocks

from helpers import block_entries, exact_sparse, support

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
    # y is |block x| for every block in order, with no sign flip in front;
    # 500 scattered nonzero columns sample the F levels in walks of 4 blocks
    rng = np.random.default_rng(6)
    scattered = np.zeros(N)
    scattered[rng.choice(N, 500, replace=False)] = rng.standard_normal(500)
    for x in (exact_sparse(rng, N, K)[0], rng.standard_normal(N), scattered):
        want = np.concatenate([np.abs(apply_blocks([blk], *support(x)))
                               for blk in ens.blocks.values()])
        assert np.array_equal(apply_phaseless(ens, x).y, want)


def test_planned_counts_match_measured(ens):
    # calibrate ranks a config by the rows of one build: no seed changes them
    other = build_ensemble(N, K, ens.config, rng_seed=SEED + 1)
    assert row_count(other) == row_count(ens)


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
    assert row_count(build_ensemble(4096, k, config=cfg, rng_seed=1)) \
        == row_count(e)


def test_top_select_one_builds_no_f_level_and_decodes():
    e = build_ensemble(4096, 1, config=EnsembleConfig(top_select=1),
                       rng_seed=2)
    assert not any(name.startswith("F") for name in e.blocks)
    x = np.zeros(4096)
    x[77] = -3.0
    res = decode(e, apply_phaseless(e, x))
    assert res.S2.tolist() == [77] and np.allclose(np.abs(res.values), 3.0)


def test_f_block_refuses_when_no_level_is_built():
    # top_select = 1 builds no F level, so no set size names one
    e = build_ensemble(4096, 1, config=EnsembleConfig(top_select=1),
                       rng_seed=2)
    assert e.f_top_level == 0
    for size in (1, 2, 3):
        with pytest.raises(EnsembleError, match="top_select=1"):
            e.f_block(size)


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


@pytest.mark.parametrize("config", [{"C0": 1}, "C0=1", 0.5])
def test_build_refuses_a_config_that_is_not_an_ensemble_config(config):
    # a dict once failed with "'dict' object has no attribute 'resolve'"
    with pytest.raises(EnsembleError, match=type(config).__name__):
        build_ensemble(4096, 10, config)


def test_build_refuses_an_f_level_it_cannot_sample():
    # C0=200 once built F8 with 2,678,782,986 rows, past the int32 rows the
    # sampler returns; C0=0.001 makes F2's density exceed 1
    for C0, level in ((200, 3), (0.001, 1)):
        with pytest.raises(EnsembleError, match=f"F level {level}: "):
            build_ensemble(4096, 10, EnsembleConfig(C0=C0))


def test_build_refuses_an_ensemble_of_2_31_rows_or_more():
    # C0=100 built 2,536,564,256 rows from F blocks each under 2^31, which
    # sensing then asked numpy for as one y; the build refuses it instead
    with pytest.raises(EnsembleError, match=r"2536564256 rows.* 2\^31 = "
                                            r"2147483648"):
        build_ensemble(4096, 10, EnsembleConfig(C0=100))
    assert build_ensemble(2 ** 20, 10).total_rows < 2 ** 31


@pytest.mark.parametrize("hh_reps, countsketch_reps, largest", [
    (5, 5, (1 << 63) // 5), (2, 8, 1 << 60), (8, 3, 1 << 60),
    (1, 1, (1 << 63) - 1)])
def test_build_refuses_an_n_whose_hash_words_overflow(hh_reps, countsketch_reps,
                                                      largest):
    # a hash block keys column i of repetition r at the int64 word i + r n:
    # n = 2^63 - 1 once decoded wrong and raised nothing, and n = 2^63
    # raised numpy's OverflowError when it sensed
    cfg = EnsembleConfig(hh_reps=hh_reps, countsketch_reps=countsketch_reps)
    assert build_ensemble(largest, 10, cfg).n == largest
    for n in (largest + 1, (1 << 63) - 1, 1 << 63, 1 << 64):
        if n > largest:
            with pytest.raises(EnsembleError, match=rf"n <= {largest}$"):
                build_ensemble(n, 10, cfg)


def test_config_validation():
    with pytest.raises(EnsembleError):
        EnsembleConfig(C0=-1.0).resolve(K)
    with pytest.raises(EnsembleError):
        EnsembleConfig(heavy_K=2).resolve(K)  # heavy_K < k
    with pytest.raises(EnsembleError):
        EnsembleConfig(countsketch_reps=0).resolve(K)


def test_config_checks_every_field_at_construction():
    # ranges are checked when a config is made, and a derived value when
    # resolve makes its config: 12 * C0^2 overflows to inf here
    for field, value in (("countsketch_reps", 0), ("heavy_K", -3), ("c1", 0.0)):
        with pytest.raises(EnsembleError, match=field):
            EnsembleConfig(**{field: value})
    with pytest.raises(EnsembleError, match="c_F"):
        EnsembleConfig(C0=1e200).resolve(K)


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


@pytest.mark.parametrize("field", ["C0", "c1", "c_F", "hh_bucket_factor"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_constants(field, value):
    # c1=NaN once decoded to an empty estimate and C0=inf escaped as an
    # OverflowError; JSON config files can carry NaN and Infinity
    with pytest.raises(EnsembleError, match=field):
        EnsembleConfig(**{field: value}).resolve(3)
    with pytest.raises(EnsembleError, match=field):
        build_ensemble(4096, 3, config=EnsembleConfig.from_json(
            json.dumps({field: value})))


@pytest.mark.parametrize("field, value", [
    ("countsketch_rows", 3.0), ("hh_reps", 3.0), ("countsketch_reps", True),
    ("heavy_K", "40"), ("c1", "0.7"), ("C0", "0.5"), ("hh_bucket_factor", False),
])
def test_config_rejects_values_of_the_wrong_type(field, value):
    # float counts escaped as a bare TypeError from SeedSequence, True
    # counted one repetition, and string constants failed in arithmetic
    with pytest.raises(EnsembleError, match=field):
        EnsembleConfig(**{field: value})
    with pytest.raises(EnsembleError, match=field):
        EnsembleConfig.from_json(json.dumps({field: value}))


@pytest.mark.parametrize("field", ["C0", "c1", "countsketch_reps",
                                   "hh_bucket_factor", "hh_reps"])
def test_config_refuses_null_for_a_field_that_resolve_leaves(field):
    # resolve fills only the fields that default to None: a JSON null
    # elsewhere reached the build and failed there as a bare TypeError
    with pytest.raises(EnsembleError, match=field):
        EnsembleConfig.from_json(json.dumps({field: None}))


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
    cfg = EnsembleConfig().resolve(K)
    again = EnsembleConfig.from_json(cfg.to_json())
    assert again == cfg
    with pytest.raises(EnsembleError, match="unknown"):
        EnsembleConfig.from_json('{"nope": 1}')


@pytest.mark.parametrize("n, k, seed", [(N, K, SEED), (4096, 10, 7),
                                        (65536, 1, 2 ** 62 + 5)])
def test_block_i_is_keyed_by_seed_word_i(n, k, seed):
    ens = build_ensemble(n, k, rng_seed=seed)
    words = np.random.SeedSequence(seed).generate_state(len(ens.blocks),
                                                        dtype=np.uint64)
    assert [block.key for block in ens.blocks.values()] == words.tolist()


def test_block_keys_do_not_depend_on_n():
    # F's keys once followed a run of stream words whose length grew with n
    keys = [[block.key for block in build_ensemble(n, 10, rng_seed=SEED)
             .blocks.values()] for n in (1024, 65536)]
    assert keys[0] == keys[1]


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


def test_a_dense_sense_keeps_at_most_17_bits_per_entry():
    # a kept range holds its counts, 16-bit rows and one bit of sign per
    # entry; an int32 row and an int8 sign took 5 bytes
    big = build_ensemble(16384, 10, rng_seed=5)
    apply_phaseless(big, np.random.default_rng(5).standard_normal(16384))
    for block in big.blocks.values():
        if isinstance(block, SparseSignMatrix):
            assert sorted(block._kept) == list(range(0, 16384, APPLY_CHUNK))
            for counts, rows, signs in block._kept.values():
                assert rows.nbytes + signs.nbytes <= \
                    math.ceil(2.125 * counts.sum())


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


# the defaults before the lean B, A and F, as (4096, 10) resolved them, and
# the rows they built per block
OLD_RESOLVED = {"C0": 0.125, "c1": 0.7, "c_F": 0.1875, "countsketch_rows": 256,
                "countsketch_reps": 5, "heavy_K": 40, "top_select": 20,
                "hh_bucket_factor": 1.5, "hh_reps": 5}
OLD_ROWS = {"A": 7500, "B": 1280, "F2": 731, "F4": 1522, "F8": 2093,
            "F16": 2116, "F32": 1466, "total": 16708}


def test_an_old_default_header_rebuilds_its_own_rows(tmp_path):
    # a measurements header holds its resolved config, so a file sensed
    # under the old defaults rebuilds the old ensemble, not today's
    n, k, seed = 4096, 10, 2028
    old = build_ensemble(n, k, EnsembleConfig(**OLD_RESOLVED), rng_seed=seed)
    assert dataclasses.asdict(old.config) == OLD_RESOLVED
    counts = row_count(old)
    assert {name: counts[name] for name in OLD_ROWS} == OLD_ROWS
    assert build_ensemble(n, k, rng_seed=seed).total_rows == 10855
    x = exact_sparse(np.random.default_rng(28), n, k)[0]
    path = tmp_path / "old.npz"
    apply_phaseless(old, x).save(path)
    loaded = Measurements.load(path)
    rebuilt = build_ensemble(loaded.n, loaded.k, loaded.config, loaded.seed)
    assert row_count(rebuilt) == counts
    assert apply_phaseless(rebuilt, x).y.tobytes() == loaded.y.tobytes()


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
    # one now would return D x; versions 5 and 6 key the blocks by other
    # stream words, so a rebuild would decode them into garbage
    for version in range(7):
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


@pytest.mark.parametrize("header", [[1, 2], "phaseless-measurements", None, 3])
def test_measurements_load_refuses_a_header_that_is_not_an_object(tmp_path,
                                                                  header):
    # a list once raised a TypeError from header.pop, a string or null an
    # AttributeError
    path = tmp_path / "bad.npz"
    np.savez(path, header=np.frombuffer(json.dumps(header).encode(),
                                        dtype=np.uint8), y=np.zeros(3))
    with pytest.raises(EnsembleError, match="^not a measurements container$"):
        Measurements.load(path)


def test_public_names_resolve():
    for name in phaseless.__all__:
        assert getattr(phaseless, name) is not None, name
