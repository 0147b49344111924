"""CLI subcommand flows on tiny problem sizes."""

import json
import re

import numpy as np
import pytest

from phaseless import (EnsembleConfig, EnsembleError, Measurements,
                       apply_phaseless, build_ensemble, decode)
from phaseless.cli import main


def test_gen_sense_decode_flow(tmp_path):
    sig = tmp_path / "sig"
    assert main(["gen", "--n", "256", "--k", "3", "--trials", "3",
                 "--seed", "5", "--out", str(sig)]) == 0
    with np.load(sig / "signals.npz") as data:
        assert data["signals"].shape == (3, 256)

    sensed = tmp_path / "sensed"
    assert main(["sense", "--signals", str(sig / "signals.npz"),
                 "--k", "3", "--seed", "5", "--out", str(sensed)]) == 0
    assert [p.name for p in sensed.iterdir()] == ["measurements.npz"]

    # decode reads that one file: it rebuilds the ensemble from it
    dec = tmp_path / "dec"
    assert main(["decode", "--measurements", str(sensed / "measurements.npz"),
                 "--out", str(dec)]) == 0
    results = sorted(dec.glob("result_*.json"))
    assert len(results) == 3
    ens = build_ensemble(256, 3, rng_seed=5)
    with np.load(sig / "signals.npz") as data:
        signals = data["signals"]
    for path, x in zip(results, signals):
        assert path.read_text() == decode(ens, apply_phaseless(ens, x)).to_json()


def test_bench_writes_reports(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(["bench", "--n", "512", "--k", "4", "--trials", "3",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    assert (out / "report.csv").exists()
    agg = json.loads((out / "report.json").read_text())["aggregates"]
    assert agg["trials"] == 3


def test_bench_accepts_spec_file(tmp_path):
    from phaseless.bench import TrialSpec
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(TrialSpec(n=512, k=4, trials=2, seed=3).to_json())
    out = tmp_path / "bench"
    assert main(["bench", "--spec", str(spec_path), "--out", str(out)]) == 0


def test_gen_complex_signals_use_native_dtype(tmp_path):
    from phaseless.bench import TrialSpec, gen_signal

    out = tmp_path / "csig"
    assert main(["gen", "--n", "64", "--k", "3", "--trials", "2", "--seed",
                 "7", "--pipeline", "prony", "--out", str(out)]) == 0
    with np.load(out / "signals.npz") as data:
        assert data.files == ["signals"]
        stored = data["signals"]
        assert stored.dtype == np.complex128 and stored.shape == (2, 64)
        spec = TrialSpec(n=64, k=3, trials=2, seed=7, pipeline="prony")
        assert np.array_equal(stored[1], gen_signal(spec, 1))
    # the real-signal pipeline refuses complex inputs
    assert _exit_code(["sense", "--signals", str(out / "signals.npz"),
                       "--k", "3", "--out", str(tmp_path / "x")]) == 2


def test_prony_subcommand(tmp_path):
    out = tmp_path / "prony"
    assert main(["bench", "--pipeline", "prony", "--n", "64", "--k", "3", "--trials", "4",
                 "--seed", "1", "--out", str(out)]) == 0
    agg = json.loads((out / "report.json").read_text())["aggregates"]
    assert agg["success_rate"] == 1.0


def test_calibrate_exit_codes(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"C0": [0.125]}))
    out = tmp_path / "calib"
    assert main(["calibrate", "--grid", str(grid), "--n", "512", "--k", "4",
                 "--trials", "3", "--seed", "4", "--target", "0.1",
                 "--out", str(out)]) == 0
    # the CLI writes the winner as a plain config file
    winner = EnsembleConfig.from_json((out / "defaults.json").read_text())
    assert winner.C0 == 0.125 and winner == winner.resolve(4)

    # c1 = 1e6 makes prune keep nothing, so no trial with a tail succeeds
    # and no config meets a target of 1
    out2 = tmp_path / "calib2"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hh_reps": 3}))
    grid.write_text(json.dumps({"c1": [1e6]}))
    assert main(["calibrate", "--grid", str(grid), "--n", "512", "--k", "4",
                 "--trials", "3", "--seed", "4", "--target", "1.0",
                 "--model", "spikes-plus-tail", "--config", str(cfg),
                 "--out", str(out2)]) == 1
    summaries = json.loads((out2 / "calibration.json").read_text())
    assert [s["config"]["hh_reps"] for s in summaries] == [3]


def test_config_file_is_honored(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"C0": 0.5}))
    out = tmp_path / "bench"
    assert main(["bench", "--n", "512", "--k", "4", "--trials", "2",
                 "--seed", "2", "--config", str(cfg), "--out", str(out)]) == 0
    spec = json.loads((out / "report.json").read_text())["spec"]
    assert spec["config"]["C0"] == 0.5


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    # an unknown key once escaped as a bare TypeError; it is a usage error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nope": 1}))
    assert _exit_code(["bench", "--n", "512", "--k", "4", "--trials", "2",
                       "--seed", "2", "--config", str(cfg),
                       "--out", str(tmp_path / "bench")]) == 2
    assert "unknown config keys: ['nope']" in capsys.readouterr().err


def _exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


SPEC_FLAGS = {"--n", "--k", "--trials", "--seed", "--config", "--model",
              "--pipeline", "--out"}


@pytest.mark.parametrize("command, flags", [
    ("gen", SPEC_FLAGS),
    ("sense", {"--signals", "--k", "--seed", "--config", "--out"}),
    ("decode", {"--measurements", "--out"}),
    ("bench", SPEC_FLAGS | {"--spec", "--workers"}),
    ("calibrate", SPEC_FLAGS | {"--grid", "--target"}),
])
def test_each_subcommand_takes_only_the_flags_it_reads(command, flags, capsys):
    assert _exit_code([command, "--help"]) == 0
    shown = set(re.findall(r"(?<![\w-])--[a-z]+", capsys.readouterr().out))
    assert shown - {"--help"} == flags


def test_flags_a_subcommand_ignored_are_exit_codes(tmp_path, capsys):
    # decode once took and ignored every spec flag, and sense took --n
    # beside the signals that fix it
    assert _exit_code(["decode", "--measurements", "m.npz",
                         "--config", "x.json"]) == 2
    assert _exit_code(["sense", "--signals", "s.npz", "--k", "3",
                         "--n", "64"]) == 2
    # calibrating the prony pipeline would tune constants it never reads
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"C0": [0.125]}))
    assert _exit_code(["calibrate", "--grid", str(grid), "--n", "64",
                       "--k", "3", "--pipeline", "prony",
                       "--out", str(tmp_path / "calib")]) == 2
    assert "the prony pipeline reads no ensemble config" in \
        capsys.readouterr().err
    assert not any((tmp_path / "calib").iterdir())
    # --spec once silently won over the spec flags
    assert _exit_code(["bench", "--spec", "spec.json", "--n", "64",
                         "--out", str(tmp_path)]) == 2
    assert _exit_code(["bench", "--k", "3", "--out", str(tmp_path)]) == 2


def test_sense_writes_its_seed_and_config_files_hold_no_seed(tmp_path, capsys):
    sig = tmp_path / "sig"
    assert main(["gen", "--n", "256", "--k", "3", "--trials", "1",
                 "--out", str(sig)]) == 0
    assert main(["sense", "--signals", str(sig / "signals.npz"), "--k", "3",
                 "--seed", "9", "--out", str(tmp_path)]) == 0
    assert Measurements.load(tmp_path / "measurements.npz").seed == 9
    # a seed in a config file was once read by no command; a config that
    # `build_ensemble` refuses is a usage error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"C0": 0.5, "seed": 9}))
    assert _exit_code(["sense", "--signals", str(sig / "signals.npz"),
                       "--k", "3", "--config", str(cfg),
                       "--out", str(tmp_path)]) == 2
    assert "unknown config keys: ['seed']" in capsys.readouterr().err


def test_sense_refuses_a_k_or_signals_file_as_a_usage_error(tmp_path, capsys):
    # each once ended in a traceback with exit status 1
    sig = tmp_path / "sig"
    assert main(["gen", "--n", "256", "--k", "3", "--trials", "1",
                 "--out", str(sig)]) == 0
    assert _exit_code(["sense", "--signals", str(sig / "signals.npz"),
                       "--k", "50", "--out", str(tmp_path)]) == 2
    assert "k=50 too large for n=256" in capsys.readouterr().err
    assert _exit_code(["sense", "--signals", str(tmp_path / "none.npz"),
                       "--k", "3", "--out", str(tmp_path)]) == 2
    assert "none.npz" in capsys.readouterr().err
    # np.load gives an .npy file's array, which `with` cannot enter
    np.save(tmp_path / "a.npy", np.zeros(3))
    assert _exit_code(["sense", "--signals", str(tmp_path / "a.npy"),
                       "--k", "1", "--out", str(tmp_path)]) == 2
    assert "not a signals container" in capsys.readouterr().err


def test_sense_of_dense_signals_equals_a_fresh_ensemble_per_signal(tmp_path):
    # every aligned range of a dense signal is kept by the first sense and
    # read back by the next two
    signals = np.random.default_rng(8).standard_normal((3, 4096))
    np.savez_compressed(tmp_path / "dense.npz", signals=signals)
    assert main(["sense", "--signals", str(tmp_path / "dense.npz"),
                 "--k", "10", "--seed", "8", "--out", str(tmp_path)]) == 0
    y = Measurements.load(tmp_path / "measurements.npz").y
    assert y.shape[0] == 3
    for row, x in zip(y, signals):
        fresh = apply_phaseless(build_ensemble(4096, 10, rng_seed=8), x).y
        assert row.tobytes() == fresh.tobytes()


def test_decode_refuses_a_file_that_holds_no_measurements(tmp_path, capsys):
    # the signals file `gen` writes once ended in a bare KeyError, and an
    # .npy file, which np.load gives as a bare array, in a TypeError
    sig = tmp_path / "sig"
    assert main(["gen", "--n", "256", "--k", "3", "--trials", "1",
                 "--out", str(sig)]) == 0
    np.save(tmp_path / "a.npy", np.zeros(3))
    for path in (sig / "signals.npz", tmp_path / "a.npy"):
        with pytest.raises(EnsembleError, match="not a measurements container"):
            Measurements.load(path)
        assert _exit_code(["decode", "--measurements", str(path),
                           "--out", str(tmp_path)]) == 2
        assert "not a measurements container" in capsys.readouterr().err
    assert _exit_code(["decode", "--measurements", str(tmp_path / "none.npz"),
                       "--out", str(tmp_path)]) == 2
    assert "none.npz" in capsys.readouterr().err


@pytest.mark.parametrize("header", [[1, 2], "x", None])
def test_decode_refuses_a_header_that_is_not_an_object(tmp_path, capsys,
                                                       header):
    # each once ended in a TypeError or AttributeError traceback
    path = tmp_path / "bad.npz"
    np.savez(path, header=np.frombuffer(json.dumps(header).encode(),
                                        dtype=np.uint8), y=np.zeros(3))
    assert _exit_code(["decode", "--measurements", str(path),
                       "--out", str(tmp_path)]) == 2
    assert "not a measurements container" in capsys.readouterr().err
    assert not list(tmp_path.glob("result_*.json"))


# version 5 files hold the rows of the E block, which no ensemble builds
# now, and their config names its C1 and rep_log_n; version 6 files key the
# blocks by other stream words, so a rebuild would decode them into garbage
@pytest.mark.parametrize("version", [5, 6])
def test_decode_refuses_a_version_5_or_6_file(tmp_path, capsys, version):
    extra, rows = {5: ({"C1": 16.0, "rep_log_n": 7}, 17828),
                   6: ({}, 16708)}[version]
    header = {"format": Measurements.FORMAT, "version": version, "n": 4096,
              "k": 10, "seed": 2028, "C0": 0.125, "c1": 0.7, "c_F": 0.1875,
              "countsketch_rows": 256, "countsketch_reps": 5, "heavy_K": 40,
              "top_select": 20, "hh_bucket_factor": 1.5, "hh_reps": 5,
              **extra}
    path = tmp_path / f"v{version}.npz"
    np.savez_compressed(path, header=np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8), y=np.zeros(rows))
    message = f"unsupported measurements version {version}"
    with pytest.raises(EnsembleError, match=f"^{message}$"):
        Measurements.load(path)
    assert _exit_code(["decode", "--measurements", str(path),
                       "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("grid, n, k, message", [
    ([1], 64, 2, "not a JSON object"),
    ({"C0": []}, 64, 2, "empty calibration grid"),
    ({"nope": [1]}, 64, 2, "unknown config keys: ['nope']"),
    ({"C0": [-1]}, 64, 2, "C0 must be finite and > 0, got -1"),
    ({"C0": [0.125]}, 100, 50, "k=50 too large for n=100"),
    ({"C0": 0.5}, 64, 2, "not a list of values: C0 = 0.5"),
    ({"C0": None}, 64, 2, "not a list of values: C0 = None"),
])
def test_calibrate_refuses_a_grid_or_n_and_k_as_a_usage_error(
        tmp_path, capsys, grid, n, k, message):
    # each once ended in a traceback with exit status 1
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    assert _exit_code(["calibrate", "--grid", str(path), "--n", str(n),
                       "--k", str(k), "--trials", "1",
                       "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "defaults.json").exists()


def test_calibrate_leaves_a_failed_write_of_its_winner_a_traceback(tmp_path):
    # an OSError is not a usage error: the grid and spec were accepted
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"C0": [0.125]}))
    (tmp_path / "defaults.json").mkdir()
    with pytest.raises(OSError):
        main(["calibrate", "--grid", str(grid), "--n", "512", "--k", "4",
              "--trials", "1", "--seed", "4", "--target", "0.0",
              "--out", str(tmp_path)])


def test_gen_refuses_a_model_the_prony_pipeline_ignores(tmp_path, capsys):
    assert _exit_code(["gen", "--n", "64", "--k", "3", "--pipeline", "prony",
                       "--model", "power-law", "--out", str(tmp_path)]) == 2
    assert "the prony pipeline takes" in capsys.readouterr().err


@pytest.mark.parametrize("spec, field", [
    ({"n": 64, "k": 2, "trials": 2.5}, "trials must be an integer"),
    ({"n": 64, "k": 2, "trials": True}, "trials must be an integer"),
    ({"n": "64", "k": 2}, "n must be an integer"),
    ({"n": 64, "k": 2, "seed": -1}, "seed must be >= 0"),
    ({"n": 64, "k": 2, "config": None}, "config must be a JSON object"),
    ({"n": 64, "k": 2, "config": [1]}, "config must be a JSON object"),
    ({"n": 64, "k": 2, "decay": "1"}, "decay must be a finite number"),
    ({"k": 2}, "a JSON object with n and k"),
    ([64, 2], "a JSON object with n and k"),
])
def test_bench_refuses_a_malformed_spec_as_a_usage_error(tmp_path, capsys,
                                                         spec, field):
    # each once ended in a TypeError traceback, or ran every trial into
    # an error, with exit status 1
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert _exit_code(["bench", "--spec", str(path),
                       "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


def test_unreadable_inputs_are_usage_errors(tmp_path, capsys):
    # each once ended in a traceback with exit status 1
    out = ["--out", str(tmp_path)]
    assert _exit_code(["gen", "--n", "64", "--k", "2", "--trials", "0",
                       *out]) == 2
    assert "trials must be >= 1" in capsys.readouterr().err
    assert _exit_code(["bench", "--spec", str(tmp_path / "none.json"),
                       *out]) == 2
    assert "none.json" in capsys.readouterr().err
    grid = tmp_path / "grid.json"
    grid.write_text("{bad")
    for path in (grid, tmp_path / "none.json"):
        assert _exit_code(["calibrate", "--grid", str(path), "--n", "64",
                           "--k", "2", *out]) == 2
        assert "--grid" in capsys.readouterr().err
    assert _exit_code(["calibrate", "--grid", str(tmp_path / "none.json"),
                       "--n", "64", "--k", "2", "--seed", "-1", *out]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def _one_signal():
    x = np.zeros(256)
    x[[3, 90, 200]] = [4.0, -2.0, 1.5]
    return x, build_ensemble(256, 3, rng_seed=5)


def test_sense_takes_one_signal_as_a_batch_of_one(tmp_path):
    # a 1-D signals array once ended in a bare EnsembleError on its shape
    x, ens = _one_signal()
    np.savez_compressed(tmp_path / "one.npz", signals=x)
    assert main(["sense", "--signals", str(tmp_path / "one.npz"), "--k", "3",
                 "--seed", "5", "--out", str(tmp_path)]) == 0
    meas = Measurements.load(tmp_path / "measurements.npz")
    assert np.array_equal(meas.y, apply_phaseless(ens, x).y[None, :])


def test_decode_takes_one_signals_measurements_as_a_batch_of_one(tmp_path):
    # a 1-D y once made decode treat each of its scalars as a measurement
    # vector: one error file per row, and exit status 1
    x, ens = _one_signal()
    apply_phaseless(ens, x).save(tmp_path / "single.npz")
    dec = tmp_path / "dec"
    assert main(["decode", "--measurements", str(tmp_path / "single.npz"),
                 "--out", str(dec)]) == 0
    assert [p.name for p in dec.iterdir()] == ["result_y00000.json"]
    assert (dec / "result_y00000.json").read_text() == \
        decode(ens, apply_phaseless(ens, x)).to_json()


@pytest.mark.parametrize("argv, message", [
    (["gen", "--n", "64", "--k", "100"], "k must be <= n, got k=100, n=64"),
    (["gen", "--n", "64", "--k", "0"], "k must be >= 1, got 0"),
    (["gen", "--n", "0", "--k", "1"], "n must be >= 1, got 0"),
    (["bench", "--n", "64", "--k", "100", "--trials", "1"], "k must be <= n"),
    (["calibrate", "--grid", "grid.json", "--n", "64", "--k", "-2",
      "--trials", "1"], "k must be >= 1, got -2"),
    # these ids are the ones the cases had while the CLI tested --workers
    pytest.param(["bench", "--n", "512", "--k", "4", "--trials", "1",
                  "--workers", "0"], "workers must be >= 1, got 0",
                 id="argv5---workers must be >= 1, got 0"),
    pytest.param(["bench", "--n", "512", "--k", "4", "--trials", "1",
                  "--workers", "-3"], "workers must be >= 1, got -3",
                 id="argv6---workers must be >= 1, got -3"),
    # the id is the one this case had while the CLI tested --target itself
    pytest.param(["calibrate", "--grid", "grid.json", "--n", "512", "--k", "4",
                  "--trials", "1", "--target", "nan"],
                 "target_rate must be a rate in [0, 1], got nan",
                 id="argv7---target must be a rate in [0, 1]"),
    (["calibrate", "--grid", "grid.json", "--n", "512", "--k", "4",
      "--trials", "1", "--target", "-0.5"], "got -0.5"),
    (["calibrate", "--grid", "grid.json", "--n", "512", "--k", "4",
      "--trials", "1", "--target", "1.01"], "got 1.01"),
])
def test_dimensions_workers_and_targets_out_of_range_are_usage_errors(
        tmp_path, capsys, monkeypatch, argv, message):
    # gen --k 100 once ended in numpy's "Cannot take a larger sample than
    # population" with exit 1, and --k 0 wrote zero signals; --workers 0 ran
    # serially and --target nan ran the whole grid, then exited 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.json").write_text(json.dumps({"C0": [0.125]}))
    assert _exit_code([*argv, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()
    assert not (tmp_path / "out" / "calibration.json").exists()
    assert not (tmp_path / "out" / "defaults.json").exists()


@pytest.mark.parametrize("signals, message", [
    (np.ones((2, 256), dtype=np.complex128), "signal must be real"),
    (np.where(np.arange(256) == 7, np.nan, 1.0), "signal must be finite"),
], ids=["complex", "nan"])
def test_sense_refuses_a_signal_apply_phaseless_refuses(tmp_path, capsys,
                                                        signals, message):
    # a complex batch once exited 1 with a note of sense's own, and a NaN
    # ended in an EnsembleError traceback with exit status 1
    np.savez_compressed(tmp_path / "sig.npz", signals=signals)
    out = tmp_path / "sensed"
    assert _exit_code(["sense", "--signals", str(tmp_path / "sig.npz"),
                       "--k", "3", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not any(out.iterdir())


def test_decode_refuses_a_header_build_ensemble_refuses(tmp_path, capsys):
    # Measurements.load checks the header's types only; the rebuild once
    # raised its EnsembleError as a traceback with exit status 1
    config = EnsembleConfig().resolve(10)
    Measurements(np.zeros(16), 64, 10, 0, config).save(tmp_path / "m.npz")
    out = tmp_path / "dec"
    assert _exit_code(["decode", "--measurements", str(tmp_path / "m.npz"),
                       "--out", str(out)]) == 2
    assert "k=10 too large for n=64" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_decode_refuses_rows_its_headers_ensemble_cannot_read(tmp_path,
                                                              capsys):
    # such a file once wrote one EnsembleError file per row and exited 1
    config = EnsembleConfig().resolve(10)
    Measurements(np.zeros((3, 16)), 4096, 10, 0, config).save(
        tmp_path / "m.npz")
    out = tmp_path / "dec"
    assert _exit_code(["decode", "--measurements", str(tmp_path / "m.npz"),
                       "--out", str(out)]) == 2
    rows = build_ensemble(4096, 10, config=config, rng_seed=0).total_rows
    assert f"measurements have 16 rows, the ensemble {rows}" in \
        capsys.readouterr().err
    assert not any(out.iterdir())


def test_decode_refuses_a_file_of_integer_rows(tmp_path, capsys):
    # such a file once passed the row check, and each row's decode failed
    # with an OverflowError recorded in its result file, exit status 1
    x, ens = _one_signal()
    Measurements(apply_phaseless(ens, x).y, ens.n, ens.k, ens.seed,
                 ens.config).save(tmp_path / "m.npz")
    with np.load(tmp_path / "m.npz") as data:
        header, y = data["header"], data["y"]
    np.savez_compressed(tmp_path / "int.npz", header=header,
                        y=np.rint(y * 1000).astype(np.int64))
    out = tmp_path / "dec"
    assert _exit_code(["decode", "--measurements", str(tmp_path / "int.npz"),
                       "--out", str(out)]) == 2
    assert "got dtype int64" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_decode_records_a_row_it_cannot_decode_and_goes_on(tmp_path, capsys):
    x, ens = _one_signal()
    y = apply_phaseless(ens, x).y
    Measurements(np.stack([y, -y]), ens.n, ens.k, ens.seed,
                 ens.config).save(tmp_path / "two.npz")
    dec = tmp_path / "dec"
    assert main(["decode", "--measurements", str(tmp_path / "two.npz"),
                 "--out", str(dec)]) == 1
    assert (dec / "result_y00000.json").read_text() == \
        decode(ens, apply_phaseless(ens, x)).to_json()
    assert json.loads((dec / "result_y00001.json").read_text()) == {
        "error": "EnsembleError: measurements must be finite and nonnegative"}
    assert "decoded 2 measurement vectors (1 failures)" in \
        capsys.readouterr().out


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_at_or_under_a_regular_file_is_a_usage_error(tmp_path, capsys,
                                                          out):
    # mkdir once raised FileExistsError or NotADirectoryError as a traceback
    (tmp_path / "file").write_text("")
    assert _exit_code(["gen", "--n", "64", "--k", "2", "--trials", "1",
                       "--out", str(tmp_path / out)]) == 2
    assert "--out: " in capsys.readouterr().err
    assert (tmp_path / "file").read_text() == ""
