"""CLI subcommand flows on tiny problem sizes."""

import json

import numpy as np
import pytest

from phaseless.cli import main


def test_gen_sense_decode_flow(tmp_path):
    sig = tmp_path / "sig"
    assert main(["gen", "--n", "256", "--k", "3", "--trials", "3",
                 "--seed", "5", "--out", str(sig)]) == 0
    with np.load(sig / "signals.npz") as data:
        assert data["signals"].shape == (3, 256)

    sensed = tmp_path / "sensed"
    assert main(["sense", "--signals", str(sig / "signals.npz"), "--n", "256",
                 "--k", "3", "--seed", "5", "--out", str(sensed)]) == 0
    assert (sensed / "ensemble.npz").exists()

    dec = tmp_path / "dec"
    assert main(["decode", "--ensemble", str(sensed / "ensemble.npz"),
                 "--measurements", str(sensed / "measurements.npz"),
                 "--out", str(dec)]) == 0
    results = sorted(dec.glob("result_*.json"))
    assert len(results) == 3
    payload = json.loads(results[0].read_text())
    assert "estimate" in payload and "diagnostics" in payload


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


def test_gen_complex_signals_use_interleaved_format(tmp_path):
    from phaseless.bench import TrialSpec, gen_signal
    from phaseless.prony import from_interleaved

    out = tmp_path / "csig"
    assert main(["gen", "--n", "64", "--k", "3", "--trials", "2", "--seed",
                 "7", "--pipeline", "prony", "--out", str(out)]) == 0
    with np.load(out / "signals.npz") as data:
        assert bool(data["complex_interleaved"])
        stored = data["signals"]
        assert stored.dtype == np.float64 and stored.shape == (2, 128)
        spec = TrialSpec(n=64, k=3, trials=2, seed=7, pipeline="prony")
        assert np.array_equal(from_interleaved(stored[1]), gen_signal(spec, 1))
    # the real-signal pipeline refuses complex inputs
    assert main(["sense", "--signals", str(out / "signals.npz"), "--n", "64",
                 "--k", "3", "--out", str(tmp_path / "x")]) == 1


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
    assert (out / "defaults.json").exists()

    out2 = tmp_path / "calib2"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hh_reps": 3}))
    assert main(["calibrate", "--grid", str(grid), "--n", "512", "--k", "4",
                 "--trials", "3", "--seed", "4", "--target", "1.01",
                 "--config", str(cfg), "--out", str(out2)]) == 1
    summaries = json.loads((out2 / "calibration.json").read_text())
    assert [s["config"]["hh_reps"] for s in summaries] == [3]


def test_config_file_is_honored(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"C0": 0.5, "seed": 9}))
    out = tmp_path / "bench"
    assert main(["bench", "--n", "512", "--k", "4", "--trials", "2",
                 "--seed", "2", "--config", str(cfg), "--out", str(out)]) == 0
    spec = json.loads((out / "report.json").read_text())["spec"]
    assert spec["config"]["C0"] == 0.5
