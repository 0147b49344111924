"""Trial harness: signal models, determinism, reports, calibration."""

import json
from dataclasses import replace

import numpy as np
import pytest

from phaseless import bench, build_ensemble
from phaseless.bench import (AMPLIFIED_REPLICAS, TrialSpec, calibrate,
                             edge_error_experiment, gen_signal,
                             min_flip_error_sq, run_trials, tail_norm_sq,
                             twin_phase_error, wilson_interval)
from phaseless.ensemble import EnsembleConfig, EnsembleError


def strip_time(records):
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in records]


def test_exact_sparse_signal_has_zero_tail():
    spec = TrialSpec(n=512, k=10, signal_model="exact-sparse", trials=1, seed=1)
    x = gen_signal(spec, 0)
    assert tail_norm_sq(x, 10) == 0.0
    assert np.count_nonzero(x) == 10


def test_tail_of_k_at_least_the_length_is_zero():
    x = np.array([3.0, -1.0, 2.0])
    assert tail_norm_sq(x, 2) == 1.0
    assert tail_norm_sq(x, 3) == tail_norm_sq(x, 4) == 0.0


def test_spikes_plus_tail_normalization():
    spec = TrialSpec(n=512, k=10, signal_model="spikes-plus-tail", trials=1,
                     seed=2, tail_norm=0.7)
    x = gen_signal(spec, 0)
    assert abs(np.sqrt(tail_norm_sq(x, 10)) - 0.7) < 1e-9


def test_power_law_signal_magnitude_profile():
    spec = TrialSpec(n=128, k=5, signal_model="power-law", trials=1, seed=3,
                     decay=1.5)
    x = gen_signal(spec, 0)
    mags = np.sort(np.abs(x))[::-1]
    expected = np.power(np.arange(1, 129, dtype=float), -1.5)
    assert np.allclose(mags, expected)


def test_signal_generation_is_deterministic():
    spec = TrialSpec(n=256, k=4, signal_model="spikes-plus-tail", trials=3,
                     seed=9)
    assert np.array_equal(gen_signal(spec, 2), gen_signal(spec, 2))
    assert not np.array_equal(gen_signal(spec, 1), gen_signal(spec, 2))


def test_trial_spec_validation_and_json():
    with pytest.raises(ValueError):
        TrialSpec(n=64, k=2, trials=0)
    with pytest.raises(ValueError):
        TrialSpec(n=64, k=2, signal_model="nope")
    with pytest.raises(ValueError):
        TrialSpec(n=64, k=2, pipeline="nope")
    spec = TrialSpec(n=64, k=2, seed=5, config=EnsembleConfig(C0=0.5))
    again = TrialSpec.from_json(spec.to_json())
    assert again == spec
    # unknown keys once escaped as a bare TypeError from __init__
    with pytest.raises(ValueError, match="outer_reps"):
        TrialSpec.from_json(json.dumps({"n": 64, "k": 2, "outer_reps": 3}))
    # numpy integers are taken as ints, so the spec still writes as JSON
    spec = TrialSpec(n=np.int64(64), k=np.int32(2), seed=np.uint8(5))
    assert type(spec.n) is int and TrialSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize("field, value", [
    ("n", 64.0), ("k", "2"), ("trials", 2.5), ("trials", True), ("seed", -1),
    ("seed", None), ("tail_norm", "1"), ("spike_energy_ratio", False),
    ("decay", float("nan")), ("config", None), ("config", {"C0": 0.5}),
    ("n", 0), ("k", 0), ("k", -1), ("k", 65), ("tail_norm", -0.5),
    ("spike_energy_ratio", 0.0),
])
def test_trial_spec_refuses_a_malformed_field_by_name(field, value):
    # each once failed later with a TypeError, or made every trial fail;
    # k = 65 > n once failed every trial in numpy's sampler, and k = 0 drew
    # zero signals
    fields = {"n": 64, "k": 2, field: value}
    with pytest.raises(ValueError, match=field):
        TrialSpec(**fields)


def test_prony_spec_holds_only_what_the_pipeline_reads():
    # the deterministic pipeline once drew exactly sparse complex signals
    # whatever the model, and ignored the config
    with pytest.raises(ValueError, match="prony"):
        TrialSpec(n=64, k=3, pipeline="prony", signal_model="power-law")
    with pytest.raises(ValueError, match="prony"):
        TrialSpec(n=64, k=3, pipeline="prony", config=EnsembleConfig(C0=0.5))
    with pytest.raises(ValueError, match="prony"):
        calibrate({"C0": [0.125]}, TrialSpec(n=64, k=3, pipeline="prony"), 0.5)


def test_report_integrity_and_formats(tmp_path):
    spec = TrialSpec(n=512, k=4, trials=6, seed=11)
    report = run_trials(spec)
    agg = report.aggregates()
    flags = [r["success"] for r in report.records]
    assert agg["success_rate"] == sum(flags) / len(flags)
    assert agg["trials"] == 6
    csv_text = report.to_csv()
    assert csv_text.count("\n") == 7  # header + one line per trial
    parsed = json.loads(report.to_json())
    assert parsed["aggregates"]["successes"] == sum(flags)


def test_zero_signal_trial_succeeds():
    # power-law with huge decay is effectively a single spike; simpler:
    # run a 1-trial spec on an exactly sparse signal and check bookkeeping
    spec = TrialSpec(n=512, k=4, trials=1, seed=13)
    rec = run_trials(spec).records[0]
    assert rec["error"] == ""
    assert rec["tail_sq"] == 0.0
    # an amplified trial senses, and counts, every replica's rows
    rows = build_ensemble(512, 4, rng_seed=0).total_rows
    amp = run_trials(replace(spec, pipeline="cphase-amplified")).records[0]
    assert rec["rows_total"] == rows
    assert amp["rows_total"] == AMPLIFIED_REPLICAS * rows
    assert amp["touches"] > rec["touches"]


def test_tail_of_k_zero_is_all_the_energy_and_negative_k_is_refused():
    # k = 0 once raised numpy's "kth(=3) out of bounds (3)"
    x = np.array([3.0, -1.0, 2.0])
    assert tail_norm_sq(x, 0) == 14.0
    with pytest.raises(ValueError, match="need k >= 0 and a 1-D x, got k = -1"):
        tail_norm_sq(x, -1)


def test_run_trials_pool_has_a_process_per_trial_at_most(monkeypatch):
    # bench --trials 1 --workers 64 once started 64 processes for one
    # trial, and --workers 0 ran serially
    import multiprocessing

    sizes = []

    class RecordingPool:        # starts no process
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, jobs):
            return [func(*job) for job in jobs]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    spec = TrialSpec(n=512, k=4, trials=3, seed=21)
    serial = strip_time(run_trials(spec).records)
    assert strip_time(run_trials(spec, workers=64).records) == serial
    one = run_trials(replace(spec, trials=1), workers=64)
    assert strip_time(one.records) == serial[:1]
    assert sizes == [3]        # one trial runs in this process
    for workers in (0, -3):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_trials(spec, workers=workers)


def test_run_trials_is_deterministic_and_pool_invariant():
    spec = TrialSpec(n=512, k=4, trials=4, seed=21)
    serial = run_trials(spec)
    again = run_trials(spec)
    assert strip_time(serial.records) == strip_time(again.records)
    parallel = run_trials(spec, workers=2)
    assert strip_time(serial.records) == strip_time(parallel.records)


def test_hard_errors_are_recorded_not_raised():
    # k > n/20 makes build_ensemble fail; the batch must still complete
    spec = TrialSpec(n=64, k=10, trials=2, seed=1)
    report = run_trials(spec)
    assert all(r["error"].startswith("EnsembleError") for r in report.records)
    assert report.aggregates()["hard_errors"] == 2


def test_prony_pipeline_records_relative_error():
    spec = TrialSpec(n=64, k=3, trials=4, seed=17, pipeline="prony")
    report = run_trials(spec)
    assert all(r["success"] for r in report.records)
    assert all(r["rows_total"] == 11 for r in report.records)


def test_prony_pipeline_records_leaves_walked():
    # fails at the parent, whose records have no leaves column
    k = 7
    report = run_trials(TrialSpec(n=64, k=k, trials=6, seed=18,
                                  pipeline="prony"))
    leaves = [r["leaves"] for r in report.records]
    assert all(r["success"] for r in report.records)
    assert all(1 <= v <= 4 ** (k - 1) for v in leaves)
    assert report.aggregates()["median_leaves"] == np.median(leaves)
    assert "leaves" in report.to_csv().splitlines()[0].split(",")


def test_calibrate_single_config_meets_target(tmp_path, monkeypatch):
    # calibrate returns the winner and writes no file; the CLI writes it
    monkeypatch.chdir(tmp_path)
    grid = {"C0": [0.125]}
    base = TrialSpec(n=512, k=4, trials=5, seed=23)
    winner, summaries = calibrate(grid, base, target_rate=0.2)
    assert winner is not None
    assert winner == winner.resolve(4)
    assert EnsembleConfig.from_json(winner.to_json()) == winner
    assert winner.C0 == 0.125
    assert len(summaries) == 1
    assert list(tmp_path.iterdir()) == []


def test_calibrate_unattainable_target_reports_best():
    # a tail estimate scaled by c1 >= 1e6 makes prune keep nothing, so every
    # trial returns zero: error^2 = 200 > 1.8 * tail^2 (about 180)
    grid = {"c1": [1e6, 2e6]}
    base = TrialSpec(n=512, k=4, trials=3, seed=29,
                     signal_model="spikes-plus-tail", tail_norm=10.0,
                     spike_energy_ratio=1.0)
    winner, summaries = calibrate(grid, base, target_rate=1.0)
    assert winner is None
    assert len(summaries) == 2
    assert all(0.0 <= s["success_rate"] <= 1.0 for s in summaries)


def test_calibrate_grid_starts_from_the_base_config(monkeypatch):
    class NoSuccess:        # no config meets the target: the whole grid runs
        def aggregates(self):
            return {"success_rate": 0.0}

    specs = []
    monkeypatch.setattr(bench, "run_trials",
                        lambda spec: specs.append(spec) or NoSuccess())
    base = TrialSpec(n=512, k=4, trials=2, seed=31,
                     config=EnsembleConfig(hh_reps=3))
    winner, summaries = calibrate({"C0": [0.125, 0.25]}, base, target_rate=1.0)
    assert winner is None
    assert [s["config"]["hh_reps"] for s in summaries] == [3, 3]
    assert sorted(s["config"]["C0"] for s in summaries) == [0.125, 0.25]
    assert [s.config for s in specs] \
        == [EnsembleConfig.from_dict(s["config"]) for s in summaries]


@pytest.mark.parametrize("target", [float("nan"), 1.1, -0.1])
def test_calibrate_refuses_a_target_that_is_not_a_rate(target):
    # a target no success rate can meet once ran the whole grid for nothing
    with pytest.raises(ValueError, match="target_rate"):
        calibrate({"C0": [0.125]}, TrialSpec(n=64, k=2, trials=1), target)


def test_calibrate_rejects_empty_grid():
    with pytest.raises(ValueError):
        calibrate({}, TrialSpec(n=64, k=2, trials=1), 0.5)
    with pytest.raises(ValueError):
        calibrate({"C0": []}, TrialSpec(n=64, k=2, trials=1), 0.5)
    # a grid file holding a list once failed with an AttributeError
    with pytest.raises(ValueError, match="not a JSON object"):
        calibrate([{"C0": [0.5]}], TrialSpec(n=64, k=2, trials=1), 0.5)
    # a value that is not a list once failed with a TypeError from len()
    for value in (0.5, None, "0.5", {"a": 0.5}):
        with pytest.raises(ValueError, match="^empty calibration grid or not "
                           "a list of values: C0 = "):
            calibrate({"C0": value}, TrialSpec(n=64, k=2, trials=1), 0.5)


def test_calibrate_grid_names_unknown_keys():
    # an unknown key once escaped as a bare TypeError from replace
    with pytest.raises(EnsembleError, match="nope"):
        calibrate({"nope": [1]}, TrialSpec(n=64, k=2, trials=1), 0.5)
    with pytest.raises(EnsembleError, match="seed"):
        calibrate({"seed": [1, 2]}, TrialSpec(n=64, k=2, trials=1), 0.5)


def test_doubling_c0_reduces_edge_noise():
    """Edge-noise rate in the sign graph trends down as C0 doubles (denser
    rows carry more interference per pair test). Checked as a trend over
    the grid, not per adjacent pair."""
    from scipy.stats import spearmanr

    grid = [0.125, 0.25, 0.5, 1.0]
    rates = [edge_error_experiment(2048, 12, EnsembleConfig(C0=c0),
                                   trials=10, seed=37,
                                   spike_energy_ratio=4.0)
             for c0 in grid]
    rho, _ = spearmanr(grid, rates)
    assert rates[-1] < rates[0], rates
    assert rho < 0, (grid, rates)


def test_edge_error_experiment_skips_a_support_without_pairs():
    # a one-coordinate support has no pair to vote on; with top_select = 1
    # no F level is built, and the experiment once raised KeyError: 'F2'
    for config in (EnsembleConfig(top_select=1), EnsembleConfig()):
        assert edge_error_experiment(256, 1, config, trials=2, seed=3) == 0.0


def test_wilson_interval_sane():
    lo, hi = wilson_interval(90, 100)
    assert 0.8 < lo < 0.9 < hi <= 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_twin_phase_error_handles_reflection():
    rng = np.random.default_rng(31)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    from phaseless import conjugate_reflection
    twisted = np.exp(1j * 0.4) * conjugate_reflection(x)
    assert twin_phase_error(twisted, x) < 1e-12


def test_min_flip_error():
    x = np.array([1.0, -2.0])
    assert min_flip_error_sq(x, -x) == 0.0
    assert min_flip_error_sq(x, x) == 0.0
    assert min_flip_error_sq(x, np.zeros(2)) == 5.0
