"""Self-test of the benchmark: every correctness check can fail.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from workloads import (DecodeTail, Outcome, PronyK8, TrialExact,  # noqa: E402
                       run_op)


@pytest.fixture(scope="module")
def exact_trial():
    """The first operation of seed 5 whose decode recovers exactly."""
    wl = TrialExact(seed=5)
    for i in range(10):
        _, inp = wl.prepare(i)
        out = wl.call(inp, None)
        if wl.check(inp, out)[0]:
            return wl, inp, out
    pytest.fail("no exact recovery in 10 trials")


def test_sign_flip_on_support_is_rejected(exact_trial):
    wl, inp, (_, _, result) = exact_trial
    assert checks.meets_l2l2(inp.x, result.to_dense(), wl.k)
    result.values[0] = -result.values[0]
    try:
        assert not checks.meets_l2l2(inp.x, result.to_dense(), wl.k)
    finally:
        result.values[0] = -result.values[0]


@pytest.mark.parametrize("breakage", ["short_y", "s2_outside_s1",
                                      "s1_outside_s0", "s1_too_big",
                                      "non_finite"])
def test_decode_structure_checks_fail(exact_trial, breakage):
    _, _, (ens, meas, result) = exact_trial
    rows = sum(b.n_rows for b in ens.blocks.values())
    top = ens.config.top_select
    y, r = meas.y, result
    checks.check_decode(y, rows, r, top)
    stranger = int(np.setdiff1d(np.arange(ens.n), r.S0)[0])
    if breakage == "short_y":
        y = y[:-1]
    elif breakage == "s2_outside_s1":
        r = dataclasses.replace(r, S2=np.append(r.S2, stranger))
    elif breakage == "s1_outside_s0":
        r = dataclasses.replace(r, S1=np.append(r.S1, stranger))
    elif breakage == "s1_too_big":
        top = r.S1.size - 1
    else:
        r = dataclasses.replace(r, values=np.append(r.values, np.nan))
    with pytest.raises(checks.CheckFailed):
        checks.check_decode(y, rows, r, top)


def test_prony_perturbation_is_rejected():
    wl = PronyK8(seed=5)
    _, inp = wl.prepare(0)
    y, x_hat = wl.call(inp, None)
    assert wl.check(inp, (y, x_hat)) == (True, 4 * wl.k - 1)
    bad = x_hat.copy()
    bad[inp.support[0]] += 1e-6
    with pytest.raises(checks.CheckFailed):
        wl.check(inp, (y, bad))
    with pytest.raises(checks.CheckFailed):
        wl.check(inp, (y[:-1], x_hat))


class _Broken:
    round_size = 1

    def __init__(self, fault):
        self.fault = fault

    def prepare(self, i):
        return i, None

    def call(self, inp, tracer):
        if self.fault == "raise":
            raise RuntimeError("boom")
        return None

    def check(self, inp, out):
        raise checks.CheckFailed("wrong output")


@pytest.mark.parametrize("fault", ["raise", "check"])
def test_failing_operation_is_counted(fault):
    o = run_op(_Broken(fault), 0)
    assert o.failed and not o.recovered
    assert ("boom" if fault == "raise" else "wrong output") in o.error


def test_run_checks_fail_below_their_bars():
    def outcomes(wins, total, keys):
        return [Outcome(i % keys, 0.1, False, i % keys < wins)
                for i in range(total)]

    trial = TrialExact(seed=0)
    assert trial.run_check(outcomes(30, 30, 30)) is None
    assert trial.run_check(outcomes(20, 30, 30)) is not None
    tail = DecodeTail(seed=0)
    assert tail.run_check(outcomes(24, 48, 24)) is None
    assert tail.run_check(outcomes(18, 48, 24)) is not None
    flaky = outcomes(24, 48, 24)
    flaky[-1].recovered = False
    assert tail.run_check(flaky) is not None


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v[0] for k, v in run.PER_LAYER.items()}
