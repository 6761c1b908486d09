"""Smoke test of the benchmark at tiny sizes; it never asserts a timing.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _cli(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_output_schema_and_metric_names(name, trace):
    out = _cli(name, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        reported = out["metrics"][m["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))


def test_workloads_match_benchmark_json():
    assert set(NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.metric_units()


WRONG = {
    "heat1d_large": {"err_linf": 2.0 * workloads.CONFIGS["heat1d_large"]["smoke"]["expected"]["err_linf"]},
    "predprey1d": {"min_floor": 10.0},
    "dd_ladder": {"ratios": [64.0, 1.0]},
    "heat2d": {"err_linf": 0.5 * workloads.CONFIGS["heat2d"]["smoke"]["expected"]["err_linf"]},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_wrong_expected_value_counts_as_failed(name, trace):
    wl = workloads.make(name, "smoke").with_expected(**WRONG[name])
    wl.setup(seed=5)
    record = run.measure(wl, 0.0, [0.0], tracing.Tracer() if trace else None)
    assert record["attempted"] >= 1
    assert record["failed"] == record["attempted"]
    assert record["failed_frac"] == 1.0 and record["correct"] is False


def test_counts_repeat_exactly():
    def counts():
        wl = workloads.make("predprey1d", "smoke")
        wl.setup(seed=5)
        tracer = tracing.Tracer()
        run.measure(wl, 0.0, [0.0], tracer)
        return tracer.counts, tracer.metrics([1.0])

    (c1, m1), (c2, m2) = counts(), counts()
    assert c1 == c2
    assert c1["bench.trials"] >= 1 and c1["reaction.jacobian"] > 0
    exact = ("core.nodes.calls_per_step", "reaction.eval.calls_per_step",
             "reaction.jacobian.calls_per_step", "bench.trials", "bench.trial_steps")
    assert {k: m1[k] for k in exact} == {k: m2[k] for k in exact}


def test_absent_span_is_reported_not_raised():
    wl = workloads.make("heat1d_large", "smoke")
    wl.setup(seed=5)
    names = ("stepper.step", "stepper.no_such_step", "nosuchmodule.fn", "core.Field.no_such")
    tracer = tracing.Tracer(names)
    record = run.measure(wl, 0.0, [0.0], tracer)
    assert record["correct"]
    assert tracer.absent == list(names[1:])
    metrics = tracer.metrics([1.0])
    assert metrics["stepper.step.calls_per_step"] > 0
    assert metrics["stepper.no_such_step.calls_per_step"] == 0.0


def test_tracer_restores_the_package():
    from rdfilter import bench, core, filtering, stepper

    before = (bench.step, filtering.filter_factors, core.Field.blown_up,
              vars(core.Grid1D)["nodes"], vars(core.ReactionSystem)["__init__"])
    with tracing.Tracer():
        assert bench.step is not before[0]
    after = (bench.step, filtering.filter_factors, core.Field.blown_up,
             vars(core.Grid1D)["nodes"], vars(core.ReactionSystem)["__init__"])
    assert all(a is b for a, b in zip(before, after))
    assert stepper.step is bench.step
