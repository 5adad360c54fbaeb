"""Self-tests for the benchmark (small inputs; about a minute).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calibrate, run, tracing, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small(name: str):
    """The named workload shrunk to one small instance."""
    workload = type(workloads.WORKLOADS[name])()
    workload.instances = 1
    if name.startswith("fig10"):
        workload.scale = 0.2
    elif name == "scale-churn":
        workload.n_jobs, workload.n_machines = 300, 400
    return workload


def originals():
    saved = []
    for module_name, owner, attribute, _, _ in tracing.ENTRY_POINTS:
        module = sys.modules.get(module_name) or __import__(
            module_name, fromlist=["_"])
        target = getattr(module, owner) if owner else module
        saved.append((target, attribute, getattr(target, attribute)
                      if owner is None else target.__dict__[attribute]))
    return saved


def assert_restored(saved):
    for target, attribute, original in saved:
        current = (getattr(target, attribute) if not isinstance(target, type)
                   else target.__dict__[attribute])
        assert current is original, f"{target}.{attribute} not restored"


@pytest.fixture(scope="module")
def runners():
    """Each small workload warmed up, run untraced once and traced once."""
    done = {}
    for name in workloads.WORKLOADS:
        runner = run.Runner(small(name), seed=3, import_s=0.0,
                              tracing=tracing, calibrate=calibrate)
        runner.warm_up()
        runner.repeat()
        runner.repeat_traced()
        done[name] = runner
    return done


def test_traced_run_restores_every_wrapped_attribute(runners):
    saved = originals()
    runner = run.Runner(small("fig10-harmony"), seed=4, import_s=0.0,
                          tracing=tracing, calibrate=calibrate)
    runner.warm_up()
    runner.repeat_traced()
    assert_restored(saved)


def test_wrappers_are_restored_when_the_traced_block_raises():
    saved = originals()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.SpanRecorder()):
            raise RuntimeError("boom")
    assert_restored(saved)


def test_traced_outcomes_equal_untraced(runners):
    for name, runner in runners.items():
        assert runner.correct, (name, runner.problems)
        assert len(runner.run_samples) == len(runner.traced_samples) == 1


def test_traced_run_covers_the_workload_layers(runners):
    layers = {"fig10-harmony": ("sim.steps", "sched.schedule.calls",
                                "cost.resident_bytes.calls",
                                "regroup.calls", "regroup.self_s"),
              "fig10-baselines": ("sim.steps", "baseline.machines_for.calls"),
              "scale-churn": ("shard.schedule.calls", "sched.prefixes",
                              "shard.rebalance_s"),
              "tournament": ("policy.decide.calls",
                             "check.invariants.calls")}
    for name, runner in runners.items():
        metrics = runner.per_layer()
        assert set(metrics) == set(tracing.LAYER_METRICS)
        for metric in layers[name]:
            assert metrics[metric] > 0, (name, metric)
        share = runner.unattributed_share()
        assert abs(share) <= run.RECONCILE_SHARE, (name, share)


def test_metric_names_are_well_formed():
    for name in (*run.END_TO_END, *tracing.LAYER_METRICS):
        assert NAME.fullmatch(name), name


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == \
        list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == \
        list(tracing.LAYER_METRICS)
    assert [m["unit"] for m in spec["per_layer"]] == \
        list(tracing.LAYER_METRICS.values())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_workload_reports_each_end_to_end_metric(runners):
    for name, runner in runners.items():
        metrics = runner.end_to_end()
        assert list(metrics) == list(run.END_TO_END), name
        assert all(value > 0 for value in metrics.values()), (name, metrics)
        line = json.loads(run.result_line(
            runner.correct, runner.attempted, runner.failed,
            {k: (v, run.END_TO_END[k]) for k, v in metrics.items()}))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        for metric, unit in run.END_TO_END.items():
            assert line["metrics"][metric]["unit"] == unit


def test_peak_rss_is_left_out_when_workloads_share_the_process(runners):
    runner = runners["tournament"]
    runner.own_process = False
    try:
        assert "peak_rss_mb" not in runner.end_to_end()
    finally:
        runner.own_process = True


def test_simulator_workloads_pin_the_engine(monkeypatch):
    monkeypatch.setenv("HARMONY_SIM_ENGINE", "reference")
    for name in ("fig10-harmony", "fig10-baselines"):
        for _, runtime in small(name).setup(5):
            assert runtime.config.engine == workloads.ENGINE, name
    for *_, config in small("tournament").setup(5):
        assert config.engine == workloads.ENGINE


def test_self_times_subtract_direct_children():
    spans = [("bench.rep", 0.0, 10.0, -1), ("sched.schedule", 1.0, 7.0, 0),
             ("sched.allocate", 2.0, 5.0, 1), ("cost.resident_bytes", 3.0,
                                               4.0, 2)]
    assert tracing.self_times(spans) == [4.0, 3.0, 2.0, 1.0]


def test_missing_sources_exit_without_a_result(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scale-churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
