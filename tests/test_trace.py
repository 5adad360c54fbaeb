"""Tests for the observability layer (repro.trace) and its wiring."""

import json
import time

import pytest

from repro.config import SimConfig
from repro.core.runtime import HarmonyRuntime
from repro.core.subtask import SubTaskKind
from repro.core.synchronizer import SubTaskSynchronizer
from repro.errors import TraceError
from repro.experiments.common import run_single_group, scaled_workload
from repro.sim import Simulator
from repro.trace import (
    NULL_TRACER,
    TraceConfig,
    Tracer,
    build_tracer,
    chrome_trace_events,
    counter_rows,
    write_chrome_trace,
)
from repro.workloads.generator import WorkloadGenerator


def _manual_clock(start: float = 0.0):
    state = {"now": start}

    def clock() -> float:
        return state["now"]

    def advance(dt: float) -> None:
        state["now"] += dt

    return clock, advance


class TestTracer:
    def test_begin_end_records_span(self):
        clock, advance = _manual_clock()
        tracer = Tracer(clock)
        track = tracer.track("p", "t")
        handle = tracer.begin(track, "work", cat="comp")
        assert tracer.open_spans == 1
        advance(2.5)
        span = tracer.end(handle)
        assert tracer.open_spans == 0
        assert span.duration == pytest.approx(2.5)
        assert tracer.spans == [span]

    def test_double_close_raises(self):
        tracer = Tracer(lambda: 0.0)
        handle = tracer.begin(tracer.track("p", "t"), "work")
        tracer.end(handle)
        with pytest.raises(TraceError):
            tracer.end(handle)

    def test_backwards_span_raises(self):
        tracer = Tracer(lambda: 0.0)
        with pytest.raises(TraceError):
            tracer.complete(tracer.track("p", "t"), "w", start=5.0,
                            end=1.0)

    def test_event_cap_counts_drops(self):
        tracer = Tracer(lambda: 0.0,
                        TraceConfig(enabled=True, max_events=2))
        track = tracer.track("p", "t")
        for _ in range(5):
            tracer.complete(track, "w", start=0.0, end=0.0)
        assert len(tracer.spans) == 2
        assert tracer.dropped_events == 3

    def test_track_interning_is_stable(self):
        tracer = Tracer(lambda: 0.0)
        a = tracer.track("machines 0-3", "cpu · j1")
        b = tracer.track("machines 0-3", "cpu · j1")
        c = tracer.track("machines 0-3", "net · j1")
        assert a == b
        assert a.pid == c.pid and a.tid != c.tid

    def test_registry_total_sums_suffix(self):
        tracer = Tracer(lambda: 0.0)
        tracer.counter("job.a.steps").add(3)
        tracer.counter("job.b.steps").add(4)
        tracer.counter("job.a.bytes").add(100)
        assert tracer.registry.total(".steps") == pytest.approx(7)

    def test_build_tracer_disabled_is_null(self):
        assert build_tracer(lambda: 0.0, TraceConfig()) is NULL_TRACER
        live = build_tracer(lambda: 0.0, TraceConfig(enabled=True))
        assert live.enabled

    def test_null_tracer_is_inert(self):
        handle = NULL_TRACER.begin(NULL_TRACER.track("p", "t"), "w")
        NULL_TRACER.end(handle)
        NULL_TRACER.instant("x")
        NULL_TRACER.counter("c").add(5)
        NULL_TRACER.gauge("g").set(5)
        assert NULL_TRACER.n_events == 0
        assert NULL_TRACER.registry.snapshot() == {}


class TestDisabledTracingCostsNothing:
    def test_simulator_defaults_to_null_tracer(self):
        assert Simulator().tracer is NULL_TRACER

    def test_single_group_run_records_no_events(self):
        jobs = WorkloadGenerator(7).base_workload(
            hyper_params_per_pair=1)[:2]
        result = run_single_group(jobs, 8, max_iterations=3)
        assert result.trace is None
        assert NULL_TRACER.n_events == 0
        assert not NULL_TRACER.registry.counters

    def test_cluster_run_has_no_trace(self):
        specs, machines = scaled_workload(scale=0.1, seed=5)
        runtime = HarmonyRuntime(machines, specs[:3])
        assert runtime.sim.tracer is NULL_TRACER
        result = runtime.run()
        assert result.trace is None


class TestBarrierSpans:
    def test_waiting_worker_records_barrier_span(self):
        tracer = Tracer(time.perf_counter)
        synchronizer = SubTaskSynchronizer(timeout=10.0, tracer=tracer)
        synchronizer.register_job("j", 2)

        import threading
        passed = []

        def late_arrival():
            time.sleep(0.05)
            passed.append(synchronizer.arrive("j", 0, SubTaskKind.PULL))

        thread = threading.Thread(target=late_arrival)
        thread.start()
        # This (early) worker blocks at the barrier until the late one
        # arrives — exactly the wait the span must capture.
        passed.append(synchronizer.arrive("j", 0, SubTaskKind.PULL))
        thread.join()

        assert passed == [True, True]
        assert tracer.open_spans == 0  # every begun span was closed
        barrier_spans = [s for s in tracer.spans if s.cat == "barrier"]
        assert len(barrier_spans) == 1  # only the blocked worker waited
        assert barrier_spans[0].name == "barrier·pull"
        assert barrier_spans[0].duration > 0.0
        wait = tracer.registry.counters["job.j.barrier_wait_seconds"]
        assert wait.value == pytest.approx(barrier_spans[0].duration)

    def test_untraced_synchronizer_still_works(self):
        synchronizer = SubTaskSynchronizer(timeout=5.0)
        synchronizer.register_job("j", 1)
        assert synchronizer.arrive("j", 0, SubTaskKind.PUSH)


class TestTracedRuns:
    @pytest.fixture(scope="class")
    def traced_result(self):
        config = SimConfig().with_tracing()
        specs, machines = scaled_workload(scale=0.1, seed=3)
        runtime = HarmonyRuntime(machines, specs[:5], config=config)
        return runtime.run()

    def test_spans_all_closed(self, traced_result):
        tracer = traced_result.trace
        assert tracer is not None
        assert tracer.open_spans == 0
        assert len(tracer.spans) > 0

    def test_subtask_pipeline_spans_present(self, traced_result):
        names = {span.name for span in traced_result.trace.spans}
        assert {"PULL", "COMP", "PUSH"} <= names

    def test_scheduler_instants_present(self, traced_result):
        names = {i.name for i in traced_result.trace.instants}
        assert "placement" in names
        assert "group-start" in names

    def test_counters_survive_regroup(self, traced_result):
        """Per-job counters accumulate across migrations/regroupings:
        total steps equals the workload's total iterations no matter
        how many times jobs moved between groups."""
        migrations = sum(o.migrations
                        for o in traced_result.outcomes.values())
        assert migrations > 0  # the run actually regrouped
        registry = traced_result.trace.registry
        for outcome in traced_result.outcomes.values():
            steps = registry.counters[f"job.{outcome.job_id}.steps"]
            assert steps.value > 0
        # Every executed cycle incremented exactly one steps counter.
        assert registry.total(".steps") == len(
            traced_result._all_cycles)

    def test_chrome_export_valid_and_monotone(self, traced_result,
                                              tmp_path):
        path = write_chrome_trace(tmp_path / "trace.json",
                                  traced_result.trace)
        with path.open() as handle:
            document = json.load(handle)  # raises if not valid JSON
        events = document["traceEvents"]
        payload = [e for e in events if e["ph"] != "M"]
        assert payload, "trace must contain payload events"
        timestamps = [e["ts"] for e in payload]
        assert timestamps == sorted(timestamps)
        assert {e["ph"] for e in payload} <= {"X", "i", "C"}
        for event in payload:
            if event["ph"] == "X":
                assert event["dur"] >= 0.0

    def test_metadata_names_every_track(self, traced_result):
        events = chrome_trace_events(traced_result.trace)
        named_pids = {e["pid"] for e in events
                      if e["ph"] == "M" and e["name"] == "process_name"}
        payload_pids = {e["pid"] for e in events if e["ph"] != "M"}
        assert payload_pids - {0} <= named_pids

    def test_counter_rows_sorted(self, traced_result):
        rows = counter_rows(traced_result.trace)
        assert rows == sorted(rows)
        names = [name for _kind, name, _value in rows]
        assert any(name == "scheduler.migrations" for name in names)

    # -- event-ordering guarantees (what repro.check relies on) --------

    def test_instants_recorded_in_time_order(self, traced_result):
        times = [i.time for i in traced_result.trace.instants]
        assert times == sorted(times)
        assert times[0] >= 0.0

    def test_spans_have_sane_bounds(self, traced_result):
        for span in traced_result.trace.spans:
            assert span.start >= 0.0
            assert span.end >= span.start

    def test_service_lanes_never_overlap(self, traced_result):
        """Per-machine lane monotonicity: each (process, thread) lane
        serves one subtask at a time, so its service spans — sorted by
        start — form a chain of disjoint intervals."""
        service = {"comp", "comm", "load", "reload", "checkpoint",
                   "stall", "wait"}
        lanes = {}
        for span in traced_result.trace.spans:
            if span.cat in service:
                key = (span.track.pid, span.track.tid)
                lanes.setdefault(key, []).append(span)
        assert lanes
        for spans in lanes.values():
            spans.sort(key=lambda s: (s.start, s.end))
            for prev, cur in zip(spans, spans[1:], strict=False):
                assert cur.start >= prev.end - 1e-9, \
                    f"{cur.name} overlaps {prev.name}"

    def test_group_start_instants_join_pid_to_mode(self, traced_result):
        """The checker maps trace lanes to execution modes through the
        group-start instants; pin the args they must carry."""
        starts = [i for i in traced_result.trace.instants
                  if i.name == "group-start"]
        assert starts
        for instant in starts:
            assert instant.args is not None
            assert {"group", "machines", "mode"} <= instant.args.keys()
        # Every group process name ends with the group id announced in
        # a group-start instant, so the join is total.
        announced = {str(i.args["group"]) for i in starts}
        tracer = traced_result.trace
        group_pids = {pid for pid, name in tracer.process_names.items()
                      if name.rsplit(" · ", 1)[-1] in announced}
        span_pids = {s.track.pid for s in tracer.spans
                     if s.cat in {"comp", "comm"}}
        assert span_pids <= group_pids

    def test_checker_accepts_a_real_traced_run(self, traced_result):
        from repro.check import InvariantChecker

        tracer = traced_result.trace
        horizon = max(
            [s.end for s in tracer.spans]
            + [i.time for i in tracer.instants])
        out = []
        InvariantChecker().check_trace(tracer, horizon, out)
        assert out == []


class TestTracingLeavesOutcomesEqual:
    """Tracing only observes: a traced run must come out bitwise equal
    to the untraced one, on either engine.  Traced resources sample
    their level gauge on every reschedule and leave the fused solo
    lane for its generic form, so equality is not automatic."""

    @staticmethod
    def _workload():
        from dataclasses import replace

        pool = WorkloadGenerator(2021).base_workload(
            hyper_params_per_pair=1)
        return [replace(spec, iterations=5, submit_time=float(30 * i))
                for i, spec in enumerate(pool[:6])]

    @staticmethod
    def _harmony(config):
        return HarmonyRuntime(20, TestTracingLeavesOutcomesEqual
                              ._workload(), config=config)

    @staticmethod
    def _naive(config):
        from repro.baselines import NaiveRuntime

        return NaiveRuntime(20, TestTracingLeavesOutcomesEqual
                            ._workload(), config=config, group_size=3,
                            shuffle_seed=1)

    @staticmethod
    def _observables(runtime):
        from repro.sim.fastpath import cycles_view, ledger_view

        result = runtime.run()
        master = runtime.master
        audits = list(master.group_audits)
        audits.extend(g.audit() for g in master.groups.values())
        ledgers = [(audit.group_id, ledger_view(res).tolist())
                   for audit in audits
                   for res in (audit.cpu, audit.net, audit.disk)]
        jcts = {job_id: outcome.jct
                for job_id, outcome in result.outcomes.items()}
        return result, (result.makespan, jcts,
                        cycles_view(result._all_cycles).tolist(),
                        ledgers)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("make", ["_harmony", "_naive"])
    def test_traced_run_bitwise_equal(self, make, engine):
        factory = getattr(self, make)
        config = SimConfig(seed=5).with_engine(engine)
        plain, plain_obs = self._observables(factory(config))
        traced, traced_obs = self._observables(
            factory(config.with_tracing()))
        assert plain.trace is None
        assert traced.trace is not None
        assert traced.trace.spans
        assert plain_obs[0] > 0.0
        assert traced_obs == plain_obs
