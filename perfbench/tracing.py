"""Outside-in host-time tracing for the benchmark.

The program is never edited: for a traced repetition the benchmark
swaps each layer's public entry points (class attributes and module
globals, looked up where the caller looks them up) for thin wrappers
that record one span per call, then puts every original object back.
Spans live in memory as ``(name, start, end, parent)`` tuples on the
host's ``perf_counter`` clock and are written out once the benchmark
ends.  A span's *layer* is its name up to the first dot; a layer's
self time is the sum over its spans of duration minus the time covered
by their direct child spans.

``repro.trace`` is not used: it stamps simulated time, not host time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from contextlib import contextmanager


class SpanRecorder:
    """In-memory span store with a parent stack.

    Wrappers only record while :attr:`active` is set, so objects built
    in untimed set-up (which capture bound methods, such as the
    profiler's cache-invalidation listener) still see the wrappers.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.active = False
        #: Counters fed by ``after`` hooks (e.g. ``last_stats`` sums).
        self.counters: Counter = Counter()
        # Indexes and layers of the open spans, innermost last.
        self._stack: list[int] = []
        self._layers: list[str] = []

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens around its own code."""
        if not self.active:
            yield
            return
        spans, stack, layers = self.spans, self._stack, self._layers
        index = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(index)
        layers.append(layer_of(name))
        start = self.clock()
        try:
            yield
        finally:
            spans[index] = (name, start, self.clock(), parent)
            stack.pop()
            layers.pop()

    def wrap(self, name: str, fn: Callable, after: Callable | None = None,
             nested: bool = True) -> Callable:
        """``fn`` recording one span per call.

        ``after(recorder, args, result)`` runs after a recorded call
        returns.  With ``nested=False`` a call made from inside a span of
        the same layer is not recorded (the cost model's methods call
        each other; only the outermost call is a layer boundary).
        """
        recorder = self
        layer = layer_of(name)
        spans, stack, layers, clock = (self.spans, self._stack,
                                       self._layers, self.clock)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active or (
                    not nested and layers and layers[-1] == layer):
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            layers.append(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
                layers.pop()
            if after is not None:
                after(recorder, args, result)
            return result

        return wrapper


# -- entry points -------------------------------------------------------------

def _schedule_stats(recorder: SpanRecorder, args, result) -> None:
    stats = args[0].last_stats
    if stats is None:
        return
    recorder.counters["sched.prefixes"] += stats.n_prefixes_evaluated
    recorder.counters["sched.cache_hits"] += stats.cache_hits
    recorder.counters["sched.cache_misses"] += stats.cache_misses
    recorder.counters["sched.warm_start_reuses"] += stats.warm_start_reuses


def _fastpath_stats(recorder: SpanRecorder, args, result) -> None:
    stats = args[0].fastpath_stats
    recorder.counters["sim.wakes_served"] += stats.wakes_served
    recorder.counters["sim.solo_batches"] += stats.solo_batches
    recorder.counters["sim.drive_windows"] += stats.drive_windows


_COST_METHODS = ("comp_seconds", "pull_seconds", "push_seconds", "profile",
                 "input_resident_bytes", "model_resident_bytes",
                 "workspace_bytes", "resident_bytes", "memory_floor",
                 "reload_bytes_per_iteration",
                 "reload_seconds_per_iteration", "checkpoint_bytes")

#: ``(module, owner, attribute, span name, after hook)``.  ``owner`` is a
#: class name, or None for a module global (wrapped in the module that
#: looks it up, which is not always the one that defines it).  Spans of
#: the ``cost`` layer are recorded only at the layer's boundary.
ENTRY_POINTS: tuple = (
    ("repro.sim.simulator", "Simulator", "run", "sim.run", _fastpath_stats),
    ("repro.sim.simulator", "Simulator", "step", "sim.step", None),
    ("repro.core.master", "HarmonyMaster", "submit", "master.submit", None),
    ("repro.core.master", "HarmonyMaster", "on_iteration",
     "master.iteration", None),
    ("repro.core.master", "HarmonyMaster", "on_job_finished",
     "master.finish", None),
    ("repro.core.master", "HarmonyMaster", "periodic_check",
     "master.periodic", None),
    ("repro.core.scheduler", "HarmonyScheduler", "schedule",
     "sched.schedule", _schedule_stats),
    ("repro.core.scheduler", "HarmonyScheduler", "build_plan",
     "sched.build_plan", None),
    ("repro.core.scheduler", None, "argmin_convex", "sched.ng_search", None),
    ("repro.core.scheduler", None, "assign_jobs", "sched.assign", None),
    ("repro.core.scheduler", None, "allocate_machines", "sched.allocate",
     None),
    ("repro.core.scheduler", "PlanCache", "invalidate_job",
     "sched.invalidate", None),
    ("repro.core.perfmodel", "PerfModel", "estimate_group", "perf.estimate",
     None),
    ("repro.core.perfmodel", "PerfModel", "cluster_utilization",
     "perf.cluster_utilization", None),
    *(("repro.workloads.costmodel", "CostModel", method, f"cost.{method}",
       None) for method in _COST_METHODS),
    ("repro.core.profiler", "Profiler", "record_iteration",
     "profiler.record", None),
    ("repro.core.profiler", "Profiler", "forget", "profiler.forget", None),
    *(("repro.core.master", None, function, f"regroup.{function}", None)
      for function in ("find_similar_job", "find_similar_bundle",
                       "prefer_fewer_jobs")),
    ("repro.shard.scheduler", None, "splice_plan", "regroup.splice_plan",
     None),
    ("repro.baselines.base", "BaselineMaster", "machines_for",
     "baseline.machines_for", None),
    ("repro.policies.base", "FunctionPolicy", "decide", "policy.decide",
     None),
    ("repro.policies.planner", "HarmonyPlanPolicy", "decide", "policy.decide",
     None),
    ("repro.shard.scheduler", "ShardedScheduler", "schedule",
     "shard.schedule", None),
    *(("repro.shard.placer", "GlobalPlacer", method, f"shard.placer.{method}",
       None) for method in ("cell_of", "reassign", "loads", "route")),
    ("repro.shard.scheduler", None, "plan_moves", "shard.rebalance", None),
    ("repro.check.invariants", "InvariantChecker", "check_runtime",
     "check.invariants", None),
)


def _targets():
    for module_name, owner, attribute, name, after in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        target = getattr(module, owner) if owner is not None else module
        yield target, attribute, name, after, layer_of(name) != "cost"


@contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every entry point for the duration of the block.

    The exact original objects are restored on exit, even on error.
    """
    saved = []
    try:
        for target, attribute, name, after, nested in _targets():
            original = (target.__dict__[attribute] if isinstance(target, type)
                        else getattr(target, attribute))
            saved.append((target, attribute, original))
            setattr(target, attribute,
                    recorder.wrap(name, original, after, nested))
        yield recorder
    finally:
        for target, attribute, original in reversed(saved):
            setattr(target, attribute, original)


# -- per-layer metrics -----------------------------------------------------------

#: Per-layer metric name -> unit, in report order.  BENCHMARK.json's
#: ``per_layer`` list mirrors this.
LAYER_METRICS: dict[str, str] = {
    "sim.self_s": "s", "sim.steps": "count", "sim.us_per_step": "us",
    "sim.wakes_served": "count", "sim.solo_batches": "count",
    "sim.drive_windows": "count",
    "master.self_s": "s", "master.finish.calls": "count",
    "master.iteration.calls": "count", "master.periodic.calls": "count",
    "master.escalations": "count", "master.escalate_ratio": "ratio",
    "sched.schedule_s": "s", "sched.schedule.calls": "count",
    "sched.decision_ms_p50": "ms", "sched.decision_ms_p95": "ms",
    "sched.self_s": "s", "sched.ng_search_s": "s", "sched.assign_s": "s",
    "sched.allocate_s": "s", "sched.build_plan_s": "s",
    "sched.prefixes": "count", "sched.cache_hit_ratio": "ratio",
    "sched.warm_start_reuses": "count", "sched.invalidations": "count",
    "perf.estimate_s": "s", "perf.estimate.calls": "count",
    "cost.self_s": "s", "cost.resident_bytes.calls": "count",
    "profiler.record_s": "s", "profiler.publishes": "count",
    "regroup.self_s": "s", "regroup.calls": "count",
    "baseline.machines_for_s": "s", "baseline.machines_for.calls": "count",
    "policy.decide_s": "s", "policy.decide.calls": "count",
    "shard.schedule_s": "s", "shard.schedule.calls": "count",
    "shard.cells_rescheduled": "count", "shard.cells_per_decision": "count",
    "shard.placer_s": "s", "shard.rebalance_s": "s",
    "check.invariants_s": "s", "check.invariants.calls": "count",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
}

#: Span-name prefix of the benchmark's own spans (not a program layer).
BENCH_LAYER = "bench"


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    """Each span's duration minus its direct children's durations."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, start, end, _) in enumerate(spans)]


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: SpanRecorder, run_s: float) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value except ``trace.overhead_s``
    (which needs the untraced run) for one traced repetition that took
    ``run_s`` host seconds by the outer timer."""
    spans = recorder.spans
    own = self_times(spans)
    layer_self: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for (name, start, end, _), own_s in zip(spans, own, strict=True):
        layer_self[layer_of(name)] += own_s
        total[name] += end - start
        calls[name] += 1

    def parent_name(span) -> str | None:
        parent = span[3]
        return spans[parent][0] if parent >= 0 else None

    cells = 0
    escalated = set()
    decisions = []
    for span in spans:
        name = span[0]
        if name not in ("sched.schedule", "shard.schedule"):
            continue
        parent = parent_name(span)
        if parent == "master.finish":
            escalated.add(span[3])
        if name == "sched.schedule" and parent == "shard.schedule":
            cells += 1
        else:
            decisions.append((span[2] - span[1]) * 1e3)

    counters = recorder.counters
    attributed = sum(s for layer, s in layer_self.items()
                     if layer != BENCH_LAYER)
    placer = sum(s for name, s in total.items()
                 if name.startswith("shard.placer."))
    perf = total["perf.estimate"] + total["perf.cluster_utilization"]
    lookups = counters["sched.cache_hits"] + counters["sched.cache_misses"]
    return {
        "sim.self_s": layer_self["sim"],
        "sim.steps": calls["sim.step"],
        "sim.us_per_step": _ratio(layer_self["sim"], calls["sim.step"]) * 1e6,
        "sim.wakes_served": counters["sim.wakes_served"],
        "sim.solo_batches": counters["sim.solo_batches"],
        "sim.drive_windows": counters["sim.drive_windows"],
        "master.self_s": layer_self["master"],
        "master.finish.calls": calls["master.finish"],
        "master.iteration.calls": calls["master.iteration"],
        "master.periodic.calls": calls["master.periodic"],
        "master.escalations": len(escalated),
        "master.escalate_ratio": _ratio(len(escalated),
                                        calls["master.finish"]),
        "sched.schedule_s": total["sched.schedule"],
        "sched.schedule.calls": calls["sched.schedule"],
        "sched.decision_ms_p50": _percentile(decisions, 50),
        "sched.decision_ms_p95": _percentile(decisions, 95),
        "sched.self_s": layer_self["sched"],
        "sched.ng_search_s": total["sched.ng_search"],
        "sched.assign_s": total["sched.assign"],
        "sched.allocate_s": total["sched.allocate"],
        "sched.build_plan_s": total["sched.build_plan"],
        "sched.prefixes": counters["sched.prefixes"],
        "sched.cache_hit_ratio": _ratio(counters["sched.cache_hits"], lookups),
        "sched.warm_start_reuses": counters["sched.warm_start_reuses"],
        "sched.invalidations": calls["sched.invalidate"],
        "perf.estimate_s": perf,
        "perf.estimate.calls": calls["perf.estimate"],
        "cost.self_s": layer_self["cost"],
        "cost.resident_bytes.calls": calls["cost.resident_bytes"],
        "profiler.record_s": total["profiler.record"],
        "profiler.publishes": calls["profiler.record"]
        + calls["profiler.forget"],
        "regroup.self_s": layer_self["regroup"],
        "regroup.calls": sum(count for name, count in calls.items()
                             if layer_of(name) == "regroup"),
        "baseline.machines_for_s": total["baseline.machines_for"],
        "baseline.machines_for.calls": calls["baseline.machines_for"],
        "policy.decide_s": total["policy.decide"],
        "policy.decide.calls": calls["policy.decide"],
        "shard.schedule_s": total["shard.schedule"],
        "shard.schedule.calls": calls["shard.schedule"],
        "shard.cells_rescheduled": cells,
        "shard.cells_per_decision": _ratio(cells, calls["shard.schedule"]),
        "shard.placer_s": placer,
        "shard.rebalance_s": total["shard.rebalance"],
        "check.invariants_s": total["check.invariants"],
        "check.invariants.calls": calls["check.invariants"],
        "trace.unattributed_s": run_s - attributed,
    }


def layer_self_shares(recorder: SpanRecorder, run_s: float) -> dict[str, float]:
    """Each layer's self time as a share of ``run_s`` (the ledger view);
    the benchmark's own spans appear as ``bench``."""
    shares: dict[str, float] = defaultdict(float)
    for (name, *_), own_s in zip(recorder.spans, self_times(recorder.spans),
                                 strict=True):
        shares[layer_of(name)] += own_s / run_s
    return dict(sorted(shares.items(), key=lambda item: -item[1]))


def write_spans(spans, path: str) -> None:
    """Spans as gzipped CSV: name, start and end (seconds from the first
    span's start) and parent index (-1 for a root)."""
    origin = spans[0][1] if spans else 0.0
    with gzip.open(path, "wt", encoding="ascii") as handle:
        handle.write("name,start_s,end_s,parent\n")
        for name, start, end, parent in spans:
            handle.write(f"{name},{start - origin:.9f},{end - origin:.9f},"
                         f"{parent}\n")
