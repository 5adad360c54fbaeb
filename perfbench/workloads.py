"""The benchmark's four workloads.

Each workload splits one repetition into an untimed ``setup(seed)``
(seeded input generation and runtime/scheduler construction; the
warm-up asks for one instance only) and a timed ``run(state, span)``;
``summarize`` then turns the raw results into an :class:`Outcome`
outside the timed region.  ``run`` wraps each runtime or scheduler call
in ``span(name)``: a benchmark span when the repetition is traced, a
point where the benchmark may sample the host's speed (untimed)
otherwise.

Every workload averages over several seeded instances so that the
simulated outcomes and the host time of one ``--seed`` stay close to
those of the next: one Fig. 10 Harmony instance's host time moves by
about a third (interquartile range over sixteen seeds) from seed to
seed, and its makespan by about 18%.  Instance ``i`` of seed ``s``
uses workload seed ``s + INSTANCE_STRIDE * i``, so neighbouring seeds
share no instance.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field, replace

import numpy as np
from repro.baselines.isolated import IsolatedRuntime
from repro.baselines.naive import NaiveRuntime
from repro.check.invariants import InvariantChecker
from repro.config import SchedulerConfig, ShardConfig, SimConfig
from repro.core.job import JobState
from repro.core.perfmodel import PerfModel, UtilizationVector
from repro.core.profiler import Profiler
from repro.core.runtime import HarmonyRuntime
from repro.experiments.common import scaled_workload
from repro.experiments.tournament import TournamentParams
from repro.policies.registry import available, build_runtime
from repro.shard.scheduler import ShardedScheduler
from repro.workloads.arrivals import (
    batch_arrivals,
    poisson_arrivals,
    with_arrival_times,
)
from repro.workloads.costmodel import CostModel
from repro.workloads.generator import WorkloadGenerator

INSTANCE_STRIDE = 10_000

#: Every simulator run uses the default engine, named explicitly so that a
#: ``HARMONY_SIM_ENGINE`` setting in the caller's environment (which
#: ``SimConfig()`` honours) cannot switch the benchmark to another one.
ENGINE = "fast"

#: Eq. 3's objective, with the scheduler's own default CPU weight.
_SCORE_MODEL = PerfModel(cpu_weight=SchedulerConfig().cpu_weight)


@dataclass
class Outcome:
    """What one repetition produced, reduced to checkable numbers."""

    attempted: int = 0
    failed: int = 0
    jcts: list[float] = field(default_factory=list)
    makespans: list[float] = field(default_factory=list)
    cpu_utils: list[float] = field(default_factory=list)
    plan_scores: list[float] = field(default_factory=list)
    jobs_placed: int = 0
    #: Broken checks (unfinished jobs, invariant violations, exceptions).
    problems: list[str] = field(default_factory=list)
    _digest: object = field(default_factory=hashlib.sha256, repr=False)

    def feed(self, *parts) -> None:
        self._digest.update(repr(parts).encode())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    def metrics(self) -> dict[str, float]:
        """The deterministic end-to-end metrics of this repetition."""
        return {
            "finished_frac": 1.0 - self.failed / self.attempted,
            "sim_mean_jct_s": _mean(self.jcts),
            "sim_makespan_s": _mean(self.makespans),
            "sim_cpu_util": _mean(self.cpu_utils),
            "plan_score": _mean(self.plan_scores),
            "jobs_placed": float(self.jobs_placed),
        }


def _mean(values: list[float]) -> float:
    # Empty only when every run failed, which the outcome's problems report.
    return statistics.fmean(values) if values else 0.0


def instance_seeds(seed: int, count: int) -> list[int]:
    return [seed + INSTANCE_STRIDE * index for index in range(count)]


# -- simulator workloads ----------------------------------------------------------

def _add_run(outcome: Outcome, label: str, result) -> None:
    """Fold one finished simulator run into ``outcome``."""
    outcomes = result.outcomes
    outcome.attempted += len(outcomes)
    finished = [o for o in outcomes.values() if o.state is JobState.FINISHED]
    outcome.failed += len(outcomes) - len(finished)
    if len(finished) < len(outcomes):
        outcome.problems.append(
            f"{label}: {len(outcomes) - len(finished)} jobs not finished")
    for job_id in sorted(outcomes):
        o = outcomes[job_id]
        outcome.feed(label, job_id, o.state.value, o.finish_time)
    if not finished:
        return
    outcome.jcts.extend(result.jcts)
    outcome.makespans.append(result.makespan)
    cpu = result.average_utilization("cpu")
    outcome.cpu_utils.append(cpu)
    outcome.plan_scores.append(_SCORE_MODEL.score(UtilizationVector(
        cpu, result.average_utilization("net"))))
    outcome.jobs_placed += len(finished)


def _add_failure(outcome: Outcome, label: str, n_jobs: int,
                 error: Exception) -> None:
    """A run that raised counts every one of its jobs as failed."""
    outcome.attempted += n_jobs
    outcome.failed += n_jobs
    outcome.problems.append(f"{label}: {type(error).__name__}: {error}")
    outcome.feed(label, "raised", type(error).__name__)


def _run_all(runtimes, span) -> list:
    """Run ``(label, runtime)`` pairs to completion; a raised exception
    is returned in place of the result."""
    results = []
    for label, runtime in runtimes:
        with span("bench.run"):
            try:
                results.append(runtime.run())
            except Exception as error:  # noqa: BLE001 - reported as failed jobs
                results.append(error)
    return results


def _summarize_runs(runtimes, results) -> Outcome:
    """Fold the runs into an outcome and run the invariant checker on
    each (outside the timed region)."""
    outcome = Outcome()
    for (label, runtime), result in zip(runtimes, results, strict=True):
        if isinstance(result, Exception):
            _add_failure(outcome, label, len(runtime.workload), result)
            continue
        _add_run(outcome, label, result)
        outcome.problems.extend(
            f"{label}: {v}" for v in InvariantChecker().check_runtime(runtime))
    return outcome


class Fig10Harmony:
    """§V-C Fig. 10: 80 jobs / 100 machines through one HarmonyRuntime
    per instance."""

    name = "fig10-harmony"
    instances = 6
    scale = 1.0

    def setup(self, seed: int, instances: int | None = None):
        runtimes = []
        for instance_seed in instance_seeds(seed, instances or self.instances):
            jobs, machines = scaled_workload(self.scale, instance_seed)
            runtimes.append((f"harmony/{instance_seed}",
                             HarmonyRuntime(machines, jobs,
                                            config=SimConfig(engine=ENGINE))))
        return runtimes

    def run(self, state, span):
        return _run_all(state, span)

    def summarize(self, state, results) -> Outcome:
        return _summarize_runs(state, results)


#: The naive cases of Fig. 10 (``run_naive_cases``' first three group
#: sizes), drawn from the same generator it uses.
NAIVE_GROUP_SIZES = (2, 2, 3)


class Fig10Baselines:
    """The inputs of :class:`Fig10Harmony`'s first four instances through
    IsolatedRuntime and the three naive cases (BaselineMaster, default
    ``packed_fifo``)."""

    name = "fig10-baselines"
    instances = 4
    scale = 1.0

    def setup(self, seed: int, instances: int | None = None):
        runtimes = []
        config = SimConfig(engine=ENGINE)
        for instance_seed in instance_seeds(seed, instances or self.instances):
            jobs, machines = scaled_workload(self.scale, instance_seed)
            runtimes.append((f"isolated/{instance_seed}",
                             IsolatedRuntime(machines, jobs, config=config)))
            rng = np.random.default_rng(config.seed)
            for case, group_size in enumerate(NAIVE_GROUP_SIZES):
                shuffle_seed = int(rng.integers(0, 2**31 - 1))
                runtimes.append((
                    f"naive{case}/{instance_seed}",
                    NaiveRuntime(machines, jobs, config=config,
                                 group_size=group_size,
                                 shuffle_seed=shuffle_seed)))
        return runtimes

    def run(self, state, span):
        return _run_all(state, span)

    def summarize(self, state, results) -> Outcome:
        return _summarize_runs(state, results)


class Tournament:
    """The default tournament grid (every registered policy x batch and
    Poisson arrivals x both cluster sizes) on the default engine, with
    the invariant checker after every run as part of the workload.
    Runtimes are built inside the timed region: per-run fixed costs are
    what this workload is for."""

    name = "tournament"
    instances = 4

    def setup(self, seed: int, instances: int | None = None):
        defaults = TournamentParams()
        policies = tuple(name for name, _ in available())
        cells = []
        for instance_seed in instance_seeds(seed, instances or self.instances):
            jobs, machines = scaled_workload(defaults.scale,
                                             2021 + instance_seed)
            config = SimConfig(seed=instance_seed, engine=ENGINE)
            arrivals = {
                "batch": batch_arrivals(len(jobs)),
                "poisson": poisson_arrivals(
                    len(jobs), defaults.poisson_mean_seconds,
                    seed=instance_seed),
            }
            clusters = tuple(max(20, round(machines * scale))
                             for scale in defaults.cluster_scales)
            for policy in policies:
                for arrival in defaults.arrivals:
                    workload = with_arrival_times(jobs, arrivals[arrival])
                    for n_machines in clusters:
                        cells.append((
                            f"{policy}/{arrival}/{n_machines}/{instance_seed}",
                            policy, n_machines, workload, config))
        return cells

    def run(self, state, span):
        results = []
        for _, policy, n_machines, workload, config in state:
            with span("bench.run"):
                try:
                    runtime = build_runtime(policy, n_machines, workload,
                                            config=config)
                    result = runtime.run()
                    violations = InvariantChecker().check_runtime(runtime)
                    results.append((result, violations))
                except Exception as error:  # noqa: BLE001 - counted as failed
                    results.append(error)
        return results

    def summarize(self, state, results) -> Outcome:
        outcome = Outcome()
        for (label, _, _, workload, _), result in zip(state, results,
                                                      strict=True):
            if isinstance(result, Exception):
                _add_failure(outcome, label, len(workload), result)
                continue
            run_result, violations = result
            _add_run(outcome, label, run_result)
            outcome.problems.extend(f"{label}: {v}" for v in violations)
        return outcome


# -- scheduler-only workload -------------------------------------------------------

class ScaleChurn:
    """§V-F at 8K jobs / 10K machines: one cold ``schedule()`` then
    online churn steps (one arrival plus one profile republish of a
    placed job each), through ShardedScheduler at 1 and at 16 cells,
    serially, the 16-cell scheduler running its rebalance pass every
    ``rebalance_every`` calls.  No simulator runs, so the ``sim_*`` metrics are the
    performance model's predictions for the final plans: a placed job's
    JCT is its iteration count times its group's Eq. 1 iteration time,
    and CPU utilization is the plan's Eq. 4 value."""

    name = "scale-churn"
    instances = 3
    #: A repetition takes most of a run, so one is enough (see run.py).
    min_reps = 1
    n_jobs = 8000
    n_machines = 10_000
    churn_steps = 8
    cells = (1, 16)
    #: Schedule calls between two rebalance passes of the 16-cell
    #: scheduler: the default (32) would never come round in the
    #: ``1 + 2 * churn_steps`` calls of a run, so ``plan_moves`` would
    #: never be measured.
    rebalance_every = 8
    #: The characterization DoP of ``experiments/scalability.py``.
    profile_dop = 16

    def setup(self, seed: int, instances: int | None = None):
        state = []
        for instance_seed in instance_seeds(seed, instances or self.instances):
            specs = WorkloadGenerator(instance_seed).sized_workload(
                self.n_jobs + self.churn_steps)
            cost_model = CostModel()
            profiler = Profiler()
            for spec in specs:
                profile = cost_model.profile(spec, self.profile_dop)
                profiler.record_iteration(spec.job_id, profile.t_comp,
                                          profile.t_comm, self.profile_dop)
            metrics = [profiler.get(spec.job_id) for spec in specs]
            iterations = {spec.job_id: spec.iterations for spec in specs}
            for n_cells in self.cells:
                scheduler = ShardedScheduler(
                    config=SchedulerConfig(),
                    shard=ShardConfig(n_cells=n_cells, max_workers=1,
                                      rebalance_every=self.rebalance_every))
                state.append((f"cells={n_cells}/{instance_seed}", metrics,
                              scheduler, iterations))
        return state

    def run(self, state, span):
        results = []
        for _, metrics, scheduler, _ in state:
            pool0 = metrics[:self.n_jobs]
            newcomers = metrics[self.n_jobs:]
            with span("bench.run"):
                calls = []
                pool = list(pool0)
                plan = self._call(scheduler, pool, calls, span)
                placed = plan.scheduled_job_ids if plan else frozenset()
                running = [index for index, job in enumerate(pool)
                           if job.job_id in placed]
                for step in range(self.churn_steps):
                    pool.append(newcomers[step])
                    self._call(scheduler, pool, calls, span)
                    if running:
                        index = running[(step * 997) % len(running)]
                        job = pool[index]
                        pool[index] = replace(
                            job, cpu_work=job.cpu_work * 1.01,
                            samples=job.samples + 1)
                    plan = self._call(scheduler, pool, calls, span)
                results.append((plan, calls, len(pool)))
        return results

    def _call(self, scheduler, pool, calls, span):
        """One ``schedule()``; ``calls`` records whether it produced a
        plan (an exception or a None plan for this non-empty pool is a
        failed call)."""
        try:
            with span("bench.schedule"):
                plan = scheduler.schedule(pool, self.n_machines)
        except Exception as error:  # noqa: BLE001 - counted as a failed call
            calls.append(f"{type(error).__name__}: {error}")
            return None
        calls.append(plan is not None)
        return plan

    def summarize(self, state, results) -> Outcome:
        outcome = Outcome()
        for (label, _, _, iterations), (plan, calls, pool_size) in zip(
                state, results, strict=True):
            outcome.attempted += len(calls)
            bad = [call for call in calls if call is not True]
            outcome.failed += len(bad)
            outcome.problems.extend(f"{label}: schedule() {call}"
                                    for call in bad if call is not False)
            if any(call is False for call in bad):
                outcome.problems.append(f"{label}: schedule() returned "
                                        "no plan for a non-empty pool")
            if pool_size != self.n_jobs + self.churn_steps:
                outcome.problems.append(f"{label}: pool size {pool_size}")
            if plan is None:
                outcome.feed(label, None)
                continue
            outcome.problems.extend(
                f"{label}: {problem}"
                for problem in _plan_problems(plan, self.n_machines))
            outcome.feed(label, plan.group_shapes(), plan.score)
            placed_jcts = [iterations[job_id]
                           * group.estimate.t_group_iteration
                           for group in plan.groups
                           for job_id in group.job_ids]
            outcome.jcts.extend(placed_jcts)
            outcome.makespans.append(max(placed_jcts))
            outcome.cpu_utils.append(plan.utilization.cpu)
            outcome.plan_scores.append(plan.score)
            outcome.jobs_placed += len(plan.scheduled_job_ids)
        return outcome


def _plan_problems(plan, total_machines: int) -> list[str]:
    """Structural checks on a final plan: every job in one group, every
    group on at least one machine, no more machines than the cluster."""
    problems = []
    job_ids = [job_id for group in plan.groups for job_id in group.job_ids]
    if len(job_ids) != len(set(job_ids)):
        problems.append("a job is placed in two groups")
    if any(group.n_machines < 1 for group in plan.groups):
        problems.append("a group has no machines")
    if plan.machines_used > total_machines:
        problems.append(f"plan uses {plan.machines_used} of "
                        f"{total_machines} machines")
    return problems


WORKLOADS = {workload.name: workload for workload in (
    Fig10Harmony(), Fig10Baselines(), ScaleChurn(), Tournament())}
