"""Regression tests for placement bugs found during calibration.

Each test pins a failure mode that once produced livelocks, stuck
rebuilds, or over-committed groups — the kind of thing only visible in
long end-to-end runs, captured here as fast, direct scenarios.
"""

from dataclasses import replace

import pytest

from repro.baselines.isolated import IsolatedRuntime
from repro.cluster.cluster import Cluster
from repro.config import DEFAULT_SIM_CONFIG, MemoryConfig
from repro.core.group_runtime import ExecutionMode, GroupRuntime
from repro.core.job import Job
from repro.core.master import HarmonyMaster
from repro.core.runtime import HarmonyRuntime
from repro.metrics.utilization import ClusterUsageRecorder
from repro.sim import RandomStreams, Simulator
from repro.workloads.apps import DATASETS, JobSpec, LDA
from repro.workloads.costmodel import CostModel
from repro.workloads.generator import WorkloadGenerator


def fixed_alpha_config(alpha):
    return replace(DEFAULT_SIM_CONFIG,
                   memory=replace(DEFAULT_SIM_CONFIG.memory,
                                  fixed_alpha=alpha))


class TestFixedAlphaPlacement:
    """The §V-G fixed-ratio mode once over-committed groups (admission
    had no fit check and nothing rebalanced), inflating GC until drains
    never finished."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_fixed_alpha_runs_terminate(self, alpha):
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        result = HarmonyRuntime(24, jobs,
                                config=fixed_alpha_config(alpha)).run(
            max_events=2_000_000)
        assert len(result.finished) == len(jobs)

    def test_no_group_sits_above_oom(self):
        """With the admission gate, live groups stay below the OOM
        line at every decision epoch."""
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        runtime = HarmonyRuntime(24, jobs,
                                 config=fixed_alpha_config(0.5))
        # Sample group pressure on every membership change.
        pressures = []
        master = runtime.master
        original = master._note_membership_change

        def spy(group):
            pressures.append(group.ledger.pressure)
            original(group)
        master._note_membership_change = spy
        runtime.run(max_events=2_000_000)
        assert pressures
        assert max(pressures) < 1.0


def probe_master(config, n_machines=100):
    """A master holding the base workload's jobs, none of them placed."""
    sim = Simulator()
    master = HarmonyMaster(sim, Cluster(n_machines, config.machine),
                           CostModel(config.machine), config,
                           RandomStreams(1),
                           ClusterUsageRecorder(n_machines))
    for spec in WorkloadGenerator(5).base_workload(hyper_params_per_pair=1):
        master.jobs[spec.job_id] = Job(spec)
    return master


def fresh_group_admits(master, job_id, n_machines):
    group = GroupRuntime(master.sim, f"probe-{job_id}",
                         tuple(range(n_machines)), ExecutionMode.HARMONY,
                         master.cost_model, master.config, RandomStreams(1),
                         master, cluster_size=master.cluster.size)
    return group.can_admit(master.jobs[job_id])


class TestPlanFloorGateAlignment:
    """A plan sized exactly at its memory floor must pass the admission
    gate, or placement livelocks (plan -> reject -> re-plan forever);
    and the floor is tight, or plans hold machines no job needs."""

    def test_floor_sized_groups_are_admittable(self):
        master = probe_master(DEFAULT_SIM_CONFIG)
        for job_id in master.jobs:
            floor = master._memory_floor([job_id])
            assert floor <= master.cluster.size
            assert fresh_group_admits(master, job_id, floor), \
                f"{job_id} rejected at its own floor ({floor})"

    @pytest.mark.parametrize("spill_enabled", [True, False])
    @pytest.mark.parametrize("fixed_alpha", [None, 0.5])
    def test_floor_is_the_admission_boundary(self, spill_enabled,
                                             fixed_alpha):
        """Floor and gate read one spill assumption: a fresh group at
        the floor admits the job, one machine fewer does not (spill off
        with a fixed alpha once floored at alpha = 0.5 while the gate
        used 0, and the floor once assumed model spill under a fixed
        alpha, which the gate never did)."""
        config = replace(DEFAULT_SIM_CONFIG, memory=MemoryConfig(
            spill_enabled=spill_enabled, fixed_alpha=fixed_alpha))
        master = probe_master(config)
        for job_id in master.jobs:
            floor = master._memory_floor([job_id])
            assert floor <= master.cluster.size
            assert fresh_group_admits(master, job_id, floor), \
                f"{job_id} rejected at its own floor ({floor})"
            if floor > 1:
                assert not fresh_group_admits(master, job_id, floor - 1), \
                    f"{job_id} admitted below its floor ({floor})"


class TestTinyClusters:
    """Harmony once asked every bootstrap profiling group for four
    machines, so on clusters of one to three machines no job was ever
    profiled and the run drained with every job waiting."""

    @pytest.mark.parametrize("n_machines", [1, 2, 3])
    def test_jobs_finish_like_isolated(self, n_machines):
        jobs = [JobSpec(f"lda{i}", LDA, DATASETS["LDA"][0], iterations=5)
                for i in range(3)]
        isolated = IsolatedRuntime(n_machines, jobs).run()
        harmony = HarmonyRuntime(n_machines, jobs).run()
        assert len(isolated.finished) == len(jobs)
        assert len(harmony.finished) == len(jobs)


class TestShrunkSlotSafety:
    """Rebuild slots created with fewer machines than planned (budget
    shrank mid-drain) must not over-commit: jobs that no longer fit
    stay paused and get placed later."""

    def test_heavy_workload_with_small_cluster_terminates(self):
        jobs = WorkloadGenerator(7).base_workload(hyper_params_per_pair=2)
        result = HarmonyRuntime(20, jobs).run(max_events=4_000_000)
        done = len(result.finished) + len(result.failed)
        assert done == len(jobs)
        assert not result.failed


class TestPauseResumeStability:
    def test_repeated_failures_never_wedge_rebuilds(self):
        jobs = WorkloadGenerator(3).base_workload(hyper_params_per_pair=1)
        failure_times = [float(t) for t in range(1200, 20_000, 2400)]
        runtime = HarmonyRuntime(24, jobs, failure_times=failure_times)
        result = runtime.run(max_events=4_000_000)
        assert len(result.finished) == len(jobs)
        assert runtime.master._rebuild is None
        assert runtime.master._pending_moves == {}
