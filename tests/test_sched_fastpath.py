"""Differential tests pinning the incremental scheduler to the frozen
reference implementation, plus regressions for the plan cache, warm
starts, the closed-form allocator, and the §IV-B4 plan patch."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.check.scenarios import ScenarioGenerator
from repro.cluster.cluster import Cluster
from repro.config import SchedulerConfig, SimConfig
from repro.core.allocation import _HEAP_MAX_SPARE, allocate_machines
from repro.core.grouping import _SCAN_GROUPS_MAX, assign_jobs
from repro.core.master import HarmonyMaster
from repro.core.profiler import JobMetrics, MetricsView, Profiler
from repro.core.reference import (
    ReferenceScheduler,
    reference_allocate_machines,
    reference_assign_jobs,
)
from repro.core.regroup import splice_plan
from repro.core.runtime import HarmonyRuntime
from repro.core.scheduler import (
    HarmonyScheduler,
    PlanCache,
    _CACHE_MISS,
    _WARM_ORDER_MIN_JOBS,
    _ng_cost_table,
)
from repro.experiments.common import scaled_workload
from repro.metrics.utilization import ClusterUsageRecorder
from repro.sim import RandomStreams, Simulator
from repro.workloads.costmodel import CostModel

ORDERS = ("critical", "sjf", "ljf", "interleave")


def make_jobs(values):
    return [JobMetrics(job_id=f"j{i}", cpu_work=float(w), t_net=float(n),
                       m_observed=16)
            for i, (w, n) in enumerate(values)]


def partitions(plan):
    return tuple(group.job_ids for group in plan.groups)


def group_ids(groups):
    return [[job.job_id for job in group] for group in groups]


job_values = st.lists(
    st.tuples(st.floats(0.01, 80.0), st.floats(0.001, 6.0)),
    min_size=1, max_size=40)


class TestSchedulerDifferential:
    @settings(max_examples=60, deadline=None)
    @given(values=job_values, machines=st.integers(1, 400),
           order=st.sampled_from(ORDERS))
    def test_plans_bitwise_equal_to_reference(self, values, machines,
                                              order):
        """Same partitions, same allocations, same scores — bit for
        bit — whatever the pool and admission order."""
        jobs = make_jobs(values)
        config = SchedulerConfig(admission_order=order)
        fast_plan = HarmonyScheduler(config=config).schedule(jobs,
                                                             machines)
        ref_plan = ReferenceScheduler(config=config).schedule(jobs,
                                                              machines)
        assert fast_plan == ref_plan
        if fast_plan is not None:
            assert partitions(fast_plan) == partitions(ref_plan)
            assert fast_plan.score == ref_plan.score

    @settings(max_examples=30, deadline=None)
    @given(values=job_values, machines=st.integers(2, 300))
    def test_repeat_call_serves_identical_plan_from_cache(self, values,
                                                          machines):
        jobs = make_jobs(values)
        scheduler = HarmonyScheduler()
        first = scheduler.schedule(jobs, machines)
        second = scheduler.schedule(jobs, machines)
        assert first == second
        stats = scheduler.last_stats
        assert stats.cache_misses == 0
        assert stats.cache_hits == stats.n_prefixes_evaluated
        assert stats.fast_path

    @settings(max_examples=6, deadline=None)
    @given(values=st.lists(
        st.tuples(st.floats(0.01, 80.0), st.floats(0.001, 6.0)),
        min_size=129, max_size=150),
        machines=st.integers(129, 300))
    def test_plans_bitwise_equal_above_ng_table_cutoff(self, values,
                                                        machines):
        """Pools too large for the per-call L6 table take the per-n_G
        probes (the §V-F path); those plans must match too."""
        jobs = make_jobs(values)
        assert _ng_cost_table(MetricsView(jobs), machines) is None
        assert HarmonyScheduler().schedule(jobs, machines) \
            == ReferenceScheduler().schedule(jobs, machines)

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_scenario_generator_pools_match_reference(self, seed):
        """Pools drawn the way the check harness draws them (real Table
        I jobs through the cost model) schedule identically."""
        scenario = ScenarioGenerator(seed).generate()
        cost_model = CostModel(scenario.config.machine)
        jobs = []
        for spec in scenario.specs:
            profile = cost_model.profile(spec, 16)
            jobs.append(JobMetrics(job_id=spec.job_id,
                                   cpu_work=profile.t_comp * 16,
                                   t_net=profile.t_comm, m_observed=16))
        config = scenario.config.scheduler
        fast = HarmonyScheduler(config=config).schedule(
            jobs, scenario.n_machines)
        ref = ReferenceScheduler(config=config).schedule(
            jobs, scenario.n_machines)
        assert fast == ref

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.tuples(st.floats(0.01, 80.0),
                                     st.floats(0.001, 6.0)),
                           min_size=2, max_size=30),
           n_groups=st.integers(1, 6), m_ref=st.integers(1, 64))
    def test_grouping_matches_reference(self, values, n_groups, m_ref):
        jobs = make_jobs(values)
        n_groups = min(n_groups, len(jobs))
        fast = assign_jobs(jobs, n_groups, m_ref=m_ref)
        ref = reference_assign_jobs(jobs, n_groups, m_ref=m_ref)
        assert [[j.job_id for j in g] for g in fast] \
            == [[j.job_id for j in g] for g in ref]


class TestAllocatorDifferential:
    @settings(max_examples=80, deadline=None)
    @given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=20),
           data=st.data(), headroom=st.integers(0, 300),
           with_floor=st.booleans())
    def test_allocation_matches_reference(self, sizes, data, headroom,
                                          with_floor):
        groups = []
        for g, size in enumerate(sizes):
            groups.append([
                JobMetrics(
                    job_id=f"g{g}j{j}",
                    cpu_work=data.draw(st.floats(0.0, 50.0)),
                    t_net=data.draw(st.floats(0.0, 5.0)),
                    m_observed=16)
                for j in range(size)])
        floor = (lambda ids: 1 + len(ids)) if with_floor else None
        machines = sum(len(g) + 1 for g in groups) + headroom
        assert allocate_machines(groups, machines, memory_floor=floor) \
            == reference_allocate_machines(groups, machines,
                                           memory_floor=floor)

    def test_duplicate_pressure_ties_break_by_group_index(self):
        """Identical groups force exact priority ties at every grant;
        the closed form must hand leftovers to lower indexes first,
        like the reference heap's tuple ordering."""
        job = JobMetrics(job_id="t", cpu_work=30.0, t_net=1.0,
                         m_observed=16)
        groups = [[job]] * 5
        for machines in range(5, 40):
            assert allocate_machines(groups, machines) \
                == reference_allocate_machines(groups, machines)


#: Profiled values drawn from a small grid repeat exactly, so the exact
#: L6 plateaus, equal swap imbalances and equal allocation priorities
#: that continuous floats almost never produce become common.
GRID_WORK = (0.5, 1.0, 2.0, 3.0, 4.5, 8.0, 12.0, 16.0, 24.0, 40.0)
GRID_NET = (0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
grid_value = st.tuples(st.sampled_from(GRID_WORK),
                       st.sampled_from(GRID_NET))


@st.composite
def grid_pools(draw, min_size=41, max_size=100):
    """Pools of 41-100 jobs copied from a few grid prototypes, so most
    jobs have exact duplicates."""
    prototypes = draw(st.lists(grid_value, min_size=1, max_size=8))
    return make_jobs(draw(st.lists(st.sampled_from(prototypes),
                                   min_size=min_size,
                                   max_size=max_size)))


class _ReferenceGroupCount(HarmonyScheduler):
    """The default scheduler with the reference's L6 cost.

    The two L6 costs are the same float terms summed in a different
    order (NumPy's pairwise reduction against the reference's Python
    left-to-right sum), and on an exact L6 plateau the two sums can
    round apart and pick different n_G*.  With the reference's L6 on
    both sides, everything downstream (ordering, fill, swaps,
    allocation, the per-call memos, plan assembly) is compared under
    ties.
    """

    _pick_group_count = ReferenceScheduler._pick_group_count


class TestTieHeavyDifferential:
    @settings(max_examples=20, deadline=None)
    @given(jobs=grid_pools(), machines=st.integers(1, 200),
           order=st.sampled_from(ORDERS))
    def test_plans_match_reference_under_ties(self, jobs, machines,
                                              order):
        config = SchedulerConfig(admission_order=order)
        assert _ReferenceGroupCount(config=config).schedule(
            jobs, machines) == ReferenceScheduler(config=config).schedule(
            jobs, machines)

    @settings(max_examples=20, deadline=None)
    @given(jobs=grid_pools(), machines=st.integers(1, 200))
    def test_ng_table_matches_probes(self, jobs, machines):
        """n_G* read off the per-call table equals n_G* from per-n_G
        probes (the path above ``_NG_TABLE_MAX_CELLS``) on every
        prefix, plateaus included."""
        scheduler = HarmonyScheduler()
        view = MetricsView(jobs)
        table = _ng_cost_table(view, machines)
        assert table is not None
        for n_jobs in range(1, len(jobs) + 1):
            prefix = view.prefix(n_jobs)
            scheduler._ng_table = table
            tabled = scheduler._pick_group_count(prefix, machines)
            scheduler._ng_table = None
            assert tabled == scheduler._pick_group_count(prefix, machines)

    @settings(max_examples=20, deadline=None)
    @given(jobs=grid_pools(), data=st.data(), m_ref=st.integers(1, 64))
    def test_grouping_matches_reference_either_side_of_scan_cutoff(
            self, jobs, data, m_ref):
        for low, high in ((2, _SCAN_GROUPS_MAX),
                          (_SCAN_GROUPS_MAX + 1, len(jobs))):
            n_groups = data.draw(st.integers(low, high))
            assert group_ids(assign_jobs(jobs, n_groups, m_ref=m_ref)) \
                == group_ids(reference_assign_jobs(jobs, n_groups,
                                                   m_ref=m_ref))

    @settings(max_examples=60, deadline=None)
    @given(shapes=st.lists(st.lists(grid_value, min_size=1, max_size=5),
                           min_size=1, max_size=4),
           picks=st.lists(st.integers(0, 3), min_size=1, max_size=20),
           data=st.data(), by_heap=st.booleans(),
           with_floor=st.booleans())
    def test_allocation_matches_reference_either_side_of_heap_cutoff(
            self, shapes, picks, data, by_heap, with_floor):
        """Groups repeat whole (equal sums, equal floors), so grants
        tie on priority and the group-index tie-break decides."""
        groups = [make_jobs(shapes[pick % len(shapes)]) for pick in picks]
        floor = (lambda ids: 1 + len(ids) % 3) if with_floor else None
        floors = sum(floor(group_ids([group])[0]) if floor else 1
                     for group in groups)
        spare = data.draw(st.integers(0, _HEAP_MAX_SPARE) if by_heap
                          else st.integers(_HEAP_MAX_SPARE + 1, 400))
        machines = floors + spare
        assert allocate_machines(groups, machines, memory_floor=floor) \
            == reference_allocate_machines(groups, machines,
                                           memory_floor=floor)


class _LargestPool(HarmonyScheduler):
    """The default scheduler, recording the largest pool it is asked
    to schedule."""

    largest = 0

    def schedule(self, jobs, total_machines):
        self.largest = max(self.largest, len(jobs))
        return super().schedule(jobs, total_machines)


class TestWholeRunDifferential:
    """Whole Fig. 10-shaped runs, not single ``schedule()`` calls: the
    master's escalation scopes, periodic checks and plan-cache
    invalidations all feed the scheduler, and the default scheduler
    must drive the run exactly as the reference does."""

    @pytest.mark.parametrize("scale, seed, largest_pool", [
        (0.25, 2021, 1), (0.25, 7, 1), (0.6, 11, 41)])
    def test_run_matches_reference_scheduler(self, scale, seed,
                                             largest_pool):
        jobs, machines = scaled_workload(scale, seed)
        fast = HarmonyRuntime(machines, jobs,
                              scheduler_factory=_LargestPool)
        ref = HarmonyRuntime(machines, jobs,
                             scheduler_factory=ReferenceScheduler)
        fast_result, ref_result = fast.run(), ref.run()

        def outcomes(result):
            return {job_id: (outcome.state, outcome.finish_time)
                    for job_id, outcome in result.outcomes.items()}

        assert outcomes(fast_result) == outcomes(ref_result)
        assert fast_result.makespan == ref_result.makespan
        assert fast.master.group_shape_log == ref.master.group_shape_log
        assert fast.master.scheduler.largest >= largest_pool


class TestPlanCache:
    def pool(self, n_jobs=24):
        rng = np.random.default_rng(5)
        return [JobMetrics(job_id=f"j{i}",
                           cpu_work=float(rng.uniform(1, 40)),
                           t_net=float(rng.uniform(0.1, 3)),
                           m_observed=16) for i in range(n_jobs)]

    def test_profiler_update_invalidates_affected_plans(self):
        """After a metrics publish, the next schedule must not serve a
        stale plan: it must equal a cold scheduler's plan on the new
        pool."""
        profiler = Profiler()
        for job in self.pool():
            profiler.record_iteration(job.job_id,
                                      job.cpu_work / 16, job.t_net, 16)
        scheduler = HarmonyScheduler()
        profiler.add_listener(scheduler.plan_cache.invalidate_job)

        ids = [f"j{i}" for i in range(24)]
        snapshot = [profiler.get(job_id) for job_id in ids]
        scheduler.schedule(snapshot, 60)

        profiler.record_iteration("j3", 90.0, 0.01, 16)  # drastic shift
        updated = [profiler.get(job_id) for job_id in ids]
        warm_plan = scheduler.schedule(updated, 60)
        cold_plan = HarmonyScheduler().schedule(updated, 60)
        assert warm_plan == cold_plan
        assert scheduler.last_stats.cache_misses > 0

    def test_invalidate_job_drops_only_plans_containing_it(self):
        cache = PlanCache(max_entries=8)
        a = JobMetrics(job_id="a", cpu_work=1.0, t_net=1.0, m_observed=4)
        b = JobMetrics(job_id="b", cpu_work=2.0, t_net=1.0, m_observed=4)
        cache.put(("k1", 1, 10), (a,), None)
        cache.put(("k2", 2, 10), (a, b), None)
        cache.put(("k3", 1, 10), (b,), None)
        cache.invalidate_job("a")
        assert cache.get(("k1", 1, 10), (a,)) is _CACHE_MISS
        assert cache.get(("k2", 2, 10), (a, b)) is _CACHE_MISS
        assert cache.get(("k3", 1, 10), (b,)) is None  # survived

    def test_metrics_mismatch_is_a_miss_not_a_wrong_plan(self):
        """A fingerprint collision (same key, different jobs) must fall
        through to a recompute."""
        cache = PlanCache(max_entries=8)
        a = JobMetrics(job_id="a", cpu_work=1.0, t_net=1.0, m_observed=4)
        a2 = JobMetrics(job_id="a", cpu_work=9.0, t_net=1.0,
                        m_observed=4)
        cache.put(("k", 1, 10), (a,), None)
        assert cache.get(("k", 1, 10), (a2,)) is _CACHE_MISS

    def test_lru_eviction_bounds_entries(self):
        cache = PlanCache(max_entries=2)
        jobs = [JobMetrics(job_id=f"x{i}", cpu_work=1.0, t_net=1.0,
                           m_observed=4) for i in range(3)]
        for i, job in enumerate(jobs):
            cache.put((f"k{i}", 1, 10), (job,), None)
        assert cache.get(("k0", 1, 10), (jobs[0],)) is _CACHE_MISS
        assert cache.get(("k2", 1, 10), (jobs[2],)) is None

    def test_cache_disabled_by_config(self):
        scheduler = HarmonyScheduler(
            config=SchedulerConfig(plan_cache_entries=0))
        assert scheduler.plan_cache is None
        jobs = self.pool()
        plan = scheduler.schedule(jobs, 60)
        assert plan == ReferenceScheduler().schedule(jobs, 60)
        assert scheduler.last_stats.cache_hits == 0

    def test_warm_starts_engage_without_cache(self):
        """Warm starts engage on prefixes of at least
        ``_WARM_ORDER_MIN_JOBS`` jobs (1,200 jobs on 4,000 machines
        grow prefixes that long before the loop stops)."""
        scheduler = HarmonyScheduler(
            config=SchedulerConfig(plan_cache_entries=0))
        jobs = self.pool(1200)
        plan = scheduler.schedule(jobs, 4000)
        stats = scheduler.last_stats
        assert stats.warm_start_reuses > 0
        assert stats.fast_path
        assert plan == ReferenceScheduler().schedule(jobs, 4000)

    def test_short_prefixes_sort_from_scratch(self):
        scheduler = HarmonyScheduler(
            config=SchedulerConfig(plan_cache_entries=0))
        jobs = self.pool()
        assert len(jobs) < _WARM_ORDER_MIN_JOBS
        plan = scheduler.schedule(jobs, 60)
        assert scheduler.last_stats.warm_start_reuses == 0
        assert plan == ReferenceScheduler().schedule(jobs, 60)


class TestSplicePlan:
    def make_plan(self):
        """A two-group plan with a singleton first group, built through
        the scheduler's own plan assembly."""
        scheduler = HarmonyScheduler()
        jobs = make_jobs([(30.0, 0.5), (1.0, 2.0), (1.5, 1.8)])
        plan = scheduler.build_plan([[jobs[0]], [jobs[1], jobs[2]]],
                                    [4, 6], total_machines=12)
        lookup = {j.job_id: j for j in jobs}
        return scheduler, jobs, plan, lookup

    def test_identical_replacement_keeps_score_for_singleton_group(self):
        scheduler, jobs, plan, lookup = self.make_plan()
        patched = splice_plan(plan, scheduler.perf_model, 0, "j0",
                              [jobs[0]], lookup.__getitem__)
        assert patched.score == plan.score
        assert patched.total_machines == plan.total_machines

    def test_removal_without_replacement_drops_empty_group(self):
        scheduler, jobs, plan, lookup = self.make_plan()
        patched = splice_plan(plan, scheduler.perf_model, 0, "j0",
                              [], lookup.__getitem__)
        assert len(patched.groups) == len(plan.groups) - 1
        assert patched.score < plan.score  # idle machines cost
        assert list(patched.groups) == [plan.groups[1]]  # untouched

    def test_worse_replacement_lowers_score(self):
        scheduler, jobs, plan, lookup = self.make_plan()
        weak = JobMetrics(job_id="weak", cpu_work=0.01, t_net=0.01,
                          m_observed=16)
        patched = splice_plan(plan, scheduler.perf_model, 0, "j0",
                              [weak], lookup.__getitem__)
        assert patched.score < plan.score


class TestMasterPatchPath:
    def build_master(self, n_machines=24):
        sim = Simulator()
        config = SimConfig()
        cluster = Cluster(n_machines, config.machine)
        recorder = ClusterUsageRecorder(n_machines)
        master = HarmonyMaster(sim, cluster, CostModel(config.machine),
                               config, RandomStreams(config.seed),
                               recorder)
        return master

    def feed(self, master, job_id, t_cpu, t_net):
        master.profiler.record_iteration(job_id, t_cpu, t_net, 4)

    def test_patch_accepts_similar_and_rejects_weak_replacement(self):
        from repro.workloads.apps import DATASETS, JobSpec, LDA

        master = self.build_master()
        jobs = [JobSpec(f"j{i}", LDA, DATASETS["LDA"][0], iterations=3)
                for i in range(3)]
        for spec in jobs:
            master.submit(spec)
        # Survivors are net-bound; the departed job was the CPU anchor,
        # so replacing it with a trivial job tanks CPU utilization.
        self.feed(master, "j0", 0.2, 1.0)
        self.feed(master, "j1", 0.2, 1.0)
        self.feed(master, "j2", 5.0, 1.0)
        group = next(g for g in master.groups.values()
                     if any(j.job_id == "j0" for j in g.jobs()))
        target = master.profiler.get("j2")

        twin = JobMetrics(job_id="twin", cpu_work=target.cpu_work,
                          t_net=target.t_net,
                          m_observed=target.m_observed)
        assert master._patch_accepts(group, target, [twin],
                                     kind="similar")

        weak = JobMetrics(job_id="weak", cpu_work=1e-6, t_net=1e-6,
                          m_observed=target.m_observed)
        assert not master._patch_accepts(group, target, [weak],
                                         kind="similar")

    def test_profiler_publish_clears_master_estimate_cache(self):
        from repro.workloads.apps import DATASETS, JobSpec, LDA

        master = self.build_master()
        master.submit(JobSpec("j0", LDA, DATASETS["LDA"][0],
                              iterations=3))
        self.feed(master, "j0", 2.0, 1.0)
        group = next(iter(master.groups.values()))
        first = master._group_estimate(group)
        assert master._group_estimate(group) is first  # memoized
        assert master.estimate_cache_hits == 1
        self.feed(master, "j0", 4.0, 1.0)  # publish clears the memo
        refreshed = master._group_estimate(group)
        assert refreshed is not first
        assert refreshed.t_cpu_sum > first.t_cpu_sum

    def test_profiler_publish_invalidates_scheduler_plan_cache(self):
        from repro.workloads.apps import DATASETS, JobSpec, LDA

        master = self.build_master()
        master.submit(JobSpec("j0", LDA, DATASETS["LDA"][0],
                              iterations=3))
        cache = master.scheduler.plan_cache
        job = JobMetrics(job_id="j0", cpu_work=1.0, t_net=1.0,
                         m_observed=4)
        cache.put(("k", 1, 24), (job,), None)
        self.feed(master, "j0", 2.0, 1.0)
        assert cache.get(("k", 1, 24), (job,)) is _CACHE_MISS
