"""Fig. 10 Harmony run — default scheduler vs frozen reference, whole run.

One full-scale Fig. 10 instance (80 jobs / 100 machines) runs through
:class:`~repro.core.runtime.HarmonyRuntime` twice: with the default
scheduler and with :class:`~repro.core.reference.ReferenceScheduler`.
The whole run is timed, not just ``schedule()``: at the paper's pool
sizes the default path has to pay for itself end to end.  Both runs
must decide identically (every job's state and finish time, the
makespan, the master's group-shape log); their host seconds land in
``extra_info`` as ``fast_seconds``/``reference_seconds``, which
``check_sched_baseline.py`` holds to the committed baseline.
"""

import time

from repro.core.reference import ReferenceScheduler
from repro.core.runtime import HarmonyRuntime
from repro.experiments.common import scaled_workload

SEED = 2021


def timed_run(jobs, machines, scheduler_factory=None):
    runtime = HarmonyRuntime(machines, jobs,
                             scheduler_factory=scheduler_factory)
    started = time.perf_counter()
    result = runtime.run()
    return time.perf_counter() - started, runtime, result


def compare():
    jobs, machines = scaled_workload(1.0, SEED)
    return (timed_run(jobs, machines),
            timed_run(jobs, machines, ReferenceScheduler))


def outcomes(result):
    return {job_id: (outcome.state, outcome.finish_time)
            for job_id, outcome in result.outcomes.items()}


def test_fig10_scheduler_whole_run(once, benchmark):
    (fast_s, fast_runtime, fast), (reference_s, reference_runtime,
                                   reference) = once(compare)
    benchmark.extra_info["fast_seconds"] = round(fast_s, 3)
    benchmark.extra_info["reference_seconds"] = round(reference_s, 3)
    benchmark.extra_info["speedup"] = round(reference_s / fast_s, 2)
    print()
    print(f"Fig. 10 Harmony run, seed {SEED}: default scheduler "
          f"{fast_s:.2f} s, reference scheduler {reference_s:.2f} s "
          f"({reference_s / fast_s:.2f}x)")

    assert outcomes(fast) == outcomes(reference)
    assert fast.makespan == reference.makespan
    assert fast_runtime.master.group_shape_log \
        == reference_runtime.master.group_shape_log
