"""Simulator engine microbenchmark: batched fast path vs reference.

Runs the same long single-job group — the *solo lane*'s shape, where
the whole job batches in closed form — once under the ``"fast"``
engine and once under ``"reference"``, and compares both wall-clock
cost and simulated outcomes.

The win must come from skipped event-loop work, not changed behaviour:
the two runs' simulated durations and iteration times are asserted
bitwise-equal by the caller (and exhaustively by
``tests/test_sim_fastpath.py``).

Used by ``benchmarks/bench_sim_engines.py`` (the CI regression gate
reads its recorded timings) and runnable standalone::

    PYTHONPATH=src python -m repro.experiments.sim_engines
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.check.oracle import deterministic_config
from repro.core.group_runtime import ExecutionMode
from repro.experiments.common import SingleGroupResult, run_single_group
from repro.workloads.generator import WorkloadGenerator

#: Long enough that per-iteration cost dominates setup; short enough
#: for the smoke-bench budget (~0.3s fast / ~1.5s reference per round).
DEFAULT_ITERATIONS = 30_000


@dataclass(frozen=True)
class EngineRun:
    """One engine's measurement."""

    engine: str
    #: Best-of-``rounds`` real seconds for the whole run.
    wall_seconds: float
    result: SingleGroupResult


@dataclass(frozen=True)
class EngineComparison:
    fast: EngineRun
    reference: EngineRun
    n_iterations: int
    n_machines: int

    @property
    def speedup(self) -> float:
        if self.fast.wall_seconds <= 0:
            return float("inf")
        return self.reference.wall_seconds / self.fast.wall_seconds

    @property
    def outcomes_equal(self) -> bool:
        """Bitwise-identical simulated behaviour across engines."""
        a, b = self.fast.result, self.reference.result
        # harmony: allow[DET006] bitwise-identical engine outcomes are the property under test
        return (a.duration_seconds == b.duration_seconds
                # harmony: allow[DET006] bitwise-identical engine outcomes are the property under test
                and a.mean_iteration_seconds == b.mean_iteration_seconds
                # harmony: allow[DET006] bitwise-identical engine outcomes are the property under test
                and a.per_job_cycle_seconds == b.per_job_cycle_seconds)


def run(iterations: int = DEFAULT_ITERATIONS, m: int = 4,
        seed: int = 7, rounds: int = 2) -> EngineComparison:
    """Measure both engines on one long isolated single-job group."""
    pool = WorkloadGenerator(seed).base_workload(hyper_params_per_pair=1)
    spec = replace(pool[0], iterations=iterations, submit_time=0.0)
    config = deterministic_config(seed)
    runs: dict[str, EngineRun] = {}
    for engine in ("fast", "reference"):
        cfg = config.with_engine(engine)
        best = float("inf")
        result = None
        for _ in range(max(1, rounds)):
            # harmony: allow[DET001] wall_seconds measures real runtime, never simulation state
            t0 = time.perf_counter()
            result = run_single_group([spec], m,
                                      mode=ExecutionMode.ISOLATED,
                                      config=cfg)
            # harmony: allow[DET001] wall_seconds measures real runtime, never simulation state
            best = min(best, time.perf_counter() - t0)
        runs[engine] = EngineRun(engine=engine, wall_seconds=best,
                                 result=result)
    return EngineComparison(fast=runs["fast"],
                            reference=runs["reference"],
                            n_iterations=iterations, n_machines=m)


def report(comparison: EngineComparison) -> str:
    lines = [
        f"simulator engines, 1 job x "
        f"{comparison.n_iterations} iterations on "
        f"{comparison.n_machines} machines:",
        f"  fast:      {comparison.fast.wall_seconds:7.3f}s wall",
        f"  reference: {comparison.reference.wall_seconds:7.3f}s wall",
        f"  speedup:   {comparison.speedup:7.2f}x",
        f"  simulated outcomes bitwise equal: "
        f"{comparison.outcomes_equal}",
    ]
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(report(run()))
