"""The repository benchmark: paper runs timed whole, host time by layer.

Run from the repository root::

    python3 perfbench/run.py                         # every workload, interleaved
    python3 perfbench/run.py --workload fig10-harmony --seed 1 --seconds 24 --trace 0

With ``--trace 0`` one workload reports its end-to-end metrics from
untraced repetitions; with ``--trace 1`` it alternates untraced and
traced repetitions and reports the per-layer metrics of the traced
ones.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when a correctness check fails or the program's sources are
missing.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from collections.abc import Callable
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metric -> unit, in report order (BENCHMARK.json mirrors it).
END_TO_END: dict[str, str] = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
    "finished_frac": "ratio", "sim_mean_jct_s": "s", "sim_makespan_s": "s",
    "sim_cpu_util": "ratio", "plan_score": "score", "jobs_placed": "count",
}

#: Seed used when ``--seed`` is not given (the paper experiments' seed).
DEFAULT_SEED = 2021
#: Seed kept back, on every workload, for verifying a later claim only;
#: never use it while developing a change.
HELD_OUT_SEED = 7331

#: Traced repetitions must attribute all but this share of their host
#: time (by the outer timer) to program layers.
RECONCILE_SHARE = 0.10

#: Least program time between two passes of the calibration kernel in an
#: untimed gap of a repetition: the host's speed flickers within a
#: repetition, so the kernel samples it throughout.
CALIBRATION_INTERVAL_S = 1.0

#: Fewest timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 2

#: Fewest set-ups whose median is ``setup_s``: a set-up is short (about
#: 0.01 s on the simulator workloads), so the timed repetitions' own
#: set-ups are topped up with extra ones after the timed loop.
SETUP_SAMPLES = 11
#: Most host time the extra set-ups may take (``scale-churn``'s set-up
#: takes about 0.5 s).
SETUP_TOP_UP_S = 6.0

OUT_DIR = ROOT / ".perfbench_out"

clock = time.perf_counter


def _null_span(name: str):
    return nullcontext()


class Runner:
    """Repetitions of one workload at one seed, and what they measured."""

    def __init__(self, workload, seed: int, import_s: float, tracing,
                 calibrate, own_process: bool = True):
        self.workload = workload
        #: Whether this workload is all the process runs; only then is the
        #: process's peak resident memory the workload's.
        self.own_process = own_process
        self.seed = seed
        self.import_s = import_s
        self.tracing = tracing
        self.calibrate = calibrate
        self.calibration_samples: list[float] = []
        self.setup_samples: list[float] = []
        self.run_samples: list[float] = []
        #: Each set-up's time x the full speed ratio of the kernel pass
        #: run just before it.
        self.normalized_setup_samples: list[float] = []
        #: Each timed repetition's run time scaled by the speed factor of
        #: the mean kernel time sampled during it.
        self.normalized_samples: list[float] = []
        self.traced_samples: list[float] = []
        self.layer_samples: list[dict[str, float]] = []
        self.shares: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None
        self.warmup_s = 0.0
        self.last_spans: list = []

    def _setup(self, timed: bool = True):
        """The workload's set-up; timed unless the tracing wrappers are in
        place."""
        gc.collect()
        if not timed:
            return self.workload.setup(self.seed)
        kernel = self.calibrate.kernel_seconds(clock)
        started = clock()
        state = self.workload.setup(self.seed)
        elapsed = clock() - started
        self.setup_samples.append(elapsed)
        self.normalized_setup_samples.append(
            elapsed * self.calibrate.speed_factor(kernel, elasticity=1.0))
        return state

    def top_up_setups(self) -> None:
        """Extra set-ups, outside any repetition, until there are
        ``SETUP_SAMPLES``."""
        started = clock()
        while (len(self.setup_samples) < SETUP_SAMPLES
               and clock() - started < SETUP_TOP_UP_S):
            self._setup()

    def warm_up(self) -> None:
        """One untimed repetition of the workload's first instance: it
        pays for lazy imports and first calls, and its checks count."""
        started = clock()
        state = self.workload.setup(self.seed, instances=1)
        outcome = self.workload.summarize(
            state, self.workload.run(state, _null_span))
        self.warmup_s = clock() - started
        self.problems.extend(outcome.problems)

    def _check(self, outcome, kind: str) -> None:
        """Count ``outcome`` and hold it to the first repetition's: every
        repetition must reproduce it exactly."""
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        if self.reference is None:
            self.reference = outcome
        elif outcome.digest != self.reference.digest:
            self.problems.append(
                f"{kind} repetition's decisions_digest {outcome.digest} "
                f"differs from the first repetition's "
                f"{self.reference.digest}")

    def repeat(self) -> float:
        """One untraced timed repetition; returns its run time.

        The workload opens a span around each runtime or
        scheduler call it makes; here a span first runs the calibration
        kernel when ``CALIBRATION_INTERVAL_S`` has passed since the last
        pass, and the kernel's time is left out of the run time.
        """
        state = self._setup()
        gc.collect()
        paused = 0.0
        last = float("-inf")
        kernel_samples: list[float] = []

        @contextmanager
        def calibrating_span(name: str):
            nonlocal paused, last
            now = clock()
            if now - last >= CALIBRATION_INTERVAL_S:
                kernel_samples.append(self.calibrate.kernel_seconds(clock))
                last = clock()
                paused += last - now
            yield

        started = clock()
        results = self.workload.run(state, calibrating_span)
        elapsed = clock() - started - paused
        self.run_samples.append(elapsed)
        self.calibration_samples.extend(kernel_samples)
        self.normalized_samples.append(
            elapsed * self.calibrate.speed_factor(trimmed_mean(kernel_samples)))
        self._check(self.workload.summarize(state, results), "a timed")
        return elapsed

    def repeat_traced(self) -> float:
        """One traced repetition; returns its run time."""
        recorder = self.tracing.SpanRecorder(clock)
        with self.tracing.installed(recorder):
            state = self._setup(timed=False)
            gc.collect()
            recorder.active = True
            started = clock()
            with recorder.span("bench.rep"):
                results = self.workload.run(state, recorder.span)
            elapsed = clock() - started
            recorder.active = False
        self.traced_samples.append(elapsed)
        self.layer_samples.append(
            self.tracing.layer_metrics(recorder, elapsed))
        self.shares = self.tracing.layer_self_shares(recorder, elapsed)
        self.last_spans = recorder.spans
        self._check(self.workload.summarize(state, results), "a traced")
        return elapsed

    # -- results ------------------------------------------------------------

    @property
    def correct(self) -> bool:
        return not self.problems

    def end_to_end(self) -> dict[str, float]:
        metrics = {
            "setup_s": statistics.median(self.normalized_setup_samples),
            "run_s": statistics.median(self.normalized_samples),
        }
        if self.own_process:
            metrics["peak_rss_mb"] = peak_rss_mb()
        metrics.update(self.reference.metrics())
        return metrics

    def per_layer(self) -> dict[str, float]:
        metrics = {name: statistics.median(s[name] for s in self.layer_samples)
                   for name in self.layer_samples[0]}
        metrics["trace.overhead_s"] = (statistics.median(self.traced_samples)
                                       - statistics.median(self.run_samples))
        return {name: metrics[name] for name in self.tracing.LAYER_METRICS}

    def unattributed_share(self) -> float:
        return (self.per_layer()["trace.unattributed_s"]
                / statistics.median(self.traced_samples))


def trimmed_mean(samples: list[float]) -> float:
    """Mean without the lowest and highest tenth of ``samples``."""
    cut = len(samples) // 10
    kept = sorted(samples)[cut:len(samples) - cut]
    return statistics.fmean(kept)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(seconds: float, step: Callable[[], float],
               min_steps: int) -> None:
    """Call ``step`` until another step would end past ``seconds``."""
    started = clock()
    steps = 0
    while True:
        last = step()
        steps += 1
        if steps >= min_steps and clock() - started + last > seconds:
            return


# -- reporting -------------------------------------------------------------------

def describe_samples(samples: list[float]) -> str:
    """Median, count and quartiles, plus the highest percentile that
    has at least ten samples beyond it when the count allows."""
    text = f"median {statistics.median(samples):.4f} (n={len(samples)}"
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        text += f", q1 {q1:.4f}, q3 {q3:.4f}"
    top = int(100 * (1 - 10 / len(samples)))
    if top > 50:
        cut = statistics.quantiles(samples, n=100)[top - 1]
        text += f", p{top} {cut:.4f}"
    return text + ")"


def print_end_to_end(runner: Runner) -> None:
    metrics = runner.end_to_end()
    print(f"end-to-end metrics, {runner.workload.name} seed {runner.seed}:")
    for name, unit in END_TO_END.items():
        if name not in metrics:
            print(f"  {name:16s} {'n/a':>16s}  (the process ran every "
                  f"workload, so its peak is not this workload's)")
            continue
        line = f"  {name:16s} {metrics[name]:>16.6f} {unit}"
        if name == "run_s":
            line += ("  " + describe_samples(runner.normalized_samples)
                     + "; raw host s: "
                     + describe_samples(runner.run_samples))
        elif name == "setup_s":
            line += ("  " + describe_samples(runner.normalized_setup_samples)
                     + "; raw host s: "
                     + describe_samples(runner.setup_samples)
                     + f"; imports, once: {runner.import_s:.4f}")
        print(line)
    print(f"  run_s: raw host seconds x ({runner.calibrate.REFERENCE_S} s / "
          f"mean calibration kernel time during the repetition) ** "
          f"{runner.calibrate.ELASTICITY} (kernel samples: "
          f"{describe_samples(runner.calibration_samples)}); setup_s: raw "
          f"host seconds x {runner.calibrate.REFERENCE_S} s / the time of "
          f"the kernel pass just before the set-up")


def print_per_layer(runner: Runner) -> None:
    metrics = runner.per_layer()
    traced = statistics.median(runner.traced_samples)
    print(f"per-layer metrics (traced), {runner.workload.name} seed "
          f"{runner.seed}: traced run_s {traced:.4f}, untraced run_s "
          f"{statistics.median(runner.run_samples):.4f}")
    for name, unit in runner.tracing.LAYER_METRICS.items():
        print(f"  {name:28s} {metrics[name]:>16.6f} {unit}")
    shares = "  ".join(f"{layer} {share:.1%}"
                       for layer, share in runner.shares.items())
    print(f"  self-time shares of the traced run_s: {shares}")
    share = runner.unattributed_share()
    verdict = "within" if abs(share) <= RECONCILE_SHARE else "OUTSIDE"
    print(f"  reconciliation: {share:.1%} of the traced run_s is outside "
          f"every layer, {verdict} the {RECONCILE_SHARE:.0%} bound")


def write_spans(runner: Runner) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{runner.workload.name}-seed{runner.seed}.csv.gz"
    runner.tracing.write_spans(runner.last_spans, str(path))
    print(f"  spans of the last traced repetition: "
          f"{path.relative_to(ROOT)}")


def print_status(runner: Runner) -> None:
    print(f"decisions_digest {runner.workload.name} seed {runner.seed}: "
          f"{runner.reference.digest}")
    for problem in runner.problems[:20]:
        print(f"CHECK FAILED: {problem}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}})


# -- entry point ---------------------------------------------------------------

def load_program():
    """Import the benchmark's modules (and through them the program);
    returns them with the import time, or exits when the sources are
    not there."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program sources not found under {ROOT / 'src'}")
    started = clock()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import calibrate, tracing, workloads
    return workloads, tracing, calibrate, clock() - started


def run_one(args, workloads, tracing, calibrate, import_s: float) -> int:
    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, import_s, tracing, calibrate)
    runner.warm_up()
    print(f"{workload.name}: seed {args.seed}, {workload.instances} "
          f"instance(s), warm-up {runner.warmup_s:.3f} s")
    if args.trace:
        pair = 0

        def step() -> float:
            nonlocal pair
            order = ((runner.repeat, runner.repeat_traced) if pair % 2 == 0
                     else (runner.repeat_traced, runner.repeat))
            pair += 1
            return sum(rep() for rep in order)

        timed_loop(args.seconds, step, min_steps=1)
        print_status(runner)
        print_per_layer(runner)
        write_spans(runner)
        metrics = {name: (value, tracing.LAYER_METRICS[name])
                   for name, value in runner.per_layer().items()}
    else:
        timed_loop(args.seconds, runner.repeat,
                   min_steps=getattr(workload, "min_reps", MIN_REPS))
        runner.top_up_setups()
        print_status(runner)
        print_end_to_end(runner)
        metrics = {name: (value, END_TO_END[name])
                   for name, value in runner.end_to_end().items()}
    print(result_line(runner.correct, runner.attempted, runner.failed,
                      metrics))
    return 0 if runner.correct else 1


def run_all(args, workloads, tracing, calibrate, import_s: float) -> int:
    """Every workload: warm-ups, then untraced repetitions interleaved
    round-robin (so host-speed drift spreads over all of them) for
    ``--seconds`` per workload, then one traced repetition each.  The
    workloads share one process, so ``peak_rss_mb`` is left out."""
    runners = [Runner(w, args.seed, import_s, tracing, calibrate,
                      own_process=False)
               for w in workloads.WORKLOADS.values()]
    for runner in runners:
        runner.warm_up()

    def step() -> float:
        return sum(runner.repeat() for runner in runners)

    timed_loop(args.seconds * len(runners), step, min_steps=MIN_REPS)
    for runner in runners:
        runner.top_up_setups()
        runner.repeat_traced()
    metrics = {}
    for runner in runners:
        print()
        print_status(runner)
        print_end_to_end(runner)
        print_per_layer(runner)
        write_spans(runner)
        name = runner.workload.name
        for metric, value in runner.end_to_end().items():
            metrics[f"{name}.{metric}"] = (value, END_TO_END[metric])
    correct = all(runner.correct for runner in runners)
    print(result_line(correct, sum(s.attempted for s in runners),
                      sum(s.failed for s in runners), metrics))
    return 0 if correct else 1


def parse_args(argv, names) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", *names))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    workloads, tracing, calibrate, import_s = load_program()
    args = parse_args(argv, tuple(workloads.WORKLOADS))
    os.chdir(ROOT)
    run = run_all if args.workload == "all" else run_one
    return run(args, workloads, tracing, calibrate, import_s)


if __name__ == "__main__":
    sys.exit(main())
