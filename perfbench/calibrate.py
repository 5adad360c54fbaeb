"""Host-speed calibration kernel.

A small shared VM (the 2-core Xeon VM this kernel was tuned on) runs
the same code up to a third faster or slower from one minute to the
next (other tenants share its cores), in phases longer than one
benchmark run, so the median of a run's repetitions moves with the host
rather than with the program.  The kernel below is a fixed piece of
Python, independent of the program, with the program's kind of work:
frozen dataclasses rebuilt with ``dataclasses.replace``, generator
coroutines resumed with ``send`` (the simulator's processes), a heap of
timed events, dict updates, keyed sorts and small NumPy argsorts
(Algorithm 1's orderings).  The benchmark samples it inside every timed
repetition, at least a second of program time apart, and leaves the
kernel's time out of the repetition's; each repetition's host time
is scaled by :func:`speed_factor` of the mean kernel time sampled
during it, so it reads in seconds of a host that runs the kernel in
``REFERENCE_S``.

Changing this file changes the unit of the normalized host times the
benchmark reports: re-measure the baseline after any edit.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
from collections.abc import Generator

import numpy as np

#: Kernel time on the reference host (2-core Xeon VM, Python 3.11).
REFERENCE_S = 0.08

#: How strongly the program's host time follows the kernel's: the slope
#: of log(repetition time) on log(mean kernel time during it), fitted
#: over 20 repetitions of the same inputs for each of ``fig10-harmony``
#: (4 instances) and ``scale-churn`` (1 instance) on the reference host
#: (0.60 and 0.59).  The kernel slows down more than the program when
#: the host does, so scaling by the full kernel ratio over-corrects.
ELASTICITY = 0.6

_STEPS = 12_000


@dataclasses.dataclass(frozen=True)
class _Record:
    name: str
    start: float
    work: float
    count: int


def _process(weight: int) -> Generator[float, float, None]:
    level = 0.0
    while True:
        served = yield level
        level = level * 0.5 + served * weight


def _kernel() -> float:
    records = [_Record(f"j{i}", i * 0.5, i * 0.25, i) for i in range(400)]
    processes = [_process(i % 7 + 1) for i in range(50)]
    for process in processes:
        next(process)
    events = [(record.start % 13.0, index)
              for index, record in enumerate(records)]
    heapq.heapify(events)
    table: dict[str, tuple[float, float]] = {}
    total = 0.0
    for step in range(_STEPS):
        when, index = heapq.heappop(events)
        record = dataclasses.replace(records[index],
                                     start=records[index].start + 1.0,
                                     count=records[index].count + 1)
        records[index] = record
        total += processes[step % 50].send(record.start)
        table[record.name] = (record.start, record.work)
        if step % 50 == 0:
            ordered = sorted(records[:60],
                             key=lambda r: (r.work - r.start, r.name))
            starts = np.fromiter((r.start for r in ordered), float,
                                 count=len(ordered))
            total += ordered[0].start + float(
                np.argsort(starts, kind="stable")[0])
        heapq.heappush(events, (when + 1.0 + (step % 11) * 0.1, index))
    return total


def speed_factor(kernel_s: float, elasticity: float = ELASTICITY) -> float:
    """What to multiply a host time by, given the mean kernel time
    sampled around it, to read it on the reference host.

    A kernel pass run right beside a short piece of work sees the same
    host speed as the work, so the full ratio (``elasticity=1``) fits
    there; :data:`ELASTICITY` fits a repetition with a few kernel passes
    spread over it.
    """
    return (REFERENCE_S / kernel_s) ** elasticity


def kernel_seconds(clock=time.perf_counter) -> float:
    """Host time of one pass of the calibration kernel."""
    started = clock()
    _kernel()
    return clock() - started
