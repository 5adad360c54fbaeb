"""Batched fast path: closed-form multi-step skips between epochs.

The per-event reference engine advances a job group one subtask
completion at a time: every PULL/COMP/PUSH queues a wake-up on the
event heap, pops it back off, and trampolines through the process
machinery — six-plus heap operations per training step.  But for a
group whose step timeline cannot interact with the rest of the cluster
(one job, dedicated machines, masters whose per-iteration hooks are
inert), every one of those wake-ups is predetermined the moment the
subtask is submitted: the completion horizon is Eq. 1's closed form
``work_remaining / rate``.

:class:`GroupBatchEngine` exploits that in one lane, the **solo
lane**.  While a batch is open, the group's resources run in
*autodrain* mode — :meth:`RateResource.serve_solo` and
:meth:`RateResource.drain` jump the clock straight to each closed-form
completion instead of round-tripping through the heap — and the
group's **real** generator code executes unchanged under the warped
clock.  Because the identical float operations run in the identical
order, the fast path is bitwise equal to the reference engine by
construction; the differential suite (``tests/test_sim_fastpath.py``)
and the ``repro.check`` invariants pin it there.

A batch covers a whole job (every training iteration plus the initial
load) and closes with a *park*: the clock is restored to the batch's
opening time, in-flight background work is re-armed onto the real
event queue, and the job's terminal hooks wait on a queue entry at the
batch's end time — so the rest of the cluster observes the job finish
exactly when, and in the same order as, the reference engine would
deliver it.

Every other group — multi-job groups, and any master whose hooks are
not inert — runs the per-event path, whose rates come from the
resource's per-queue-length memo (:meth:`RateResource._rates_for`).

Hot per-batch state is accumulated in struct-of-arrays form
(:class:`BatchStats`, :func:`ledger_view`) the way the scheduler's
``MetricsView`` is vectorized: plain numpy arrays, cheap to
append to and comparable across engines with ``np.array_equal`` (exact
— no tolerance).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.group_runtime import GroupRuntime
    from repro.sim.events import Event
    from repro.sim.resources import RateResource


class BatchStats:
    """Struct-of-arrays record of the batches an engine ran.

    One row per closed batch: open time, close time, and the number of
    training iterations the batch covered.  Kept as parallel Python
    lists while hot (appends are O(1)) and materialized to numpy on
    read, mirroring how the scheduler's ``MetricsView`` exposes its
    column store.
    """

    __slots__ = ("_opened", "_closed", "_iterations")

    def __init__(self):
        self._opened: list[float] = []
        self._closed: list[float] = []
        self._iterations: list[int] = []

    def record(self, opened: float, closed: float,
               iterations: int) -> None:
        self._opened.append(opened)
        self._closed.append(closed)
        self._iterations.append(iterations)

    @property
    def n_batches(self) -> int:
        return len(self._opened)

    @property
    def opened(self) -> np.ndarray:
        return np.asarray(self._opened, dtype=np.float64)

    @property
    def closed(self) -> np.ndarray:
        return np.asarray(self._closed, dtype=np.float64)

    @property
    def iterations(self) -> np.ndarray:
        return np.asarray(self._iterations, dtype=np.int64)

    @property
    def batched_seconds(self) -> float:
        """Total simulated time covered by closed-form skips."""
        return float(np.sum(self.closed - self.opened))


def ledger_view(resource: "RateResource") -> np.ndarray:
    """The resource's conservation ledger as one float64 vector.

    Layout: ``[busy_seconds, work_submitted, work_served,
    work_discarded]``.  Snapshots from the two engines must satisfy
    ``np.array_equal`` — bitwise, not approximate — which is what the
    differential suite asserts.
    """
    return np.array([resource.busy_seconds, resource.work_submitted,
                     resource.work_served, resource.work_discarded],
                    dtype=np.float64)


def cycles_view(cycles) -> np.ndarray:
    """A group's :class:`CycleRecord` list as an (n, 6) float64 matrix.

    Columns: finished_at, duration, t_cpu_measured, t_net_measured,
    gc_overhead, stall.  Used for vectorized cross-engine comparison.
    """
    if not cycles:
        return np.empty((0, 6), dtype=np.float64)
    return np.array([[c.finished_at, c.duration, c.t_cpu_measured,
                      c.t_net_measured, c.gc_overhead, c.stall]
                     for c in cycles], dtype=np.float64)


class GroupBatchEngine:
    """Coordinates one group's closed-form batches.

    Created by :class:`~repro.core.group_runtime.GroupRuntime` only
    when ``config.engine == "fast"`` **and** the master's hooks declare
    ``iteration_hooks_inert`` — the contract that per-iteration
    callbacks never mutate the group, pause jobs, or read cluster state
    keyed to the wall clock, so running them under a warped clock is
    indistinguishable from running them live.
    """

    __slots__ = ("group", "sim", "active", "_t_open",
                 "_iterations_at_open", "stats", "_resources")

    def __init__(self, group: "GroupRuntime"):
        self.group = group
        self.sim = group.sim
        self.active = False
        self._t_open = 0.0
        self._iterations_at_open = 0
        self.stats = BatchStats()
        self._resources = (group.cpu, group.net, group.disk)

    # -- eligibility ---------------------------------------------------

    def open(self) -> bool:
        """Open a batch if the group is isolated enough to skip ahead.

        Eligible when the master switch is on, exactly one job runs in
        the group (multi-job groups contend through shared policies, so
        their timelines interleave), no foreign work is queued on the
        group's resources, and the current ``run()`` call has no
        ``until`` horizon (a batch would warp past it).
        """
        group = self.group
        sim = self.sim
        if self.active or not sim.fastpath_enabled:
            return False
        if group.n_jobs != 1 or sim.run_until is not None:
            return False
        if (group.cpu.queue_length or group.net.queue_length
                or group.disk.queue_length):
            return False
        self._t_open = sim.now
        self._iterations_at_open = len(group.cycles)
        for resource in self._resources:
            resource.set_autodrain(True)
        self.active = True
        return True

    # -- in-batch service ----------------------------------------------

    def await_background(self, resource: "RateResource") -> None:
        """Drain a background task (the §IV-C reload) at its await site.

        The task's completion may predate the warped clock — the reload
        ran concurrently with subtasks the batch already skipped past —
        so the drain may warp *backwards* to the completion time.  The
        caller compares ``sim.now`` against its pre-await time and
        restores the later of the two, exactly reproducing the
        reference engine's ``max(await_time, completion_time)`` resume.
        """
        before = self.sim.now
        resource.drain()
        if self.sim.now < before:
            self.sim.warp(before)

    # -- teardown ------------------------------------------------------

    def close(self) -> "Event":
        """End the batch; returns the *park* event to yield on.

        Restores the clock to the batch's opening time, re-arms
        in-flight background work onto the real event queue (before the
        park, so an exact tie between a background completion and the
        job's end resolves in the reference engine's order), and parks
        the generator until the batch's end time comes around for real.
        """
        group = self.group
        sim = self.sim
        t_end = sim.now
        sim.warp(self._t_open)
        for resource in self._resources:
            resource.rearm()
        self.active = False
        self.stats.record(self._t_open, t_end,
                          len(group.cycles) - self._iterations_at_open)
        fp = sim.fastpath_stats
        fp.solo_batches += 1
        fp.solo_batched_seconds += t_end - self._t_open
        return sim.at(t_end, name=f"{group.group_id}:batch-park")
