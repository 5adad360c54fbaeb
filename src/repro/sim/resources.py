"""Rate-based shared resources.

All resource contention in the simulated cluster is expressed through
:class:`RateResource`: tasks carry an amount of *work* (seconds of
service at rate 1.0) and a :data:`RatePolicy` decides, from a task's
position in the FIFO queue, at what rate it is currently served.

Three policies cover every resource in the paper:

* :func:`serial` — one task at a time.  Models the CPU of a machine /
  job group: "a single CPU subtask is executed at a time as a single
  CPU subtask usually uses almost all of the provided CPU resources"
  (§IV-A).
* :func:`primary_secondary` — full rate for the head-of-line task plus a
  reduced-rate secondary.  Models the network: "we schedule a secondary
  network subtask, while yielding the network resources to the primary
  network subtask whenever a contention occurs" (§IV-A).
* :func:`processor_sharing` — equal sharing among all active tasks, with
  an optional interference penalty.  Models the *naive co-location*
  baseline (uncoordinated contention) and shared disk bandwidth.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.errors import ResourceError
from repro.sim.events import Event
from repro.sim.simulator import Simulator

_EPSILON = 1e-9

#: Maps the number of queued tasks to per-position service rates.
#: Positions beyond the returned sequence receive rate 0 (waiting).
RatePolicy = Callable[[int], Sequence[float]]


def serial() -> RatePolicy:
    """Only the head-of-line task runs, at full rate."""
    def policy(n_active: int) -> Sequence[float]:
        return (1.0,)
    return policy


def primary_secondary(secondary_rate: float = 0.4) -> RatePolicy:
    """Head-of-line task at full rate; the next task at a reduced rate.

    ``secondary_rate`` is the fraction of the resource the secondary
    task scavenges from the primary's idle gaps.
    """
    if not 0.0 <= secondary_rate <= 1.0:
        raise ResourceError(f"secondary_rate {secondary_rate} not in [0,1]")

    def policy(n_active: int) -> Sequence[float]:
        return (1.0, secondary_rate)
    return policy


def processor_sharing(interference: float = 0.0,
                      max_concurrent: int | None = None) -> RatePolicy:
    """All (or the first ``max_concurrent``) tasks share the resource.

    With ``k`` concurrent tasks each receives ``eff(k) / k`` where
    ``eff(k) = 1 / (1 + interference * (k - 1))`` — i.e. total delivered
    throughput *degrades* with concurrency.  ``interference=0`` is ideal
    processor sharing.
    """
    if interference < 0:
        raise ResourceError(f"interference {interference} must be >= 0")

    def policy(n_active: int) -> Sequence[float]:
        k = n_active if max_concurrent is None else min(n_active,
                                                        max_concurrent)
        if k <= 0:
            return ()
        efficiency = 1.0 / (1.0 + interference * (k - 1))
        return (efficiency / k,) * k
    return policy


@dataclass(slots=True)
class ServiceRecord:
    """Completion record delivered as the value of a task's event."""

    submitted_at: float
    started_at: float
    finished_at: float
    work: float

    @property
    def wait_time(self) -> float:
        """Time spent queued before receiving any service."""
        return self.started_at - self.submitted_at

    @property
    def total_time(self) -> float:
        return self.finished_at - self.submitted_at


@dataclass(slots=True)
class _Task:
    work_remaining: float
    work_total: float
    event: Event
    tag: str | None
    submitted_at: float
    started_at: float | None = None
    served: float = 0.0


@dataclass
class BusySegment:
    """A constant-utilization interval of the resource."""

    start: float
    end: float
    level: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ResourceAudit:
    """Work-conservation snapshot of one resource (repro.check).

    Taken by :meth:`RateResource.audit`; the invariant checker asserts
    ``work_served == work_submitted - work_discarded - queued_work``
    (no service is ever lost or invented) and bounds ``busy_seconds``
    by the served work.
    """

    name: str
    at: float
    busy_seconds: float
    work_submitted: float
    work_served: float
    work_discarded: float
    queued_work: float
    queue_length: int


class RateResource:
    """A shared resource serving FIFO-ordered tasks at policy rates."""

    def __init__(self, sim: Simulator, policy: RatePolicy, name: str = "",
                 record_segments: bool = True,
                 trace_gauge: str | None = None):
        self.sim = sim
        self.name = name
        # Event name shared by every task of this resource; building it
        # once keeps the per-submit cost to an attribute load.
        self._task_name = f"{name}:task"
        self._policy = policy
        self._tasks: list[_Task] = []
        self._last_update = sim.now
        self._wake_generation = 0
        #: Handle of the queued wake-up (event-driven mode), so a
        #: superseded or purged wake is retracted instead of left to
        #: rot in the event queue.
        self._wake_handle = None
        #: Fast-path mode (:mod:`repro.sim.fastpath`): wake-ups are not
        #: queued; their exact fire time is parked here for
        #: :meth:`drain` to warp to.
        self._autodrain = False
        self._pending_wake_at: float | None = None
        # Per-queue-length (rates, level, active indices) memo: the one
        # rate definition every path reads (see _rates_for).
        self._rates_cache: dict[
            int, tuple[tuple[float, ...], float, tuple[int, ...]]] = {}
        self._record_segments = record_segments
        # Observability: a gauge lane sampling the delivered service
        # level at every rate change (renders as a Perfetto counter
        # track).  None unless tracing is enabled, so the simulation
        # hot path pays a single attribute check.
        self._level_gauge = (sim.tracer.gauge(trace_gauge)
                            if trace_gauge and sim.tracer.enabled
                            else None)
        self._last_level = 0.0
        #: Utilization history: one entry per constant-rate interval.
        self.segments: list[BusySegment] = []
        # Segments below this index are sealed: close_segments() has
        # published them (exporters/recorders take shallow copies), so
        # _append_segment must never extend them in place.
        self._segment_seal = 0
        #: Aggregate ``∫ level dt`` — busy seconds, capped at capacity.
        self.busy_seconds = 0.0
        #: Service seconds attributed per tag (e.g. per job id).
        self.served_by_tag: dict[str, float] = {}
        #: Work-conservation ledger (see :class:`ResourceAudit`).
        self.work_submitted = 0.0
        self.work_served = 0.0
        self.work_discarded = 0.0

    # -- public API ----------------------------------------------------

    @property
    def queue_length(self) -> int:
        return len(self._tasks)

    def submit(self, work: float, tag: str | None = None) -> Event:
        """Enqueue ``work`` seconds of service; returns a completion event.

        The event value is a :class:`ServiceRecord`.
        """
        if work < 0:
            raise ResourceError(f"negative work {work} on {self.name!r}")
        sim = self.sim
        # _advance at an unchanged clock only rewrites _last_update with
        # the same value; skipping the call entirely is exact.
        if sim._now != self._last_update:
            self._advance()
        event = Event(sim, self._task_name)
        task = _Task(work_remaining=max(work, 0.0), work_total=work,
                     event=event, tag=tag, submitted_at=sim._now)
        self.work_submitted += task.work_remaining
        self._tasks.append(task)
        # Zero-work tasks are popped as already-finished by the
        # rescheduling pass below.
        self._reschedule()
        return event

    def cancel(self, event: Event) -> bool:
        """Remove a pending task identified by its completion event.

        Returns True if the task was found and removed.  The event is
        *not* triggered; the caller owns it.
        """
        self._advance()
        for index, task in enumerate(self._tasks):
            if task.event is event:
                self.work_discarded += max(task.work_remaining, 0.0)
                del self._tasks[index]
                self._reschedule()
                return True
        return False

    def purge(self) -> float:
        """Drop every queued task without completing it.

        Used when a group crashes: its processes are killed, so their
        pending resource tasks must not keep receiving service.  The
        abandoned work is booked as discarded; the tasks' events are not
        triggered.  Returns the total work dropped.
        """
        self._advance()
        dropped = sum(max(t.work_remaining, 0.0) for t in self._tasks)
        self._tasks.clear()
        self.work_discarded += dropped
        # Invalidate any scheduled wake-up for the old queue.  The
        # generation bump alone would neutralize a stale wake, but the
        # dead queue entry would still be popped later — retract it so
        # a fault firing exactly on a step boundary leaves no trace.
        self._wake_generation += 1
        self.sim.cancel(self._wake_handle)
        self._wake_handle = None
        self._pending_wake_at = None
        if self._level_gauge is not None:
            self._sample_level()
        return dropped

    def audit(self) -> ResourceAudit:
        """Snapshot the work-conservation ledger as of ``sim.now``."""
        self._advance()
        return ResourceAudit(
            name=self.name,
            at=self.sim.now,
            busy_seconds=self.busy_seconds,
            work_submitted=self.work_submitted,
            work_served=self.work_served,
            work_discarded=self.work_discarded,
            queued_work=sum(max(t.work_remaining, 0.0)
                            for t in self._tasks),
            queue_length=len(self._tasks))

    def current_rates(self) -> list[float]:
        """Service rates per queued task, in queue order (0 = waiting)."""
        return list(self._rates_for(len(self._tasks))[0])

    def close_segments(self) -> None:
        """Flush the in-progress utilization segment up to ``sim.now``.

        Idempotent, and safe to call from multiple consumers (checker +
        exporter): the flushed segments are *sealed*, so later service
        starts a fresh :class:`BusySegment` instead of mutating a
        segment a caller may have already copied by reference.
        """
        self._advance()
        self._segment_seal = len(self.segments)

    # -- internals -----------------------------------------------------

    def _advance(self) -> None:
        """Account for service delivered since the last update."""
        now = self.sim._now
        last_update = self._last_update
        dt = now - last_update
        if dt <= _EPSILON:
            self._last_update = now
            return
        tasks = self._tasks
        n = len(tasks)
        rates, level, active = (self._rates_cache.get(n)
                                or self._rates_for(n))
        if level > _EPSILON:
            self.busy_seconds += level * dt
            if self._record_segments:
                self._append_segment(last_update, now, level)
        served_by_tag = self.served_by_tag
        for index in active:
            task = tasks[index]
            if task.started_at is None:
                task.started_at = last_update
            delivered = min(task.work_remaining, rates[index] * dt)
            task.work_remaining -= delivered
            task.served += delivered
            self.work_served += delivered
            tag = task.tag
            if tag is not None:
                served_by_tag[tag] = served_by_tag.get(tag, 0.0) + delivered
        self._last_update = now

    def _append_segment(self, start: float, end: float, level: float) -> None:
        if end - start <= 0.0:
            # A zero-duration segment (a fault or seal landing exactly
            # on a step boundary) carries no service; recording it
            # would double-count the boundary instant in the
            # conservation ledger once a later segment merges onto it.
            return
        if len(self.segments) > self._segment_seal:
            last = self.segments[-1]
            if (abs(last.end - start) <= _EPSILON
                    and abs(last.level - level) <= 1e-6):
                last.end = end
                return
        self.segments.append(BusySegment(start, end, level))

    def _reschedule(self) -> None:
        """Recompute the next completion and schedule a wake-up."""
        # Supersede the previously queued wake instead of leaving a
        # dead entry behind: the generation guard would ignore it, but
        # stale entries cost queue traffic and would block fast-path
        # clock warps across their fire times.
        if self._wake_handle is not None:
            self._wake_handle.cancelled = True  # sim.cancel()
            self._wake_handle = None
        self._pending_wake_at = None
        self._wake_generation += 1
        generation = self._wake_generation
        # Pop any tasks that are already done (zero-work or finished
        # exactly at the current instant).
        self._pop_finished()
        if self._level_gauge is not None:
            self._sample_level()
        if not self._tasks:
            return
        horizon = self._next_horizon()
        if horizon is None:
            return  # everything is waiting (policy starves the queue)
        when = self.sim._now + max(horizon, 0.0)
        if self._autodrain:
            # Solo lane: the owning batch will drain() synchronously.
            # Park the exact fire time the event-driven engine would
            # have used, so the warped timeline stays bitwise equal.
            self._pending_wake_at = when
            return
        self._wake_handle = self.sim.call_at(
            when, lambda: self._on_wake(generation), cancellable=True)

    def _next_horizon(self) -> float | None:
        """Seconds until the earliest queued completion (None if
        nothing is receiving service)."""
        tasks = self._tasks
        n = len(tasks)
        rates, _level, active = (self._rates_cache.get(n)
                                 or self._rates_for(n))
        horizon = None
        for index in active:
            eta = tasks[index].work_remaining / rates[index]
            if horizon is None or eta < horizon:
                horizon = eta
        return horizon

    # -- fast path (repro.sim.fastpath) --------------------------------

    def set_autodrain(self, enabled: bool) -> None:
        """Enter/leave fast-path mode.  Entering keeps an already
        queued wake-up where it is (:meth:`drain` absorbs it); leaving
        must go through :meth:`rearm` instead, which re-queues the
        parked wake."""
        self._autodrain = enabled

    def drain(self) -> None:
        """Serve the queue to completion by warping the clock.

        Replays exactly the wake-cycle float operations of the
        event-driven path — advance, pop, gauge sample, next horizon —
        in the same order, without queue round-trips.  Only a fast-path
        batch that owns the simulator clock may call this.
        """
        if self._wake_handle is not None:
            # A wake queued before the batch opened (e.g. a background
            # reload already in flight): absorb it at its exact time.
            self._pending_wake_at = self._wake_handle.when
            self.sim.cancel(self._wake_handle)
            self._wake_handle = None
        while self._tasks:
            when = self._pending_wake_at
            if when is None:
                return  # starved queue: nothing will ever complete
            self.sim.warp(when)
            self._advance()
            self._reschedule()

    def serve_solo(self, work: float, tag: str) -> ServiceRecord:
        """Fused submit + drain for an empty autodrained resource.

        The fast path's hot loop: one subtask on an otherwise idle
        resource, served to completion in closed form, returning the
        :class:`ServiceRecord` directly — no :class:`Event`, no
        generator round-trip.  Performs the *identical float operations
        in the identical order* as ``submit()`` followed by ``drain()``
        — the ledger updates, segment merges, and the completion record
        are bitwise equal (the differential suite pins the
        equivalence).  Falls back to the generic pair whenever any
        precondition is off.
        """
        rates, level, _active = (self._rates_cache.get(1)
                                 or self._rates_for(1))
        head_rate = rates[0]
        if (not self._autodrain or self._tasks or work <= _EPSILON
                or head_rate <= _EPSILON
                or self._level_gauge is not None):
            event = self.submit(work, tag=tag)
            self.drain()
            if not event.triggered:
                raise ResourceError(
                    f"fast path starved on {self.name!r}: the policy "
                    f"serves the queue head at rate 0")
            return event.value
        sim = self.sim
        now = sim._now
        # submit(): an idle resource's _advance only moves the cursor
        # (no tasks -> level 0, nothing served).
        last = now
        self.work_submitted += work
        generation = self._wake_generation + 1
        remaining = work
        started: float | None = None
        served_by_tag = self.served_by_tag
        record_segments = self._record_segments
        # drain(): each cycle jumps to the closed-form completion
        # horizon and replays the reference wake's arithmetic.
        while True:
            when = last + max(remaining / head_rate, 0.0)
            dt = when - last
            if dt > _EPSILON:
                if level > _EPSILON:
                    self.busy_seconds += level * dt
                    if record_segments:
                        # _append_segment inlined (dt > 0 already rules
                        # out the zero-duration guard): merge onto an
                        # unsealed contiguous same-level segment, else
                        # start a new one.
                        segments = self.segments
                        if len(segments) > self._segment_seal:
                            prev = segments[-1]
                            if (abs(prev.end - last) <= _EPSILON
                                    and abs(prev.level - level) <= 1e-6):
                                prev.end = when
                            else:
                                segments.append(
                                    BusySegment(last, when, level))
                        else:
                            segments.append(
                                BusySegment(last, when, level))
                if started is None:
                    started = last
                delivered = min(remaining, head_rate * dt)
                remaining -= delivered
                self.work_served += delivered
                served_by_tag[tag] = (
                    served_by_tag.get(tag, 0.0) + delivered)
            last = when
            generation += 1
            if remaining <= _EPSILON:
                break
        sim._now = when
        self._last_update = when
        self._wake_generation = generation
        return ServiceRecord(
            submitted_at=now,
            started_at=started if started is not None else when,
            finished_at=when, work=work)

    def rearm(self) -> None:
        """Leave fast-path mode, re-queueing the parked wake (if any).

        Called when a solo batch closes with a task still in flight (a
        background reload crossing the batch boundary): the wake returns
        to the event queue at the exact parked time.
        """
        self._autodrain = False
        when, self._pending_wake_at = self._pending_wake_at, None
        if when is None or not self._tasks:
            return
        generation = self._wake_generation
        self._wake_handle = self.sim.call_at(
            when, lambda: self._on_wake(generation), cancellable=True)

    def _rates_for(
            self, n: int
    ) -> tuple[tuple[float, ...], float, tuple[int, ...]]:
        """(padded rates, capacity level, active indices) for a queue of
        length ``n`` — the resource's single rate definition.

        ``rates`` pads the policy's output with zeros to ``n`` entries,
        ``level`` is ``min(1.0, sum(rates))`` and ``active`` holds the
        indices whose rate exceeds ``_EPSILON``.  Policies are pure
        functions of the queue length, so the memoized tuples are
        float-identical to rebuilding them at every wake; the hot paths
        read ``_rates_cache`` first and call this only on a miss.
        """
        entry = self._rates_cache.get(n)
        if entry is None:
            base = self._policy(n)
            nb = len(base)
            rates = tuple(base[i] if i < nb else 0.0 for i in range(n))
            active = tuple(i for i, r in enumerate(rates) if r > _EPSILON)
            entry = (rates, min(1.0, sum(rates)), active)
            self._rates_cache[n] = entry
        return entry

    def _sample_level(self) -> None:
        """Record the delivered service level going forward from now."""
        level = self._rates_for(len(self._tasks))[1] if self._tasks else 0.0
        if level != self._last_level:
            self._last_level = level
            self._level_gauge.set(level)

    def _on_wake(self, generation: int) -> None:
        if generation != self._wake_generation:
            return  # superseded by a later submit/cancel/completion
        self._advance()
        self._reschedule()

    def _pop_finished(self) -> None:
        # Scan-before-allocate: most rescheduling passes pop nothing
        # (every submit, every cancel) or exactly one task (every
        # completion wake), so neither common case may build throwaway
        # lists.
        tasks = self._tasks
        first = -1
        for index, task in enumerate(tasks):
            if task.work_remaining <= _EPSILON:
                first = index
                break
        if first < 0:
            return
        for index in range(first + 1, len(tasks)):
            if tasks[index].work_remaining <= _EPSILON:
                # Multiple simultaneous completions: rebuild the queue
                # and deliver in FIFO order.
                finished = [t for t in tasks
                            if t.work_remaining <= _EPSILON]
                self._tasks = [t for t in tasks
                               if t.work_remaining > _EPSILON]
                for task in finished:
                    self._complete(task)
                return
        self._complete(tasks.pop(first))

    def _complete(self, task: _Task) -> None:
        started = task.started_at if task.started_at is not None \
            else self.sim.now
        record = ServiceRecord(submitted_at=task.submitted_at,
                               started_at=started,
                               finished_at=self.sim.now,
                               work=task.work_total)
        task.event.succeed(record)
