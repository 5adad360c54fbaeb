"""The simulation event loop.

:class:`Simulator` owns the virtual clock and a time-ordered callback
queue.  Everything else in the kernel (events, processes, resources) is
built from :meth:`Simulator.call_at` and :class:`~repro.sim.events.Event`.

Two execution regimes share this queue:

* the classic discrete-event regime: callbacks pop in ``(when, seq)``
  order — same-timestamp callbacks always fire in insertion order via
  the monotonic sequence tiebreak, never by object identity; and
* the fast-path regime (:mod:`repro.sim.fastpath`): a batch controller
  *warps* the clock through a window it owns and serves resource
  completions synchronously, cancelling the queue entries it absorbed
  so the loop never pops a stale wake-up behind the warped clock.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import Any

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.process import Process
from repro.trace.tracer import NULL_TRACER


class ScheduledCall:
    """Cancellation handle for one queued callback.

    Cancelled entries are skipped by :meth:`Simulator.step` without
    touching the clock, so a wake-up that a fast-path batch absorbed
    in closed form can never drag the loop backwards in time.
    """

    __slots__ = ("when", "cancelled")

    def __init__(self, when: float):
        #: Absolute fire time the entry was queued at (after clamping).
        self.when = when
        self.cancelled = False


@dataclass
class FastpathStats:
    """Engagement counters for the batched fast path.

    Every ``Simulator`` owns one (``sim.fastpath_stats``).  Tests use
    these to assert that a scenario actually took the solo lane — an
    equality test alone would pass even if the fast path silently
    never engaged.  All counters stay zero under
    ``engine="reference"``.
    """

    #: Fused solo-lane batches (one per single-job iteration window).
    solo_batches: int = 0
    #: Simulated seconds covered by solo-lane batches.
    solo_batched_seconds: float = 0.0
    #: Always zero.  They counted the multi-job drive lane, which is
    #: gone (multi-job groups run the per-event path); kept because
    #: benchmark tooling still reads them.
    drive_windows: int = 0
    wakes_served: int = 0

    @property
    def engaged(self) -> bool:
        """Whether the solo lane ever ran."""
        return self.solo_batches > 0


class Simulator:
    """A discrete-event simulator with a float-seconds clock."""

    def __init__(self, start_time: float = 0.0, tracer=None):
        self._now = float(start_time)
        self._queue: list[
            tuple[float, int, Callable[[], None],
                  ScheduledCall | None]] = []
        self._sequence = itertools.count()
        self._running = False
        #: Master switch for the batched fast path
        #: (:mod:`repro.sim.fastpath`).  Cleared for truncated runs
        #: (by :meth:`run` under ``max_events``, by the runtimes under
        #: ``max_sim_seconds`` too) or to force reference semantics.
        self.fastpath_enabled = True
        #: Engagement counters for the batched fast path; all zero
        #: under ``engine="reference"``.
        self.fastpath_stats = FastpathStats()
        #: Horizon of the current :meth:`run` call (its ``until``
        #: argument), or ``None``.  A solo batch refuses to open under
        #: a horizon it could warp past, so an ``until``-truncated run
        #: stops at exactly the same state as the reference engine.
        self.run_until: float | None = None
        #: The observability bus every kernel client reads its tracer
        #: from (:mod:`repro.trace`).  Defaults to the no-op tracer;
        #: runtimes install a live one when tracing is enabled.
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @property
    def now(self) -> float:
        """Current simulation time, in seconds."""
        return self._now

    # -- scheduling primitives ----------------------------------------

    def call_at(self, when: float, callback: Callable[[], None],
                cancellable: bool = False) -> ScheduledCall | None:
        """Run ``callback()`` at absolute time ``when``.

        With ``cancellable=True`` returns a :class:`ScheduledCall`
        accepted by :meth:`cancel`; the default returns ``None`` and
        pays nothing for the ability.
        """
        if when < self._now - 1e-9:
            raise SimulationError(
                f"cannot schedule at {when} before now={self._now}")
        when = max(when, self._now)
        handle = ScheduledCall(when) if cancellable else None
        heapq.heappush(self._queue,
                       (when, next(self._sequence), callback, handle))
        return handle

    def call_in(self, delay: float, callback: Callable[[], None],
                cancellable: bool = False) -> ScheduledCall | None:
        """Run ``callback()`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, callback,
                            cancellable=cancellable)

    def cancel(self, handle: ScheduledCall | None) -> None:
        """Retract a queued callback scheduled with ``cancellable=True``.

        Idempotent; accepts ``None`` (and already-fired handles) so
        callers can cancel unconditionally.  The dead entry is skipped
        — without moving the clock — when it reaches the top of the
        queue.
        """
        if handle is not None:
            handle.cancelled = True

    def warp(self, when: float) -> None:
        """Set the clock directly (fast-path batch replay only).

        The caller owns consistency: every queue entry it could pop
        inside the warped window must have been cancelled or absorbed,
        and the clock must be restored to the batch's opening time
        before control returns to the event loop.  ``step()``'s
        monotonicity guard still applies to whatever remains queued.
        """
        self._now = float(when)

    # -- event factories ----------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create an untriggered event bound to this simulator."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None,
                name: str = "timeout") -> Event:
        """An event that triggers ``delay`` seconds from now.

        Prefer :meth:`at` for periodic work: accumulating ``now +
        delay`` across many ticks drifts, while ``t0 + k * dt`` does
        not.
        """
        ev = Event(self, name)
        self.call_in(delay, lambda: ev.succeed(value))
        return ev

    def at(self, when: float, value: Any = None,
           name: str = "at") -> Event:
        """An event that triggers at the absolute time ``when``.

        The closed-form companion of :meth:`timeout`: the k-th tick of
        a periodic process lands bitwise on ``t0 + k * dt`` instead of
        accumulating float error step by step.
        """
        ev = Event(self, name)
        self.call_at(when, lambda: ev.succeed(value))
        return ev

    def spawn(self, generator: Generator, name: str = "process") -> Process:
        """Start a generator-based process immediately."""
        return Process(self, generator, name=name)

    # -- the loop ------------------------------------------------------

    def step(self) -> bool:
        """Execute the next scheduled callback.  Returns False if empty.

        Cancelled entries are discarded without advancing the clock.
        """
        while self._queue:
            when, _seq, callback, handle = heapq.heappop(self._queue)
            if handle is not None and handle.cancelled:
                continue
            if when < self._now - 1e-9:
                raise SimulationError("event queue went backwards in time")
            self._now = when
            callback()
            return True
        return False

    def run(self, until: float | None = None,
            max_events: int | None = None) -> float:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have executed.

        Returns the simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if max_events is not None:
            # One solo batch executes many reference callbacks, so an
            # event-count budget cannot be replicated by the batched
            # lane — switch it off before counting.
            self.fastpath_enabled = False
        self._running = True
        self.run_until = until
        try:
            executed = 0
            while True:
                when = self.peek()
                if when is None:
                    if until is not None and until > self._now:
                        self._now = until
                    break
                if max_events is not None and executed >= max_events:
                    break
                if until is not None and when > until:
                    self._now = until
                    break
                self.step()
                executed += 1
        finally:
            self._running = False
            self.run_until = None
        return self._now

    def peek(self) -> float | None:
        """Time of the next live callback, or None if the queue is empty.

        Cancelled entries at the head are dropped on the way.
        """
        queue = self._queue
        while queue:
            handle = queue[0][3]
            if handle is not None and handle.cancelled:
                heapq.heappop(queue)
                continue
            return queue[0][0]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.3f} pending={len(self._queue)}>"
