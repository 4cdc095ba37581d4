"""Event scheduler: a deterministic, time-ordered callback queue.

Time is kept in integer picoseconds.  Integer time makes the simulation
fully deterministic (no floating-point tie ambiguity) and is fine-
grained enough for the delays MBus cares about (node-to-node
propagation is specified as at most 10 ns).

Queue representation
--------------------
The queue is a binary heap of three-item lists ``[time, seq, fn]``.
``seq`` is a global insertion counter, unique per entry, so
:mod:`heapq`'s C list comparison orders entries by ``(time, seq)`` and
never reaches ``fn``: two entries at the same instant fire in the
order they were scheduled.  The ``fn`` slot is also the entry's state:
the callback while the entry is live, ``None`` once it was cancelled
(it is skipped when popped) or has fired.

Two kinds of entry share the heap:

* :meth:`Simulator.schedule` returns an :class:`Event`, a ``list``
  subclass that *is* its heap entry, so a cancellable handle costs no
  second object;
* a delayed :meth:`repro.sim.signals.Net.set` pushes a plain list and
  cancels it in place when a later ``set`` supersedes it.  That is the
  one place outside this module that touches ``_queue``, ``_seq``,
  ``_now`` and ``_cancelled``; it runs once per wire transition.

No counter is updated per event.  Every entry ever pushed (``_seq`` of
them) is still queued, or was popped and then either fired or, having
been cancelled, discarded (``_reaped``).  Cancelling a queued entry
counts in ``_cancelled``.  Hence::

    events_processed = _seq - len(_queue) - _reaped
    pending()        = len(_queue) - (_cancelled - _reaped)

Both are O(1) and exact at any moment: inside a callback, between
runs, and after the loop raised.

Eliding periodic events
-----------------------
A callback inside :meth:`Simulator.run` may ask :meth:`Simulator.elide`
to account for whole periods of a pattern it knows (the edge engine's
clock cycles of a transfer, whose event count per cycle depends on
whether the driven bit changes level).  The elided events are counted
as pushed and fired without touching the heap: ``_seq`` grows by
their number, so ``events_processed`` and the sequence numbers of
later entries are those of the stepped run.  A grant stops short of
the earliest queued entry, the run's ``until`` horizon and its
``max_events`` budget, so the run raises, stops and interleaves
exactly where the stepped run would.  Outside ``run()`` nothing is
elided, and :meth:`Simulator.step` fires one event.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, List, Optional

from repro.obs.state import OBS

#: Convenience time constants, all in integer picoseconds.
PS = 1
NS = 1_000
US = 1_000_000
MS = 1_000_000_000
S = 1_000_000_000_000

#: The event budget and the wall-clock deadline are checked once per
#: this many events (and at the event that exhausts the budget).
_CHECK_EVERY = 256


class SimulationError(RuntimeError):
    """Raised when the simulation cannot make progress or is misused."""


class Event(list):
    """A scheduled callback, and its own heap entry ``[time, seq, fn]``.

    Returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at`.  Cancelling is O(1): the entry's
    ``fn`` slot is cleared, the loop discards it when popped, and the
    simulator's pending count drops at once.  Cancelling an event that
    already fired (e.g. the mediator cancelling its own clock event
    while handling it) only marks the handle.
    """

    __slots__ = ("sim",)

    @property
    def time(self) -> int:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` was called, fired or not."""
        return self.sim is None

    def cancel(self) -> None:
        """Prevent this event from firing (safe to call twice)."""
        sim = self.sim
        if sim is None:
            return
        self.sim = None
        if self[2] is not None:          # still queued
            self[2] = None
            sim._cancelled += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.sim is None else ""
        return f"<Event t={self[0]}ps seq={self[1]}{state}>"


class Simulator:
    """A discrete-event simulator with integer-picosecond time.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5]
    """

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._queue: List[list] = []
        # See the module docstring: these two counts plus ``_seq`` and
        # the queue length give events_processed and pending().
        self._cancelled = 0
        self._reaped = 0
        # Set while run() loops, for elide(): the events_processed
        # past which the run raises (None outside run()), the count at
        # which the loop next checks it, and the run's horizon.
        self._limit: Optional[int] = None
        self._check_at = 0
        self._horizon: Optional[int] = None
        self._events_elided = 0

    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events that have fired.

        Events :meth:`elide` accounted for count as fired, so the
        count is the one a run that stepped every event reaches.
        """
        return self._seq - len(self._queue) - self._reaped

    @property
    def events_elided(self) -> int:
        """How many of :attr:`events_processed` :meth:`elide` accounted
        for without firing them."""
        return self._events_elided

    def schedule(self, delay: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` picoseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn)

    def schedule_at(self, time: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at an absolute time (>= now)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        event = Event((time, self._seq, fn))
        event.sim = self
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def pending(self) -> int:
        """Number of queued, non-cancelled events (O(1))."""
        return len(self._queue) - self._cancelled + self._reaped

    def step(self) -> bool:
        """Fire the next event.  Returns False if the queue is empty."""
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            fn = entry[2]
            if fn is None:
                self._reaped += 1
                continue
            entry[2] = None
            self._now = entry[0]
            fn()
            return True
        return False

    def elide(
        self,
        period: int,
        most_per_period: int,
        periods: int,
        events: Callable[[int], int],
    ) -> int:
        """Account for up to ``periods`` repeats of a periodic pattern
        without firing them, and return how many were granted, ``k``.

        The event now firing is the first of the ``events(k)`` events
        over ``[now, now + k * period)``, of which no one period fires
        more than ``most_per_period``, and one of their pushes is the
        caller's own schedule of the event at ``now + k * period``
        that follows them; the caller applies their effect in bulk.
        The grant is 0 outside :meth:`run`, and it stops short of the
        earliest queued entry, the run's ``until`` horizon and its
        ``max_events`` budget (see the module docstring).
        """
        if self._limit is None or periods <= 0:
            return 0
        now = self._now
        if self._queue:
            periods = min(periods, (self._queue[0][0] - now) // period)
        if self._horizon is not None:
            periods = min(periods, (self._horizon + 1 - now) // period)
        # The elided events move the loop's next budget check as many
        # events on; it must still come no later than the budget's
        # last event, ``_limit + 1``.  That event must fire, not be
        # elided, so that a run raises at its time.
        done = self._seq - len(self._queue) - self._reaped
        room = min(self._limit + 2 - self._check_at, self._limit + 1 - done)
        periods = min(periods, room // most_per_period)
        if periods <= 0:
            return 0
        elided = events(periods) - 1
        self._seq += elided
        self._events_elided += elided
        self._check_at += elided
        if OBS.enabled:
            OBS.metrics.inc("sim.events_elided", elided)
            OBS.metrics.inc("sim.cycles_elided", periods)
        return periods

    def run(
        self,
        until: Optional[int] = None,
        max_events: int = 50_000_000,
        wall_deadline: Optional[float] = None,
    ) -> None:
        """Run until the queue drains, or until absolute time ``until``.

        Time never moves backwards: ``until`` earlier than :attr:`now`
        fires nothing and leaves :attr:`now` where it is; otherwise the
        run ends with ``now == until``.

        ``max_events`` guards against runaway feedback loops (e.g. a
        combinational ring oscillating); hitting it raises
        :class:`SimulationError` rather than hanging the test suite.

        ``wall_deadline`` is an absolute :func:`time.perf_counter`
        instant; the loop polls it every 256 fired events and raises
        :class:`~repro.core.errors.WallClockTimeout` once passed.  The
        check is cooperative — a single long-running callback is not
        preempted — which is exactly what campaign executors need: the
        realistic hang is a simulation that keeps making progress, and
        hard preemption belongs to the process executor's worker kill.
        """
        processed, elided = self.events_processed, self._events_elided
        try:
            self._run_loop(until, max_events, wall_deadline)
        finally:
            self._limit = None
            # One guard check per run() call (not per event): the
            # scheduler's contribution to the metrics plane is the
            # event count it already maintains.
            if OBS.enabled:
                OBS.metrics.inc("sim.run_calls")
                OBS.metrics.inc(
                    "sim.events_fired",
                    self.events_processed - processed
                    - (self._events_elided - elided),
                )
                OBS.metrics.set("sim.events_processed",
                                self.events_processed)
                OBS.metrics.set("sim.now_ps", self._now)

    def _run_loop(
        self,
        until: Optional[int],
        max_events: int,
        wall_deadline: Optional[float],
    ) -> None:
        # The hot loop: one heap pop and one callback per event.  The
        # event budget and the wall clock are checked only when
        # ``fired`` reaches ``checkpoint``, so an event pays one
        # compare for both.  A check reads events_processed, which
        # counts what elide() accounted for; elide() keeps that check
        # from passing the budget's last event.
        queue = self._queue
        pop = heapq.heappop
        start = self.events_processed
        self._limit = limit = start + max_events
        self._horizon = until
        fired = 0
        checkpoint = min(max_events + 1, _CHECK_EVERY)
        self._check_at = start + checkpoint
        while queue:
            if until is not None and queue[0][0] > until:
                break
            entry = pop(queue)
            fn = entry[2]
            if fn is None:
                self._reaped += 1
                continue
            entry[2] = None
            self._now = entry[0]
            fn()
            fired += 1
            if fired >= checkpoint:
                done = self._seq - len(queue) - self._reaped
                if done > limit:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely oscillation"
                    )
                if (
                    wall_deadline is not None
                    and time.perf_counter() > wall_deadline
                ):
                    from repro.core.errors import WallClockTimeout

                    raise WallClockTimeout(
                        f"simulation exceeded its wall-clock budget "
                        f"after {done - start} events at t={self._now} ps"
                    )
                gap = min(limit + 1 - done, _CHECK_EVERY)
                checkpoint = fired + gap
                self._check_at = done + gap
        if until is not None and until > self._now:
            self._now = until

    def advance(self, delay: int) -> None:
        """Run all events in the next ``delay`` picoseconds.

        A negative ``delay`` fires nothing and leaves :attr:`now` as
        it is (see :meth:`run`).
        """
        self.run(until=self._now + delay)
