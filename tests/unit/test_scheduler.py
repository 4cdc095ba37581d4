"""Unit tests for the event scheduler."""

import time

import pytest

from repro.core.errors import WallClockTimeout
from repro.sim.scheduler import NS, Event, Simulator, SimulationError, US


class TestScheduling:
    def test_initial_time_is_zero(self):
        assert Simulator().now == 0

    def test_event_fires_at_scheduled_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(5 * NS, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5 * NS]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_insertion_order(self):
        sim = Simulator()
        order = []
        for name in "abcde":
            sim.schedule(7, lambda n=name: order.append(n))
        sim.run()
        assert order == list("abcde")

    def test_zero_delay_event_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(0, lambda: fired.append(True))
        sim.run()
        assert fired == [True]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        times = []
        sim.schedule_at(42, lambda: times.append(sim.now))
        sim.run()
        assert times == [42]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(sim.now)
            if depth:
                sim.schedule(10, lambda: chain(depth - 1))

        sim.schedule(10, lambda: chain(3))
        sim.run()
        assert seen == [10, 20, 30, 40]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, lambda: fired.append(True))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_twice_is_safe(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(10, lambda: None)
        drop = sim.schedule(20, lambda: None)
        drop.cancel()
        assert sim.pending() == 1
        sim.run()

    def test_pending_live_count_stays_consistent(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(10 * (i + 1), lambda: None)
        assert sim.pending() == 4
        sim.step()
        assert sim.pending() == 3
        sim.run()
        assert sim.pending() == 0

    def test_cancel_after_fire_does_not_corrupt_pending(self):
        # Regression: the mediator cancels its own clock event from
        # inside that event's callback; the counter must not double-
        # decrement for an already-consumed event.
        sim = Simulator()
        holder = {}
        holder["event"] = sim.schedule(10, lambda: holder["event"].cancel())
        sim.schedule(20, lambda: None)
        sim.run()
        assert sim.pending() == 0

    def test_pending_never_negative_under_self_cancel_loops(self):
        sim = Simulator()
        for _ in range(3):
            holder = {}
            holder["e"] = sim.schedule(5, lambda h=holder: h["e"].cancel())
            sim.run()
        assert sim.pending() == 0

    def test_handle_exposes_time_seq_and_cancelled(self):
        sim = Simulator()
        sim.schedule(3, lambda: None)
        event = sim.schedule_at(40, lambda: None)
        assert isinstance(event, Event)
        assert (event.time, event.seq, event.cancelled) == (40, 1, False)
        event.cancel()
        assert event.cancelled

    def test_cancel_through_handle_before_it_fires(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, lambda: fired.append("dropped"))
        sim.schedule(20, lambda: fired.append("kept"))
        assert sim.pending() == 2
        event.cancel()
        assert sim.pending() == 1           # at once, not when popped
        sim.run()
        assert fired == ["kept"]
        assert sim.events_processed == 1
        assert sim.pending() == 0

    def test_self_cancel_after_firing_marks_handle_only(self):
        sim = Simulator()
        holder = {}

        def fire():
            assert sim.events_processed == 1   # exact inside a callback
            holder["event"].cancel()
            assert sim.pending() == 1

        holder["event"] = sim.schedule(10, fire)
        sim.schedule(20, lambda: None)
        sim.run()
        assert holder["event"].cancelled
        assert sim.events_processed == 2
        assert sim.pending() == 0


class TestRunControl:
    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append("early"))
        sim.schedule(100, lambda: fired.append("late"))
        sim.run(until=50)
        assert fired == ["early"]
        assert sim.now == 50

    def test_run_until_then_resume(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, lambda: fired.append("late"))
        sim.run(until=50)
        sim.run()
        assert fired == ["late"]

    def test_advance_moves_time_even_with_no_events(self):
        sim = Simulator()
        sim.advance(3 * US)
        assert sim.now == 3 * US

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_runaway_loop_raises(self):
        sim = Simulator()

        def loop():
            sim.schedule(1, loop)

        sim.schedule(1, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=1000)

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i + 1, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def _self_rescheduling(self, sim):
        def loop():
            sim.schedule(1, loop)

        sim.schedule(1, loop)

    def test_counters_exact_after_max_events_raised(self):
        sim = Simulator()
        self._self_rescheduling(sim)
        with pytest.raises(SimulationError):
            sim.run(max_events=1000)
        # The 1001st event fired (and queued its successor) before
        # the budget check raised.
        assert sim.events_processed == 1001
        assert sim.pending() == 1
        assert sim.now == 1001

    def test_counters_exact_after_wall_clock_timeout(self):
        sim = Simulator()
        self._self_rescheduling(sim)
        with pytest.raises(WallClockTimeout):
            sim.run(wall_deadline=time.perf_counter() - 1.0)
        # The deadline is polled every 256 events.
        assert sim.events_processed == 256
        assert sim.pending() == 1
        # A later run counts on from there.
        with pytest.raises(SimulationError):
            sim.run(max_events=10)
        assert sim.events_processed == 256 + 11

    def test_run_until_with_cancelled_head(self):
        sim = Simulator()
        fired = []
        head = sim.schedule(10, lambda: fired.append("head"))
        sim.schedule(100, lambda: fired.append("late"))
        head.cancel()
        sim.run(until=50)
        assert fired == [] and sim.now == 50
        assert sim.pending() == 1 and sim.events_processed == 0
        sim.run()
        assert fired == ["late"] and sim.now == 100
        assert sim.pending() == 0 and sim.events_processed == 1

    def test_run_until_with_cancelled_head_beyond_horizon(self):
        sim = Simulator()
        sim.schedule(80, lambda: None).cancel()
        sim.schedule(90, lambda: None)
        sim.run(until=50)
        assert sim.now == 50
        assert sim.pending() == 1 and sim.events_processed == 0


class TestTimeNeverRewinds:
    """``run(until=T)`` with ``T < now`` leaves ``now`` alone, whether
    or not events are still queued (the batch tier's rule too)."""

    def test_queued_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, lambda: fired.append(100))
        sim.schedule(500, lambda: fired.append(500))
        sim.run(until=200)
        assert sim.now == 200 and fired == [100]
        sim.run(until=150)
        assert sim.now == 200
        sim.advance(-120)
        assert sim.now == 200
        assert fired == [100] and sim.pending() == 1
        sim.run()
        assert sim.now == 500 and fired == [100, 500]

    def test_empty_queue(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        assert sim.now == 100
        sim.run(until=40)
        assert sim.now == 100
        sim.advance(-60)
        assert sim.now == 100
        sim.advance(25)
        assert sim.now == 125


class Ticker:
    """A counter ticking once per ``PERIOD`` until ``stop`` ticks, by
    firing each tick or, with ``elide``, asking
    :meth:`Simulator.elide` for as many whole periods as it grants.
    An elided span ends with the tick it schedules, so the last tick,
    which schedules none, always fires."""

    PERIOD = 10
    #: The most events one period fires.
    MOST = 1

    def __init__(self, sim, stop, elide, first=1):
        self.sim = sim
        self.stop = stop
        self.elide = elide
        self.first = first
        self.count = 0
        sim.schedule(self.PERIOD, self.tick)

    def tick(self):
        granted = 0
        if self.elide and self.count + 1 >= self.first:
            granted = self.sim.elide(
                self.PERIOD, self.MOST, self.stop - self.count - 1,
                self.events,
            )
        if granted:
            self.skip(granted)
        else:
            self.step()
        if self.count < self.stop:
            self.sim.schedule((granted or 1) * self.PERIOD, self.tick)

    def events(self, periods):
        """The events of the next ``periods`` periods."""
        return periods

    def step(self):
        self.count += 1

    def skip(self, periods):
        self.count += periods

    def state(self):
        sim = self.sim
        return (self.count, sim.now, sim.events_processed, sim.pending(),
                sim._seq)


class EchoTicker(Ticker):
    """A ticker whose every third tick also fires an echo half a
    period later, so a period fires one event or two."""

    MOST = 2

    def __init__(self, sim, stop, elide, first=1):
        self.echoes = 0
        super().__init__(sim, stop, elide, first)

    def echoes_in(self, periods):
        """Echoes of the ticks from the next one, ``count + 1``, on."""
        return (self.count + periods) // 3 - self.count // 3

    def events(self, periods):
        return periods + self.echoes_in(periods)

    def step(self):
        self.count += 1
        if self.count % 3 == 0:
            self.sim.schedule(self.PERIOD // 2, self.echo)

    def skip(self, periods):
        self.echoes += self.echoes_in(periods)
        self.count += periods

    def echo(self):
        self.echoes += 1

    def state(self):
        return super().state() + (self.echoes,)


def ticker_twins(stop=1000, first=1, kind=Ticker):
    """A ticker that fires every tick and one that asks for grants
    from tick ``first`` on."""
    return [
        kind(Simulator(), stop, elide, first) for elide in (False, True)
    ]


KINDS = [Ticker, EchoTicker]


class TestElide:
    """An elided period counts as fired: every counter reads what the
    run that fires each event reads, wherever the run stops."""

    def test_elided_ticks_count_as_fired(self):
        from repro.obs import observe

        stepped, elided = ticker_twins()
        counters = []
        for ticker in (stepped, elided):
            with observe(trace=False, profile=False) as session:
                ticker.sim.run()
            counters.append(session.metrics.to_dict()["counters"])
        assert stepped.state() == elided.state()
        assert elided.sim.events_processed == 1000
        assert counters[0]["sim.events_fired"] == 1000
        assert "sim.events_elided" not in counters[0]
        # The first tick is granted 999 periods, whose other 998
        # events never fire; the last tick always fires.
        assert counters[1]["sim.events_fired"] == 2
        assert counters[1]["sim.events_elided"] == 998

    def test_a_varying_period_counts_each_event(self):
        stepped, elided = ticker_twins(kind=EchoTicker)
        for ticker in (stepped, elided):
            ticker.sim.run()
        assert stepped.state() == elided.state()
        assert elided.echoes == 333
        assert elided.sim.events_processed == 1333
        assert elided.sim.events_elided == 1331

    def test_nothing_is_elided_outside_run(self):
        sim = Simulator()
        assert sim.elide(10, 1, 100, lambda periods: periods) == 0
        ticker = Ticker(sim, 100, elide=True)
        for fired in range(1, 11):
            assert sim.step()
            assert sim.events_processed == fired == ticker.count

    @pytest.mark.parametrize("kind", KINDS)
    def test_stops_short_of_the_next_queued_entry(self, kind):
        seen = []
        for ticker in ticker_twins(kind=kind):
            sim = ticker.sim
            for at in (55, 60, 61, 999, 5_000):
                sim.schedule_at(at, lambda t=ticker: seen.append(t.state()))
            sim.run()
        assert seen[:5] == seen[5:]

    @pytest.mark.parametrize("horizons", [
        (5, 9, 10, 11, 100, 5_000, 20_000),
        (1_234, 9_990, 9_999, 10_000),
    ])
    @pytest.mark.parametrize("kind", KINDS)
    def test_stops_short_of_the_horizon(self, horizons, kind):
        stepped, elided = ticker_twins(kind=kind)
        for until in horizons:
            for ticker in (stepped, elided):
                ticker.sim.run(until=until)
            assert stepped.state() == elided.state(), until

    @pytest.mark.parametrize("max_events", [1, 2, 255, 256, 257, 700, 999])
    @pytest.mark.parametrize("kind", KINDS)
    def test_budget_trips_at_the_stepped_event(self, max_events, kind):
        outcomes = []
        for ticker in ticker_twins(kind=kind):
            with pytest.raises(SimulationError):
                ticker.sim.run(max_events=max_events)
            outcomes.append(ticker.state())
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == max_events + 1

    @pytest.mark.parametrize("max_events", [300, 700, 999])
    def test_budget_event_fires_after_a_grant_at_a_check(self, max_events):
        # The loop checks the budget after the 256th event, the first
        # tick that asks for a grant.  The grant must stop short of the
        # budget's last event, so that event fires and the run raises
        # at its time, not at the time of the tick that asked.
        outcomes = []
        for ticker in ticker_twins(first=256):
            with pytest.raises(SimulationError):
                ticker.sim.run(max_events=max_events)
            outcomes.append(ticker.state())
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == max_events + 1

    def test_a_budget_the_run_fits_is_not_tripped(self):
        for max_events in (1000, 1001):
            for ticker in ticker_twins():
                ticker.sim.run(max_events=max_events)
                assert ticker.count == 1000

    def test_metrics_count_each_grant_once(self):
        from repro.obs import observe

        _, elided = ticker_twins()
        elided.sim.schedule_at(5_005, lambda: None)
        with observe(trace=False, profile=False) as session:
            elided.sim.run()
        counters = session.metrics.to_dict()["counters"]
        # Two grants of 499 ticks: up to the entry at 5,005, then up
        # to the last tick.  Fired: the two ticks that asked, the tick
        # after the entry, the entry and the last tick.
        assert counters["sim.cycles_elided"] == 2 * 499
        assert counters["sim.events_elided"] == 2 * 498
        assert counters["sim.events_fired"] == 5
