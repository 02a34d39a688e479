"""Event queue and simulator engine tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation import EventQueue, Simulator


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        order: list[str] = []
        q.push(2.0, lambda: order.append("b"))
        q.push(1.0, lambda: order.append("a"))
        q.pop().callback()
        q.pop().callback()
        assert order == ["a", "b"]

    def test_fifo_tie_break(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None, "first")
        second = q.push(1.0, lambda: None, "second")
        assert q.pop() is first
        assert q.pop() is second

    def test_cancel_skipped_on_pop(self):
        q = EventQueue()
        a = q.push(1.0, lambda: None)
        b = q.push(2.0, lambda: None)
        a.cancel()
        assert q.pop() is b

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        a = q.push(1.0, lambda: None)
        q.push(5.0, lambda: None)
        a.cancel()
        assert q.peek_time() == 5.0

    def test_is_empty_with_only_cancelled(self):
        q = EventQueue()
        a = q.push(1.0, lambda: None)
        a.cancel()
        assert q.is_empty()

    def test_pop_due_leaves_later_events_queued(self):
        q = EventQueue()
        dead = q.push(1.0, lambda: None)
        later = q.push(5.0, lambda: None)
        dead.cancel()
        assert q.pop_due(4.0) is None  # skips the cancelled top, keeps 5.0
        assert q.live_count() == 1 and len(q) == 1
        assert q.pop_due(5.0) is later
        assert q.pop_due() is None

    def test_live_count_excludes_cancelled(self):
        q = EventQueue()
        handles = [q.push(float(i), lambda: None) for i in range(10)]
        for handle in handles[::2]:
            handle.cancel()
        assert len(q) == 10 and q.live_count() == 5
        q.pop()
        assert q.live_count() == 4

    def test_handles_define_no_ordering(self):
        # Ties are decided by the entry's sequence number, in C; a handle
        # comparison would mean two entries shared (time, seq).
        q = EventQueue()
        a, b = q.push(1.0, lambda: None), q.push(1.0, lambda: None)
        with pytest.raises(TypeError):
            a < b
        assert not hasattr(a, "seq")

    def test_nan_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(float("nan"), lambda: None)

    def test_repr_shows_state(self):
        q = EventQueue()
        h = q.push(1.5, lambda: None, "tick")
        assert "tick" in repr(h)
        h.cancel()
        assert "cancelled" in repr(h)


class TestCompaction:
    """Majority-cancelled heaps are compacted (fleet-scale: dead timeout
    entries must not grow the per-event log factor without bound)."""

    def test_compaction_shrinks_heap(self):
        q = EventQueue()
        handles = [q.push(float(i), lambda: None) for i in range(100)]
        for handle in handles[:80]:
            handle.cancel()
        assert len(q) == 100  # lazy: nothing removed yet
        q.push(200.0, lambda: None)  # trips the majority check
        assert len(q) == 21  # 20 live survivors + the new push

    def test_order_preserved_across_compaction(self):
        q = EventQueue()
        handles = [q.push(float(i), lambda: None, label=f"e{i}") for i in range(100)]
        for i, handle in enumerate(handles):
            if i % 10 != 3:  # cancel 90%
                handle.cancel()
        q.push(0.5, lambda: None, label="early")
        popped = []
        while True:
            try:
                popped.append(q.pop())
            except SimulationError:
                break
        assert [h.label for h in popped] == [
            "early", "e3", "e13", "e23", "e33", "e43",
            "e53", "e63", "e73", "e83", "e93",
        ]

    def test_small_heaps_never_compact(self):
        q = EventQueue()
        handles = [q.push(float(i), lambda: None) for i in range(20)]
        for handle in handles:
            handle.cancel()
        q.push(99.0, lambda: None)
        assert len(q) == 21  # below _COMPACT_MIN: all lazy entries remain

    def test_cancel_after_pop_does_not_skew_accounting(self):
        q = EventQueue()
        live = [q.push(float(i), lambda: None) for i in range(100)]
        fired = [q.pop() for _ in range(50)]
        for handle in fired:
            handle.cancel()  # cancelling an already-fired handle
        assert q._cancelled_count == 0
        q.push(200.0, lambda: None)
        assert len(q) == 51  # no spurious compaction, nothing lost
        del live

    def test_double_cancel_counts_once(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert q._cancelled_count == 1


class TestSimulator:
    def test_clock_advances_to_event_times(self, sim):
        times: list[float] = []
        sim.schedule(3.0, lambda: times.append(sim.now))
        sim.schedule(1.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 3.0]
        assert sim.now == 3.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_run_until_stops_clock_exactly(self, sim):
        fired: list[float] = []
        sim.schedule(10.0, lambda: fired.append(sim.now))
        sim.run(until=4.0)
        assert sim.now == 4.0
        assert fired == []
        sim.run()
        assert fired == [10.0]

    def test_run_until_advances_idle_clock(self, sim):
        sim.run(until=7.5)
        assert sim.now == 7.5

    def test_events_can_schedule_events(self, sim):
        seen: list[float] = []

        def chain(depth: int) -> None:
            seen.append(sim.now)
            if depth:
                sim.schedule(1.0, lambda: chain(depth - 1))

        sim.schedule(0.0, lambda: chain(3))
        sim.run()
        assert seen == [0.0, 1.0, 2.0, 3.0]

    def test_max_events_guard(self, sim):
        def forever() -> None:
            sim.schedule(0.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_step_returns_false_when_idle(self, sim):
        assert sim.step() is False
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True
        assert sim.events_processed == 1

    def test_cancelled_event_not_executed(self, sim):
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_pending_counts_live_only(self, sim):
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h.cancel()
        assert sim.pending() == 1

    def test_pending_tracks_compaction_and_fired_events(self, sim):
        handles = [sim.schedule(float(i), lambda: None) for i in range(200)]
        for handle in handles[:150]:
            handle.cancel()
        sim.schedule(500.0, lambda: None)  # compacts the majority-dead heap
        assert sim.pending() == 51
        sim.step()
        handles[150].cancel()  # already fired: must not count
        assert sim.pending() == 50

    def test_run_until_never_rewinds_the_clock(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.schedule(30.0, lambda: None)
        sim.run(until=20.0)
        assert sim.now == 20.0
        sim.run(until=5.0)  # next event (t=30) lies beyond an earlier until
        assert sim.now == 20.0

    def test_max_events_zero_runs_nothing(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        with pytest.raises(SimulationError):
            sim.run(max_events=0)
        assert fired == [] and sim.pending() == 1

    def test_max_events_exactly_enough_is_not_an_error(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.schedule(50.0, lambda: None)
        sim.run(until=10.0, max_events=5)  # the sixth event is not due
        assert sim.events_processed == 5 and sim.now == 10.0

    def test_reentrant_run_rejected(self, sim):
        def nested() -> None:
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()


@settings(max_examples=30, deadline=None)
@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
def test_property_events_fire_in_time_order(delays):
    sim = Simulator()
    fired: list[float] = []
    for d in delays:
        sim.schedule(d, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
