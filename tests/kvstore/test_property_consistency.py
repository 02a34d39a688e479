"""Property tests for the consistency laws of the two stores."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import EventualStore, StoreLatency, StrongStore
from repro.simulation import Simulator


def drive(store_cls, schedule: list[float], latency_s: float) -> tuple[int, int]:
    """Issue +1 RMWs at the given times; return (final value, issued)."""
    sim = Simulator()
    store = store_cls(sim, StoreLatency(base_s=latency_s, per_byte_s=0.0))
    store.put_now("n", 0)
    for t in schedule:
        sim.schedule(t, lambda: store.read_modify_write("n", lambda v: v + 1))
    sim.run()
    return store.get_now("n"), len(schedule)


@settings(max_examples=40, deadline=None)
@given(
    times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=15),
    latency=st.floats(0.1, 5.0),
)
def test_property_strong_store_never_loses(times, latency):
    """Serializable law: every increment lands, any schedule, any latency."""
    final, issued = drive(StrongStore, times, latency)
    assert final == issued


@settings(max_examples=40, deadline=None)
@given(
    times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=15),
    latency=st.floats(0.1, 5.0),
)
def test_property_eventual_store_bounded_loss(times, latency):
    """Last-writer-wins laws: the committed count stays within [1, issued],
    and the ``lost_updates`` counter is a *conservative upper bound* on the
    truly lost effects (an effect can survive a clobber when a concurrent
    transaction snapshotted it first)."""
    sim = Simulator()
    store = EventualStore(sim, StoreLatency(base_s=latency, per_byte_s=0.0))
    store.put_now("n", 0)
    for t in times:
        sim.schedule(t, lambda: store.read_modify_write("n", lambda v: v + 1))
    sim.run()
    final = store.get_now("n")
    issued = len(times)
    assert 1 <= final <= issued
    truly_lost = issued - final
    assert store.lost_updates >= truly_lost


@settings(max_examples=30, deadline=None)
@given(count=st.integers(1, 12))
def test_property_spaced_updates_lose_nothing(count):
    """When operations never overlap (gaps > latency), even the eventual
    store behaves serializably."""
    latency = 0.5
    spaced = [i * (latency * 4 + 1.0) for i in range(count)]
    final, issued = drive(EventualStore, spaced, latency)
    assert final == issued


@settings(max_examples=25, deadline=None)
@given(burst=st.integers(2, 12))
def test_property_simultaneous_burst_keeps_exactly_one(burst):
    """All-at-once RMWs on the eventual store: last writer wins, so the
    value advances by exactly 1 and burst−1 updates are lost."""
    final, _ = drive(EventualStore, [1.0] * burst, latency_s=2.0)
    assert final == 1
