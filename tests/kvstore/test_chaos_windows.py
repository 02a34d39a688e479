"""KV-store chaos: outage windows, degraded-latency windows, TXN_ABORT."""

from __future__ import annotations

import pytest

from repro.kvstore import EventualStore, StoreLatency, StrongStore
from repro.kvstore.base import TXN_ABORT
from repro.simulation.chaos import StoreFaultWindow


@pytest.fixture
def latency() -> StoreLatency:
    return StoreLatency(base_s=1.0, per_byte_s=0.0)


def make_store(kind, sim, latency, trace=None):
    cls = EventualStore if kind == "eventual" else StrongStore
    return cls(sim, latency, name=kind, trace=trace)


@pytest.mark.parametrize("kind", ["eventual", "strong"])
class TestOutageWindows:
    def test_op_inside_outage_blocks_until_it_lifts(self, kind, sim, latency):
        store = make_store(kind, sim, latency)
        store.set_fault_windows((StoreFaultWindow(0.0, 50.0),))
        store.put_now("k", 1)
        done: list[float] = []
        store.read("k", lambda v: done.append(sim.now))
        sim.run()
        # Blocked until t=50, then the normal 1 s latency.
        assert done == [pytest.approx(51.0)]
        assert store.outage_blocked_ops == 1

    def test_op_outside_outage_unaffected(self, kind, sim, latency):
        store = make_store(kind, sim, latency)
        store.set_fault_windows((StoreFaultWindow(100.0, 50.0),))
        store.put_now("k", 1)
        done: list[float] = []
        store.read("k", lambda v: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(1.0)]
        assert store.outage_blocked_ops == 0

    def test_outage_traced(self, kind, sim, latency, trace):
        store = make_store(kind, sim, latency, trace=trace)
        store.set_fault_windows((StoreFaultWindow(0.0, 10.0),))
        store.write("k", 7)
        sim.run()
        assert trace.count("kv.outage") == 1
        assert store.get_now("k") == 7  # write still lands after the window

    def test_rmw_blocks_too(self, kind, sim, latency):
        store = make_store(kind, sim, latency)
        store.set_fault_windows((StoreFaultWindow(0.0, 20.0),))
        store.put_now("k", 10)
        done: list[float] = []
        store.read_modify_write("k", lambda v: v + 1, lambda v: done.append(sim.now))
        sim.run()
        assert store.get_now("k") == 11
        assert done and done[0] >= 20.0


@pytest.mark.parametrize("kind", ["eventual", "strong"])
class TestDegradedWindows:
    def test_latency_multiplied(self, kind, sim, latency, trace):
        store = make_store(kind, sim, latency, trace=trace)
        store.set_fault_windows((StoreFaultWindow(0.0, 100.0, latency_factor=4.0),))
        store.put_now("k", 1)
        done: list[float] = []
        store.read("k", lambda v: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(4.0)]
        assert store.degraded_ops == 1
        assert trace.count("kv.degraded") == 1

    def test_healthy_after_window(self, kind, sim, latency):
        store = make_store(kind, sim, latency)
        store.set_fault_windows((StoreFaultWindow(0.0, 2.0, latency_factor=10.0),))
        store.put_now("k", 1)
        times: list[float] = []
        store.read("k", lambda v: times.append(sim.now))  # degraded: 10 s
        sim.run()
        store.read("k", lambda v: times.append(sim.now))  # healthy again: 1 s
        sim.run()
        assert times[0] == pytest.approx(10.0)
        assert times[1] == pytest.approx(11.0)


@pytest.mark.parametrize("kind", ["eventual", "strong"])
class TestTxnAbort:
    def test_abort_writes_nothing(self, kind, sim, latency, trace):
        store = make_store(kind, sim, latency, trace=trace)
        store.put_now("k", 5)
        version = store.version("k")
        done: list[object] = []
        store.read_modify_write("k", lambda v: TXN_ABORT, done.append)
        sim.run()
        assert store.get_now("k") == 5
        assert store.version("k") == version  # no version bump
        assert done == []  # on_done never fires for an aborted transaction
        assert trace.count("kv.txn_abort") == 1

    def test_abort_then_commit_serializes(self, kind, sim, latency):
        store = make_store(kind, sim, latency)
        store.put_now("k", 0)
        store.read_modify_write("k", lambda v: TXN_ABORT)
        store.read_modify_write("k", lambda v: v + 1)
        sim.run()
        assert store.get_now("k") == 1


class TestEventualAbortAccounting:
    def test_abort_not_counted_as_lost_update(self, sim, latency):
        store = EventualStore(sim, latency, name="redis")
        store.put_now("k", 0)
        # Two overlapping transactions; the first aborts, so the second's
        # commit clobbers nothing and no lost update may be counted.
        store.read_modify_write("k", lambda v: TXN_ABORT)
        store.read_modify_write("k", lambda v: v + 1)
        sim.run()
        assert store.get_now("k") == 1
        assert store.lost_updates == 0

    def test_abort_releases_in_flight_slot(self, sim, latency):
        store = EventualStore(sim, latency, name="redis")
        store.put_now("k", 0)
        store.read_modify_write("k", lambda v: TXN_ABORT)
        sim.run()
        assert store.concurrent_transactions("k") == 0


class TestStrongAbortLocking:
    def test_abort_releases_lock(self, sim, latency):
        store = StrongStore(sim, latency, name="mysql")
        store.put_now("k", 0)
        order: list[str] = []
        store.read_modify_write("k", lambda v: (order.append("abort"), TXN_ABORT)[1])
        store.read_modify_write(
            "k", lambda v: v + 1, lambda v: order.append("commit")
        )
        sim.run()
        # The aborted transaction must release the per-key lock so the
        # queued transaction runs (a leaked lock would deadlock here).
        assert order == ["abort", "commit"]
        assert store.get_now("k") == 1
