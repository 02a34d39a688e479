"""Kind-routed trace observers, records built when read, derived drop count."""

from __future__ import annotations

import pytest

from repro.obs import InvariantAuditor, MetricsCollector, MetricsRegistry
from repro.simulation.tracing import Trace, TraceRecord


class Subscriber:
    """An observer whose handler table names the kinds it wants."""

    def __init__(self, *kinds: str) -> None:
        self._handlers = {kind: None for kind in kinds}
        self.calls: list[tuple[float, str, dict]] = []

    def on_record(self, time, kind, fields):
        self.calls.append((time, kind, fields))


class Wildcard:
    """An observer with no handler table: it sees every record."""

    def __init__(self) -> None:
        self.kinds: list[str] = []

    def on_record(self, time, kind, fields):
        self.kinds.append(kind)


class CallCounting:
    """Mixin: count the ``on_record`` calls a real observer receives."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.entered: list[str] = []

    def on_record(self, time, kind, fields):
        self.entered.append(kind)
        super().on_record(time, kind, fields)


class CountingAuditor(CallCounting, InvariantAuditor):
    pass


class CountingCollector(CallCounting, MetricsCollector):
    pass


class TestRouting:
    def test_unsubscribed_kind_reaches_no_observer_but_is_kept(self):
        trace = Trace()
        auditor = CountingAuditor()
        collector = CountingCollector(MetricsRegistry())
        trace.attach(auditor)
        trace.attach(collector)
        trace.emit(1.0, "sched.ping", client="c1")  # in neither table
        trace.emit(2.0, "sched.created", wu="a", epoch=1, shard=0)  # in both
        trace.emit(3.0, "epoch.start", epoch=1)  # in both
        trace.emit(4.0, "web.download", files=["f"], seconds=1.0)  # collector only
        assert auditor.entered == ["sched.created", "epoch.start"]
        assert collector.entered == ["sched.created", "epoch.start", "web.download"]
        # Counted and retained all the same.
        assert trace.count("sched.ping") == 1
        assert trace.last("sched.ping") == TraceRecord(1.0, "sched.ping", {"client": "c1"})
        assert auditor.kind_counts["sched.ping"] == 1
        assert auditor.records_seen == 4

    def test_observers_get_time_kind_and_the_emitted_fields(self):
        trace = Trace()
        sub = Subscriber("a.x")
        trace.attach(sub)
        trace.emit(1.5, "a.x", foo=1)
        trace.emit(2.0, "b.y", foo=2)
        assert sub.calls == [(1.5, "a.x", {"foo": 1})]
        # The ring holds the same fields dict the observer saw.
        assert next(iter(trace)).fields is sub.calls[0][2]

    def test_wildcard_and_subscribers_keep_attach_order(self):
        trace = Trace()
        order: list[str] = []

        class Named(Subscriber):
            def __init__(self, name, *kinds):
                super().__init__(*kinds)
                self.name = name

            def on_record(self, time, kind, fields):
                order.append(self.name)

        class NamedWildcard(Wildcard):
            def on_record(self, time, kind, fields):
                order.append("all")

        trace.attach(Named("first", "a.x"))
        trace.attach(NamedWildcard())
        trace.attach(Named("last", "a.x", "b.y"))
        trace.emit(0.0, "a.x")
        trace.emit(0.0, "b.y")
        trace.emit(0.0, "c.z")
        assert order == ["first", "all", "last", "all", "last", "all"]

    def test_mid_run_attach_sees_only_later_records(self):
        trace = Trace()
        trace.emit(0.0, "a.x")
        sub, everyone = Subscriber("a.x"), Wildcard()
        trace.attach(sub)
        trace.attach(everyone)
        trace.emit(1.0, "a.x")
        trace.emit(2.0, "b.y")
        assert [c[0] for c in sub.calls] == [1.0]
        assert everyone.kinds == ["a.x", "b.y"]

    def test_detached_observer_sees_nothing(self):
        trace = Trace()
        sub, everyone = Subscriber("a.x"), Wildcard()
        trace.attach(sub)
        trace.attach(everyone)
        trace.detach(sub)
        trace.detach(everyone)
        trace.emit(1.0, "a.x")
        assert sub.calls == [] and everyone.kinds == []
        assert trace.count("a.x") == 1


class TestAuditorCountsFromTheTrace:
    def test_counts_start_at_attach_and_stop_at_detach(self):
        trace = Trace()
        trace.emit(0.0, "sched.ping")
        trace.emit(0.0, "sched.created", wu="a", epoch=1, shard=0)
        auditor = InvariantAuditor()
        trace.attach(auditor)
        assert auditor.records_seen == 0 and auditor.kind_counts == {}
        trace.emit(1.0, "sched.ping")
        trace.emit(1.0, "sched.created", wu="b", epoch=1, shard=1)
        assert auditor.kind_counts == {"sched.ping": 1, "sched.created": 1}
        assert auditor.checks == 1  # only wu-b was audited
        trace.detach(auditor)
        trace.emit(2.0, "sched.ping")
        trace.emit(2.0, "sched.created", wu="c", epoch=1, shard=2)
        assert auditor.kind_counts == {"sched.ping": 1, "sched.created": 1}
        assert auditor.records_seen == 2 and auditor.checks == 1

    def test_counts_survive_the_bounded_ring(self):
        trace = Trace(max_records=2)
        auditor = InvariantAuditor()
        trace.attach(auditor)
        for i in range(5):
            trace.emit(float(i), "sched.ping")
        assert len(trace) == 2 and trace.dropped == 3
        assert auditor.kind_counts == {"sched.ping": 5}
        assert "trace.dropped" not in auditor.kind_counts


class TestDerivedDropCount:
    @pytest.mark.parametrize("max_records", [1, 2, 3, 7])
    def test_dropped_is_emitted_minus_retained(self, max_records):
        trace = Trace(max_records=max_records)
        for n in range(1, 12):
            trace.emit(float(n), "a.x" if n % 2 else "b.y", n=n)
            dropped = max(0, n - max_records)
            assert trace.dropped == trace.count("trace.dropped") == dropped
            assert len(trace) == min(n, max_records)
            assert ("trace.dropped" in trace.counters) == (dropped > 0)
            assert trace.summary("trace.") == ({"trace.dropped": dropped} if dropped else {})
            assert [r["n"] for r in trace] == list(range(max(1, n - max_records + 1), n + 1))

    def test_unbounded_trace_drops_nothing(self):
        trace = Trace()
        for i in range(50):
            trace.emit(float(i), "a.x")
        assert trace.dropped == 0 and "trace.dropped" not in trace.counters
