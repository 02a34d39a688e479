"""Trace observer hooks, the metrics collector mapping, and the profiler."""

from __future__ import annotations

from repro.core.runner import DistributedRunner
from repro.obs import MetricsCollector, MetricsRegistry, SimProfiler
from repro.simulation.engine import Simulator
from repro.simulation.tracing import Trace, TraceRecord

from ..core.test_runner import tiny_config


class Recorder:
    def __init__(self):
        self.records = []

    def on_record(self, time, kind, fields):
        self.records.append(TraceRecord(time, kind, fields))


class TestTraceObservers:
    def test_attach_sees_every_emit(self):
        trace = Trace()
        rec = Recorder()
        trace.attach(rec)
        trace.emit(1.0, "a.x", foo=1)
        trace.emit(2.0, "b.y")
        assert [r.kind for r in rec.records] == ["a.x", "b.y"]

    def test_detach_stops_delivery(self):
        trace = Trace()
        rec = Recorder()
        trace.attach(rec)
        trace.detach(rec)
        trace.emit(1.0, "a.x")
        assert rec.records == []

    def test_attach_is_idempotent(self):
        trace = Trace()
        rec = Recorder()
        trace.attach(rec)
        trace.attach(rec)
        trace.emit(1.0, "a.x")
        assert len(rec.records) == 1

    def test_summary_prefix_covers_bare_counters(self):
        """``trace.dropped`` is bumped without a record of its own;
        summary(prefix) filters it like every emitted kind."""
        trace = Trace(max_records=1)
        trace.emit(1.0, "ps.crash")
        trace.emit(2.0, "ps.adoption")
        trace.emit(3.0, "ps.adoption")
        trace.emit(4.0, "net.retry")
        assert trace.summary("ps.") == {"ps.adoption": 2, "ps.crash": 1}
        assert trace.summary("trace.") == {"trace.dropped": 3}

    def test_summary_tuple_prefix(self):
        trace = Trace()
        trace.emit(1.0, "ps.crash")
        trace.emit(2.0, "net.retry")
        trace.emit(3.0, "kv.outage")
        assert trace.summary(("ps.", "net.")) == {"net.retry": 1, "ps.crash": 1}
        assert trace.summary() == {"kv.outage": 1, "net.retry": 1, "ps.crash": 1}


class TestCollectorMapping:
    def feed(self, *events):
        registry = MetricsRegistry()
        trace = Trace()
        trace.attach(MetricsCollector(registry))
        for time, kind, fields in events:
            trace.emit(time, kind, **fields)
        return registry.snapshot()

    def test_transfer_events(self):
        snap = self.feed(
            (1.0, "web.download", {"files": ["f"], "seconds": 2.5}),
            (2.0, "web.upload", {"nbytes": 10, "seconds": 0.5}),
            (3.0, "web.xfer_fail", {"direction": "down", "reason": "stall"}),
            (4.0, "net.retry", {"client": "c1"}),
        )
        assert snap["histograms"]["transfer.download_s"]["mean"] == 2.5
        assert snap["histograms"]["transfer.upload_s"]["mean"] == 0.5
        assert snap["counters"]["transfer.failures"] == 1
        assert snap["counters"]["transfer.retries"] == 1

    def test_scheduler_and_credit_events(self):
        snap = self.feed(
            (0.0, "sched.created", {"wu": "a", "epoch": 1, "shard": 0}),
            (1.0, "sched.assign", {"wu": "a", "host": "h"}),
            (2.0, "credit.grant", {"wu": "a", "host": "h", "amount": 1.5}),
            (3.0, "credit.grant", {"wu": "b", "host": "h", "amount": 2.0}),
        )
        assert snap["counters"]["sched.workunits_created"] == 1
        assert snap["counters"]["sched.assignments"] == 1
        assert snap["counters"]["credit.grants"] == 2
        assert snap["gauges"]["credit.granted_total"]["value"] == 3.5

    def test_epoch_duration_from_bracketing(self):
        snap = self.feed(
            (10.0, "epoch.start", {"epoch": 1}),
            (25.0, "epoch.end", {"epoch": 1, "accuracy": 0.7}),
        )
        assert snap["histograms"]["epoch.duration_s"]["mean"] == 15.0
        assert snap["gauges"]["epoch.accuracy"]["value"] == 0.7

    def test_unknown_kinds_are_ignored(self):
        # Mapped counters pre-exist at zero; an unmapped kind moves nothing.
        snap = self.feed((0.0, "totally.new.kind", {"x": 1}))
        assert all(v == 0 for v in snap["counters"].values())
        assert snap["histograms"] == {} and snap["gauges"] == {}


class TestProfiler:
    def test_buckets_by_label_prefix(self):
        profiler = SimProfiler()
        profiler.run_event("web:download", lambda: None)
        profiler.run_event("web:upload", lambda: None)
        profiler.run_event("cpu", lambda: None)
        profiler.run_event("", lambda: None)
        report = profiler.report()
        assert report["total_events"] == 4
        assert report["by_label"]["web"]["events"] == 2
        assert report["by_label"]["cpu"]["events"] == 1
        assert report["by_label"]["<unlabeled>"]["events"] == 1
        assert report["total_wall_s"] >= 0.0

    def test_charges_wall_time_even_when_callback_raises(self):
        profiler = SimProfiler()

        def boom():
            raise RuntimeError("x")

        try:
            profiler.run_event("cpu", boom)
        except RuntimeError:
            pass
        assert profiler.report()["by_label"]["cpu"]["events"] == 1

    def test_engine_routes_events_through_profiler(self):
        sim = Simulator()
        profiler = SimProfiler()
        sim.profiler = profiler
        fired = []
        sim.schedule(1.0, lambda: fired.append(1), label="cpu:tick")
        sim.run()
        assert fired == [1]
        assert profiler.report()["by_label"]["cpu"]["events"] == 1

    def test_profiled_run_attributes_all_events(self):
        from repro.obs import ObservabilityConfig

        runner = DistributedRunner(
            tiny_config(), observability=ObservabilityConfig(profile=True)
        )
        runner.run()
        report = runner.obs.profiler.report()
        assert report["total_events"] > 0
        assert "cpu" in report["by_label"]
