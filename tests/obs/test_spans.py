"""Causal span reconstruction: lineage integrity and critical path.

Two layers of coverage: hand-built record streams that pin the builder's
handling of each lifecycle edge (timeouts, invalid results, replication
cancels, emit-order quirks), and full seeded runs asserting the global
contracts — orphan-free lineages and a critical path whose hop durations
sum exactly to the wall clock to the last epoch boundary.
"""

from __future__ import annotations

import pytest

from repro.core import FaultConfig
from repro.core.runner import DistributedRunner
from repro.simulation.tracing import TraceRecord
from repro.obs.spans import CLIENT_HOPS, SpanStore, span_summary

from ..core.test_runner import tiny_config
from ..chaos._invariants import seeded_plan
from ..goldens import GOLDENS


def rec(time, kind, **fields):
    return TraceRecord(time, kind, fields)


def happy_path_records(wu="job:e000:s000", client="client-000"):
    """One workunit's clean ride through the whole pipeline."""
    return [
        rec(0.0, "epoch.start", epoch=0),
        rec(0.0, "sched.created", wu=wu, epoch=0, shard=0),
        rec(1.0, "sched.assign", wu=wu, client=client, attempt=0),
        rec(1.0, "web.download", files=["shard"], seconds=2.0, client=client, wu=wu),
        rec(3.0, "client.train_start", wu=wu, client=client),
        rec(53.0, "client.train_done", wu=wu, client=client),
        rec(53.0, "web.upload", nbytes=100, seconds=1.0, client=client, wu=wu),
        rec(54.0, "client.uploaded", wu=wu, client=client),
        rec(54.0, "server.result_valid", wu=wu, host=client),
        rec(60.0, "params.publish", version=1, wu=wu),
        rec(60.0, "ps.assimilated", wu=wu, epoch=0, rule="vcasgd",
            accuracy=0.5, queue_wait=1.0, service=5.0, client=client,
            base_version=0, alpha=0.8),
        rec(60.0, "server.assimilated", wu=wu, epoch=0),
        rec(60.0, "epoch.end", epoch=0, accuracy=0.5, spread=0.0),
    ]


class TestHappyPath:
    def test_complete_lineage(self):
        store = SpanStore.from_records(happy_path_records())
        lineage = store.lineage("job:e000:s000")
        assert lineage.fate == "merged"
        assert lineage.complete and not lineage.terminated
        assert [a.outcome for a in lineage.attempts] == ["success"]
        assert store.lineage_problems() == []

    def test_span_chain_names_and_bounds(self):
        store = SpanStore.from_records(happy_path_records())
        names = [s.name for s in store.lineage_spans("job:e000:s000")]
        for expected in (
            "wu.generate", "sched.dispatch", "net.download", "client.train",
            "net.upload", "server.validate", "ps.queue", "ps.service",
            "params.publish",
        ):
            assert expected in names
        train = next(s for s in store.spans if s.name == "client.train")
        assert (train.start, train.end) == (3.0, 53.0)
        # ps.queue/service reconstructed backwards from the commit record.
        queue = next(s for s in store.spans if s.name == "ps.queue")
        service = next(s for s in store.spans if s.name == "ps.service")
        assert (queue.start, queue.end) == (54.0, 55.0)
        assert (service.start, service.end) == (55.0, 60.0)

    def test_merge_staleness_joined_to_publish_version(self):
        store = SpanStore.from_records(happy_path_records())
        merge = store.lineage("job:e000:s000").merge
        assert merge["base_version"] == 0
        assert merge["version"] == 1
        assert merge["staleness"] == 1
        assert merge["alpha"] == 0.8

    def test_critical_path_tiles_the_epoch(self):
        store = SpanStore.from_records(happy_path_records())
        path = store.critical_path()
        assert path.total_s == pytest.approx(60.0, abs=1e-9)
        assert path.end_s == 60.0
        # Hops are contiguous: each starts where the previous ended.
        for before, after in zip(path.hops, path.hops[1:]):
            assert after.start == pytest.approx(before.end, abs=1e-9)
        totals = path.per_hop_totals()
        assert totals["client.train"] == pytest.approx(50.0)


class TestFailureFates:
    def test_timeout_then_success(self):
        wu, a, b = "job:e000:s000", "client-000", "client-001"
        records = [
            rec(0.0, "epoch.start", epoch=0),
            rec(0.0, "sched.created", wu=wu, epoch=0, shard=0),
            rec(0.0, "sched.assign", wu=wu, client=a, attempt=0),
            rec(300.0, "sched.timeout", wu=wu, client=a),
            rec(310.0, "sched.assign", wu=wu, client=b, attempt=1),
            rec(310.0, "web.download", files=[], seconds=1.0, client=b, wu=wu),
            rec(311.0, "client.train_start", wu=wu, client=b),
            rec(361.0, "client.train_done", wu=wu, client=b),
            rec(361.0, "web.upload", nbytes=1, seconds=1.0, client=b, wu=wu),
            rec(362.0, "client.uploaded", wu=wu, client=b),
            rec(362.0, "server.result_valid", wu=wu, host=b),
            rec(370.0, "params.publish", version=1, wu=wu),
            rec(370.0, "ps.assimilated", wu=wu, epoch=0, rule="r", accuracy=0.4,
                queue_wait=0.0, service=8.0, client=b, base_version=0),
            rec(370.0, "server.assimilated", wu=wu, epoch=0),
            rec(370.0, "epoch.end", epoch=0, accuracy=0.4, spread=0.0),
        ]
        store = SpanStore.from_records(records)
        lineage = store.lineage(wu)
        assert [x.outcome for x in lineage.attempts] == ["timeout", "success"]
        assert lineage.fate == "merged"
        assert store.lineage_problems() == []
        # The second dispatch wait starts at the timeout, not at creation.
        dispatches = [s for s in store.spans if s.name == "sched.dispatch"]
        assert dispatches[1].start == 300.0 and dispatches[1].end == 310.0

    def test_exhausted_before_timeout_emit_order(self):
        # The scheduler emits sched.exhausted BEFORE the sched.timeout of
        # the attempt that exhausted the unit; both must land.
        wu = "job:e000:s000"
        records = [
            rec(0.0, "sched.created", wu=wu, epoch=0, shard=0),
            rec(0.0, "sched.assign", wu=wu, client="c0", attempt=0),
            rec(300.0, "sched.exhausted", wu=wu, via="timeout"),
            rec(300.0, "sched.timeout", wu=wu, client="c0"),
        ]
        store = SpanStore.from_records(records)
        lineage = store.lineage(wu)
        assert lineage.fate == "exhausted:timeout"
        assert lineage.terminated
        assert [x.outcome for x in lineage.attempts] == ["timeout"]
        assert store.lineage_problems() == []

    def test_invalid_result_requeues(self):
        wu = "job:e000:s000"
        records = [
            rec(0.0, "sched.created", wu=wu, epoch=0, shard=0),
            rec(0.0, "sched.assign", wu=wu, client="c0", attempt=0),
            rec(50.0, "server.result_invalid", wu=wu, reason="nan_guard", code="non_finite"),
            rec(60.0, "sched.assign", wu=wu, client="c1", attempt=1),
            rec(100.0, "server.result_valid", wu=wu, host="c1"),
            rec(110.0, "ps.assimilated", wu=wu, epoch=0, rule="r", accuracy=0.3,
                queue_wait=0.0, service=5.0, client="c1", base_version=0),
            rec(110.0, "server.assimilated", wu=wu, epoch=0),
        ]
        store = SpanStore.from_records(records)
        lineage = store.lineage(wu)
        assert [x.outcome for x in lineage.attempts] == ["invalid", "success"]
        assert lineage.fate == "merged"
        assert store.lineage_problems() == []

    def test_replication_cancel(self):
        records = [
            rec(0.0, "sched.created", wu="w:r0", epoch=0, shard=0),
            rec(0.0, "sched.created", wu="w:r1", epoch=0, shard=0),
            rec(0.0, "sched.assign", wu="w:r0", client="c0", attempt=0),
            rec(0.0, "sched.assign", wu="w:r1", client="c1", attempt=0),
            rec(40.0, "server.result_valid", wu="w:r0", host="c0"),
            rec(41.0, "quorum.reached", logical="w", canonical="w:r0",
                replicas_seen=1),
            rec(41.0, "sched.cancelled", wu="w:r1"),
            rec(50.0, "ps.assimilated", wu="w:r0", epoch=0, rule="r",
                accuracy=0.4, queue_wait=0.0, service=5.0, client="c0",
                base_version=0),
            rec(50.0, "server.assimilated", wu="w:r0", epoch=0),
        ]
        store = SpanStore.from_records(records)
        assert store.lineage("w:r0").fate == "merged"
        loser = store.lineage("w:r1")
        assert loser.fate == "cancelled"
        assert [x.outcome for x in loser.attempts] == ["cancelled"]
        assert store.lineage_problems() == []
        # quorum wait bridges validation to the decision.
        wait = next(s for s in store.spans if s.name == "quorum.wait")
        assert (wait.start, wait.end) == (40.0, 41.0)

    def test_transfer_fault_and_backoff(self):
        wu = "job:e000:s000"
        records = [
            rec(0.0, "sched.created", wu=wu, epoch=0, shard=0),
            rec(0.0, "sched.assign", wu=wu, client="c0", attempt=0),
            rec(1.0, "web.xfer_fail", direction="down", reason="fault",
                client="c0", wu=wu),
            rec(5.0, "net.retry", client="c0", wu=wu, phase="download",
                attempt=1, reason="fault", backoff_s=10.0),
        ]
        store = SpanStore.from_records(records)
        fault = next(s for s in store.spans if s.name == "net.fault")
        assert (fault.start, fault.end) == (1.0, 5.0)
        backoff = next(s for s in store.spans if s.name == "net.backoff")
        assert (backoff.start, backoff.end) == (5.0, 15.0)

    def test_truncated_attempt_closed_honestly(self):
        records = [
            rec(0.0, "sched.created", wu="w", epoch=0, shard=0),
            rec(0.0, "sched.assign", wu="w", client="c0", attempt=0),
            rec(10.0, "client.train_start", wu="w", client="c0"),
        ]
        store = SpanStore.from_records(records)
        lineage = store.lineage("w")
        assert [x.outcome for x in lineage.attempts] == ["truncated"]
        # Fate stays open — and that IS a reported problem on a full trace.
        assert any("orphan" in p for p in store.lineage_problems())

    def test_bounded_trace_suppresses_integrity_claims(self):
        records = [rec(5.0, "sched.assign", wu="w", client="c0", attempt=0)]
        store = SpanStore.from_records(records, dropped=100)
        assert store.lineage_problems() == []


class TestKvAndMarkers:
    def test_kv_update_span_reconstructed_backwards(self):
        records = [
            rec(10.0, "kv.update", store="params", key="k", latency=3.0, lost=0),
            rec(20.0, "kv.read", store="params", key="k", latency=1.0),
        ]
        store = SpanStore.from_records(records)
        update = next(s for s in store.spans if s.name == "kv.update")
        assert (update.start, update.end) == (7.0, 10.0)
        read = next(s for s in store.spans if s.name == "kv.read")
        assert (read.start, read.end) == (20.0, 21.0)
        assert update.track == "kv:params"

    def test_unknown_kind_collected_not_fatal(self):
        store = SpanStore.from_records([rec(0.0, "totally.new_kind", x=1)])
        assert store.unhandled_kinds == {"totally.new_kind"}


class TestRealRuns:
    @pytest.fixture(scope="class")
    def clean_runner(self):
        runner = DistributedRunner(tiny_config())
        runner.run()
        return runner

    @pytest.fixture(scope="class")
    def chaos_runner(self):
        config = tiny_config(
            max_epochs=3, faults=FaultConfig(chaos=seeded_plan(2021, 800.0))
        )
        runner = DistributedRunner(config)
        runner.run()
        return runner

    def test_orphan_free_lineages(self, clean_runner, chaos_runner):
        for runner in (clean_runner, chaos_runner):
            store = SpanStore.from_trace(runner.trace)
            assert store.unhandled_kinds == set()
            assert store.lineage_problems() == []
            counts = store.lineage_counts()
            assert counts["total"] == counts["complete"] + counts["terminated"]

    def test_critical_path_sums_to_wall_clock(self, clean_runner, chaos_runner):
        for runner in (clean_runner, chaos_runner):
            store = SpanStore.from_trace(runner.trace)
            path = store.critical_path()
            wall = runner.trace.of_kind("epoch.end")[-1].time
            assert path.total_s == pytest.approx(wall, abs=1e-6)
            assert path.end_s == pytest.approx(wall, abs=1e-9)
            for before, after in zip(path.hops, path.hops[1:]):
                assert after.start == pytest.approx(before.end, abs=1e-9)

    def test_replicated_run_cancels_losing_replicas(self):
        runner = DistributedRunner(tiny_config(replicas=2, num_clients=4))
        runner.run()
        store = SpanStore.from_trace(runner.trace)
        assert store.lineage_problems() == []
        counts = store.lineage_counts()
        assert counts["fates"].get("cancelled", 0) > 0
        assert counts["complete"] > 0

    def test_straggler_attribution_covers_every_client(self, clean_runner):
        store = SpanStore.from_trace(clean_runner.trace)
        stragglers = store.client_percentiles()
        assert set(stragglers) == {"client-000", "client-001"}
        for hops in stragglers.values():
            assert "client.train" in hops
            for hop_name in hops:
                assert hop_name in CLIENT_HOPS

    def test_staleness_matches_runner_samples(self, clean_runner):
        # The span join (publish version - base version) must agree with
        # the runner's own staleness accounting, merge for merge.
        store = SpanStore.from_trace(clean_runner.trace)
        lags = [m["staleness"] for m in store.merges()]
        assert lags == list(clean_runner.staleness_samples)

    def test_staleness_of_a_reissued_unit_is_the_merged_attempts(self):
        # Units reissued to the client that timed out on them: the runner
        # reads each sample off the update the pool merged, so the lags
        # are the ones its ps.assimilated records give.
        runner = DistributedRunner(GOLDENS["attempts/reissued_downloads"].config())
        runner.run()
        lags = [m["staleness"] for m in SpanStore.from_trace(runner.trace).merges()]
        assert runner.server.scheduler.timeouts > 0
        assert sorted(runner.staleness_samples) == sorted(lags)

    def test_span_summary_payload_shape(self, chaos_runner):
        summary = span_summary(chaos_runner.trace)
        assert summary["lineage_problems"] == []
        assert summary["lineages"]["total"] > 0
        assert summary["critical_path"]["total_s"] > 0
        assert summary["critical_path"]["hop_count"] == len(
            SpanStore.from_trace(chaos_runner.trace).critical_path().hops
        )
        assert summary["staleness"]["merges"] > 0
        assert summary["dropped_records"] == 0

    def test_describe_lineage_renders(self, clean_runner):
        store = SpanStore.from_trace(clean_runner.trace)
        wu = next(iter(store.lineages))
        lines = store.describe_lineage(wu)
        assert wu in lines[0]
        assert any("client.train" in line for line in lines)
