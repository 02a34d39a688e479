"""Invariant auditor: synthetic trace streams, corruption, and live runs."""

from __future__ import annotations

import pytest

from repro.core.runner import DistributedRunner
from repro.errors import InvariantViolation
from repro.obs import InvariantAuditor, ObservabilityConfig
from repro.simulation.tracing import Trace

from ..core.test_runner import tiny_config
from ..goldens import GOLDENS


def clean_trace() -> Trace:
    """A minimal well-formed lifecycle: two workunits through one epoch."""
    t = Trace()
    t.emit(0.0, "epoch.start", epoch=1)
    for i, wu in enumerate(("wu-a", "wu-b")):
        t.emit(0.0, "sched.created", wu=wu, epoch=1, shard=i)
        t.emit(1.0, "sched.assign", wu=wu, host="h1")
        t.emit(2.0, "server.result_valid", wu=wu, host="h1")
        t.emit(2.0, "credit.grant", wu=wu, host="h1", amount=1.5)
        t.emit(2.0, "server.assimilated", wu=wu)
        t.emit(3.0, "ps.assimilated", wu=wu, service=1.0)
    t.emit(3.0, "params.publish", version=1)
    t.emit(4.0, "params.publish", version=2)
    t.emit(4.0, "epoch.end", epoch=1, accuracy=0.5)
    return t


def replayed(trace: Trace) -> InvariantAuditor:
    auditor = InvariantAuditor()
    auditor.replay(trace)
    return auditor


class TestCleanStream:
    def test_clean_trace_verifies(self):
        auditor = replayed(clean_trace())
        report = auditor.verify()
        assert report.ok
        assert report.violations == []
        assert report.records_seen == len(clean_trace())
        assert report.checks > 0
        assert report.to_dict()["ok"] is True

    def test_exhausted_workunit_is_a_valid_terminal_fate(self):
        t = clean_trace()
        t.emit(5.0, "epoch.start", epoch=2)
        t.emit(5.0, "sched.created", wu="wu-c", epoch=2, shard=0)
        t.emit(6.0, "sched.exhausted", wu="wu-c", via="timeout")
        t.emit(7.0, "epoch.end", epoch=2)
        assert replayed(t).verify().ok


class TestCorruptedStreams:
    def assert_violation(self, trace: Trace, match: str):
        auditor = replayed(trace)
        with pytest.raises(InvariantViolation, match=match):
            auditor.verify()
        assert not auditor.violations == []

    def test_double_creation(self):
        t = clean_trace()
        t.emit(9.0, "sched.created", wu="wu-a", epoch=1, shard=0)
        self.assert_violation(t, "created twice")

    def test_assignment_after_terminal(self):
        t = clean_trace()
        t.emit(9.0, "sched.assign", wu="wu-a", host="h2")
        self.assert_violation(t, "terminal state")

    def test_double_validation(self):
        t = clean_trace()
        t.emit(9.0, "server.result_valid", wu="wu-a", host="h2")
        self.assert_violation(t, "validated twice")

    def test_double_assimilation(self):
        t = clean_trace()
        t.emit(9.0, "server.assimilated", wu="wu-a")
        self.assert_violation(t, "assimilated twice")

    def test_unvalidated_assimilation(self):
        t = clean_trace()
        t.emit(9.0, "sched.created", wu="wu-x", epoch=1, shard=2)
        t.emit(9.5, "server.assimilated", wu="wu-x")
        self.assert_violation(t, "unvalidated")

    def test_credit_without_validation(self):
        t = clean_trace()
        t.emit(9.0, "sched.created", wu="wu-x", epoch=1, shard=2)
        t.emit(9.5, "credit.grant", wu="wu-x", host="h1", amount=1.0)
        self.assert_violation(t, "unvalidated")

    def test_validated_but_never_assimilated(self):
        t = clean_trace()
        t.emit(9.0, "sched.created", wu="wu-x", epoch=1, shard=2)
        t.emit(9.5, "server.result_valid", wu="wu-x", host="h1")
        t.emit(9.5, "credit.grant", wu="wu-x", host="h1", amount=1.0)
        self.assert_violation(t, "unassimilated")

    def test_version_regression(self):
        t = clean_trace()
        t.emit(9.0, "params.publish", version=1)
        self.assert_violation(t, "not monotone")

    def test_unclosed_epoch(self):
        t = clean_trace()
        t.emit(9.0, "epoch.start", epoch=2)
        self.assert_violation(t, "never ended")

    def test_overlapping_epochs(self):
        t = Trace()
        t.emit(0.0, "epoch.start", epoch=1)
        t.emit(1.0, "epoch.start", epoch=2)
        t.emit(2.0, "epoch.end", epoch=2)
        t.emit(2.0, "epoch.end", epoch=1)
        auditor = replayed(t)
        with pytest.raises(InvariantViolation):
            auditor.verify()

    def test_each_assignment_starts_at_most_one_compute(self):
        t = Trace()
        t.emit(0.0, "sched.created", wu="wu-a", epoch=1, shard=0)
        for at in (1.0, 4.0):  # assigned, started, timed out, reissued
            t.emit(at, "sched.assign", wu="wu-a", client="c1")
            t.emit(at + 1, "client.train_start", wu="wu-a", client="c1")
            t.emit(at + 2, "sched.timeout", wu="wu-a", client="c1")
        assert replayed(t).violations == []
        t.emit(8.0, "sched.assign", wu="wu-a", client="c1")
        t.emit(9.0, "client.train_start", wu="wu-a", client="c2")
        t.emit(9.0, "client.train_start", wu="wu-a", client="c1")
        t.emit(9.5, "client.train_start", wu="wu-a", client="c1")
        violations = replayed(t).violations
        assert len(violations) == 2
        assert all("without an assignment of its own" in v for v in violations)

    def test_strict_mode_raises_at_the_record(self):
        t = Trace()
        auditor = InvariantAuditor(strict=True)
        t.attach(auditor)
        t.emit(0.0, "sched.created", wu="wu-a", epoch=1, shard=0)
        with pytest.raises(InvariantViolation, match="created twice"):
            t.emit(1.0, "sched.created", wu="wu-a", epoch=1, shard=0)


class TestDispatchTable:
    """Kinds reach handlers through an explicit table, not by name-munging."""

    def test_underscore_and_dot_are_distinct_kinds(self):
        # "sched_created.x" / "sched.created_x"-style kinds used to collapse
        # onto one method name; here the look-alike of a real kind is inert.
        t = Trace()
        auditor = InvariantAuditor()
        t.attach(auditor)
        t.emit(0.0, "server.result_valid", wu="wu-a", host="h1")  # a violation
        t.emit(0.0, "server_result.valid", wu="wu-b", host="h1")  # no handler
        t.emit(0.0, "server.result.valid", wu="wu-c", host="h1")  # no handler
        assert auditor.checks == 3  # only the real kind was audited
        assert auditor._valid == {"wu-a"}
        assert auditor.kind_counts["server_result.valid"] == 1

    def test_crafted_kind_cannot_reach_other_attributes(self):
        # getattr dispatch would have called auditor._audit_boom(record).
        calls = []
        auditor = InvariantAuditor()
        auditor._audit_boom = calls.append
        t = Trace()
        t.attach(auditor)
        t.emit(0.0, "boom")
        t.emit(0.0, "audit.boom")
        assert calls == []
        assert auditor.records_seen == 2 and auditor.checks == 0

    def test_strict_failure_counts_only_the_checks_made(self):
        auditor = InvariantAuditor(strict=True)
        t = Trace()
        t.attach(auditor)
        with pytest.raises(InvariantViolation, match="unknown workunit"):
            t.emit(0.0, "sched.assign", wu="ghost", client="c1")
        assert auditor.checks == 1  # raised at the first of three checks


class TestLiveRun:
    def test_default_run_carries_a_clean_report(self):
        runner = DistributedRunner(tiny_config())
        runner.run()
        report = runner.obs.report
        assert report is not None and report.ok
        assert report.records_seen == len(runner.trace)
        assert report.checks > 100  # the auditor actually looked at things

    def test_a_unit_reissued_to_its_client_computes_once(self):
        """Transfer failures and timeouts reissue units to the client that
        timed out while a download retry of the old attempt is pending;
        the retry must not start a second compute of the new one."""
        runner = DistributedRunner(GOLDENS["attempts/reissued_downloads"].config())
        result = runner.run()
        assert result.counters["timeouts"] > 0
        assert runner.obs.report.ok

    def test_replay_matches_live_observation(self):
        runner = DistributedRunner(tiny_config())
        runner.run()
        fresh = InvariantAuditor()
        fresh.replay(runner.trace)
        report = fresh.verify(runner, require_full_coverage=True)
        assert report.ok
        assert report.records_seen == runner.obs.report.records_seen

    def test_strict_live_auditor_stays_silent_on_a_healthy_run(self):
        runner = DistributedRunner(
            tiny_config(), observability=ObservabilityConfig(strict_audit=True)
        )
        runner.run()
        assert runner.obs.report.ok
