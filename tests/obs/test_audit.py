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


def verified_violations(auditor: InvariantAuditor) -> list[str]:
    with pytest.raises(InvariantViolation):
        auditor.verify()
    return auditor.violations


class TestEndOfRunLaws:
    """Each conservation law checked at verify() names its offenders."""

    def unit(self, t: Trace, wu: str, shard: int, *kinds: str) -> None:
        t.emit(0.0, "sched.created", wu=wu, epoch=1, shard=shard)
        for kind in kinds:
            fields = {"amount": 1.0} if kind == "credit.grant" else {}
            t.emit(1.0, kind, wu=wu, **fields)

    def test_one_pass_names_every_offender_sorted(self):
        t = Trace()
        self.unit(t, "ok", 0, "server.result_valid", "credit.grant", "server.assimilated")
        self.unit(t, "unassim-b", 1, "server.result_valid", "credit.grant")
        self.unit(t, "unassim-a", 2, "server.result_valid", "credit.grant")
        self.unit(t, "phantom", 3, "server.assimilated", "sched.exhausted")
        self.unit(t, "overpaid", 4, "credit.grant", "sched.cancelled")
        self.unit(t, "unpaid", 5, "server.result_valid", "server.assimilated")
        self.unit(t, "merged", 6, "ps.assimilated", "sched.exhausted")
        self.unit(t, "open", 7)
        self.unit(
            t, "twice", 8, "server.result_valid", "credit.grant",
            "server.assimilated", "sched.cancelled",
        )
        t.emit(2.0, "epoch.start", epoch=3)
        auditor = replayed(t)
        online = list(auditor.violations)
        checks = auditor.checks
        assert verified_violations(auditor)[len(online):] == [
            "validated/assimilated mismatch: unassimilated=['unassim-a', "
            "'unassim-b'] phantom=['phantom']",
            "credit/validation mismatch: overpaid=['overpaid']",
            "credit/validation mismatch: unpaid=['unpaid']",
            "pool merged workunits never assimilated: ['merged']",
            "non-terminal workunits: ['open']",
            "workunits with two terminal fates: ['twice']",
            "epoch 3 never ended",
        ]
        assert auditor.checks == checks + 8

    def test_quorum_denied_and_undecided_replicas(self):
        t = Trace()
        # Paid and then denied by its quorum: a double outcome.
        self.unit(t, "both", 0, "server.result_valid", "credit.grant", "server.assimilated")
        t.emit(2.0, "credit.deny", wu="both", host="h")
        # Replicas of an undecided logical unit may end the run unpaid;
        # once the quorum decides, the same replica must be paid.
        self.unit(t, "lu#r0", 1, "server.result_valid", "server.assimilated")
        auditor = replayed(t)
        assert verified_violations(auditor) == [
            "workunits both granted and quorum-denied: ['both']",
        ]
        t.emit(3.0, "quorum.reached", logical="lu")
        assert verified_violations(replayed(t)) == [
            "workunits both granted and quorum-denied: ['both']",
            "credit/validation mismatch: unpaid=['lu#r0']",
        ]


class TestReplayMatchesLive:
    def test_same_report_on_a_broken_stream(self):
        live = InvariantAuditor()
        t = clean_trace()
        t.attach(live)
        t.emit(9.0, "sched.created", wu="wu-a", epoch=1, shard=0)
        t.emit(9.0, "server.assimilated", wu="wu-z")
        t.emit(9.0, "sched.ping", client="c1")
        t.detach(live)
        # The live auditor attached after clean_trace(); replay the same
        # records only.
        fresh = InvariantAuditor()
        fresh.replay(list(t)[-3:])
        assert verified_violations(live) == verified_violations(fresh)
        assert (live.checks, live.records_seen, live.kind_counts) == (
            fresh.checks,
            fresh.records_seen,
            fresh.kind_counts,
        )


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
        assert auditor.violations == ["validated result for unknown workunit wu-a"]
        assert auditor.kind_counts["server_result.valid"] == 1
        # Only wu-a became valid: it is the one left unassimilated.
        with pytest.raises(
            InvariantViolation, match=r"unassimilated=\['wu-a'\] phantom=\[\]"
        ):
            auditor.verify()

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
        # Same checks, records and (no) violations as the live auditor.
        assert fresh.verify(runner).to_dict() == runner.obs.report.to_dict()
        assert fresh.kind_counts == runner.obs.auditor.kind_counts
        assert fresh.verify(runner, require_full_coverage=True).ok

    def test_strict_live_auditor_stays_silent_on_a_healthy_run(self):
        runner = DistributedRunner(
            tiny_config(), observability=ObservabilityConfig(strict_audit=True)
        )
        runner.run()
        assert runner.obs.report.ok
