"""Scheduler edge cases: cancellation of unsent work, retry-budget
exhaustion after invalid results, and stale heartbeats racing timeouts."""

from __future__ import annotations

import pytest

from repro.boinc import Scheduler, SchedulerConfig, Workunit, WorkunitState


def make_wus(n: int, timeout_s: float = 100.0, max_attempts: int = 3) -> list[Workunit]:
    return [
        Workunit(
            wu_id=f"wu{i:02d}",
            job_id="job",
            epoch=0,
            shard_index=i,
            input_files=("model", "params", f"shard-{i:02d}"),
            work_units=10.0,
            timeout_s=timeout_s,
            max_attempts=max_attempts,
        )
        for i in range(n)
    ]


class TestCancelUnsent:
    def test_cancel_unsent_unit(self, sim):
        sched = Scheduler(sim, SchedulerConfig())
        wus = make_wus(3)
        sched.add_workunits(wus)
        assert sched.cancel_workunit("wu01") is None  # nobody was computing it
        assert wus[1].state is WorkunitState.CANCELLED
        assert sched.unsent_count() == 2
        assert sched.cancellations == 1

    def test_cancelled_unit_never_granted(self, sim):
        sched = Scheduler(sim, SchedulerConfig())
        sched.add_workunits(make_wus(2))
        sched.cancel_workunit("wu00")
        granted = sched.request_work("c1", set(), 5)
        assert [wu.wu_id for wu in granted] == ["wu01"]

    def test_cancel_terminal_unit_is_noop(self, sim):
        sched = Scheduler(sim, SchedulerConfig())
        sched.add_workunits(make_wus(1))
        sched.cancel_workunit("wu00")
        before = sched.cancellations
        assert sched.cancel_workunit("wu00") is None
        assert sched.cancellations == before  # not double-counted

    def test_cancel_in_progress_returns_client(self, sim):
        sched = Scheduler(sim, SchedulerConfig())
        sched.add_workunits(make_wus(1))
        sched.request_work("c1", set(), 1)
        assert sched.cancel_workunit("wu00") == "c1"
        assert "wu00" not in sched.client("c1").assigned

    def test_cancel_unsent_missing_from_queue_raises(self, sim):
        # An UNSENT workunit absent from the ready queue is corrupted
        # scheduler state; the old code swallowed the ValueError from
        # list.remove and carried on with inconsistent books.
        from repro.errors import SchedulerError

        sched = Scheduler(sim, SchedulerConfig())
        sched.add_workunits(make_wus(1))
        sched._ready.remove("wu00")  # corrupt the books
        with pytest.raises(SchedulerError, match="inconsistent"):
            sched.cancel_workunit("wu00")


class TestInvalidRetryBudget:
    def _fail_once(self, sim, sched, wu, client="c1"):
        granted = sched.request_work(client, set(), 1)
        assert granted and granted[0].wu_id == wu.wu_id
        assert sched.report_result(wu.wu_id, client)
        return sched.requeue_after_invalid(wu.wu_id)

    def test_requeues_while_budget_remains(self, sim):
        sched = Scheduler(sim, SchedulerConfig())
        (wu,) = make_wus(1, max_attempts=3)
        sched.add_workunits([wu])
        assert self._fail_once(sim, sched, wu) is True
        assert wu.state is WorkunitState.UNSENT
        assert sched.unsent_count() == 1
        assert sched.reissues == 1

    def test_exhaustion_lands_in_error(self, sim):
        sched = Scheduler(sim, SchedulerConfig())
        (wu,) = make_wus(1, max_attempts=2)
        sched.add_workunits([wu])
        assert self._fail_once(sim, sched, wu) is True
        assert self._fail_once(sim, sched, wu) is False  # budget exhausted
        assert wu.state is WorkunitState.ERROR
        assert sched.unsent_count() == 0
        assert sched.reissues == 1  # only the first rejection requeued

    def test_errored_unit_terminal_and_not_regranted(self, sim):
        sched = Scheduler(sim, SchedulerConfig())
        (wu,) = make_wus(1, max_attempts=1)
        sched.add_workunits([wu])
        assert self._fail_once(sim, sched, wu) is False
        assert wu.is_terminal
        assert sched.request_work("c2", set(), 1) == []


class TestStaleHeartbeatVsTimeout:
    def _config(self) -> SchedulerConfig:
        return SchedulerConfig(timeout_s=100.0, heartbeats_enabled=True)

    def test_heartbeat_slides_deadline(self, sim):
        sched = Scheduler(sim, self._config())
        (wu,) = make_wus(1)
        sched.add_workunits([wu])
        sched.request_work("c1", set(), 1)
        sim.run(until=60.0)
        assert sched.report_heartbeat("wu00", "c1") is True
        assert wu.current_attempt.deadline == pytest.approx(160.0)
        sim.run(until=150.0)  # past the original deadline
        assert wu.state is WorkunitState.IN_PROGRESS
        assert sched.timeouts == 0

    def test_heartbeat_after_timeout_is_stale(self, sim):
        # The timeout fires first; the racing heartbeat must be rejected
        # and must NOT resurrect the reclaimed attempt's deadline.
        sched = Scheduler(sim, self._config())
        (wu,) = make_wus(1)
        sched.add_workunits([wu])
        sched.request_work("c1", set(), 1)
        sim.run(until=150.0)  # deadline at 100 fires
        assert sched.timeouts == 1
        assert wu.state is WorkunitState.UNSENT  # requeued for reissue
        assert sched.report_heartbeat("wu00", "c1") is False
        assert sched.heartbeats == 0
        assert wu.state is WorkunitState.UNSENT  # unchanged by the stale report

    def test_heartbeat_from_superseded_client_is_stale(self, sim):
        # After reissue to another host, the original host's heartbeat must
        # not slide the new attempt's deadline.
        sched = Scheduler(sim, self._config())
        (wu,) = make_wus(1)
        sched.add_workunits([wu])
        sched.request_work("c1", set(), 1)
        sim.run(until=150.0)  # c1's attempt times out
        granted = sched.request_work("c2", set(), 1)
        assert granted and granted[0].current_attempt.client_id == "c2"
        deadline = wu.current_attempt.deadline
        assert sched.report_heartbeat("wu00", "c1") is False
        assert wu.current_attempt.deadline == deadline

    def test_heartbeat_after_result_is_stale(self, sim):
        sched = Scheduler(sim, self._config())
        (wu,) = make_wus(1)
        sched.add_workunits([wu])
        sched.request_work("c1", set(), 1)
        assert sched.report_result("wu00", "c1") is True
        assert sched.report_heartbeat("wu00", "c1") is False

    def test_stale_heartbeat_counted_and_traced(self, sim, trace):
        # Stale heartbeats used to vanish silently; they are now a
        # first-class observable (counter + sched.stale_heartbeat record).
        sched = Scheduler(sim, self._config(), trace=trace)
        (wu,) = make_wus(1)
        sched.add_workunits([wu])
        sched.request_work("c1", set(), 1)
        sim.run(until=150.0)  # deadline at 100 reclaims the attempt
        assert sched.report_heartbeat("wu00", "c1") is False
        assert sched.stale_heartbeats == 1
        stale = [r for r in trace if r.kind == "sched.stale_heartbeat"]
        assert len(stale) == 1
        assert stale[0]["wu"] == "wu00" and stale[0]["client"] == "c1"
