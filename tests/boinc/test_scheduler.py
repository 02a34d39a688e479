"""Scheduler policy tests: assignment, timeouts, affinity, reliability."""

from __future__ import annotations

import pytest

from repro.boinc import Scheduler, SchedulerConfig, Workunit, WorkunitState
from repro.boinc.scheduler import BACKOFF_MAX_S, PROBATION_THRESHOLD
from repro.errors import SchedulerError


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


@pytest.fixture
def sched(sim) -> Scheduler:
    return Scheduler(sim, SchedulerConfig(timeout_s=100.0))


class TestAssignment:
    def test_grants_up_to_max_units(self, sched):
        sched.add_workunits(make_wus(5))
        granted = sched.request_work("c1", set(), max_units=3)
        assert len(granted) == 3
        assert sched.unsent_count() == 2
        assert all(wu.state is WorkunitState.IN_PROGRESS for wu in granted)

    def test_empty_queue_grants_nothing(self, sched):
        assert sched.request_work("c1", set(), 4) == []

    def test_zero_units_request(self, sched):
        sched.add_workunits(make_wus(2))
        assert sched.request_work("c1", set(), 0) == []

    def test_duplicate_wu_id_rejected(self, sched):
        wus = make_wus(1)
        sched.add_workunits(wus)
        with pytest.raises(SchedulerError):
            sched.add_workunits(make_wus(1))

    def test_unknown_workunit_lookup(self, sched):
        with pytest.raises(SchedulerError):
            sched.get_workunit("nope")

    def test_unknown_client_lookup(self, sched):
        with pytest.raises(SchedulerError):
            sched.client("ghost")


class TestAffinity:
    def test_prefers_cached_shard(self, sched):
        sched.add_workunits(make_wus(5))
        granted = sched.request_work("c1", {"shard-03"}, 1)
        assert granted[0].shard_file() == "shard-03"

    def test_falls_back_to_fifo(self, sched):
        sched.add_workunits(make_wus(3))
        granted = sched.request_work("c1", {"shard-99"}, 1)
        assert granted[0].wu_id == "wu00"


class TestTimeouts:
    def test_timeout_requeues_and_counts(self, sim, sched):
        sched.add_workunits(make_wus(1))
        sched.request_work("c1", set(), 1)
        sim.run()
        assert sched.timeouts == 1
        assert sched.unsent_count() == 1  # requeued
        assert sched.get_workunit("wu00").state is WorkunitState.UNSENT

    def test_timeout_notifies_hook(self, sim, sched):
        fired: list[tuple[str, str]] = []
        sched.on_timeout = lambda wu, client: fired.append((wu, client))
        sched.add_workunits(make_wus(1))
        sched.request_work("c1", set(), 1)
        sim.run()
        assert fired == [("wu00", "c1")]

    def test_result_before_deadline_cancels_timeout(self, sim, sched):
        sched.add_workunits(make_wus(1))
        sched.request_work("c1", set(), 1)
        sim.schedule(50.0, lambda: sched.report_result("wu00", "c1"))
        sim.run()
        assert sched.timeouts == 0
        assert sched.get_workunit("wu00").state is WorkunitState.VALIDATING

    def test_late_result_is_stale(self, sim, sched):
        """Result arriving after the timeout is discarded, as BOINC does
        once the unit is reassigned."""
        sched.add_workunits(make_wus(1))
        sched.request_work("c1", set(), 1)
        accepted: list[bool] = []
        sim.schedule(150.0, lambda: accepted.append(sched.report_result("wu00", "c1")))
        sim.run()
        assert accepted == [False]
        assert sched.timeouts == 1

    def test_exhausted_attempts_error_state(self, sim):
        sched = Scheduler(sim, SchedulerConfig(timeout_s=10.0))
        sched.add_workunits(make_wus(1, timeout_s=10.0, max_attempts=2))
        sched.request_work("c1", set(), 1)
        sim.run()  # first timeout, requeued; c1 backs off
        sched.request_work("c2", set(), 1)
        sim.run()  # second timeout, budget gone
        assert sched.get_workunit("wu00").state is WorkunitState.ERROR

    def test_result_for_other_clients_attempt_is_stale(self, sim, sched):
        """After timeout and reissue to c2, a (late) c1 upload is stale even
        though the unit is IN_PROGRESS again."""
        sched.add_workunits(make_wus(1))
        sched.request_work("c1", set(), 1)
        sim.run()  # c1 times out, requeued
        sched.request_work("c2", set(), 1)
        assert sched.report_result("wu00", "c1") is False
        assert sched.report_result("wu00", "c2") is True


class TestClientFailure:
    def test_failure_requeues_all_inflight(self, sim, sched):
        sched.add_workunits(make_wus(3))
        sched.request_work("c1", set(), 3)
        requeued = sched.report_client_failure("c1")
        assert len(requeued) == 3
        assert sched.unsent_count() == 3
        assert sched.client("c1").assigned == set()

    def test_failure_cancels_timeout_events(self, sim, sched):
        sched.add_workunits(make_wus(1))
        sched.request_work("c1", set(), 1)
        sched.report_client_failure("c1")
        sim.run()
        assert sched.timeouts == 0  # timeout event was cancelled
        assert sched.reissues == 1


class TestReliability:
    def test_success_keeps_reliability_high(self, sim, sched):
        sched.add_workunits(make_wus(2))
        sched.request_work("c1", set(), 1)
        sched.report_result("wu00", "c1")
        assert sched.client("c1").reliability > 0.9

    def test_failures_decay_reliability(self, sim, sched):
        sched.add_workunits(make_wus(6))
        record = sched.register_client("c1")
        for _ in range(6):
            record.backoff_until = 0.0  # simulate the backoff passing
            assert sched.request_work("c1", set(), 1)
            sched.report_client_failure("c1")
        assert record.reliability < PROBATION_THRESHOLD

    def test_backoff_blocks_after_failure(self, sim, sched):
        sched.add_workunits(make_wus(3))
        sched.request_work("c1", set(), 1)
        sched.report_client_failure("c1")
        # Immediately after a failure the client is in backoff.
        assert sched.request_work("c1", set(), 1) == []
        assert sched.client("c1").backoff_until > sim.now

    def test_backoff_doubles_and_resets(self, sim, sched):
        record = sched.register_client("c1")
        sched.add_workunits(make_wus(4))
        sched.request_work("c1", set(), 1)
        sched.report_client_failure("c1")
        first = record.backoff_until - sim.now
        record.backoff_until = 0.0  # simulate time passing
        sched.request_work("c1", set(), 1)
        sched.report_client_failure("c1")
        second = record.backoff_until - sim.now
        assert second == pytest.approx(2 * first)
        # Success clears the backoff ladder.
        record.backoff_until = 0.0
        sched.request_work("c1", set(), 1)
        granted = sched.client("c1").assigned
        assert granted
        sched.report_result(next(iter(granted)), "c1")
        assert record.consecutive_failures == 0
        assert record.backoff_until == 0.0

    def test_probation_limits_grants(self, sim):
        sched = Scheduler(sim, SchedulerConfig(timeout_s=100.0))
        sched.add_workunits(make_wus(10))
        record = sched.register_client("flaky")
        record.reliability = 0.1  # below probation threshold
        granted = sched.request_work("flaky", set(), 4)
        assert len(granted) == 1  # probation: one at a time
        granted2 = sched.request_work("flaky", set(), 4)
        assert granted2 == []  # still holding one

    def test_kept_policy_arithmetic(self, sched):
        """BOINC's policy is module constants: the reliability EWMA keeps
        0.8 of its history, so probation starts at the 6th failure in a
        row (0.8**5 ≈ 0.33 >= 0.3 > 0.8**6 ≈ 0.26), and the backoff is
        60 s doubling per failure up to the cap (the idle sleep hint's
        30 s doubling up to 1800 s is pinned in test_ping_protocol.py)."""
        sched.add_workunits(make_wus(8))
        record = sched.register_client("c1")
        reliabilities, delays = [], []
        for _ in range(8):
            record.backoff_until = 0.0  # simulate the backoff passing
            assert sched.request_work("c1", set(), 1)
            sched.report_client_failure("c1")
            reliabilities.append(record.reliability)
            delays.append(record.backoff_until)  # the clock stays at 0
        assert reliabilities == pytest.approx([0.8**k for k in range(1, 9)])
        assert reliabilities[4] >= PROBATION_THRESHOLD == 0.3 > reliabilities[5]
        assert delays == [60.0 * 2**k for k in range(6)] + [BACKOFF_MAX_S] * 2
        assert BACKOFF_MAX_S == 3600.0


class TestProgressTracking:
    def test_counts(self, sim, sched):
        sched.add_workunits(make_wus(4))
        sched.request_work("c1", set(), 2)
        assert sched.in_progress_count() == 2
        assert sched.terminal_count() == 0
        assert not sched.all_terminal()
