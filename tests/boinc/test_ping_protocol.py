"""Ping + server-suggested-sleep work-fetch protocol tests.

The contract under test: a ping either grants work or returns a sleep
hint derived from the client's failure backoff, the queue state, and
server backpressure; parked waiters are woken FIFO and only as many as
there are new units — an idle fleet of any size generates no storm.
"""

from __future__ import annotations

import pytest

from repro.boinc import Scheduler, SchedulerConfig, Workunit
from repro.errors import SchedulerError


def make_wus(n: int, replica: str = "") -> list[Workunit]:
    return [
        Workunit(
            wu_id=f"job:e0:s{i}{replica}",
            job_id="job",
            epoch=0,
            shard_index=i,
            input_files=("model", "params", f"shard-{i:02d}"),
            work_units=10.0,
            timeout_s=100.0,
            max_attempts=3,
        )
        for i in range(n)
    ]


PING = SchedulerConfig(timeout_s=100.0, work_fetch="ping")


class TestSleepHints:
    def test_grant_returns_zero_hint(self, sim, trace):
        sched = Scheduler(sim, PING, trace=trace)
        sched.add_workunits(make_wus(2))
        granted, hint = sched.ping("c1", set(), 2)
        assert len(granted) == 2 and hint == 0.0
        pings = [r for r in trace if r.kind == "sched.ping"]
        assert len(pings) == 1 and pings[0]["granted"] == 2
        assert not [r for r in trace if r.kind == "sched.sleep_hint"]

    def test_idle_hint_doubles_and_caps(self, sim, trace):
        sched = Scheduler(sim, PING, trace=trace)
        hints = [sched.ping("c1", set(), 1)[1] for _ in range(8)]
        assert hints == [30.0, 60.0, 120.0, 240.0, 480.0, 960.0, 1800.0, 1800.0]
        reasons = {r["reason"] for r in trace if r.kind == "sched.sleep_hint"}
        assert reasons == {"idle"}

    def test_grant_resets_idle_growth(self, sim):
        sched = Scheduler(sim, PING)
        sched.ping("c1", set(), 1)
        sched.ping("c1", set(), 1)  # empty_pings = 2
        sched.add_workunits(make_wus(1))
        granted, _ = sched.ping("c1", set(), 1)
        assert granted
        sched.report_result(granted[0].wu_id, "c1")
        _, hint = sched.ping("c1", set(), 1)
        assert hint == 30.0  # back to the base, not 120

    def test_backoff_dominates_hint(self, sim, trace):
        sched = Scheduler(sim, PING, trace=trace)
        sched.add_workunits(make_wus(1))
        granted, _ = sched.ping("c1", set(), 1)
        sched.report_client_failure("c1")  # BACKOFF_BASE_S from now
        _, hint = sched.ping("c1", set(), 1)
        assert hint == pytest.approx(60.0, abs=1e-3)
        reasons = [r["reason"] for r in trace if r.kind == "sched.sleep_hint"]
        assert reasons == ["backoff"]

    def test_ineligible_hint_when_queue_nonempty(self, sim, trace):
        # Only a sibling replica of something c1 already computed remains:
        # queue non-empty, nothing grantable -> short busy retry.
        sched = Scheduler(sim, PING, trace=trace)
        sched.add_workunits(make_wus(1, replica="#r0"))
        sched.add_workunits(make_wus(1, replica="#r1"))
        granted, _ = sched.ping("c1", set(), 1)
        assert granted[0].wu_id == "job:e0:s0#r0"
        sched.report_result("job:e0:s0#r0", "c1")
        _, hint = sched.ping("c1", set(), 1)
        assert hint == 5.0
        reasons = [r["reason"] for r in trace if r.kind == "sched.sleep_hint"]
        assert reasons[-1] == "ineligible"

    def test_probation_hint(self, sim, trace):
        sched = Scheduler(sim, PING, trace=trace)
        sched.add_workunits(make_wus(3))
        sched.register_client("c1").reliability = 0.1  # below the threshold
        granted, _ = sched.ping("c1", set(), 2)
        assert len(granted) == 1  # probation: one unit at a time
        _, hint = sched.ping("c1", set(), 2)
        assert hint == 5.0
        reasons = [r["reason"] for r in trace if r.kind == "sched.sleep_hint"]
        assert reasons[-1] == "probation"

    def test_backpressure_extends_idle_hint(self, sim):
        sched = Scheduler(sim, PING)
        sched.backpressure_fn = lambda: 12.5
        _, hint = sched.ping("c1", set(), 1)
        assert hint == pytest.approx(30.0 + 12.5)


class TestWaiters:
    def test_new_work_wakes_at_most_that_many_waiters(self, sim):
        sched = Scheduler(sim, PING)
        woken: list[str] = []
        for i in range(5):
            cid = f"c{i}"
            sched.ping(cid, set(), 1, wake=lambda c=cid: woken.append(c))
        sched.add_workunits(make_wus(2))
        sim.run()
        assert woken == ["c0", "c1"]  # FIFO, O(new work) not O(fleet)
        assert len(sched._waiters) == 3

    def test_woken_waiter_is_unparked(self, sim):
        sched = Scheduler(sim, PING)
        sched.ping("c1", set(), 1, wake=lambda: None)
        assert "c1" in sched._waiters
        sched.add_workunits(make_wus(1))
        assert "c1" not in sched._waiters

    def test_repinging_client_replaces_its_parking(self, sim):
        sched = Scheduler(sim, PING)
        sched.ping("c1", set(), 1, wake=lambda: None)
        sched.ping("c2", set(), 1, wake=lambda: None)
        sched.ping("c1", set(), 1, wake=lambda: None)  # re-ping: re-parked last
        assert list(sched._waiters) == ["c2", "c1"]

    def test_cancel_waiter(self, sim):
        sched = Scheduler(sim, PING)
        woken: list[str] = []
        sched.ping("c1", set(), 1, wake=lambda: woken.append("c1"))
        sched.cancel_waiter("c1")
        sched.add_workunits(make_wus(1))
        sim.run()
        assert woken == []

    def test_requeue_after_failure_wakes_waiters(self, sim):
        sched = Scheduler(sim, PING)
        sched.add_workunits(make_wus(1))
        granted, _ = sched.ping("c1", set(), 1)
        assert granted
        woken: list[str] = []
        sched.ping("c2", set(), 1, wake=lambda: woken.append("c2"))
        sched.report_client_failure("c1")  # unit reissued -> wake c2
        sim.run()
        assert woken == ["c2"]

    def test_pings_counter(self, sim):
        sched = Scheduler(sim, PING)
        sched.ping("c1", set(), 1)
        sched.ping("c2", set(), 1)
        assert sched.pings == 2


class TestConfigValidation:
    def test_unknown_work_fetch_rejected(self):
        with pytest.raises(SchedulerError):
            SchedulerConfig(work_fetch="carrier-pigeon")


class TestEndToEnd:
    def test_ping_mode_run_completes(self):
        from repro.core import run_experiment

        from ..core.test_runner import tiny_config

        result = run_experiment(tiny_config(work_fetch="ping"))
        assert len(result.epochs) == 2
        assert result.counters["assimilations"] == 12
        assert result.counters["pings"] > 0

    def test_poke_mode_has_no_pings_counter(self):
        from repro.core import run_experiment

        from ..core.test_runner import tiny_config

        result = run_experiment(tiny_config())
        assert "pings" not in result.counters
