"""Trickle-heartbeat tests: deadline sliding for slow-but-alive clients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.boinc import (
    BoincServer,
    CallbackAssimilator,
    ClientDaemon,
    ParameterValidator,
    Scheduler,
    SchedulerConfig,
    ServerFile,
    Workunit,
)
from repro.simulation import InstanceSpec, Simulator


def build(sim: Simulator, heartbeats: bool, clock_ghz: float = 0.24):
    """One very slow client computing a unit that exceeds the timeout."""
    assim = CallbackAssimilator(lambda wu, payload: None)
    server = BoincServer(
        sim,
        assimilator=assim,
        validator=ParameterValidator(expected_size=4),
        scheduler_config=SchedulerConfig(timeout_s=150.0, heartbeats_enabled=heartbeats),
    )
    server.catalog.publish(ServerFile("model", "spec", raw_size=10, sticky=True))
    server.catalog.publish(ServerFile("params", np.zeros(4), raw_size=10))
    server.catalog.publish(ServerFile("shard-00", "d", raw_size=10, sticky=True))
    # 30 work units at 0.1 units/s -> 300 s of compute > 150 s timeout;
    # heartbeats come every HEARTBEAT_INTERVAL_S (60 s).
    spec = InstanceSpec("slow", vcpus=1, clock_ghz=clock_ghz, ram_gb=4, network_gbps=1)
    client = ClientDaemon(
        client_id="c0",
        sim=sim,
        spec=spec,
        scheduler=server.scheduler,
        web=server.web,
        executor=lambda wu, payloads: (np.ones(4), 10),
        max_concurrent=1,
    )
    server.attach_client(client)
    wu = Workunit(
        wu_id="wu00",
        job_id="job",
        epoch=0,
        shard_index=0,
        input_files=("model", "params", "shard-00"),
        work_units=30.0,
        timeout_s=150.0,
        max_attempts=2,
    )
    server.publish_workunits([wu])
    return server, assim, client, wu


class TestHeartbeats:
    def test_without_heartbeats_slow_unit_times_out(self, sim):
        server, assim, client, wu = build(sim, heartbeats=False)
        sim.run()
        assert server.scheduler.timeouts >= 1
        assert client.subtasks_aborted >= 1

    def test_with_heartbeats_slow_unit_completes(self, sim):
        server, assim, client, wu = build(sim, heartbeats=True)
        sim.run()
        assert server.scheduler.timeouts == 0
        assert assim.count == 1
        assert server.scheduler.heartbeats == 5  # every 60 s of a 300.16 s compute
        assert wu.state.value == "done"

    def test_heartbeats_stop_after_completion(self, sim):
        server, assim, client, wu = build(sim, heartbeats=True)
        sim.run()
        final_count = server.scheduler.heartbeats
        sim.schedule(500.0, lambda: None)
        sim.run()
        assert server.scheduler.heartbeats == final_count

    def test_dead_client_stops_heartbeating_and_times_out(self, sim):
        """Heartbeats must not mask real failures: a terminated client's
        unit still times out one t_o after its last heartbeat."""
        server, assim, client, wu = build(sim, heartbeats=True)
        sim.schedule(30.0, client.terminate)
        sim.run()
        assert assim.count == 0
        # Unit failed over via client_error (terminate reports immediately).
        assert wu.attempts[0].outcome == "client_error"

    def test_heartbeat_disabled_config_rejects_reports(self, sim):
        sched = Scheduler(sim, SchedulerConfig(heartbeats_enabled=False))
        wu = Workunit(
            wu_id="w",
            job_id="j",
            epoch=0,
            shard_index=0,
            input_files=("m", "p", "s"),
            work_units=1.0,
            timeout_s=10.0,
        )
        sched.add_workunits([wu])
        sched.request_work("c1", set(), 1)
        assert sched.report_heartbeat("w", "c1") is False

    def test_stale_heartbeat_ignored(self, sim):
        sched = Scheduler(
            sim, SchedulerConfig(timeout_s=10.0, heartbeats_enabled=True)
        )
        wu = Workunit(
            wu_id="w",
            job_id="j",
            epoch=0,
            shard_index=0,
            input_files=("m", "p", "s"),
            work_units=1.0,
            timeout_s=10.0,
        )
        sched.add_workunits([wu])
        sched.request_work("c1", set(), 1)
        sim.run()  # times out
        assert sched.report_heartbeat("w", "c1") is False

    def test_heartbeat_slides_deadline(self, sim):
        sched = Scheduler(
            sim, SchedulerConfig(timeout_s=100.0, heartbeats_enabled=True)
        )
        wu = Workunit(
            wu_id="w",
            job_id="j",
            epoch=0,
            shard_index=0,
            input_files=("m", "p", "s"),
            work_units=1.0,
            timeout_s=100.0,
        )
        sched.add_workunits([wu])
        sched.request_work("c1", set(), 1)
        original = wu.current_attempt.deadline
        sim.schedule(60.0, lambda: sched.report_heartbeat("w", "c1"))
        sim.run(until=61.0)
        assert wu.current_attempt.deadline == pytest.approx(160.0)
        assert wu.current_attempt.deadline > original
