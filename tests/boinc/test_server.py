"""BoincServer composition tests: result routing, credit, invalid paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.boinc import (
    BoincServer,
    CallbackAssimilator,
    ClientDaemon,
    CreditLedger,
    ParameterValidator,
    SchedulerConfig,
    ServerFile,
    Workunit,
    WorkunitState,
)
from repro.simulation import InstanceSpec, Simulator


def build(sim: Simulator, executor=None, ledger=None):
    assim = CallbackAssimilator(lambda wu, payload: None)
    server = BoincServer(
        sim,
        assimilator=assim,
        validator=ParameterValidator(expected_size=4),
        scheduler_config=SchedulerConfig(timeout_s=400.0),
        credit_ledger=ledger,
    )
    server.catalog.publish(ServerFile("model", "spec", raw_size=10, sticky=True))
    server.catalog.publish(ServerFile("params", np.zeros(4), raw_size=10))
    server.catalog.publish(ServerFile("shard-00", "d", raw_size=10, sticky=True))
    if executor is None:
        executor = lambda wu, payloads: (np.ones(4), 10)
    spec = InstanceSpec("c", vcpus=4, clock_ghz=2.4, ram_gb=8, network_gbps=1)
    client = ClientDaemon(
        client_id="c0",
        sim=sim,
        spec=spec,
        scheduler=server.scheduler,
        web=server.web,
        executor=executor,
        max_concurrent=2,
    )
    server.attach_client(client)
    return server, assim, client


def make_wu(wu_id: str = "wu00", work: float = 5.0) -> Workunit:
    return Workunit(
        wu_id=wu_id,
        job_id="job",
        epoch=0,
        shard_index=0,
        input_files=("model", "params", "shard-00"),
        work_units=work,
        timeout_s=400.0,
    )


class TestResultPath:
    def test_valid_result_assimilated_and_credited(self, sim):
        ledger = CreditLedger()
        server, assim, _ = build(sim, ledger=ledger)
        server.publish_workunits([make_wu(work=7.0)])
        sim.run()
        assert assim.count == 1
        assert ledger.host_total("c0") == pytest.approx(7.0)
        assert server.scheduler.get_workunit("wu00").state is WorkunitState.DONE

    def test_default_ledger_created(self, sim):
        server, _, _ = build(sim)
        assert isinstance(server.credit, CreditLedger)

    def test_invalid_result_denied_and_requeued(self, sim):
        calls = {"n": 0}

        def executor(wu, payloads):
            calls["n"] += 1
            if calls["n"] == 1:
                return np.full(4, np.inf), 10
            return np.ones(4), 10

        ledger = CreditLedger()
        server, assim, _ = build(sim, executor=executor, ledger=ledger)
        server.publish_workunits([make_wu()])
        sim.run()
        assert assim.count == 1
        assert server.validator.rejected == 1
        host = ledger.hosts["c0"]
        assert host.results_denied == 1
        assert host.results_granted == 1

    def test_on_assimilated_hook_fires(self, sim):
        # The hook is handed the unit and the payload that was merged.
        uploaded = np.ones(4)
        server, _, _ = build(sim, executor=lambda wu, payloads: (uploaded, 10))
        seen: list[tuple[str, bool]] = []
        server.on_assimilated = lambda wu, payload: seen.append(
            (wu.wu_id, payload is uploaded)
        )
        server.publish_workunits([make_wu()])
        sim.run()
        assert seen == [("wu00", True)]

    def test_trace_records_assimilation(self, sim):
        server, _, _ = build(sim)
        server.publish_workunits([make_wu()])
        sim.run()
        assert server.trace.count("server.assimilated") == 1


class TestFleetCoordination:
    def test_publish_pokes_clients(self, sim):
        server, assim, client = build(sim)
        server.publish_workunits([make_wu("a"), make_wu("b")])
        # Both slots of the single client were filled synchronously.
        assert client.free_slots == 0
        sim.run()
        assert assim.count == 2

    def test_poke_skips_dead_clients(self, sim):
        server, assim, client = build(sim)
        client.terminate()
        server.publish_workunits([make_wu()])
        sim.run()
        assert assim.count == 0
        assert server.scheduler.unsent_count() == 1

    def test_timeout_notifies_client_abort(self, sim):
        # A slow executor never finishes before the deadline.
        server, assim, client = build(sim)
        wu = make_wu(work=10_000.0)
        wu = Workunit(
            wu_id="slow",
            job_id="job",
            epoch=0,
            shard_index=0,
            input_files=("model", "params", "shard-00"),
            work_units=10_000.0,
            timeout_s=50.0,
            max_attempts=1,
        )
        server.publish_workunits([wu])
        sim.run()
        assert client.subtasks_aborted == 1
        assert wu.state is WorkunitState.ERROR
