"""Transfer-layer fault injection and BOINC-style persistent transfers.

Covers the chaos fabric's web-server hooks (per-transfer failures, stalls,
partitions), the callback-only download API, and the client daemon's retry
loop with capped exponential backoff.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.boinc import FileCatalog, ServerFile, Workunit, WebServer
from repro.boinc.client import (
    MAX_TRANSFER_RETRIES,
    TRANSFER_RETRY_BASE_S,
    TRANSFER_RETRY_CAP_S,
    ClientDaemon,
)
from repro.boinc.files import TransferError
from repro.boinc.scheduler import Scheduler, SchedulerConfig
from repro.simulation import NetworkLink
from repro.simulation.chaos import (
    PartitionSchedule,
    PartitionWindow,
    TransferFaultPlan,
)
from repro.simulation.resources import InstanceSpec


@pytest.fixture
def link() -> NetworkLink:
    return NetworkLink(latency_s=0.5, bandwidth_bps=1000.0)


@pytest.fixture
def catalog() -> FileCatalog:
    cat = FileCatalog()
    cat.publish(ServerFile("model", payload="spec", raw_size=1000))
    cat.publish(ServerFile("params", payload=b"p", raw_size=2000))
    cat.publish(ServerFile("shard-00", payload="data", raw_size=500, sticky=True))
    return cat


def make_web(sim, catalog, trace=None, faults=None, partitions=None) -> WebServer:
    return WebServer(
        sim,
        catalog,
        compression_enabled=False,
        trace=trace,
        faults=faults,
        partitions=partitions,
    )


class TestDownloadApiSplit:
    def test_download_returns_none(self, sim, catalog, link):
        web = make_web(sim, catalog)
        assert web.download(["model"], link, None, lambda p: None) is None

    def test_payloads_only_via_callback(self, sim, catalog, link):
        web = make_web(sim, catalog)
        got: dict[str, object] = {}
        web.download(["model", "params"], link, None, got.update)
        assert got == {}  # nothing before the simulated transfer completes
        sim.run()
        assert got == {"model": "spec", "params": b"p"}


class TestFaultInjection:
    def test_certain_failure_fires_on_error(self, sim, catalog, link):
        web = make_web(sim, catalog, faults=TransferFaultPlan(failure_p=1.0))
        errors: list[TransferError] = []
        web.download(
            ["model"],
            link,
            None,
            lambda p: pytest.fail("on_done must not fire"),
            rng=np.random.default_rng(0),
            on_error=errors.append,
            client_id="c1",
        )
        sim.run()
        assert errors and errors[0].reason == "failure"
        assert errors[0].files == ("model",)
        assert web.transfers_failed == 1
        assert web.bytes_wasted == 1000
        assert web.bytes_down == 0

    def test_failure_detected_before_nominal_time(self, sim, catalog, link):
        web = make_web(sim, catalog, faults=TransferFaultPlan(failure_p=1.0))
        nominal = link.transfer_time(1000)
        when: list[float] = []
        web.download(
            ["model"], link, None, lambda p: None,
            rng=np.random.default_rng(0), on_error=lambda e: when.append(sim.now),
            client_id="c1",
        )
        sim.run()
        assert 0 < when[0] < nominal

    def test_stall_detected_after_timeout(self, sim, catalog, link):
        web = make_web(
            sim, catalog, faults=TransferFaultPlan(stall_p=1.0, stall_timeout_s=77.0)
        )
        when: list[float] = []
        web.download(
            ["model"], link, None, lambda p: None,
            rng=np.random.default_rng(0), on_error=lambda e: when.append(sim.now),
            client_id="c1",
        )
        sim.run()
        assert when == [77.0]

    def test_no_on_error_means_no_injection(self, sim, catalog, link):
        # Setup paths (work-generator shard publication, legacy callers)
        # pass no on_error and must never lose a transfer to chaos.
        web = make_web(sim, catalog, faults=TransferFaultPlan(failure_p=1.0))
        got: list[object] = []
        web.download(
            ["model"], link, None, lambda p: got.append(p),
            rng=np.random.default_rng(0), client_id="c1",
        )
        sim.run()
        assert got and web.transfers_failed == 0

    def test_upload_fault(self, sim, catalog, link):
        web = make_web(sim, catalog, faults=TransferFaultPlan(failure_p=1.0))
        errors: list[TransferError] = []
        web.upload(
            4000, link, lambda: pytest.fail("on_done must not fire"),
            rng=np.random.default_rng(0), on_error=errors.append, client_id="c1",
        )
        sim.run()
        assert errors[0].reason == "failure"
        assert web.bytes_wasted == 4000
        assert web.bytes_up == 0


class TestPartitions:
    def test_partition_fails_fast(self, sim, catalog, link, trace):
        partitions = PartitionSchedule((PartitionWindow(0.0, 100.0),))
        web = make_web(sim, catalog, trace=trace, partitions=partitions)
        errors: list[TransferError] = []
        web.download(
            ["model"], link, None, lambda p: None,
            rng=np.random.default_rng(0), on_error=errors.append, client_id="c1",
        )
        sim.run()
        assert errors[0].reason == "partition"
        assert sim.now == pytest.approx(link.handshake_time())
        assert trace.count("net.partition") == 1

    def test_partition_is_per_client(self, sim, catalog, link):
        partitions = PartitionSchedule((PartitionWindow(0.0, 100.0, ("c1",)),))
        web = make_web(sim, catalog, partitions=partitions)
        outcomes: list[str] = []
        web.download(
            ["model"], link, None, lambda p: outcomes.append("done:c2"),
            rng=np.random.default_rng(0),
            on_error=lambda e: outcomes.append("err:c2"), client_id="c2",
        )
        web.download(
            ["model"], link, None, lambda p: outcomes.append("done:c1"),
            rng=np.random.default_rng(0),
            on_error=lambda e: outcomes.append("err:c1"), client_id="c1",
        )
        sim.run()
        assert sorted(outcomes) == ["done:c2", "err:c1"]


# ---------------------------------------------------------------------------
# Client daemon persistent-transfer behaviour
# ---------------------------------------------------------------------------

SPEC = InstanceSpec(
    name="test-host", vcpus=2, clock_ghz=2.0, ram_gb=8.0, network_gbps=1.0
)


def make_client(sim, web, sched, trace=None, rng=None) -> ClientDaemon:
    return ClientDaemon(
        client_id="c1",
        sim=sim,
        spec=SPEC,
        scheduler=sched,
        web=web,
        executor=lambda wu, payloads: ("result", 100),
        max_concurrent=2,
        link=NetworkLink(latency_s=0.1, bandwidth_bps=1e6),
        rng=rng,
        trace=trace,
    )


def make_wu(i: int = 0, timeout_s: float = 1e6) -> Workunit:
    return Workunit(
        wu_id=f"wu{i:02d}",
        job_id="job",
        epoch=0,
        shard_index=i,
        input_files=("model", "params"),
        work_units=10.0,
        timeout_s=timeout_s,
        max_attempts=3,
    )


class TestClientBackoff:
    def test_backoff_grows_and_caps(self, sim, catalog):
        web = make_web(sim, catalog)
        sched = Scheduler(sim, SchedulerConfig())
        client = make_client(sim, web, sched)  # rng=None: no jitter
        assert client._transfer_backoff(0) == TRANSFER_RETRY_BASE_S
        assert client._transfer_backoff(1) == 2 * TRANSFER_RETRY_BASE_S
        assert client._transfer_backoff(50) == TRANSFER_RETRY_CAP_S

    def test_jitter_is_bounded(self, sim, catalog):
        web = make_web(sim, catalog)
        sched = Scheduler(sim, SchedulerConfig())
        client = make_client(sim, web, sched, rng=np.random.default_rng(3))
        for retry in range(6):
            base = min(TRANSFER_RETRY_BASE_S * 2.0**retry, TRANSFER_RETRY_CAP_S)
            delay = client._transfer_backoff(retry)
            assert base <= delay <= 1.25 * base


class TestClientRetryLoop:
    def test_transient_fault_retries_then_completes(self, sim, catalog, trace):
        # failure_p=0.6: some transfers fail, retries eventually succeed.
        web = make_web(
            sim, catalog, trace=trace, faults=TransferFaultPlan(failure_p=0.6)
        )
        sched = Scheduler(sim, SchedulerConfig(timeout_s=1e6))
        client = make_client(sim, web, sched, trace=trace, rng=np.random.default_rng(3))
        sched.add_workunits([make_wu()])
        client.poll_for_work()
        sim.run()
        assert client.subtasks_completed == 1
        assert client.transfer_retries >= 1
        assert trace.count("net.retry") == client.transfer_retries

    def test_permanent_fault_gives_up_and_frees_slot(self, sim, catalog, trace):
        web = make_web(
            sim, catalog, trace=trace, faults=TransferFaultPlan(failure_p=1.0)
        )
        sched = Scheduler(sim, SchedulerConfig(timeout_s=1e6))
        client = make_client(sim, web, sched, trace=trace, rng=np.random.default_rng(7))
        sched.add_workunits([make_wu()])
        client.poll_for_work()
        sim.run()
        assert client.subtasks_completed == 0
        assert client.transfers_abandoned == 1
        assert client.transfer_retries == MAX_TRANSFER_RETRIES
        assert client.free_slots == client.max_concurrent  # slot reclaimed
        assert trace.count("net.gave_up") == 1

    def test_deadline_abort_stops_retry_loop(self, sim, catalog, trace):
        # Scheduler deadline fires while the client is still backing off:
        # the abort clears the in-flight slot and the retry loop must stop.
        web = make_web(
            sim, catalog, trace=trace, faults=TransferFaultPlan(failure_p=1.0)
        )
        sched = Scheduler(sim, SchedulerConfig(timeout_s=30.0, max_attempts=1))
        client = make_client(sim, web, sched, trace=trace, rng=np.random.default_rng(7))
        sched.on_timeout = lambda wu_id, cid: client.abort_workunit(wu_id)
        sched.add_workunits([make_wu(timeout_s=30.0)])
        client.poll_for_work()
        sim.run()
        assert sched.timeouts == 1
        assert client.transfers_abandoned == 0  # loop exited via abort path
        assert client.transfer_retries < MAX_TRANSFER_RETRIES

    def test_partition_lifts_and_work_completes(self, sim, catalog, trace):
        partitions = PartitionSchedule((PartitionWindow(0.0, 20.0),))
        web = make_web(sim, catalog, trace=trace, partitions=partitions)
        sched = Scheduler(sim, SchedulerConfig(timeout_s=1e6))
        client = make_client(sim, web, sched, trace=trace, rng=np.random.default_rng(7))
        sched.add_workunits([make_wu()])
        client.poll_for_work()
        sim.run()
        assert client.subtasks_completed == 1
        assert trace.count("net.partition") >= 1
        assert trace.count("net.retry") >= 1

    def test_upload_retries_after_fault(self, sim, catalog, trace):
        # Faults only on the upload side: downloads carry no failure draw
        # here because the first rng draw decides; use a partition window
        # that opens after download completes instead.
        partitions = PartitionSchedule((PartitionWindow(5.0, 30.0),))
        web = make_web(sim, catalog, trace=trace, partitions=partitions)
        sched = Scheduler(sim, SchedulerConfig(timeout_s=1e6))
        client = make_client(sim, web, sched, trace=trace, rng=np.random.default_rng(7))
        sched.add_workunits([make_wu()])
        client.poll_for_work()
        sim.run()
        assert client.subtasks_completed == 1
        phases = {r["phase"] for r in trace.of_kind("net.retry")}
        assert "upload" in phases
