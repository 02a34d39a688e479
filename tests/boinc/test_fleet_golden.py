"""Golden pin of the fleet path: event engine + scheduler + client + auditor.

A 200-client ping-mode fleet drains two waves of stub workunits with the
invariant auditor attached — the shape of ``bench``'s ``fleet_10k_ping``
at 1/50 scale.  ``bench/`` is not tier-1, so this is what holds the
per-event machinery (heap order, trace record order, audit checks) to
bit-identical behaviour: every number below was captured once and a
host-only optimisation must leave all of them alone.
"""

from __future__ import annotations

import numpy as np

from repro.boinc import (
    BoincServer,
    CallbackAssimilator,
    ClientDaemon,
    ParameterValidator,
    SchedulerConfig,
    ServerFile,
    Workunit,
)
from repro.obs.audit import InvariantAuditor
from repro.simulation.engine import Simulator
from repro.simulation.resources import InstanceSpec
from repro.simulation.tracing import Trace

CLIENTS = 200
SLOTS = 2
WAVES = 2
VEC_SIZE = 64
SHARD_FILES = 64
RESULT_BYTES = 4096
MAX_RECORDS = 1_000  # bounded buffer: the run also pins trace.dropped

# Captured at 911f6e6 (the commit before the slot-record / tuple-heap /
# handler-table change); never re-capture to make a change pass.
GOLDEN_NOW = "297.1267488343171"
GOLDEN_EVENTS = 2723
GOLDEN_PINGS = 1123
# 8808 at 911f6e6; +800 when the auditor began to check that each
# assignment starts at most one compute, once per client.train_start.
GOLDEN_CHECKS = 9608
GOLDEN_DROPPED = 9446
GOLDEN_KIND_COUNTS = {
    "client.train_done": 800,
    "client.train_start": 800,
    "client.turnaround": 800,
    "client.uploaded": 800,
    "credit.grant": 800,
    "sched.assign": 800,
    "sched.created": 800,
    "sched.ping": 1123,
    "sched.sleep_hint": 523,
    "server.assimilated": 800,
    "server.result_valid": 800,
    "web.download": 800,
    "web.upload": 800,
}


def build_fleet(seed: int = 1234):
    num_workunits = WAVES * SLOTS * CLIENTS
    rng = np.random.default_rng([seed, 0xF1EE7])
    work_units = rng.uniform(90.0, 150.0, size=num_workunits)

    sim = Simulator()
    trace = Trace(max_records=MAX_RECORDS)
    auditor = InvariantAuditor()
    trace.attach(auditor)
    config = SchedulerConfig(timeout_s=1e8, max_attempts=1, work_fetch="ping")
    server = BoincServer(
        sim,
        assimilator=CallbackAssimilator(lambda wu, payload: None),
        validator=ParameterValidator(expected_size=VEC_SIZE),
        scheduler_config=config,
        trace=trace,
    )
    server.catalog.publish(ServerFile("model.spec", b"spec", raw_size=2048, sticky=True))
    server.catalog.publish(
        ServerFile("params:v0", np.zeros(VEC_SIZE), raw_size=VEC_SIZE * 8)
    )
    for s in range(SHARD_FILES):
        server.catalog.publish(
            ServerFile(f"shard{s:05d}.npy", b"x", raw_size=4096, sticky=True)
        )
    server.publish_workunits(
        [
            Workunit(
                wu_id=f"golden:e0:s{i}",
                job_id="golden",
                epoch=0,
                shard_index=i,
                input_files=(
                    "model.spec",
                    "params:v0",
                    f"shard{i % SHARD_FILES:05d}.npy",
                ),
                work_units=float(work_units[i]),
                timeout_s=config.timeout_s,
                max_attempts=config.max_attempts,
            )
            for i in range(num_workunits)
        ]
    )
    spec = InstanceSpec(
        name="golden-core", vcpus=SLOTS, clock_ghz=2.4, ram_gb=4.0, network_gbps=1.0
    )
    payload = np.zeros(VEC_SIZE)
    for i in range(CLIENTS):
        server.attach_client(
            ClientDaemon(
                client_id=f"c{i:06d}",
                sim=sim,
                spec=spec,
                scheduler=server.scheduler,
                web=server.web,
                executor=lambda wu, payloads: (payload, RESULT_BYTES),
                max_concurrent=SLOTS,
                trace=trace,
            )
        )
    return sim, server, trace, auditor, num_workunits


def test_tiny_fleet_golden():
    sim, server, trace, auditor, num_workunits = build_fleet()
    scheduler = server.scheduler
    while not scheduler.all_terminal():
        assert sim.step(), "fleet simulation stalled"
    report = auditor.verify()

    assert sum(c.subtasks_completed for c in server.clients.values()) == num_workunits
    assert repr(sim.now) == GOLDEN_NOW
    assert sim.events_processed == GOLDEN_EVENTS
    assert scheduler.pings == GOLDEN_PINGS
    assert report.checks == auditor.checks == GOLDEN_CHECKS
    assert dict(sorted(auditor.kind_counts.items())) == GOLDEN_KIND_COUNTS
    # The bounded buffer kept the newest window and counted what it shed;
    # counters (unlike the window) saw every record.
    assert len(trace) == MAX_RECORDS
    assert trace.count("trace.dropped") == GOLDEN_DROPPED
    assert auditor.records_seen == MAX_RECORDS + GOLDEN_DROPPED
    emitted = {k: v for k, v in trace.summary().items() if k != "trace.dropped"}
    assert emitted == GOLDEN_KIND_COUNTS
