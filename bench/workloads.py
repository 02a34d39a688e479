"""The benchmark's five workloads: seed -> inputs -> one run -> outcome.

Each workload turns the seed into inputs (job config, data seed, chaos
plan, per-workunit work sizes) at construction and hands only those to
``repro``.  Training workloads set only the ``TrainingJobConfig`` fields
named here and inherit every other default, so a later change of a
default is measured as what it is.  Construction is the set-up phase;
:meth:`run` is the timed region; :meth:`outcome` reads the results and
applies the workload's correctness floors.

The load is a closed loop by construction: a simulated client asks for
its next workunit only when the previous one is done.  Everything runs
in one process with ``step_jobs=1``.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field

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
from repro.core import (
    ConstantAlpha,
    DistributedRunner,
    FaultConfig,
    LocalTrainingConfig,
    TrainingJobConfig,
)
from repro.core.checkpoint import Checkpoint
from repro.data import SyntheticImageConfig
from repro.nn.models import ModelSpec
from repro.nn.serialization import compressed_size_cache_stats
from repro.obs.audit import InvariantAuditor
from repro.simulation.chaos import (
    ChaosPlan,
    PartitionWindow,
    ServerCrash,
    StoreFaultWindow,
    TransferFaultPlan,
)
from repro.simulation.engine import Simulator
from repro.simulation.resources import TABLE1_CLIENTS, InstanceSpec
from repro.simulation.tracing import Trace

__all__ = ["Outcome", "WORKLOADS"]


@dataclass
class Outcome:
    """What one finished repeat reports, before aggregation."""

    sim_time_s: float
    final_val_acc: float
    wire_mb: float
    attempted: int  # workunits the job must complete
    failed: int  # workunits not assimilated/completed
    digest: str
    problems: list[str] = field(default_factory=list)  # missed floors/checks
    # Per-layer numbers read off the finished objects (not span times).
    layer_counts: dict[str, float] = field(default_factory=dict)


def _digest(parts: list[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class TrainingWorkload:
    """A ``DistributedRunner`` job; subclasses supply config and floors."""

    acc_floor = 0.0

    def __init__(self, seed: int, tiny: bool) -> None:
        self.tiny = tiny
        self.config = self.make_config(seed, tiny)
        self.runner = DistributedRunner(self.config)
        self.result = None

    def make_config(self, seed: int, tiny: bool) -> TrainingJobConfig:
        raise NotImplementedError

    def run(self) -> None:
        self.result = self.runner.run()

    def extra_problems(self, counters: dict[str, int]) -> list[str]:
        return []

    def outcome(self) -> Outcome:
        result, runner, config = self.result, self.runner, self.config
        counters = result.counters
        attempted = config.num_shards * config.max_epochs
        problems = []
        if not self.tiny:  # floors are calibrated for the full-size inputs
            if result.final_val_accuracy < self.acc_floor:
                problems.append(
                    f"final_val_acc {result.final_val_accuracy:.4f} "
                    f"below floor {self.acc_floor}"
                )
            problems.extend(self.extra_problems(counters))
        digest = _digest(
            [f"{e.end_time_s!r} {e.val_accuracy_mean!r}" for e in result.epochs]
            + [f"{k}={v}" for k, v in sorted(counters.items())]
        )
        return Outcome(
            sim_time_s=result.epochs[-1].end_time_s,
            final_val_acc=result.final_val_accuracy,
            wire_mb=(counters["bytes_down"] + counters["bytes_up"]) / 1e6,
            attempted=attempted,
            failed=max(0, attempted - counters["assimilations"]),
            digest=digest,
            problems=problems,
            layer_counts=self._layer_counts(counters),
        )

    def _layer_counts(self, counters: dict[str, int]) -> dict[str, float]:
        runner = self.runner
        sched = runner.server.scheduler
        auditor = runner.obs.auditor
        hits, misses = compressed_size_cache_stats()
        stats = runner._dispatcher.stats if runner._dispatcher is not None else {}
        updates = counters["assimilations"]
        return {
            "nn.serialization.memo_hit_ratio": _ratio(hits, hits + misses),
            "core.steps.fuse_ratio": _ratio(
                stats.get("cohort_members", 0), stats.get("tasks", 0)
            ),
            "core.steps.flushes": stats.get("flushes", 0),
            "core.param_server.mean_wait_sim_s": runner.pool.stats.mean_wait(),
            "boinc.scheduler.timeouts": counters["timeouts"],
            "boinc.scheduler.reissues": counters["reissues"],
            "boinc.scheduler.wasted_ratio": _ratio(
                counters["reissues"], updates + counters["reissues"]
            ),
            "boinc.scheduler.sleep_hints": auditor.kind_counts.get(
                "sched.sleep_hint", 0
            ),
            "boinc.scheduler.pings_per_workunit": _ratio(sched.pings, updates),
            "boinc.validator.rejects": runner.server.validator.rejected,
            "boinc.files.transfer_retries": counters.get("transfer_retries", 0),
            "boinc.files.bytes_wasted_mb": counters.get("bytes_wasted", 0) / 1e6,
            "boinc.files.sticky_hit_ratio": _ratio(
                counters["cache_hits"],
                counters["cache_hits"] + counters["cache_misses"],
            ),
            "simulation.engine.events": runner.sim.events_processed,
            "simulation.chaos.partition_blocks": counters.get(
                "net_partition_blocks", 0
            ),
            "simulation.chaos.kv_outage_blocks": counters.get("kv_outage_blocks", 0),
            "kvstore.ops": runner.store.reads + runner.store.writes
            + runner.store.updates,
            "kvstore.lost_updates": counters["lost_updates"],
            "obs.audit.checks": auditor.checks,
        }

    def checkpoint_roundtrip(self) -> int:
        """Serialize and re-read one checkpoint; returns its size in bytes."""
        blob = self.runner.checkpoint().to_bytes()
        Checkpoint.from_bytes(blob)
        return len(blob)


class Fig2P1C3T2(TrainingWorkload):
    # Observed 0.649-0.795 over seeds 1-10, 1234, 7, 99 (seed 7 lowest).
    acc_floor = 0.55

    def make_config(self, seed, tiny):
        return TrainingJobConfig(max_epochs=2 if tiny else 12, seed=seed).with_pct(
            1, 3, 2
        )


class WideInt8P1C3T2(TrainingWorkload):
    acc_floor = 0.80  # observed 0.930-0.992 over the same seeds
    min_publish_ratio = 4.0

    def make_config(self, seed, tiny):
        hidden = [64, 32] if tiny else [1024, 512]
        return TrainingJobConfig(
            model=ModelSpec(
                "mlp", {"in_features": 192, "hidden": hidden, "num_classes": 10}
            ),
            # Low pixel noise: the 0.73M-parameter model then reaches ~0.9
            # within 40 updates on every seed; at the default noise the
            # final accuracy swings 0.34-0.47 with the seed's prototypes.
            data=SyntheticImageConfig(noise_std=1.0),
            local_training=LocalTrainingConfig(local_epochs=1),
            codec="int8",
            num_shards=6 if tiny else 20,
            max_epochs=2,
            seed=seed,
        ).with_pct(1, 3, 2)

    def extra_problems(self, counters):
        ratio = _ratio(
            counters["codec_publish_raw_bytes"], counters["codec_publish_wire_bytes"]
        )
        if ratio < self.min_publish_ratio:
            return [f"int8 publish raw/wire {ratio:.2f} below {self.min_publish_ratio}"]
        return []


def chaos_plan(seed: int, horizon_s: float) -> ChaosPlan:
    """A seeded fault plan touching all four chaos layers.

    Pure data derived from ``seed``; every window starts inside the first
    80 % of ``horizon_s`` (the run's rough simulated length) so each layer
    fires before the job ends.
    """
    rng = np.random.default_rng([seed, 0xC4A05])
    return ChaosPlan(
        transfer=TransferFaultPlan(
            failure_p=0.05,
            stall_p=0.01,
            stall_timeout_s=60.0,
        ),
        partitions=tuple(
            PartitionWindow(
                start_s=float(rng.uniform(lo, hi)) * horizon_s,
                # Shorter than the 300 s subtask timeout: a longer cut times
                # out every in-flight workunit at once, and how far the
                # clients' transfer backoff then escalates swings the
                # simulated job length by 2x from seed to seed.
                duration_s=150.0,
            )
            for lo, hi in ((0.1, 0.4), (0.5, 0.8))
        ),
        ps_crashes=(
            ServerCrash(
                at_s=float(rng.uniform(0.3, 0.6)) * horizon_s,
                restart_delay_s=float(rng.uniform(30.0, 90.0)),
            ),
        ),
        kv_windows=(
            StoreFaultWindow(
                start_s=float(rng.uniform(0.1, 0.3)) * horizon_s,
                duration_s=float(rng.uniform(60.0, 120.0)),
            ),
            StoreFaultWindow(
                start_s=float(rng.uniform(0.6, 0.8)) * horizon_s,
                duration_s=float(rng.uniform(200.0, 400.0)),
                latency_factor=4.0,
            ),
        ),
    )


class ChaosP3C3T4(TrainingWorkload):
    acc_floor = 0.50  # observed 0.628-0.777 over the same seeds
    # P3C3T4 runs ~670 simulated seconds per 50-shard epoch.
    sim_s_per_epoch = 670.0

    def make_config(self, seed, tiny):
        epochs = 2 if tiny else 12
        shards = 12 if tiny else 50
        horizon = self.sim_s_per_epoch * epochs * shards / 50
        return TrainingJobConfig(
            max_epochs=epochs,
            num_shards=shards,
            faults=FaultConfig(chaos=chaos_plan(seed, horizon)),
            seed=seed,
        ).with_pct(3, 3, 4)

    def extra_problems(self, counters):
        problems = []
        if not (counters["ps_crashes"] == counters["ps_recoveries"] == 1):
            problems.append(
                f"ps_crashes={counters['ps_crashes']} "
                f"ps_recoveries={counters['ps_recoveries']}, want 1 and 1"
            )
        for key in ("transfer_failures", "net_partition_blocks"):
            if counters[key] <= 0:
                problems.append(f"chaos layer never fired: {key} == 0")
        if counters["kv_outage_blocks"] + counters["kv_degraded_ops"] <= 0:
            problems.append("chaos layer never fired: no KV window hit an op")
        return problems


class Cohort8Homog(TrainingWorkload):
    acc_floor = 0.75  # observed 0.843-0.991 over the same seeds

    def make_config(self, seed, tiny):
        return TrainingJobConfig(
            num_clients=8,
            max_concurrent_subtasks=2,
            model=ModelSpec(
                "mlp", {"in_features": 48, "hidden": [128, 64], "num_classes": 4}
            ),
            data=SyntheticImageConfig(image_size=4, num_classes=4, noise_std=1.5),
            num_train=1920,
            num_val=40,
            num_test=40,
            num_shards=24,
            max_epochs=2 if tiny else 16,
            local_training=LocalTrainingConfig(local_epochs=8, learning_rate=0.01),
            alpha_schedule=ConstantAlpha(0.8),
            client_specs=(TABLE1_CLIENTS[0],),
            cohort_size=8,
            step_jobs=1,
            seed=seed,
        )


class Fleet10kPing:
    """10 000 ping-mode clients draining a queue through a stub executor.

    The shape of ``benchmarks/perf/bench_fleet.py::run_fleet`` with more
    than one wave of work per client slot, so clients come back for work
    and the ping/sleep-hint cycle reaches steady state.  The seed draws
    each workunit's compute size, which de-synchronizes the fleet.
    """

    VEC_SIZE = 64
    SHARD_FILES = 256
    SLOTS = 2
    RESULT_BYTES = 4096

    def __init__(self, seed: int, tiny: bool) -> None:
        clients = 200 if tiny else 10_000
        waves = 2
        self.num_workunits = waves * self.SLOTS * clients
        rng = np.random.default_rng([seed, 0xF1EE7])
        work_units = rng.uniform(90.0, 150.0, size=self.num_workunits)

        self.sim = Simulator()
        # Bounded record buffer; the auditor is an observer and still sees
        # every record.
        self.trace = Trace(max_records=10_000)
        self.auditor = InvariantAuditor()
        self.trace.attach(self.auditor)
        # Timeouts effectively disabled: this workload measures the steady
        # grant path, chaos_p3c3t4 the reissue machinery.
        config = SchedulerConfig(timeout_s=1e8, max_attempts=1, work_fetch="ping")
        self.server = BoincServer(
            self.sim,
            assimilator=CallbackAssimilator(lambda wu, payload: None),
            validator=ParameterValidator(expected_size=self.VEC_SIZE),
            scheduler_config=config,
            trace=self.trace,
        )
        catalog = self.server.catalog
        catalog.publish(ServerFile("model.spec", b"spec", raw_size=2048, sticky=True))
        catalog.publish(
            ServerFile(
                "params:v0", np.zeros(self.VEC_SIZE), raw_size=self.VEC_SIZE * 8
            )
        )
        shard_files = min(self.SHARD_FILES, clients)
        for s in range(shard_files):
            catalog.publish(
                ServerFile(f"shard{s:05d}.npy", b"x", raw_size=4096, sticky=True)
            )
        # Published before any client attaches: nobody to wake, the boot
        # pings discover the queue themselves.
        self.server.publish_workunits(
            [
                Workunit(
                    wu_id=f"bench:e0:s{i}",
                    job_id="bench",
                    epoch=0,
                    shard_index=i,
                    input_files=(
                        "model.spec",
                        "params:v0",
                        f"shard{i % shard_files:05d}.npy",
                    ),
                    work_units=float(work_units[i]),
                    timeout_s=config.timeout_s,
                    max_attempts=config.max_attempts,
                )
                for i in range(self.num_workunits)
            ]
        )
        spec = InstanceSpec(
            name="bench-core",
            vcpus=self.SLOTS,
            clock_ghz=2.4,
            ram_gb=4.0,
            network_gbps=1.0,
        )
        payload = np.zeros(self.VEC_SIZE)

        def executor(wu, payloads):
            return payload, self.RESULT_BYTES

        for i in range(clients):
            self.server.attach_client(
                ClientDaemon(
                    client_id=f"c{i:06d}",
                    sim=self.sim,
                    spec=spec,
                    scheduler=self.server.scheduler,
                    web=self.server.web,
                    executor=executor,
                    max_concurrent=self.SLOTS,
                    trace=self.trace,
                )
            )
        self.stalled = False

    def run(self) -> None:
        scheduler, sim = self.server.scheduler, self.sim
        # The cyclic GC is paused in the loop: collection pauses scale with
        # the heap (the fleet) and would masquerade as per-event cost.
        gc.collect()
        gc.disable()
        try:
            while not scheduler.all_terminal():
                if not sim.step():
                    self.stalled = True
                    break
        finally:
            gc.enable()
        self.auditor.verify()  # raises InvariantViolation on a broken law

    def outcome(self) -> Outcome:
        scheduler, web = self.server.scheduler, self.server.web
        clients = self.server.clients.values()
        completed = sum(c.subtasks_completed for c in clients)
        problems = ["fleet simulation stalled"] if self.stalled else []
        hits = sum(c.cache.hits for c in clients)
        misses = sum(c.cache.misses for c in clients)
        kinds = self.auditor.kind_counts
        digest = _digest(
            [
                repr(self.sim.now),
                str(self.sim.events_processed),
                str(scheduler.pings),
                str(completed),
                str(web.bytes_down + web.bytes_up),
            ]
            + [f"{k}={v}" for k, v in sorted(kinds.items())]
        )
        return Outcome(
            sim_time_s=self.sim.now,
            # No model here: the constant keeps the metric set uniform
            # across workloads (see README, "metrics on fleet_10k_ping").
            final_val_acc=1.0,
            wire_mb=(web.bytes_down + web.bytes_up) / 1e6,
            attempted=self.num_workunits,
            failed=max(0, self.num_workunits - completed),
            digest=digest,
            problems=problems,
            layer_counts={
                "boinc.scheduler.timeouts": scheduler.timeouts,
                "boinc.scheduler.reissues": scheduler.reissues,
                "boinc.scheduler.sleep_hints": kinds.get("sched.sleep_hint", 0),
                "boinc.scheduler.pings_per_workunit": _ratio(
                    scheduler.pings, self.num_workunits
                ),
                "boinc.validator.rejects": self.server.validator.rejected,
                "boinc.files.sticky_hit_ratio": _ratio(hits, hits + misses),
                "simulation.engine.events": self.sim.events_processed,
                "obs.audit.checks": self.auditor.checks,
            },
        )

    def checkpoint_roundtrip(self) -> int:
        return 0  # no training job, nothing to checkpoint


WORKLOADS = {
    "fig2_p1c3t2": Fig2P1C3T2,
    "wide_int8_p1c3t2": WideInt8P1C3T2,
    "chaos_p3c3t4": ChaosP3C3T4,
    "fleet_10k_ping": Fleet10kPing,
    "cohort8_homog": Cohort8Homog,
}
