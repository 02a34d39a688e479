"""Parameter-server crash/failover semantics: exactly-once assimilation.

The merge commit in the shared store is the atomicity point:

* crash **before** commit → the store transaction aborts (TXN_ABORT) and
  the item requeues, so whichever server runs next applies it exactly once;
* crash **after** commit with survivors → a surviving server adopts the
  rest of the pipeline (§III-D: state lives in the store, servers are
  replaceable);
* crash **after** commit with no survivors → the item strands until a
  restart resumes its validation.

Runner-level: a mid-training sole-server crash restores from the latest
epoch checkpoint and finishes within noise of the fault-free run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.boinc import Workunit
from repro.core import FaultConfig
from repro.core.param_server import PARAM_KEY, ParameterServerPool
from repro.core.rules import VCASGDRule
from repro.core.runner import DistributedRunner
from repro.core.vcasgd import ConstantAlpha
from repro.kvstore import EventualStore, StoreLatency, StrongStore
from repro.simulation import ComputeResource, InstanceSpec
from repro.simulation.resources import VALIDATION_WORK_UNITS
from repro.simulation.chaos import ChaosPlan, ServerCrash

from .test_param_server import update
from .test_runner import tiny_config


def make_wu(i: int = 0, epoch: int = 0) -> Workunit:
    return Workunit(
        wu_id=f"wu{i:02d}",
        job_id="job",
        epoch=epoch,
        shard_index=i,
        input_files=("m", "p", f"s{i}"),
        work_units=1.0,
        timeout_s=100.0,
    )


# A server core this fast runs one validation pass in 1 s.
FAST_CLOCK_GHZ = 2.4 * VALIDATION_WORK_UNITS


def build_pool(sim, num_servers=1, store_cls=EventualStore, trace=None):
    store = store_cls(sim, StoreLatency(base_s=1.0, per_byte_s=0.0), trace=trace)
    store.put_now(PARAM_KEY, np.zeros(4))
    spec = InstanceSpec("srv", vcpus=4, clock_ghz=FAST_CLOCK_GHZ, ram_gb=8, network_gbps=1)
    return ParameterServerPool(
        sim=sim,
        num_servers=num_servers,
        store=store,
        rule=VCASGDRule(ConstantAlpha(0.5)),
        server_cpu=ComputeResource(sim, spec),
        evaluate_fn=lambda vec: (0.0, float(vec.mean())),
        trace=trace,
    )


# Timeline for one assimilation with these latencies: store commit at
# t=1 (the atomicity point), validation t=1..2, on_done at t=2.


class TestCrashBeforeCommit:
    def test_aborts_and_requeues(self, sim, trace):
        pool = build_pool(sim, trace=trace)
        done: list[float] = []
        pool.assimilate(make_wu(), update(np.ones(4)), lambda: done.append(sim.now))
        sim.schedule(0.5, pool.crash_server)  # before the t=1 commit
        sim.schedule(10.0, pool.restart_server)
        sim.run()
        # Exactly one application of the update, by the restarted server.
        np.testing.assert_allclose(pool.current_params(), 0.5 * np.ones(4))
        assert len(done) == 1
        assert pool.stats.processed == 1
        assert trace.count("kv.txn_abort") == 1
        crash = trace.last("ps.crash")
        assert crash["lost"] == "uncommitted"

    def test_survivor_reruns_immediately(self, sim, trace):
        pool = build_pool(sim, num_servers=2, trace=trace)
        done: list[float] = []
        pool.assimilate(make_wu(), update(np.ones(4)), lambda: done.append(sim.now))
        sim.schedule(0.5, pool.crash_server)
        sim.run()
        # The second worker picked the requeued item up without a restart.
        np.testing.assert_allclose(pool.current_params(), 0.5 * np.ones(4))
        assert len(done) == 1
        assert pool.num_servers == 1


class TestCrashAfterCommitWithSurvivors:
    def test_survivor_adopts_pipeline(self, sim, trace):
        pool = build_pool(sim, num_servers=2, trace=trace)
        done: list[float] = []
        pool.assimilate(make_wu(), update(np.ones(4)), lambda: done.append(sim.now))
        sim.schedule(1.5, pool.crash_server)  # committed at t=1, validating
        sim.run()
        np.testing.assert_allclose(pool.current_params(), 0.5 * np.ones(4))
        assert len(done) == 1  # assimilated exactly once
        assert pool.stats.processed == 1
        assert pool.adoptions == 1
        assert trace.last("ps.crash")["lost"] == "adopted"


class TestSoleServerCrash:
    def test_stranded_item_resumes_on_restart(self, sim, trace):
        pool = build_pool(sim, num_servers=1, trace=trace)
        done: list[float] = []
        pool.assimilate(make_wu(), update(np.ones(4)), lambda: done.append(sim.now))
        sim.schedule(1.5, pool.crash_server)  # committed, mid-validation
        sim.schedule(5.0, pool.restart_server)
        sim.run()
        # Merge was durable; restart re-validated and finished exactly once.
        np.testing.assert_allclose(pool.current_params(), 0.5 * np.ones(4))
        assert done == [pytest.approx(6.0)]  # restart at 5 + 1 s validation
        assert pool.stats.processed == 1
        assert trace.last("ps.crash")["lost"] == "stranded"
        recover = trace.last("ps.recover")
        assert recover["resumed"] == 1 and recover["total_outage"] is True

    def test_total_outage_restart_hook_fires(self, sim):
        pool = build_pool(sim, num_servers=1)
        calls: list[float] = []
        pool.on_total_outage_restart = lambda: calls.append(sim.now)
        sim.schedule(1.0, pool.crash_server)
        sim.schedule(2.0, pool.restart_server)
        sim.run()
        assert calls == [2.0]

    def test_hook_not_fired_for_partial_outage(self, sim):
        pool = build_pool(sim, num_servers=2)
        calls: list[float] = []
        pool.on_total_outage_restart = lambda: calls.append(sim.now)
        sim.schedule(1.0, pool.crash_server)
        sim.schedule(2.0, pool.restart_server)
        sim.run()
        assert calls == []

    def test_queue_waits_out_the_outage(self, sim):
        pool = build_pool(sim, num_servers=1)
        done: list[float] = []
        sim.schedule(0.0, pool.crash_server)  # idle worker dies immediately
        pool.assimilate(make_wu(), update(np.ones(4)), lambda: done.append(sim.now))
        sim.schedule(20.0, pool.restart_server)
        sim.run()
        assert done and done[0] >= 20.0
        assert pool.stats.processed == 1


class TestIdleCrash:
    def test_capacity_loss_only(self, sim, trace):
        pool = build_pool(sim, num_servers=2, trace=trace)
        pool.crash_server()
        assert pool.num_servers == 1
        assert pool.crashes == 1
        assert trace.last("ps.crash")["lost"] == "idle"


class TestStrongStoreFailover:
    def test_abort_requeue_on_strong_store(self, sim, trace):
        # The strong store must release its per-key lock on abort or the
        # requeued item deadlocks forever.
        pool = build_pool(sim, store_cls=StrongStore, trace=trace)
        done: list[float] = []
        pool.assimilate(make_wu(), update(np.ones(4)), lambda: done.append(sim.now))
        sim.schedule(0.5, pool.crash_server)
        sim.schedule(10.0, pool.restart_server)
        sim.run()
        np.testing.assert_allclose(pool.current_params(), 0.5 * np.ones(4))
        assert len(done) == 1


class TestRunnerCrashRecovery:
    def _chaos_config(self, crash, **overrides):
        return tiny_config(
            faults=FaultConfig(chaos=ChaosPlan(ps_crashes=crash)),
            **overrides,
        )

    def test_sole_ps_crash_restores_from_checkpoint(self):
        from repro.core import run_experiment

        crash = (ServerCrash(at_s=500.0, restart_delay_s=60.0),)
        faulty = run_experiment(self._chaos_config(crash, num_param_servers=1))
        clean = run_experiment(tiny_config(num_param_servers=1))
        assert len(faulty.epochs) == len(clean.epochs)
        assert faulty.counters["ps_crashes"] == 1
        assert faulty.counters["ps_recoveries"] == 1
        # The training signal survives the crash: final accuracy within
        # noise of the fault-free run on the same seed.
        assert faulty.epochs[-1].val_accuracy_mean == pytest.approx(
            clean.epochs[-1].val_accuracy_mean, abs=0.15
        )

    def test_restore_emits_trace(self):
        crash = (ServerCrash(at_s=500.0, restart_delay_s=60.0),)
        runner = DistributedRunner(self._chaos_config(crash, num_param_servers=1))
        runner.run()
        assert runner.trace.count("ps.crash") == 1
        assert runner.trace.count("ps.recover") == 1
        # The sole server restarted from the latest epoch checkpoint.
        assert runner.trace.count("ps.restore") == 1

    def test_no_restore_when_disabled(self):
        plan = ChaosPlan(
            ps_crashes=(ServerCrash(at_s=500.0, restart_delay_s=60.0),),
            restore_from_checkpoint=False,
        )
        runner = DistributedRunner(tiny_config(faults=FaultConfig(chaos=plan)))
        runner.run()
        assert runner.trace.count("ps.restore") == 0

    def test_crash_run_is_reproducible(self):
        from repro.core import run_experiment

        crash = (ServerCrash(at_s=400.0, restart_delay_s=90.0),)
        a = run_experiment(self._chaos_config(crash))
        b = run_experiment(self._chaos_config(crash))
        assert a.counters == b.counters
        assert [e.val_accuracy_mean for e in a.epochs] == [
            e.val_accuracy_mean for e in b.epochs
        ]
