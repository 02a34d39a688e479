"""Parameter-server pool tests: queueing, merging, epoch accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.boinc import Workunit
from repro.core.param_server import PARAM_KEY, ParameterServerPool
from repro.core.rules import ClientUpdate, VCASGDRule
from repro.core.vcasgd import ConstantAlpha
from repro.errors import ConfigurationError, TrainingError
from repro.kvstore import EventualStore, StoreLatency, StrongStore
from repro.simulation import ComputeResource, InstanceSpec, Simulator
from repro.simulation.resources import VALIDATION_WORK_UNITS


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


def update(vec: np.ndarray) -> ClientUpdate:
    return ClientUpdate(client_id="", params=vec)


# A server core this fast runs one validation pass in 1 s.
FAST_CLOCK_GHZ = 2.4 * VALIDATION_WORK_UNITS


def build_pool(
    sim: Simulator,
    num_servers: int = 1,
    store_cls=EventualStore,
    accuracies: list[float] | None = None,
) -> ParameterServerPool:
    store = store_cls(sim, StoreLatency(base_s=1.0, per_byte_s=0.0))
    store.put_now(PARAM_KEY, np.zeros(4))
    spec = InstanceSpec("srv", vcpus=4, clock_ghz=FAST_CLOCK_GHZ, ram_gb=8, network_gbps=1)
    acc_iter = iter(accuracies or [])

    def evaluate(vec: np.ndarray) -> tuple[float, float]:
        try:
            return 0.0, next(acc_iter)
        except StopIteration:
            return 0.0, float(vec.mean())

    return ParameterServerPool(
        sim=sim,
        num_servers=num_servers,
        store=store,
        rule=VCASGDRule(ConstantAlpha(0.5)),
        server_cpu=ComputeResource(sim, spec),
        evaluate_fn=evaluate,
    )


class TestAssimilation:
    def test_single_update_merges(self, sim):
        pool = build_pool(sim)
        done = []
        pool.assimilate(make_wu(), update(np.ones(4)), lambda: done.append(sim.now))
        sim.run()
        # α=0.5: 0.5*0 + 0.5*1 = 0.5; service = 1 s store + 1 s validation.
        np.testing.assert_allclose(pool.current_params(), 0.5 * np.ones(4))
        assert done == pytest.approx([2.0])
        assert pool.stats.processed == 1

    def test_rejects_non_array_payload(self, sim):
        pool = build_pool(sim)
        with pytest.raises(TrainingError):
            pool.assimilate(make_wu(), "garbage", lambda: None)

    def test_invalid_config(self, sim):
        with pytest.raises(ConfigurationError):
            build_pool(sim, num_servers=0)

    def test_sequential_merges_compose(self, sim):
        pool = build_pool(sim)
        pool.assimilate(make_wu(0), update(np.ones(4)), lambda: None)
        sim.run()
        pool.assimilate(make_wu(1), update(np.ones(4)), lambda: None)
        sim.run()
        np.testing.assert_allclose(pool.current_params(), 0.75 * np.ones(4))


class TestQueueing:
    def test_single_worker_serializes(self, sim):
        """P=1: three results drain one at a time (the Fig. 3 bottleneck)."""
        pool = build_pool(sim, num_servers=1)
        done: list[float] = []
        for i in range(3):
            pool.assimilate(make_wu(i), update(np.ones(4)), lambda: done.append(sim.now))
        assert pool.queue_depth() == 2
        sim.run()
        assert done == pytest.approx([2.0, 4.0, 6.0])
        assert pool.stats.max_queue_depth == 2
        assert pool.stats.mean_wait() > 0

    def test_more_workers_drain_in_parallel(self, sim):
        pool = build_pool(sim, num_servers=3)
        done: list[float] = []
        for i in range(3):
            pool.assimilate(make_wu(i), update(np.ones(4)), lambda: done.append(sim.now))
        sim.run()
        assert done == pytest.approx([2.0, 2.0, 2.0])
        assert pool.stats.total_queue_wait == 0.0

    def test_busy_workers_tracked(self, sim):
        pool = build_pool(sim, num_servers=2)
        pool.assimilate(make_wu(0), update(np.ones(4)), lambda: None)
        pool.assimilate(make_wu(1), update(np.ones(4)), lambda: None)
        assert pool.busy_workers == 2
        sim.run()
        assert pool.busy_workers == 0

    def test_strong_store_with_multiple_workers_serializes_store(self, sim):
        """With P=2 over a strong store, the per-key lock serializes the
        store phase (but validation can still overlap)."""
        pool = build_pool(sim, num_servers=2, store_cls=StrongStore)
        done: list[float] = []
        for i in range(2):
            pool.assimilate(make_wu(i), update(np.ones(4)), lambda: done.append(sim.now))
        sim.run()
        # Store commits at t=1 and t=2; validations end at t=2 and t=3.
        assert done == pytest.approx([2.0, 3.0])
        # No update lost under strong consistency.
        np.testing.assert_allclose(pool.current_params(), 0.75 * np.ones(4))

    def test_eventual_store_concurrent_merges_lose_updates(self, sim):
        pool = build_pool(sim, num_servers=2, store_cls=EventualStore)
        for i in range(2):
            pool.assimilate(make_wu(i), update(np.ones(4)), lambda: None)
        sim.run()
        # Both merged from the same 0-snapshot: one update clobbered.
        np.testing.assert_allclose(pool.current_params(), 0.5 * np.ones(4))
        assert pool.store.lost_updates == 1


class TestEpochAccounting:
    def test_epoch_accuracy_summary(self, sim):
        pool = build_pool(sim, accuracies=[0.3, 0.5, 0.4])
        for i in range(3):
            pool.assimilate(make_wu(i, epoch=0), update(np.ones(4)), lambda: None)
        sim.run()
        mean, lo, hi = pool.epoch_accuracy_summary(0)
        assert mean == pytest.approx(0.4)
        assert (lo, hi) == (0.3, 0.5)

    def test_epochs_tracked_separately(self, sim):
        pool = build_pool(sim, accuracies=[0.1, 0.9])
        pool.assimilate(make_wu(0, epoch=0), update(np.ones(4)), lambda: None)
        sim.run()
        pool.assimilate(make_wu(1, epoch=1), update(np.ones(4)), lambda: None)
        sim.run()
        assert pool.epoch_accuracy_summary(0)[0] == pytest.approx(0.1)
        assert pool.epoch_accuracy_summary(1)[0] == pytest.approx(0.9)

    def test_missing_epoch_raises(self, sim):
        with pytest.raises(TrainingError):
            build_pool(sim).epoch_accuracy_summary(7)

    def test_alpha_uses_one_based_epoch(self, sim):
        """Workunit epoch 0 must map to schedule epoch 1 (paper counts
        from 1) — VarAlpha would reject epoch 0."""
        from repro.core.vcasgd import VarAlpha

        store = EventualStore(sim, StoreLatency(base_s=0.1, per_byte_s=0.0))
        store.put_now(PARAM_KEY, np.zeros(2))
        spec = InstanceSpec("srv", vcpus=2, clock_ghz=2.4, ram_gb=4, network_gbps=1)
        pool = ParameterServerPool(
            sim=sim,
            num_servers=1,
            store=store,
            rule=VCASGDRule(VarAlpha()),
            server_cpu=ComputeResource(sim, spec),
            evaluate_fn=lambda vec: (0.0, 0.5),
        )
        pool.assimilate(make_wu(0, epoch=0), update(np.ones(2)), lambda: None)
        sim.run()
        # α(1) = 0.5 -> merged value 0.5.
        np.testing.assert_allclose(pool.current_params(), [0.5, 0.5])
