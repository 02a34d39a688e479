"""Sharded server-plane tests: hash partition, KV cut-over barrier,
validator routing, and the runner-level sharded path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.boinc import (
    FileCatalog,
    ParameterValidator,
    ShardedValidatorPool,
    ShardedWorkGenerator,
    WorkGenerator,
    plane_of,
)
from repro.boinc.server_plane import PLANE_EPOCH_KEY
from repro.data import Dataset
from repro.errors import ConfigurationError
from repro.kvstore import EventualStore, StoreLatency
from repro.simulation import Simulator, Trace

NUM_SHARDS = 10


@pytest.fixture
def train_set(rng) -> Dataset:
    return Dataset(rng.normal(size=(100, 6)), rng.integers(0, 4, size=100))


def make_sharded(train_set, sim, planes=3, store=None, trace=None, replicas=1):
    catalog = FileCatalog()
    inner = WorkGenerator(
        job_id="job",
        catalog=catalog,
        train_set=train_set,
        num_shards=NUM_SHARDS,
        model_spec_json='{"kind": "mlp"}',
        timeout_s=300.0,
        rng=np.random.default_rng(0),
    )
    if store is None:
        store = EventualStore(
            sim, StoreLatency(base_s=0.01, per_byte_s=0.0), name="test-store"
        )
    gen = ShardedWorkGenerator(
        inner,
        planes=planes,
        store=store,
        sim=sim,
        trace=trace,
        plane_rngs=[np.random.default_rng(100 + p) for p in range(planes)],
    )
    return gen, store


class TestPartition:
    def test_plane_of_is_stable_and_in_range(self):
        for planes in (1, 2, 3, 7):
            for i in range(50):
                p = plane_of(f"job:e000:s{i:03d}", planes)
                assert 0 <= p < planes
                assert p == plane_of(f"job:e000:s{i:03d}", planes)

    def test_single_plane_short_circuits(self):
        assert plane_of("anything", 1) == 0

    def test_every_shard_minted_exactly_once(self, train_set, sim):
        gen, _ = make_sharded(train_set, sim, planes=3)
        wus = gen.make_epoch(0, "params:v0")
        assert len(wus) == NUM_SHARDS
        assert {wu.shard_index for wu in wus} == set(range(NUM_SHARDS))
        assert len({wu.wu_id for wu in wus}) == NUM_SHARDS

    def test_partition_actually_spreads(self, train_set, sim):
        gen, _ = make_sharded(train_set, sim, planes=3)
        planes_used = {
            gen.plane_for(f"job:e000:s{i:03d}") for i in range(NUM_SHARDS)
        }
        assert len(planes_used) > 1

    def test_replicas_of_one_subtask_share_a_plane(self, train_set, sim):
        gen, _ = make_sharded(train_set, sim, planes=3, replicas=2)
        wus = gen.make_epoch(0, "params:v0", replicas=2)
        assert len(wus) == 2 * NUM_SHARDS

    def test_bad_plane_count_rejected(self, train_set, sim):
        with pytest.raises(ConfigurationError):
            make_sharded(train_set, sim, planes=0)

    def test_rng_stream_count_enforced(self, train_set, sim):
        catalog = FileCatalog()
        inner = WorkGenerator(
            job_id="job",
            catalog=catalog,
            train_set=train_set,
            num_shards=NUM_SHARDS,
            model_spec_json="{}",
            timeout_s=300.0,
            rng=np.random.default_rng(0),
        )
        store = EventualStore(Simulator(), StoreLatency(0.01, 0.0))
        with pytest.raises(ConfigurationError):
            ShardedWorkGenerator(
                inner, planes=3, store=store, sim=sim,
                plane_rngs=[np.random.default_rng(0)],
            )


class TestCutoverBarrier:
    def test_publish_waits_for_all_plane_markers(self, train_set, sim):
        trace = Trace()
        gen, store = make_sharded(train_set, sim, planes=3, trace=trace)
        published: list[int] = []
        flat = gen.generate_epoch(
            0, "params:v0", replicas=1, publish=lambda wus: published.append(len(wus))
        )
        assert len(flat) == NUM_SHARDS
        assert published == []  # markers still in flight
        sim.run()
        assert published == [NUM_SHARDS]
        assert gen.cutovers == 1
        cutovers = [r for r in trace if r.kind == "plane.cutover"]
        assert len(cutovers) == 1
        assert cutovers[0]["planes"] == 3 and cutovers[0]["epoch"] == 0
        assert cutovers[0]["waited_s"] > 0.0

    def test_marker_keys_written_per_plane(self, train_set, sim):
        gen, store = make_sharded(train_set, sim, planes=3)
        gen.generate_epoch(0, "params:v0", replicas=1, publish=lambda wus: None)
        sim.run()
        for plane in range(3):
            assert store._data[f"{PLANE_EPOCH_KEY}:{plane}"] == 0

    def test_slow_plane_delays_cutover(self, train_set, sim):
        # A store outage window covering one plane's write must push the
        # whole cut-over past the window (delayed, never split).
        from repro.simulation.chaos import StoreFaultWindow

        trace = Trace()
        gen, store = make_sharded(train_set, sim, planes=2, trace=trace)
        store.set_fault_windows(
            (StoreFaultWindow(start_s=0.0, duration_s=5.0),)
        )
        published: list[float] = []
        gen.generate_epoch(
            0, "params:v0", replicas=1, publish=lambda wus: published.append(sim.now)
        )
        sim.run()
        assert published and published[0] >= 5.0
        (cutover,) = [r for r in trace if r.kind == "plane.cutover"]
        assert cutover["waited_s"] >= 5.0

    def test_retries_publish_without_barrier(self, train_set, sim):
        gen, store = make_sharded(train_set, sim, planes=3)
        wus = gen.make_retries(0, "params:v0", [2, 5], round_index=1)
        assert {wu.shard_index for wu in wus} == {2, 5}
        assert gen.cutovers == 0  # no barrier, no marker writes
        assert store.writes == 0


class TestValidatorPool:
    def test_routing_is_stable_and_books_aggregate(self, sim):
        pool = ShardedValidatorPool(
            [ParameterValidator(expected_size=4) for _ in range(3)]
        )
        good = np.zeros(4)
        bad = np.zeros(7)
        for i in range(12):
            wu_id = f"job:e000:s{i:03d}"
            assert pool.shard_for(wu_id) is pool.shard_for(wu_id)
            pool.validate(good if i % 2 == 0 else bad, wu_id=wu_id)
        assert pool.accepted == 6 and pool.rejected == 6
        # Each shard's private books sum to the pool totals.
        assert sum(s.accepted + s.rejected for s in pool.shards) == 12

    def test_replica_routed_like_its_logical_unit(self):
        pool = ShardedValidatorPool(
            [ParameterValidator(expected_size=4) for _ in range(3)]
        )
        assert pool.shard_for("job:e000:s001#r0") is pool.shard_for(
            "job:e000:s001#r1"
        )

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedValidatorPool([])

    def test_expected_size_passthrough(self):
        pool = ShardedValidatorPool([ParameterValidator(expected_size=9)])
        assert pool.expected_size == 9


class TestEndToEnd:
    def test_sharded_run_completes_and_is_deterministic(self):
        from repro.core import run_experiment

        from ..core.test_runner import tiny_config

        first = run_experiment(tiny_config(server_planes=2))
        second = run_experiment(tiny_config(server_planes=2))
        assert len(first.epochs) == 2
        assert first.counters["assimilations"] == 12
        assert first.counters["plane_cutovers"] == 2  # one per epoch
        assert [e.to_dict() for e in first.epochs] == [
            e.to_dict() for e in second.epochs
        ]
        assert first.counters == second.counters

    def test_norm_bound_holds_on_every_plane(self):
        # Each shard validator carries the job's max_param_norm, so a bound
        # no upload meets rejects the same results on one plane or two.
        from repro.core import DistributedRunner
        from repro.errors import TrainingError

        from ..core.test_runner import tiny_config

        rejected = []
        for planes in (1, 2):
            runner = DistributedRunner(
                tiny_config(max_param_norm=1e-3, max_epochs=1, server_planes=planes)
            )
            with pytest.raises(TrainingError, match="failed validation"):
                runner.run()
            rejected.append(runner.server.validator.rejected)
        assert rejected[0] > 0
        assert rejected[0] == rejected[1]

    def test_single_plane_has_no_cutover_counter(self):
        from repro.core import run_experiment

        from ..core.test_runner import tiny_config

        result = run_experiment(tiny_config())
        assert "plane_cutovers" not in result.counters
