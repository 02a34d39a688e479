"""Replication / quorum validation tests (§II-C redundancy)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.boinc import CallbackAssimilator, Scheduler, SchedulerConfig, Workunit
from repro.boinc.replication import (
    AGREEMENT_RTOL,
    QuorumAssimilator,
    QuorumConfig,
    logical_id,
    replica_id,
)
from repro.errors import ConfigurationError


def make_replica(logical: str, replica: int, epoch: int = 0) -> Workunit:
    return Workunit(
        wu_id=replica_id(logical, replica),
        job_id="job",
        epoch=epoch,
        shard_index=0,
        input_files=("m", "p", "s0"),
        work_units=1.0,
        timeout_s=100.0,
    )


class TestIds:
    def test_replica_id_roundtrip(self):
        rid = replica_id("job:e000:s007", 2)
        assert rid == "job:e000:s007#r2"
        assert logical_id(rid) == "job:e000:s007"

    def test_logical_id_of_plain_id(self):
        assert logical_id("job:e000:s007") == "job:e000:s007"


class TestQuorumConfig:
    def test_valid(self):
        QuorumConfig(replicas=3, min_quorum=2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replicas": 0},
            {"replicas": 2, "min_quorum": 3},
            {"replicas": 2, "min_quorum": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            QuorumConfig(**kwargs)


class TestQuorumAssimilator:
    def make(self, replicas=2, quorum=2):
        seen: list[np.ndarray] = []
        inner = CallbackAssimilator(lambda wu, payload: seen.append(payload))
        qa = QuorumAssimilator(inner, QuorumConfig(replicas=replicas, min_quorum=quorum))
        return qa, inner, seen

    def test_waits_for_quorum(self):
        qa, inner, seen = self.make()
        done = []
        vec = np.ones(4)
        qa.assimilate(make_replica("u", 0), vec, lambda: done.append(1))
        assert inner.count == 0  # only one replica so far
        assert qa.pending_units() == 1
        qa.assimilate(make_replica("u", 1), vec.copy(), lambda: done.append(2))
        assert inner.count == 1  # quorum of 2 identical results
        assert qa.decided_units() == 1
        assert done == [1, 2]  # every replica's pipeline completes

    def test_forwards_exactly_one_canonical(self):
        qa, inner, seen = self.make(replicas=3, quorum=2)
        vec = np.ones(4)
        for r in range(3):
            qa.assimilate(make_replica("u", r), vec.copy(), lambda: None)
        assert inner.count == 1
        assert qa.discarded_extras == 1  # the third replica was ignored

    def test_disagreeing_replica_blocks_quorum(self):
        qa, inner, seen = self.make()
        qa.assimilate(make_replica("u", 0), np.ones(4), lambda: None)
        qa.assimilate(make_replica("u", 1), np.full(4, 5.0), lambda: None)
        assert inner.count == 0
        assert qa.disagreements >= 1

    def test_majority_beats_corrupt_replica(self):
        qa, inner, seen = self.make(replicas=3, quorum=2)
        good = np.ones(4)
        qa.assimilate(make_replica("u", 0), good, lambda: None)
        qa.assimilate(make_replica("u", 1), np.full(4, 9.0), lambda: None)  # corrupt
        qa.assimilate(make_replica("u", 2), good.copy(), lambda: None)
        assert inner.count == 1
        np.testing.assert_array_equal(seen[0], good)

    def test_fuzzy_tolerance(self):
        qa, inner, seen = self.make()
        nearly = np.ones(4) * (1 + AGREEMENT_RTOL / 10)
        qa.assimilate(make_replica("u", 0), np.ones(4), lambda: None)
        qa.assimilate(make_replica("u", 1), nearly, lambda: None)
        assert inner.count == 1  # within tolerance

    def test_independent_logical_units(self):
        qa, inner, seen = self.make(quorum=1, replicas=2)
        qa.assimilate(make_replica("a", 0), np.ones(2), lambda: None)
        qa.assimilate(make_replica("b", 0), np.zeros(2), lambda: None)
        assert inner.count == 2

    def test_shape_mismatch_never_agrees(self):
        qa, inner, seen = self.make()
        qa.assimilate(make_replica("u", 0), np.ones(4), lambda: None)
        qa.assimilate(make_replica("u", 1), np.ones(5), lambda: None)
        assert inner.count == 0


class TestOneResultPerHost:
    def test_host_never_gets_two_replicas_of_same_unit(self, sim):
        sched = Scheduler(sim, SchedulerConfig(timeout_s=100.0))
        wus = [make_replica("u", r) for r in range(2)]
        sched.add_workunits(wus)
        first = sched.request_work("c1", set(), 4)
        assert len(first) == 1  # second replica is ineligible for c1
        second = sched.request_work("c2", set(), 4)
        assert len(second) == 1

    def test_retry_of_own_unit_allowed(self, sim):
        sched = Scheduler(sim, SchedulerConfig(timeout_s=10.0))
        sched.add_workunits([make_replica("u", 0)])
        sched.request_work("c1", set(), 1)
        sim.run()  # timeout -> requeue
        sim.run(until=sched.client("c1").backoff_until)
        granted = sched.request_work("c1", set(), 1)
        assert len(granted) == 1  # same physical unit, same host: allowed


class TestEndToEndReplication:
    def test_full_run_reaches_all_quorums(self):
        from repro.core import TrainingJobConfig, run_experiment
        from repro.core.job import LocalTrainingConfig
        from repro.data import SyntheticImageConfig
        from repro.nn.models import ModelSpec

        cfg = TrainingJobConfig(
            num_param_servers=1,
            num_clients=3,
            max_concurrent_subtasks=2,
            model=ModelSpec("mlp", {"in_features": 48, "hidden": [8], "num_classes": 4}),
            data=SyntheticImageConfig(image_size=4, num_classes=4, noise_std=1.5),
            num_train=120,
            num_val=40,
            num_test=40,
            num_shards=6,
            max_epochs=2,
            local_training=LocalTrainingConfig(local_epochs=3, learning_rate=0.01),
            replicas=2,
            quorum=2,
            seed=3,
        )
        result = run_experiment(cfg)
        assert result.counters["quorums_reached"] == 12  # 6 shards x 2 epochs
        assert result.counters["replica_disagreements"] == 0
        assert result.counters["assimilations"] == 12

    def test_replicas_capped_by_clients(self):
        from repro.core import TrainingJobConfig

        with pytest.raises(ConfigurationError):
            TrainingJobConfig(num_clients=2, replicas=3, quorum=2)
