"""End-to-end distributed runner integration tests.

These use deliberately tiny jobs (few shards, few epochs, small data) so
the whole suite stays fast while still exercising the full pipeline:
work generation → scheduling → downloads → real training → uploads →
validation → VC-ASGD assimilation → epoch accounting.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    ConstantAlpha,
    DistributedRunner,
    FaultConfig,
    LocalTrainingConfig,
    TrainingJobConfig,
    run_experiment,
)
from repro.data import SyntheticImageConfig
from repro.nn.models import ModelSpec


def tiny_config(**overrides) -> TrainingJobConfig:
    defaults = dict(
        num_param_servers=1,
        num_clients=2,
        max_concurrent_subtasks=2,
        model=ModelSpec("mlp", {"in_features": 48, "hidden": [8], "num_classes": 4}),
        data=SyntheticImageConfig(image_size=4, num_classes=4, noise_std=1.5),
        num_train=120,
        num_val=40,
        num_test=40,
        num_shards=6,
        max_epochs=2,
        local_training=LocalTrainingConfig(local_epochs=6, learning_rate=0.01),
        alpha_schedule=ConstantAlpha(0.8),
        seed=77,
    )
    defaults.update(overrides)
    return TrainingJobConfig(**defaults)


class TestBasicRun:
    def test_completes_all_epochs(self):
        result = run_experiment(tiny_config())
        assert len(result.epochs) == 2
        assert result.stopped_reason == "max_epochs"
        assert result.epochs[0].epoch == 1
        assert result.epochs[1].end_time_s > result.epochs[0].end_time_s

    def test_every_subtask_assimilated(self):
        result = run_experiment(tiny_config())
        assert result.counters["assimilations"] == 12  # 6 shards x 2 epochs
        assert result.epochs[0].assimilations == 6

    def test_accuracy_fields_consistent(self):
        result = run_experiment(tiny_config())
        for rec in result.epochs:
            assert 0.0 <= rec.val_accuracy_min <= rec.val_accuracy_mean
            assert rec.val_accuracy_mean <= rec.val_accuracy_max <= 1.0
            assert 0.0 <= rec.test_accuracy <= 1.0

    def test_learning_happens(self):
        result = run_experiment(tiny_config(max_epochs=6))
        assert result.final_val_accuracy > 0.5  # chance = 0.25

    def test_deterministic_given_seed(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        assert a.total_time_s == b.total_time_s
        np.testing.assert_array_equal(a.val_accuracy(), b.val_accuracy())
        assert a.counters == b.counters

    def test_different_seed_differs(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config(seed=78))
        assert not np.array_equal(a.val_accuracy(), b.val_accuracy())

    def test_target_accuracy_stops_early(self):
        result = run_experiment(tiny_config(max_epochs=30, target_accuracy=0.4))
        assert result.stopped_reason == "target_accuracy"
        assert result.final_val_accuracy >= 0.4
        assert len(result.epochs) < 30

    def test_counters_populated(self):
        result = run_experiment(tiny_config())
        counters = result.counters
        assert counters["bytes_down"] > 0
        assert counters["bytes_up"] > 0
        assert counters["store_updates"] == 12
        assert counters["cache_hits"] > 0  # epoch 2 reuses sticky shards


class TestStoreChoice:
    def test_strong_store_runs_and_loses_nothing(self):
        result = run_experiment(tiny_config(store_kind="strong"))
        assert result.counters["lost_updates"] == 0
        assert result.counters["assimilations"] == 12

    def test_eventual_store_with_many_servers_may_lose(self):
        # P3 on an eventual store with bursts of results: overlapping RMWs.
        result = run_experiment(
            tiny_config(num_param_servers=3, num_clients=3, max_concurrent_subtasks=4)
        )
        assert result.counters["assimilations"] == 12
        # Lost updates are possible but never negative; just consistency.
        assert result.counters["lost_updates"] >= 0

    def test_strong_store_slower_than_eventual(self):
        fast = run_experiment(tiny_config(store_kind="eventual"))
        slow = run_experiment(tiny_config(store_kind="strong"))
        assert slow.total_time_s > fast.total_time_s


class TestFaultTolerance:
    def test_preemptions_recovered(self):
        cfg = tiny_config(
            max_epochs=3,
            faults=FaultConfig(preemption_hourly_p=0.9, relaunch_delay_s=30.0),
        )
        result = run_experiment(cfg)
        # High preemption pressure: at least one instance died, yet every
        # epoch completed with every shard assimilated.
        assert len(result.epochs) == 3
        assert result.counters["assimilations"] == 18
        assert result.counters["preemptions"] >= 1
        assert result.counters["reissues"] >= 1

    def test_preemption_costs_time(self):
        base = tiny_config(max_epochs=2)
        faulty = tiny_config(
            max_epochs=2,
            faults=FaultConfig(preemption_hourly_p=0.9, relaunch_delay_s=30.0),
        )
        t_base = run_experiment(base).total_time_s
        t_faulty = run_experiment(faulty).total_time_s
        assert t_faulty > t_base

    def test_no_relaunch_still_completes_with_survivors(self):
        cfg = tiny_config(
            num_clients=3,
            max_epochs=2,
            faults=FaultConfig(preemption_hourly_p=0.5, relaunch_delay_s=None),
        )
        result = run_experiment(cfg)
        assert result.counters["assimilations"] == 12


class TestScalingKnobs:
    def test_more_clients_faster(self):
        slow = run_experiment(tiny_config(num_clients=1))
        fast = run_experiment(tiny_config(num_clients=4))
        assert fast.total_time_s < slow.total_time_s

    def test_more_concurrency_faster_when_ps_keeps_up(self):
        t1 = run_experiment(tiny_config(max_concurrent_subtasks=1)).total_time_s
        t3 = run_experiment(tiny_config(max_concurrent_subtasks=3)).total_time_s
        assert t3 < t1

    def test_ps_queue_bottleneck_measurable(self):
        """One PS fed many concurrent subtasks queues them; fed one at a
        time, it never does."""

        def mean_wait(**overrides) -> float:
            runner = DistributedRunner(tiny_config(**overrides))
            runner.run()
            return runner.pool.stats.mean_wait()

        assert mean_wait(num_clients=1, max_concurrent_subtasks=1) == 0
        assert mean_wait(num_clients=3, max_concurrent_subtasks=4, num_shards=12) > 0

    def test_compression_reduces_bytes(self):
        with_c = run_experiment(tiny_config(compression_enabled=True))
        without = run_experiment(tiny_config(compression_enabled=False))
        assert with_c.counters["bytes_down"] < without.counters["bytes_down"]


class TestStalenessInstrumentation:
    def test_staleness_counters_present(self):
        result = run_experiment(tiny_config(max_epochs=2))
        assert "mean_staleness_x100" in result.counters
        assert result.counters["max_staleness"] >= 1

    def test_staleness_grows_with_concurrency(self):
        """More simultaneous subtasks -> each trains from an older server
        snapshot relative to its merge (the high-Tn penalty mechanism)."""
        def mean_staleness(t: int) -> float:
            r = run_experiment(
                tiny_config(
                    num_clients=3,
                    max_concurrent_subtasks=t,
                    num_shards=24,
                    num_train=240,
                    max_epochs=2,
                )
            )
            return r.counters["mean_staleness_x100"] / 100

        assert mean_staleness(1) < mean_staleness(2) < mean_staleness(8)


class TestAlphaEffectEndToEnd:
    def test_tiny_alpha_slows_learning(self):
        """α=0.999 barely learns (the paper's EASGD-analogue result)."""
        normal = run_experiment(tiny_config(max_epochs=3))
        frozen = run_experiment(
            tiny_config(max_epochs=3, alpha_schedule=ConstantAlpha(0.999))
        )
        assert frozen.final_val_accuracy < normal.final_val_accuracy
