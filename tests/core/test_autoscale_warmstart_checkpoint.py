"""Tests for autoscaling, warm start, and checkpoint/resume."""

from __future__ import annotations

import numpy as np
import pytest

from repro.boinc import Workunit
from repro.core import (
    AutoscalePolicy,
    AutoscalingPool,
    ConstantAlpha,
    DistributedRunner,
    run_experiment,
)
from repro.core.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from repro.core.param_server import PARAM_KEY
from repro.core.results import EpochRecord, RunResult
from repro.core.rules import VCASGDRule
from repro.errors import ConfigurationError, SerializationError, TrainingError
from repro.kvstore import EventualStore, StoreLatency
from repro.simulation import ComputeResource, InstanceSpec
from repro.simulation.resources import VALIDATION_WORK_UNITS

from .test_param_server import update
from .test_runner import tiny_config


def make_wu(i: int) -> Workunit:
    return Workunit(
        wu_id=f"wu{i:02d}",
        job_id="job",
        epoch=0,
        shard_index=i,
        input_files=("m", "p", f"s{i}"),
        work_units=1.0,
        timeout_s=100.0,
    )


# A server core this fast runs one validation pass in 1 s.
FAST_CLOCK_GHZ = 2.4 * VALIDATION_WORK_UNITS


def build_autoscaling_pool(sim, policy: AutoscalePolicy) -> AutoscalingPool:
    store = EventualStore(sim, StoreLatency(base_s=1.0, per_byte_s=0.0))
    store.put_now(PARAM_KEY, np.zeros(4))
    spec = InstanceSpec("srv", vcpus=8, clock_ghz=FAST_CLOCK_GHZ, ram_gb=8, network_gbps=1)
    return AutoscalingPool(
        sim=sim,
        store=store,
        rule=VCASGDRule(ConstantAlpha(0.5)),
        server_cpu=ComputeResource(sim, spec),
        evaluate_fn=lambda vec: (0.0, 0.5),
        policy=policy,
    )


class TestAutoscalePolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_servers": 0},
            {"min_servers": 5, "max_servers": 2},
            {"up_threshold": 0.1, "down_threshold": 0.5},
            {"cooldown_s": -1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(**kwargs)


class TestAutoscalingPool:
    def test_scales_up_under_burst(self, sim):
        policy = AutoscalePolicy(min_servers=1, max_servers=4, cooldown_s=0.0)
        pool = build_autoscaling_pool(sim, policy)
        for i in range(12):
            pool.assimilate(make_wu(i), update(np.ones(4)), lambda: None)
        sim.run()
        assert pool.scale_ups >= 1
        assert pool.num_servers > policy.min_servers
        assert pool.stats.processed == 12

    def test_respects_max_servers(self, sim):
        policy = AutoscalePolicy(min_servers=1, max_servers=2, cooldown_s=0.0)
        pool = build_autoscaling_pool(sim, policy)
        for i in range(20):
            pool.assimilate(make_wu(i), update(np.ones(4)), lambda: None)
        sim.run()
        assert pool.num_servers <= 2

    def test_scales_down_when_idle(self, sim):
        policy = AutoscalePolicy(
            min_servers=1, max_servers=4, cooldown_s=0.0, down_idle_s=5.0
        )
        pool = build_autoscaling_pool(sim, policy)
        for i in range(12):
            pool.assimilate(make_wu(i), update(np.ones(4)), lambda: None)
        sim.run()
        grown = pool.num_servers
        # Idle trickle: single occasional updates, well spaced out.
        for i in range(5):
            sim.schedule(
                100.0 + 50.0 * i,
                lambda i=i: pool.assimilate(make_wu(100 + i), update(np.ones(4)), lambda: None),
            )
        sim.run()
        assert pool.scale_downs >= 1
        assert pool.num_servers < grown

    def test_cooldown_limits_rate(self, sim):
        policy = AutoscalePolicy(min_servers=1, max_servers=8, cooldown_s=1e9)
        pool = build_autoscaling_pool(sim, policy)
        for i in range(20):
            pool.assimilate(make_wu(i), update(np.ones(4)), lambda: None)
        sim.run()
        assert pool.scale_ups <= 1

    def test_runner_integration(self):
        cfg = tiny_config(
            num_clients=3,
            max_concurrent_subtasks=4,
            max_epochs=2,
            ps_autoscale=True,
            autoscale_policy=AutoscalePolicy(min_servers=1, max_servers=6, cooldown_s=5.0),
        )
        result = run_experiment(cfg)
        assert "ps_scale_ups" in result.counters
        assert result.counters["ps_final_workers"] >= 1

    def test_runner_rejects_bad_policy_type(self):
        with pytest.raises(ConfigurationError, match="autoscale_policy"):
            tiny_config(ps_autoscale=True, autoscale_policy="nope")


class TestWarmStart:
    def test_warm_start_improves_first_epoch(self):
        warm = run_experiment(tiny_config(max_epochs=1, warm_start_passes=5))
        cold = run_experiment(tiny_config(max_epochs=1))
        assert warm.epochs[0].val_accuracy_mean > cold.epochs[0].val_accuracy_mean

    def test_warm_start_charges_time(self):
        warm = run_experiment(tiny_config(max_epochs=1, warm_start_passes=5))
        cold = run_experiment(tiny_config(max_epochs=1))
        assert warm.epochs[0].end_time_s > cold.epochs[0].end_time_s

    def test_negative_passes_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(warm_start_passes=-1)


class TestCheckpoint:
    def test_bytes_roundtrip(self, rng):
        result = RunResult(label="demo")
        result.append(
            EpochRecord(
                epoch=1,
                end_time_s=100.0,
                val_accuracy_mean=0.5,
                val_accuracy_min=0.4,
                val_accuracy_max=0.6,
                test_accuracy=0.45,
                alpha=0.9,
                assimilations=10,
                timeouts_so_far=1,
                lost_updates_so_far=2,
            )
        )
        ck = Checkpoint.from_result(result, rng.normal(size=20))
        restored = Checkpoint.from_bytes(ck.to_bytes())
        np.testing.assert_array_equal(restored.params, ck.params)
        assert restored.epochs_completed == 1
        assert restored.elapsed_s == 100.0
        assert restored.history[0].val_accuracy_mean == 0.5
        assert restored.history[0].assimilations == 10

    def test_file_roundtrip(self, rng, tmp_path):
        ck = Checkpoint(params=rng.normal(size=5), epochs_completed=0, elapsed_s=0.0)
        path = tmp_path / "job.ckpt.npz"
        save_checkpoint(path, ck)
        restored = load_checkpoint(path)
        np.testing.assert_array_equal(restored.params, ck.params)

    def test_garbage_rejected(self):
        with pytest.raises(SerializationError):
            Checkpoint.from_bytes(b"not a checkpoint")

    def test_validation(self, rng):
        with pytest.raises(TrainingError):
            Checkpoint(params=rng.normal(size=(2, 2)), epochs_completed=0, elapsed_s=0)
        with pytest.raises(TrainingError):
            Checkpoint(params=rng.normal(size=4), epochs_completed=-1, elapsed_s=0)

    def test_resume_continues_epoch_numbering_and_time(self):
        runner = DistributedRunner(tiny_config(max_epochs=2))
        runner.run()
        ck = runner.checkpoint()
        resumed = run_experiment(tiny_config(max_epochs=4), resume_from=ck)
        assert [e.epoch for e in resumed.epochs] == [1, 2, 3, 4]
        times = [e.end_time_s for e in resumed.epochs]
        assert times == sorted(times)
        assert times[2] > ck.elapsed_s  # resumed work continues the clock

    def test_resume_keeps_learning(self):
        runner = DistributedRunner(tiny_config(max_epochs=2))
        part = runner.run()
        resumed = run_experiment(tiny_config(max_epochs=5), resume_from=runner.checkpoint())
        assert resumed.final_val_accuracy > part.final_val_accuracy

    def test_resume_size_mismatch_rejected(self, rng):
        ck = Checkpoint(params=rng.normal(size=7), epochs_completed=1, elapsed_s=10.0)
        with pytest.raises(TrainingError):
            DistributedRunner(tiny_config(max_epochs=3), resume_from=ck)

    def test_resume_beyond_budget_rejected(self):
        runner = DistributedRunner(tiny_config(max_epochs=2))
        runner.run()
        with pytest.raises(TrainingError):
            DistributedRunner(tiny_config(max_epochs=2), resume_from=runner.checkpoint())
