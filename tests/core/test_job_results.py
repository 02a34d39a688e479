"""TrainingJobConfig validation and RunResult query tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    EpochRecord,
    FaultConfig,
    LocalTrainingConfig,
    RunResult,
    TrainingJobConfig,
    VarAlpha,
)
from repro.errors import ConfigurationError, TrainingError


class TestJobConfig:
    def test_defaults_valid_and_label(self):
        cfg = TrainingJobConfig()
        assert cfg.label == "P1C3T2"

    def test_label_tracks_pct(self):
        assert TrainingJobConfig().with_pct(5, 5, 8).label == "P5C5T8"

    def test_with_pct_preserves_other_fields(self):
        cfg = TrainingJobConfig(num_shards=13).with_pct(2, 2, 2)
        assert cfg.num_shards == 13
        assert cfg.num_param_servers == 2

    def test_with_alpha(self):
        cfg = TrainingJobConfig().with_alpha(VarAlpha())
        assert isinstance(cfg.alpha_schedule, VarAlpha)

    def test_spec_round_robin(self):
        cfg = TrainingJobConfig()
        specs = [cfg.spec_for_client(i) for i in range(6)]
        assert specs[0] == specs[4]  # 4 client types wrap around
        assert specs[0] != specs[1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_param_servers": 0},
            {"num_clients": 0},
            {"max_concurrent_subtasks": 0},
            {"num_shards": 0},
            {"max_epochs": 0},
            {"store_kind": "dynamo"},
            {"target_accuracy": 1.5},
            {"client_specs": ()},
            # A bound written ``x <= 0`` lets NaN through.
            {"max_param_norm": float("nan")},
            {"codec_topk": float("nan")},
            {"subtask_timeout_s": float("nan")},
            {"subtask_timeout_s": -1.0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainingJobConfig(**kwargs)

    def test_local_training_validation(self):
        with pytest.raises(ConfigurationError):
            LocalTrainingConfig(optimizer="rmsprop")
        with pytest.raises(ConfigurationError):
            LocalTrainingConfig(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            LocalTrainingConfig(learning_rate=float("nan"))

    def test_fault_config_validation(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(preemption_hourly_p=1.0)
        with pytest.raises(ConfigurationError):
            FaultConfig(relaunch_delay_s=-1.0)
        with pytest.raises(ConfigurationError):
            FaultConfig(relaunch_delay_s=float("nan"))
        FaultConfig(preemption_hourly_p=0.05, relaunch_delay_s=None)


def record(epoch: int, t: float, acc: float, spread: float = 0.02) -> EpochRecord:
    return EpochRecord(
        epoch=epoch,
        end_time_s=t,
        val_accuracy_mean=acc,
        val_accuracy_min=acc - spread / 2,
        val_accuracy_max=acc + spread / 2,
        test_accuracy=acc - 0.01,
        alpha=0.95,
        assimilations=50,
        timeouts_so_far=0,
        lost_updates_so_far=0,
    )


class TestRunResult:
    @pytest.fixture
    def result(self) -> RunResult:
        r = RunResult(label="demo")
        for e, (t, acc) in enumerate(
            [(600, 0.3), (1200, 0.5), (1800, 0.65), (2400, 0.72)], start=1
        ):
            r.append(record(e, t, acc))
        return r

    def test_series_views(self, result):
        np.testing.assert_allclose(result.times_hours() * 3600, [600, 1200, 1800, 2400])
        np.testing.assert_allclose(result.val_accuracy(), [0.3, 0.5, 0.65, 0.72])
        assert result.test_accuracy()[-1] == pytest.approx(0.71)

    def test_final_and_best(self, result):
        assert result.final_val_accuracy == 0.72
        assert result.best_val_accuracy() == 0.72
        assert result.final_test_accuracy == pytest.approx(0.71)
        assert result.total_time_hours == pytest.approx(2400 / 3600)

    def test_time_to_accuracy(self, result):
        assert result.time_to_accuracy(0.5) == 1200
        assert result.time_to_accuracy(0.9) is None

    def test_spread_queries(self, result):
        assert result.mean_spread() == pytest.approx(0.02)
        assert result.mean_spread(last_k=2) == pytest.approx(0.02)

    def test_window(self, result):
        epochs = result.window(0.2, 0.4)  # 720..1440 s
        assert [e.epoch for e in epochs] == [2]

    def test_empty_result_raises(self):
        with pytest.raises(TrainingError):
            _ = RunResult(label="empty").final_val_accuracy
        with pytest.raises(TrainingError):
            _ = RunResult(label="empty").final_test_accuracy

    def test_spread_property(self):
        rec = record(1, 100, 0.5, spread=0.04)
        assert rec.val_accuracy_spread == pytest.approx(0.04)
