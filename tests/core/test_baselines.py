"""Baseline comparator tests: single-instance, update rules, round harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ConstantAlpha, LocalTrainingConfig, TrainingJobConfig
from repro.core.baselines import (
    RoundConfig,
    RoundHarness,
    SingleInstanceTrainer,
    run_single_instance,
)
from repro.core.rules import (
    ClientUpdate,
    DCASGDRule,
    DownpourRule,
    EASGDRule,
    SyncAllReduceRule,
    VCASGDRule,
)
from repro.data import SyntheticImageConfig
from repro.errors import ConfigurationError
from repro.nn.models import ModelSpec
from repro.simulation import TABLE1_SERVER
from repro.simulation.resources import SUBTASK_WORK_UNITS, VALIDATION_WORK_UNITS


def tiny_job(**overrides) -> TrainingJobConfig:
    defaults = dict(
        model=ModelSpec("mlp", {"in_features": 48, "hidden": [8], "num_classes": 4}),
        data=SyntheticImageConfig(image_size=4, num_classes=4, noise_std=1.5),
        num_train=120,
        num_val=40,
        num_test=40,
        max_epochs=3,
        local_training=LocalTrainingConfig(local_epochs=2, learning_rate=0.01),
        seed=5,
    )
    defaults.update(overrides)
    return TrainingJobConfig(**defaults)


class TestSingleInstance:
    def test_runs_and_learns(self):
        result = run_single_instance(tiny_job(max_epochs=8))
        assert len(result.epochs) == 8
        assert result.final_val_accuracy > 0.4  # chance = 0.25
        assert result.stopped_reason == "max_epochs"

    def test_simulated_clock_advances_uniformly(self):
        result = run_single_instance(tiny_job())
        times = [e.end_time_s for e in result.epochs]
        deltas = np.diff(times)
        np.testing.assert_allclose(deltas, deltas[0])

    def test_epoch_time_matches_work_model(self):
        cfg = tiny_job()
        trainer = SingleInstanceTrainer(cfg)
        expected = (
            cfg.num_shards * SUBTASK_WORK_UNITS + VALIDATION_WORK_UNITS
        ) / TABLE1_SERVER.total_rate
        assert trainer.epoch_seconds == pytest.approx(expected)

    def test_target_accuracy_stops(self):
        result = run_single_instance(tiny_job(max_epochs=50, target_accuracy=0.4))
        assert result.stopped_reason == "target_accuracy"
        assert len(result.epochs) < 50

    def test_passes_per_epoch_default_is_local_epochs(self):
        cfg = tiny_job()
        assert SingleInstanceTrainer(cfg).passes_per_epoch == 2

    def test_explicit_passes_validated(self):
        with pytest.raises(ConfigurationError):
            SingleInstanceTrainer(tiny_job(), passes_per_epoch=0)

    def test_more_passes_learn_faster_per_epoch(self):
        lazy = run_single_instance(tiny_job(max_epochs=2), passes_per_epoch=1)
        eager = run_single_instance(tiny_job(max_epochs=2), passes_per_epoch=6)
        assert eager.final_val_accuracy >= lazy.final_val_accuracy

    def test_no_spread_in_records(self):
        result = run_single_instance(tiny_job())
        rec = result.epochs[0]
        assert rec.val_accuracy_min == rec.val_accuracy_mean == rec.val_accuracy_max

    def test_sgd_optimizer_option(self):
        cfg = tiny_job(
            local_training=LocalTrainingConfig(optimizer="sgd", learning_rate=0.05)
        )
        result = run_single_instance(cfg)
        assert len(result.epochs) == 3


class TestUpdateRules:
    def update(self, rng, n=6, version=0) -> ClientUpdate:
        return ClientUpdate(
            client_id=0,
            params=rng.normal(size=n),
            gradient=rng.normal(size=n),
            base_version=version,
        )

    def test_vcasgd_rule_matches_merge(self, rng):
        rule = VCASGDRule(ConstantAlpha(0.9))
        server = rng.normal(size=6)
        upd = self.update(rng)
        out = rule.apply(server, upd, epoch=1)
        np.testing.assert_allclose(out, 0.9 * server + 0.1 * upd.params)
        assert rule.fault_tolerant

    def test_downpour_applies_gradient(self, rng):
        rule = DownpourRule(server_lr=0.1)
        server = rng.normal(size=6)
        upd = self.update(rng)
        np.testing.assert_allclose(
            rule.apply(server, upd, 1), server - 0.1 * upd.gradient
        )

    def test_downpour_validates_lr(self):
        with pytest.raises(ConfigurationError):
            DownpourRule(server_lr=0.0)

    def test_easgd_equals_vcasgd_with_complement_alpha(self, rng):
        """EASGD server move with β is algebraically VC-ASGD with α=1−β."""
        beta = 0.001
        server = rng.normal(size=6)
        upd = self.update(rng)
        easgd = EASGDRule(moving_rate=beta).apply(server.copy(), upd, 1)
        vc = VCASGDRule(ConstantAlpha(1.0 - beta)).apply(server.copy(), upd, 1)
        np.testing.assert_allclose(easgd, vc, rtol=1e-12)

    def test_easgd_not_fault_tolerant(self):
        assert not EASGDRule().fault_tolerant

    def test_easgd_validates_rate(self):
        with pytest.raises(ConfigurationError):
            EASGDRule(moving_rate=0.0)

    def test_dcasgd_without_backup_is_downpour(self, rng):
        server = rng.normal(size=6)
        upd = self.update(rng, version=42)  # no snapshot recorded
        dc = DCASGDRule(server_lr=0.1, lam=0.5).apply(server.copy(), upd, 1)
        plain = DownpourRule(server_lr=0.1).apply(server.copy(), upd, 1)
        np.testing.assert_allclose(dc, plain)

    def test_dcasgd_compensates_delay(self, rng):
        rule = DCASGDRule(server_lr=0.1, lam=0.5)
        backup = rng.normal(size=6)
        rule.snapshot_sent(0, backup)
        moved_server = backup + 1.0  # server moved since the snapshot
        upd = self.update(rng, version=0)
        out = rule.apply(moved_server, upd, 1)
        g = upd.gradient
        expected = moved_server - 0.1 * (g + 0.5 * g * g * (moved_server - backup))
        np.testing.assert_allclose(out, expected)

    def test_dcasgd_validates(self):
        with pytest.raises(ConfigurationError):
            DCASGDRule(server_lr=-1)

    def test_describe_strings(self):
        assert "VC-ASGD" in VCASGDRule(ConstantAlpha(0.9)).describe()
        assert "Downpour" in DownpourRule().describe()
        assert "EASGD" in EASGDRule().describe()
        assert "DC-ASGD" in DCASGDRule().describe()
        assert "SyncAllReduce" in SyncAllReduceRule().describe()

    def test_allreduce_computes_exact_mean(self, rng):
        rule = SyncAllReduceRule()
        vecs = [rng.normal(size=5) for _ in range(4)]
        server = rng.normal(size=5)  # overwritten by the first arrival
        for i, v in enumerate(vecs):
            server = rule.apply(
                server, ClientUpdate(i, v, np.zeros(5), 0), epoch=1
            )
        np.testing.assert_allclose(server, np.mean(vecs, axis=0), rtol=1e-12)

    def test_allreduce_resets_per_round(self, rng):
        rule = SyncAllReduceRule()
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        server = rule.apply(np.zeros(3), ClientUpdate(0, a, a * 0, 0), epoch=1)
        server = rule.apply(server, ClientUpdate(0, b, b * 0, 1), epoch=2)
        np.testing.assert_allclose(server, b)  # round 2 restarts the mean

    def test_allreduce_not_fault_tolerant(self):
        assert not SyncAllReduceRule().fault_tolerant

    def test_allreduce_on_round_harness(self):
        harness = RoundHarness(tiny_round_config(num_rounds=6))
        result = harness.run(SyncAllReduceRule())
        assert result.final_accuracy > 0.4  # BSP learns fine with no faults

    def test_allreduce_stalls_under_dropout_like_easgd(self):
        cfg = tiny_round_config(dropout_p=0.4, num_rounds=5)
        result = RoundHarness(cfg).run(SyncAllReduceRule())
        assert result.total_stalls > 0


def tiny_round_config(**overrides) -> RoundConfig:
    defaults = dict(
        num_clients=3,
        num_rounds=4,
        local_steps=4,
        batch_size=10,
        model=ModelSpec("mlp", {"in_features": 48, "hidden": [8], "num_classes": 4}),
        data=SyntheticImageConfig(image_size=4, num_classes=4, noise_std=1.2),
        num_train=120,
        num_val=60,
        seed=3,
    )
    defaults.update(overrides)
    return RoundConfig(**defaults)


class TestRoundHarness:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            RoundConfig(num_clients=0)
        with pytest.raises(ConfigurationError):
            RoundConfig(dropout_p=1.0)

    def test_vcasgd_learns(self):
        harness = RoundHarness(tiny_round_config(num_rounds=8))
        result = harness.run(VCASGDRule(ConstantAlpha(0.6)))
        assert result.final_accuracy > 0.4
        assert len(result.records) == 8

    def test_all_rules_run_on_same_substrate(self):
        harness = RoundHarness(tiny_round_config())
        for rule in [
            VCASGDRule(ConstantAlpha(0.7)),
            DownpourRule(server_lr=0.02),
            EASGDRule(moving_rate=0.2),
            DCASGDRule(server_lr=0.02),
        ]:
            result = harness.run(rule)
            assert len(result.records) == 4
            assert all(0.0 <= r.val_accuracy <= 1.0 for r in result.records)

    def test_no_dropout_no_stalls(self):
        harness = RoundHarness(tiny_round_config(dropout_p=0.0))
        result = harness.run(EASGDRule(moving_rate=0.2))
        assert result.total_stalls == 0

    def test_easgd_stalls_under_dropout(self):
        """The §III-C fault-intolerance argument: barrier rules pay wall
        clock for dropouts, fault-tolerant rules do not."""
        cfg = tiny_round_config(dropout_p=0.4, num_rounds=6)
        harness = RoundHarness(cfg)
        easgd = harness.run(EASGDRule(moving_rate=0.2))
        vc = harness.run(VCASGDRule(ConstantAlpha(0.7)))
        assert easgd.total_stalls > 0
        assert easgd.total_time_s > vc.total_time_s

    def test_dropout_reduces_reported_updates(self):
        cfg = tiny_round_config(dropout_p=0.5, num_rounds=6)
        result = RoundHarness(cfg).run(VCASGDRule(ConstantAlpha(0.7)))
        reported = [r.reported for r in result.records]
        assert min(reported) < cfg.num_clients

    def test_accuracy_series_shapes(self):
        result = RoundHarness(tiny_round_config()).run(DownpourRule(server_lr=0.02))
        t, a = result.accuracy_series()
        assert t.shape == a.shape == (4,)
        assert np.all(np.diff(t) > 0)
