"""Consolidated paper-claims tests — each headline claim of the paper,
verified at miniature scale, in one place.

The benchmark harness (`benchmarks/`) reproduces the figures at full
synthetic scale; these tests re-verify the same *claims* at a scale that
keeps the unit-test suite fast.  If a refactor breaks a claim, this file
names it.
"""

from __future__ import annotations

import pytest

from repro.cloud import PricingClass, paper_p5c5t2_analysis, paper_p5c5t2_fleet
from repro.core import (
    ConstantAlpha,
    FaultConfig,
    LocalTrainingConfig,
    TrainingJobConfig,
    VarAlpha,
    run_experiment,
)
from repro.data import SyntheticImageConfig
from repro.kvstore import (
    PAPER_PARAM_BYTES,
    mysql_like_latency,
    redis_like_latency,
)
from repro.nn.models import ModelSpec


def mini(**overrides) -> TrainingJobConfig:
    defaults = dict(
        num_param_servers=1,
        num_clients=3,
        max_concurrent_subtasks=2,
        model=ModelSpec("mlp", {"in_features": 48, "hidden": [16], "num_classes": 4}),
        data=SyntheticImageConfig(image_size=4, num_classes=4, noise_std=1.2),
        num_train=240,
        num_val=60,
        num_test=60,
        num_shards=12,
        max_epochs=6,
        local_training=LocalTrainingConfig(local_epochs=4, learning_rate=0.01),
        alpha_schedule=ConstantAlpha(0.9),
        seed=777,
    )
    defaults.update(overrides)
    return TrainingJobConfig(**defaults)


class TestClaim1_DistributedTrainingWorks:
    """'We design a distributed DL system that can run on a VC-like
    paradigm' — the full pipeline trains a real model to well above
    chance while every subtask flows through BOINC machinery."""

    def test_training_beats_chance_through_full_pipeline(self):
        result = run_experiment(mini())
        assert result.final_val_accuracy > 0.5  # chance = 0.25
        assert result.counters["assimilations"] == 12 * 6


class TestClaim2_FaultTolerance:
    """'handle fault tolerance ... by using preemptible instances' —
    heavy preemption costs time but never correctness."""

    def test_preempted_run_completes_everything(self):
        clean = run_experiment(mini(max_epochs=3))
        faulty = run_experiment(
            mini(
                max_epochs=3,
                faults=FaultConfig(preemption_hourly_p=0.8, relaunch_delay_s=60.0),
            )
        )
        assert faulty.counters["preemptions"] >= 1
        assert faulty.counters["assimilations"] == clean.counters["assimilations"]
        assert faulty.total_time_s > clean.total_time_s
        assert abs(faulty.final_val_accuracy - clean.final_val_accuracy) < 0.15


class TestClaim3_VCASGDAlphaBehaviour:
    """§IV-C: smaller α learns faster early; α≈1 barely learns; the
    varying schedule is the best of both."""

    def test_alpha_orderings(self):
        accs = {}
        for schedule in (ConstantAlpha(0.7), ConstantAlpha(0.999), VarAlpha()):
            result = run_experiment(mini(alpha_schedule=schedule, max_epochs=4))
            accs[schedule.describe()] = result.final_val_accuracy
        assert accs["alpha=0.7"] > accs["alpha=0.999"] + 0.1
        assert accs["alpha=e/(e+1)"] > accs["alpha=0.999"] + 0.1


class TestClaim4_ScalingKnobs:
    """§IV-B: Pn/Cn/Tn trade time, not final accuracy, until the PS or
    staleness bites."""

    def test_more_clients_faster_same_accuracy(self):
        small = run_experiment(mini(num_clients=1, max_epochs=3))
        big = run_experiment(mini(num_clients=4, max_epochs=3))
        assert big.total_time_s < small.total_time_s
        assert abs(big.final_val_accuracy - small.final_val_accuracy) < 0.15


class TestClaim5_StoreChoice:
    """§IV-D: eventual consistency is ~1.5× faster per update and the
    training tolerates its lost updates."""

    def test_latency_ratio(self):
        ratio = mysql_like_latency().update(PAPER_PARAM_BYTES) / redis_like_latency().update(
            PAPER_PARAM_BYTES
        )
        assert 1.4 < ratio < 1.6

    def test_training_tolerates_lost_updates(self):
        eventual = run_experiment(
            mini(num_param_servers=3, max_concurrent_subtasks=4, max_epochs=3)
        )
        strong = run_experiment(
            mini(
                num_param_servers=3,
                max_concurrent_subtasks=4,
                max_epochs=3,
                store_kind="strong",
            )
        )
        assert abs(eventual.final_val_accuracy - strong.final_val_accuracy) < 0.1


class TestClaim6_CostSavings:
    """§IV-E: preemptible fleet saves 70%; delay model gives 50/200 min."""

    def test_cost_anchors(self):
        assert paper_p5c5t2_fleet(PricingClass.PREEMPTIBLE).savings_fraction() == (
            pytest.approx(0.70, abs=0.005)
        )
        analysis = paper_p5c5t2_analysis()
        assert analysis.expected_delay_minutes(0.05) == pytest.approx(50.0)
        assert analysis.expected_delay_minutes(0.20) == pytest.approx(200.0)


class TestRobustnessEdges:
    """Failure edges the paper's design must survive."""

    def test_total_fleet_loss_without_relaunch_raises_cleanly(self):
        """If every client dies and none respawn, the run must fail with a
        diagnosable error rather than hang or silently truncate."""
        from repro.errors import TrainingError

        cfg = mini(
            num_clients=1,
            max_epochs=3,
            faults=FaultConfig(preemption_hourly_p=0.99, relaunch_delay_s=None),
        )
        with pytest.raises(TrainingError, match="stalled|failed permanently"):
            run_experiment(cfg)

    def test_single_client_single_server_minimal_system(self):
        result = run_experiment(
            mini(num_clients=1, num_param_servers=1, max_concurrent_subtasks=1,
                 max_epochs=2)
        )
        assert len(result.epochs) == 2

    def test_shards_fewer_than_slots(self):
        """More slots than shards: the wave quantization edge."""
        result = run_experiment(
            mini(num_clients=4, max_concurrent_subtasks=8, num_shards=6,
                 max_epochs=2)
        )
        assert result.counters["assimilations"] == 12
