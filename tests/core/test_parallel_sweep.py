"""Parallel sweep executor: process fan-out equals the serial path exactly."""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest

from repro.core import CallableAlpha, Sweep, TrainingJobConfig, run_configs
from repro.core.parallel import (
    ParallelFallback,
    ParallelFallbackWarning,
    default_jobs,
    picklable,
    record_fallback,
)
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def base_config() -> TrainingJobConfig:
    return TrainingJobConfig(max_epochs=1, num_shards=8).with_pct(1, 2, 2)


def _assert_same_points(a, b) -> None:
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.overrides == pb.overrides
        assert pa.result.epochs == pb.result.epochs
        assert pa.result.counters == pb.result.counters


class TestRunConfigs:
    def test_parallel_equals_serial(self, base_config):
        configs = [
            base_config.with_pct(p, 2, 2) for p in (1, 2)
        ]
        serial = run_configs(configs, jobs=1)
        parallel = run_configs(configs, jobs=2)
        for (r1, _), (r2, _) in zip(serial, parallel):
            assert r1.epochs == r2.epochs
            assert r1.counters == r2.counters

    def test_results_come_back_in_input_order(self, base_config):
        configs = [base_config.with_pct(p, 2, 2) for p in (2, 1)]
        outcomes = run_configs(configs, jobs=2)
        # Each result's label leads with its config's P/C/T tag.
        for (result, _), config in zip(outcomes, configs):
            assert result.label.startswith(config.label)

    def test_collect_telemetry(self, base_config):
        outcomes = run_configs([base_config], jobs=2, collect_telemetry=True)
        (_, telemetry), = outcomes
        assert telemetry is not None and "digest" in telemetry

    def test_without_telemetry_flag_none(self, base_config):
        (_, telemetry), = run_configs([base_config], jobs=1)
        assert telemetry is None

    def test_unpicklable_config_falls_back_to_serial(self, base_config):
        sneaky = base_config.with_alpha(CallableAlpha(lambda e: 0.9))
        assert not picklable([sneaky])
        with pytest.warns(ParallelFallbackWarning):
            (result, _), = run_configs([sneaky], jobs=4)
        assert len(result.epochs) == 1

    def test_fallback_is_loud_and_recorded(self, base_config):
        """Forced serial degradation is one warning that carries the
        :class:`ParallelFallback` record."""
        sneaky = base_config.with_alpha(CallableAlpha(lambda e: 0.9))
        with pytest.warns(ParallelFallbackWarning, match="parallel.fallback") as caught:
            run_configs([sneaky, sneaky], jobs=3)
        assert len(caught) == 1
        fallback = caught[0].message.fallback
        assert fallback.kind == "parallel.fallback"
        assert fallback.requested_jobs == 3
        assert fallback.configs == 2
        assert fallback.reason == "unpicklable_config"

    def test_fallback_warning_pickles_with_its_record(self):
        fallback = ParallelFallback(
            requested_jobs=4, configs=1, reason="cohort_unsupported"
        )
        with pytest.warns(ParallelFallbackWarning) as caught:
            record_fallback(fallback, "m")
        emitted = caught[0].message
        warning = pickle.loads(pickle.dumps(emitted))
        assert str(warning) == str(emitted) and warning.fallback == fallback

    def test_clean_run_is_quiet(self, base_config):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParallelFallbackWarning)
            run_configs([base_config, base_config], jobs=2)

    def test_jobs_below_one_rejected(self, base_config):
        with pytest.raises(ConfigurationError):
            run_configs([base_config], jobs=0)

    def test_empty_config_list(self):
        assert run_configs([], jobs=4) == []

    def test_progress_called_in_order(self, base_config):
        configs = [base_config.with_pct(p, 2, 2) for p in (1, 2)]
        seen: list[int] = []
        run_configs(configs, jobs=2, progress=lambda i, r: seen.append(i))
        assert seen == [0, 1]


class TestSweepJobs:
    def _sweep(self, base: TrainingJobConfig) -> Sweep:
        sweep = Sweep(base)
        sweep.axis("num_param_servers", [1, 2])
        sweep.axis("max_concurrent_subtasks", [2])
        return sweep

    def test_sweep_parallel_equals_serial(self, base_config):
        serial = self._sweep(base_config)
        serial.run()
        parallel = self._sweep(base_config)
        parallel.run(jobs=2)
        _assert_same_points(serial.points, parallel.points)

    def test_custom_runner_stays_serial(self, base_config):
        calls: list[str] = []

        def recording_runner(config):
            from repro.core import run_experiment

            calls.append(config.label)
            return run_experiment(config)

        sweep = Sweep(base_config, runner=recording_runner)
        sweep.axis("num_param_servers", [1, 2])
        sweep.run(jobs=4)  # closure can't cross processes; must run here
        assert len(calls) == 2
        assert len(sweep.points) == 2

    def test_progress_fires_per_point(self, base_config):
        sweep = self._sweep(base_config)
        labels: list[str] = []
        sweep.run(progress=lambda p: labels.append(p.label()), jobs=2)
        assert labels == [p.label() for p in sweep.points]


def test_default_jobs_positive():
    assert default_jobs() >= 1


def test_determinism_across_executors(base_config):
    """The same grid swept twice in different modes is byte-equal."""
    from ..goldens import state_checksum

    def digest(points) -> str:
        accs = np.concatenate(
            [np.asarray(p.result.val_accuracy(), dtype=np.float64) for p in points]
        )
        return state_checksum({"accs": accs})

    a = Sweep(base_config).axis("num_clients", [2, 3])
    a.run(jobs=2)
    b = Sweep(base_config).axis("num_clients", [2, 3])
    b.run()
    assert digest(a.points) == digest(b.points)
