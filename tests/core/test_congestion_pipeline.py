"""End-to-end congestion: diurnal WAN conditions through the full pipeline."""

from __future__ import annotations

import pytest

from repro.core import run_experiment
from repro.errors import ConfigurationError
from repro.simulation import CongestionSchedule

from .test_runner import tiny_config


class TestCongestedPipeline:
    def test_congestion_slows_training(self):
        """Permanent heavy congestion (tiny bandwidth factor) must stretch
        wall clock relative to clear conditions."""
        clear = run_experiment(tiny_config(max_epochs=2))
        jammed = run_experiment(
            tiny_config(
                max_epochs=2,
                congestion=CongestionSchedule(steps=((0.0, 0.001),), period_s=10.0),
            )
        )
        assert jammed.total_time_s > clear.total_time_s
        # Training outcome is unaffected — only transfer time changes.
        assert jammed.counters["assimilations"] == clear.counters["assimilations"]

    def test_offpeak_window_equals_clear_conditions(self):
        """A run that finishes before the evening peak sees no slowdown."""
        clear = run_experiment(tiny_config(max_epochs=2))
        evening = ((0.0, 1.0), (18 * 3600.0, 0.01), (23 * 3600.0, 1.0))
        scheduled = run_experiment(
            tiny_config(max_epochs=2, congestion=CongestionSchedule(steps=evening))
        )
        # tiny_config runs finish in well under 18 simulated hours.
        assert scheduled.total_time_s == pytest.approx(clear.total_time_s)

    def test_invalid_congestion_type_rejected(self):
        with pytest.raises(ConfigurationError, match="congestion"):
            tiny_config(congestion="evening")

    def test_deterministic_under_congestion(self):
        import numpy as np

        cfg = tiny_config(
            max_epochs=2,
            congestion=CongestionSchedule(steps=((0.0, 0.5),), period_s=100.0),
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        np.testing.assert_array_equal(a.val_accuracy(), b.val_accuracy())
        assert a.total_time_s == b.total_time_s
