"""Curve metrics and table rendering tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    auc_accuracy,
    crossover_time,
    final_gap,
    format_hours,
    format_pct,
    interpolate_to_grid,
    render_table,
    smoothness,
)
from repro.errors import ConfigurationError


class TestInterpolation:
    def test_linear_between_samples(self):
        t = np.array([0.0, 10.0])
        v = np.array([0.0, 1.0])
        out = interpolate_to_grid(t, v, np.array([5.0]))
        assert out[0] == pytest.approx(0.5)

    def test_clamps_outside_range(self):
        t = np.array([1.0, 2.0])
        v = np.array([0.3, 0.7])
        out = interpolate_to_grid(t, v, np.array([0.0, 3.0]))
        np.testing.assert_allclose(out, [0.3, 0.7])

    def test_validates_shapes(self):
        with pytest.raises(ConfigurationError):
            interpolate_to_grid(np.zeros(3), np.zeros(4), np.zeros(2))

    def test_rejects_decreasing_times(self):
        with pytest.raises(ConfigurationError):
            interpolate_to_grid(np.array([2.0, 1.0]), np.zeros(2), np.zeros(1))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            interpolate_to_grid(np.array([]), np.array([]), np.zeros(1))


class TestCrossover:
    def test_detects_crossover(self):
        """Curve A fast-then-flat, curve B slow-then-high (the α=0.7 vs
        0.95 pattern): crossover in the middle."""
        t = np.linspace(0, 10, 50)
        a = 0.7 * (1 - np.exp(-t))  # fast early, asymptote 0.7
        b = 0.09 * t  # slow linear, ends at 0.9
        cross = crossover_time(t, a, t, b)
        assert cross is not None
        assert 5.0 < cross < 9.0

    def test_none_when_dominated(self):
        t = np.linspace(0, 10, 20)
        assert crossover_time(t, t + 1.0, t, t) is None

    def test_none_when_no_overlap(self):
        a_t = np.array([0.0, 1.0])
        b_t = np.array([5.0, 6.0])
        assert crossover_time(a_t, a_t, b_t, b_t) is None


class TestSmoothness:
    def test_monotone_curve_scores_zero(self):
        assert smoothness(np.array([0.1, 0.3, 0.5, 0.9])) == 0.0

    def test_oscillation_scores_positive(self):
        assert smoothness(np.array([0.1, 0.5, 0.2, 0.6])) > 0.0

    def test_bigger_dips_score_higher(self):
        mild = smoothness(np.array([0.5, 0.49, 0.6]))
        wild = smoothness(np.array([0.5, 0.2, 0.6]))
        assert wild > mild

    def test_short_series(self):
        assert smoothness(np.array([0.5])) == 0.0


class TestGapAndAuc:
    def test_final_gap(self):
        a = np.array([0.1, 0.8, 0.8, 0.8])
        b = np.array([0.1, 0.7, 0.7, 0.7])
        assert final_gap(a, b, last_k=3) == pytest.approx(0.1)

    def test_auc_rewards_early_learning(self):
        t = np.linspace(0, 1, 50)
        early = 1 - np.exp(-8 * t)
        late = t
        assert auc_accuracy(t, early) > auc_accuracy(t, late)

    def test_auc_degenerate_single_point(self):
        assert auc_accuracy(np.array([1.0]), np.array([0.6])) == pytest.approx(0.6)


class TestTables:
    def test_render_alignment_and_content(self):
        out = render_table(
            ["name", "value"],
            [["alpha", 0.95], ["beta", 123.456789]],
            title="Demo",
        )
        lines = out.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert "alpha" in out and "0.95" in out
        assert "123.5" in out  # 4 significant digits

    def test_render_handles_bools_and_strings(self):
        out = render_table(["k", "v"], [["flag", True], ["s", "text"]])
        assert "True" in out and "text" in out

    def test_format_helpers(self):
        assert format_hours(3600) == "1.00 h"
        assert format_hours(5400) == "1.50 h"
        assert format_pct(0.7) == "70.0%"
