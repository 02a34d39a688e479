"""Accuracy-vs-time curve analysis (the quantities Figs. 2–6 discuss).

The paper reads several properties off its plots: where two α curves
cross (§IV-C), how wide the per-epoch error bars are, and how *smooth*
the distributed curve is versus the single-instance one (§IV-C's third
observation on Fig. 6).  These are
implemented as plain functions over (time, accuracy) arrays so both the
benchmark harness and the tests can assert on them.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "interpolate_to_grid",
    "crossover_time",
    "smoothness",
    "final_gap",
    "auc_accuracy",
]


def _validate(times: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.shape != values.shape or times.ndim != 1:
        raise ConfigurationError(
            f"curve arrays must be 1-D and equal length, got {times.shape} vs {values.shape}"
        )
    if len(times) == 0:
        raise ConfigurationError("empty curve")
    if np.any(np.diff(times) < 0):
        raise ConfigurationError("times must be non-decreasing")
    return times, values


def interpolate_to_grid(
    times: np.ndarray, values: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """Linear interpolation of a curve onto a common time grid.

    Points before the first sample clamp to the first value, after the last
    to the last (training curves are step-extended, not extrapolated).
    """
    times, values = _validate(times, values)
    return np.interp(np.asarray(grid, dtype=np.float64), times, values)


def crossover_time(
    times_a: np.ndarray,
    values_a: np.ndarray,
    times_b: np.ndarray,
    values_b: np.ndarray,
    grid_points: int = 400,
) -> float | None:
    """Time at which curve A, initially above curve B, is overtaken by B
    (or vice versa): the first sign change of (A − B) on a common grid.

    Returns None when one curve dominates throughout.  This is the §IV-C
    "trend reverses" moment between α = 0.7 and α = 0.95.
    """
    ta, va = _validate(times_a, values_a)
    tb, vb = _validate(times_b, values_b)
    lo = max(ta[0], tb[0])
    hi = min(ta[-1], tb[-1])
    if hi <= lo:
        return None
    grid = np.linspace(lo, hi, grid_points)
    diff = interpolate_to_grid(ta, va, grid) - interpolate_to_grid(tb, vb, grid)
    signs = np.sign(diff)
    nonzero = signs != 0
    if not nonzero.any():
        return None
    first = signs[nonzero][0]
    flips = np.flatnonzero(nonzero & (signs != first) & (signs != 0))
    if len(flips) == 0:
        return None
    return float(grid[flips[0]])


def smoothness(values: np.ndarray) -> float:
    """Fluctuation metric: mean absolute *non-monotone* increment.

    A perfectly monotone learning curve scores 0; dips and oscillations
    raise the score.  The paper observes the distributed curve is smoother
    (fewer fluctuations) than the single-instance one — lower is smoother.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        return 0.0
    increments = np.diff(values)
    dips = increments[increments < 0]
    return float(-dips.sum() / (values.size - 1)) + 0.0


def final_gap(values_a: np.ndarray, values_b: np.ndarray, last_k: int = 3) -> float:
    """Mean difference (A − B) over the last ``last_k`` samples of each curve."""
    a = np.asarray(values_a, dtype=np.float64)[-last_k:]
    b = np.asarray(values_b, dtype=np.float64)[-last_k:]
    return float(a.mean() - b.mean())


def auc_accuracy(times: np.ndarray, values: np.ndarray) -> float:
    """Time-normalized area under the accuracy curve (higher = learns
    earlier); trapezoidal rule."""
    times, values = _validate(times, values)
    if times[-1] == times[0]:
        return float(values[0])
    return float(np.trapezoid(values, times) / (times[-1] - times[0]))
