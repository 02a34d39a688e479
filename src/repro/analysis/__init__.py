"""Curve analysis and table rendering for experiment results."""

from .ascii_plot import ascii_chart
from .curves import (
    auc_accuracy,
    crossover_time,
    final_gap,
    interpolate_to_grid,
    smoothness,
)
from .dashboard import sweep_dashboard, telemetry_dashboard
from .tables import format_hours, format_pct, render_table

__all__ = [
    "ascii_chart",
    "telemetry_dashboard",
    "sweep_dashboard",
    "interpolate_to_grid",
    "crossover_time",
    "smoothness",
    "final_gap",
    "auc_accuracy",
    "render_table",
    "format_hours",
    "format_pct",
]
