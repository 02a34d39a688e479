"""Experiment sweeps: run a grid of job configurations and collect results.

The paper's evaluation is a set of sweeps — over (Pn, Cn, Tn), over α,
over the store — and the benchmark harness hand-rolls each one.  This
module provides the general machinery: declare axes as config overrides,
run the cartesian product (each run fully independent and deterministic),
and query the collected results.

Example
-------
>>> sweep = Sweep(base=TrainingJobConfig(max_epochs=5))
>>> sweep.axis("num_param_servers", [1, 3])
>>> sweep.axis("max_concurrent_subtasks", [2, 4])
>>> outcomes = sweep.run()          # 4 runs
>>> best = sweep.best("final_val_accuracy")
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..errors import ConfigurationError
from .job import TrainingJobConfig
from .results import RunResult
from .runner import run_experiment

__all__ = ["SweepPoint", "Sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: the overrides applied and the run's outcome."""

    overrides: tuple[tuple[str, Any], ...]
    config: TrainingJobConfig
    result: RunResult

    def override_dict(self) -> dict[str, Any]:
        """Overrides as a plain dict."""
        return dict(self.overrides)

    def label(self) -> str:
        """Human-readable 'field=value, ...' tag for this grid point."""
        return ", ".join(f"{k}={_fmt(v)}" for k, v in self.overrides)


def _fmt(value: Any) -> str:
    describe = getattr(value, "describe", None)
    if callable(describe):
        return describe()
    return str(value)


class Sweep:
    """Cartesian-product experiment grid over :class:`TrainingJobConfig`."""

    def __init__(
        self,
        base: TrainingJobConfig,
        runner: Callable[[TrainingJobConfig], RunResult] = run_experiment,
    ) -> None:
        self.base = base
        self.runner = runner
        self._axes: list[tuple[str, Sequence[Any]]] = []
        self.points: list[SweepPoint] = []

    # -- declaration ------------------------------------------------------
    def axis(self, field_name: str, values: Sequence[Any]) -> "Sweep":
        """Add a sweep axis; ``field_name`` must be a config field."""
        if not values:
            raise ConfigurationError(f"axis {field_name!r} has no values")
        valid = {f.name for f in dataclasses.fields(TrainingJobConfig)}
        if field_name not in valid:
            raise ConfigurationError(
                f"{field_name!r} is not a TrainingJobConfig field"
            )
        if any(field_name == existing for existing, _ in self._axes):
            raise ConfigurationError(f"axis {field_name!r} declared twice")
        self._axes.append((field_name, list(values)))
        return self

    @property
    def size(self) -> int:
        """Number of grid points."""
        if not self._axes:
            return 0
        n = 1
        for _, values in self._axes:
            n *= len(values)
        return n

    def configs(self) -> list[tuple[tuple[tuple[str, Any], ...], TrainingJobConfig]]:
        """Materialize every (overrides, config) pair of the grid."""
        if not self._axes:
            raise ConfigurationError("sweep has no axes")
        names = [name for name, _ in self._axes]
        combos = itertools.product(*(values for _, values in self._axes))
        out = []
        for combo in combos:
            overrides = tuple(zip(names, combo))
            config = dataclasses.replace(self.base, **dict(overrides))
            out.append((overrides, config))
        return out

    # -- execution ------------------------------------------------------------
    def run(
        self,
        progress: Callable[[SweepPoint], None] | None = None,
        jobs: int = 1,
    ) -> list[SweepPoint]:
        """Execute every grid point (deterministic, independent runs).

        ``jobs > 1`` fans the grid out over a process pool (see
        :mod:`repro.core.parallel`); because every run is deterministic in
        its config alone, the points are identical to a serial sweep and
        come back in grid order.  A custom ``runner`` cannot be shipped to
        worker processes, so it always runs serially.
        """
        self.points = []
        pairs = self.configs()
        if jobs > 1 and self.runner is run_experiment:
            from .parallel import run_configs

            outcomes = run_configs([config for _, config in pairs], jobs=jobs)
            for (overrides, config), (result, _) in zip(pairs, outcomes):
                point = SweepPoint(overrides=overrides, config=config, result=result)
                self.points.append(point)
                if progress is not None:
                    progress(point)
        else:
            for overrides, config in pairs:
                result = self.runner(config)
                point = SweepPoint(overrides=overrides, config=config, result=result)
                self.points.append(point)
                if progress is not None:
                    progress(point)
        return self.points

    # -- queries ----------------------------------------------------------------
    def _require_ran(self) -> None:
        if not self.points:
            raise ConfigurationError("sweep has not been run yet")

    def best(self, metric: str = "final_val_accuracy", maximize: bool = True) -> SweepPoint:
        """Grid point optimizing a RunResult attribute/property."""
        self._require_ran()
        key = lambda p: getattr(p.result, metric)
        return max(self.points, key=key) if maximize else min(self.points, key=key)

    def table_rows(self) -> list[list[object]]:
        """Rows of (axis values..., final acc, hours) for rendering."""
        self._require_ran()
        rows = []
        for point in self.points:
            rows.append(
                [_fmt(v) for _, v in point.overrides]
                + [
                    round(point.result.final_val_accuracy, 3),
                    round(point.result.total_time_hours, 3),
                ]
            )
        return rows

    def headers(self) -> list[str]:
        """Column headers matching :meth:`table_rows`."""
        return [name for name, _ in self._axes] + ["final acc", "hours"]
