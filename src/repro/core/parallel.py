"""Multi-core execution plane: process fan-out and its one fallback channel.

:func:`run_configs` runs independent deterministic configs over a
``ProcessPoolExecutor`` and reassembles results in grid order.  When the
grid cannot be shipped to workers (an unpicklable config, e.g. a
closure-based alpha schedule) it degrades to the serial path, and that
degradation is *loud*: :func:`record_fallback` emits a
:class:`ParallelFallbackWarning` whose ``.fallback`` attribute carries the
:class:`ParallelFallback` record.  The step pool of one run
(:class:`repro.core.steps.StepDispatcher`) shares the pool start method
(:func:`_pool_context`) and reports its own degradation the same way.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import warnings
from dataclasses import dataclass, replace
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

from ..errors import ConfigurationError
from .job import TrainingJobConfig
from .results import RunResult

__all__ = [
    "run_configs",
    "default_jobs",
    "step_jobs_for",
    "picklable",
    "ParallelFallback",
    "ParallelFallbackWarning",
    "record_fallback",
]


def default_jobs() -> int:
    """A sensible worker count: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return max(1, os.cpu_count() or 1)


def step_jobs_for(config: TrainingJobConfig) -> int:
    """The step-pool width a run of ``config`` uses in this process.

    An explicit ``step_jobs >= 1`` is taken as given.  ``0`` (auto) is
    :func:`default_jobs`, except 1 — no pool — for a run with a codec
    (its uploads encode at compute end), inside a worker process (a
    ``run_configs`` sweep never nests pools) and where only one CPU is
    usable.
    """
    if config.step_jobs:
        return config.step_jobs
    if config.codec is not None or multiprocessing.parent_process() is not None:
        return 1
    return default_jobs()


def picklable(payload: object) -> bool:
    """Whether ``payload`` can be shipped to a worker process."""
    try:
        pickle.dumps(payload)
        return True
    except Exception:
        return False


# ---------------------------------------------------------------------------
# Sweep fan-out
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParallelFallback:
    """Record of one serial degradation of a requested parallel width.

    ``run_configs`` records ``requested_jobs`` worker processes for
    ``configs`` sweep points (``reason="unpicklable_config"``); a run whose
    model has no stacked kernels records its ``cohort_size`` as the
    requested width with ``configs=1`` (``reason="cohort_unsupported"``).
    ``kind`` is the trace-style event name (``parallel.fallback``) so
    telemetry consumers and the TRACE_KINDS catalogue share one
    vocabulary even though fallbacks happen outside any run's trace.
    """

    requested_jobs: int
    configs: int
    reason: str
    kind: str = "parallel.fallback"


class ParallelFallbackWarning(UserWarning):
    """A requested parallel width degraded to serial; ``.fallback`` says how."""


def record_fallback(fallback: ParallelFallback, message: str) -> None:
    """Make a serial degradation loud: emit a :class:`ParallelFallbackWarning`
    carrying ``fallback``."""
    warning = ParallelFallbackWarning(
        f"{fallback.kind}: {message} (reason={fallback.reason})"
    )
    warning.fallback = fallback
    warnings.warn(warning, stacklevel=3)


def _run_one(config: TrainingJobConfig, collect_telemetry: bool):
    """Worker body: one full run (top level so it pickles).  A sweep spends
    its CPUs on its points, so an auto step width runs in-process."""
    # Imported lazily: forked workers inherit it, spawned ones re-import.
    from .runner import DistributedRunner

    if config.step_jobs == 0:
        config = replace(config, step_jobs=1)
    runner = DistributedRunner(config)
    result = runner.run()
    telemetry = runner.telemetry() if collect_telemetry else None
    return result, telemetry


def _pool_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_configs(
    configs: Sequence[TrainingJobConfig],
    jobs: int = 1,
    collect_telemetry: bool = False,
    progress: Callable[[int, RunResult], None] | None = None,
) -> list[tuple[RunResult, dict | None]]:
    """Run every config; return ``(result, telemetry-or-None)`` per config.

    ``jobs > 1`` fans out over a process pool; ``jobs <= 1`` — or configs
    that cannot be pickled — run serially in this process.  Output order
    always matches input order, and because each run is deterministic in
    its config alone, the results are identical either way.  ``progress``
    is invoked as ``progress(index, result)`` in input order.

    A forced serial degradation (unpicklable configs) is never silent: it
    emits a :class:`ParallelFallbackWarning` carrying the
    :class:`ParallelFallback` record.

    Fan-out only pays when each worker has a core to itself, so BLAS must
    run one thread per process (``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``
    /``MKL_NUM_THREADS`` = 1, set before NumPy is first imported;
    ``python -m repro`` does this unless the caller already set them).
    On a 2-vCPU Linux VM a 4-point sweep took 1.06–1.19 s at ``jobs=1``
    and 1.19–1.21 s at ``jobs=2`` with OpenBLAS unpinned (≈1.0×), and
    1.09–1.17 s vs 0.67–0.69 s pinned (1.6–1.7×); the serial time is the
    same either way.

    The CPUs go to the sweep points, not inside them: a config left at
    ``step_jobs=0`` (auto) runs in-process at any ``jobs``, so a serial
    sweep stays serial; an explicit ``step_jobs`` is kept.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    configs = list(configs)
    effective = min(jobs, len(configs)) if configs else 1
    if jobs > 1 and configs and not picklable(configs):
        record_fallback(
            ParallelFallback(
                requested_jobs=jobs, configs=len(configs), reason="unpicklable_config"
            ),
            f"{len(configs)} config(s) cannot be shipped to worker processes; "
            f"running serially instead of jobs={jobs}",
        )
        effective = 1
    if effective <= 1:
        outcomes = [_run_one(config, collect_telemetry) for config in configs]
    else:
        with ProcessPoolExecutor(
            max_workers=effective, mp_context=_pool_context()
        ) as pool:
            futures = [
                pool.submit(_run_one, config, collect_telemetry)
                for config in configs
            ]
            outcomes = []
            for config, future in zip(configs, futures):
                try:
                    outcomes.append(future.result())
                except Exception as exc:
                    exc.add_note(f"while running sweep point {config.label!r}")
                    raise
    if progress is not None:
        for index, (result, _) in enumerate(outcomes):
            progress(index, result)
    return outcomes
