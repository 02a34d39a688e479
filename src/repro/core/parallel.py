"""Multi-core execution plane: process fan-out and shared parameter memory.

Two layers live here:

* **Sweep fan-out** — :func:`run_configs` runs independent deterministic
  configs over a ``ProcessPoolExecutor`` and reassembles results in grid
  order.  When the grid cannot be shipped to workers (an unpicklable
  config, e.g. a closure-based alpha schedule) it degrades to the serial
  path — and since PR 8 that degradation is *loud*: a
  :class:`ParallelFallback` record is published through
  :func:`last_fallback`, an ``on_fallback`` callback, and a
  :class:`ParallelFallbackWarning`, instead of silently running 1-wide.

* **Shared parameter plane** — :class:`SharedParameterPlane` backs the
  packed flat parameter vectors (``StateLayout`` offsets) with a
  ``multiprocessing.shared_memory`` segment of fixed-size slots.  The
  parent writes a published parameter copy into a slot once; every worker
  process attaches the segment and maps the slot as a **read-only** NumPy
  view — eliminating the per-job pickling of full model state that made
  naive process fan-out slower than serial.  Lifecycle is explicit
  (create → attach → close → unlink) and crash-tolerant: the segment is
  owned by the creator, attachments are untracked (see
  :meth:`PlaneHandle.attach`), so a worker dying mid-step — even to
  ``kill -9`` — never unlinks or leaks the segment.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import warnings
from dataclasses import dataclass
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigurationError, SimulationError
from .job import TrainingJobConfig
from .results import RunResult

__all__ = [
    "run_configs",
    "default_jobs",
    "picklable",
    "ParallelFallback",
    "ParallelFallbackWarning",
    "record_fallback",
    "last_fallback",
    "SharedParameterPlane",
    "PlaneHandle",
    "AttachedPlane",
]


def default_jobs() -> int:
    """A sensible worker count: one per CPU."""
    return max(1, os.cpu_count() or 1)


def picklable(payload: object) -> bool:
    """Whether ``payload`` can be shipped to a worker process."""
    try:
        pickle.dumps(payload)
        return True
    except Exception:
        return False


# ---------------------------------------------------------------------------
# Shared-memory parameter plane
# ---------------------------------------------------------------------------

def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without resource-tracker registration.

    On Python < 3.13 every ``SharedMemory(name=...)`` attachment registers
    the segment with the resource tracker, which then unlinks it at process
    exit (bpo-39959) — exactly wrong for a worker that merely mapped a
    read-only view.  Registering-then-unregistering is not enough either:
    the tracker's per-type cache is a set, so N workers pairing
    register/unregister around the owner's single registration unbalance it
    and the owner's final unlink logs ``KeyError`` tracebacks.  Instead the
    registration itself is suppressed for the duration of the attach, so
    only the creating process ever owns the segment's lifetime.
    """
    try:  # pragma: no cover - interpreter-version dependent plumbing
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shared_memory(target: str, rtype: str) -> None:
            if rtype != "shared_memory":
                original(target, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    except AttributeError:  # pragma: no cover - tracker plumbing moved
        return shared_memory.SharedMemory(name=name)


@dataclass(frozen=True)
class PlaneHandle:
    """Picklable reference to a :class:`SharedParameterPlane` segment."""

    name: str
    slots: int
    slot_size: int

    def attach(self) -> "AttachedPlane":
        """Map the segment read-only in this (worker) process.

        Raises ``FileNotFoundError`` if the creator already unlinked it.
        The attachment is untracked (see :func:`_attach_untracked`):
        closing it — or dying without closing it — never destroys the
        segment.
        """
        shm = _attach_untracked(self.name)
        return AttachedPlane(shm, self.slots, self.slot_size)


class AttachedPlane:
    """A worker-side read-only mapping of the plane segment."""

    def __init__(
        self, shm: shared_memory.SharedMemory, slots: int, slot_size: int
    ) -> None:
        self._shm = shm
        array = np.ndarray((slots, slot_size), dtype=np.float64, buffer=shm.buf)
        array.flags.writeable = False
        self._array = array

    def view(self, slot: int) -> np.ndarray:
        """Read-only zero-copy view of one parameter slot."""
        return self._array[slot]

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        # The numpy views must be released before the mmap can close.
        self._array = None
        self._shm.close()

    def __enter__(self) -> "AttachedPlane":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SharedParameterPlane:
    """Owner side of the shared-memory parameter plane.

    A fixed grid of ``slots`` flat float64 vectors of ``slot_size``
    scalars each.  The owner writes published parameter copies into slots
    (:meth:`write`) and ships :meth:`handle` to workers, which map the
    same physical pages read-only — a worker reads the full model state
    without a single pickled byte.

    The owner must eventually call :meth:`unlink` (or use the plane as a
    context manager); until then the segment survives any number of
    worker attachments, detachments, and crashes.
    """

    def __init__(self, slot_size: int, slots: int = 16) -> None:
        if slot_size <= 0 or slots <= 0:
            raise ConfigurationError(
                f"plane needs positive geometry, got slots={slots}, "
                f"slot_size={slot_size}"
            )
        self.slots = slots
        self.slot_size = slot_size
        self._shm = shared_memory.SharedMemory(
            create=True, size=slots * slot_size * np.dtype(np.float64).itemsize
        )
        self._array: np.ndarray | None = np.ndarray(
            (slots, slot_size), dtype=np.float64, buffer=self._shm.buf
        )
        self._unlinked = False

    @property
    def name(self) -> str:
        return self._shm.name

    def _require_open(self) -> np.ndarray:
        if self._array is None:
            raise SimulationError("shared parameter plane is closed")
        return self._array

    def write(self, slot: int, vec: np.ndarray) -> None:
        """Copy a flat parameter vector into ``slot``."""
        array = self._require_open()
        if not 0 <= slot < self.slots:
            raise ConfigurationError(f"slot {slot} out of range 0..{self.slots - 1}")
        if vec.shape != (self.slot_size,):
            raise ConfigurationError(
                f"vector shape {vec.shape} does not fit slot size {self.slot_size}"
            )
        np.copyto(array[slot], vec)

    def view(self, slot: int) -> np.ndarray:
        """Owner-side read-only view of a slot (for verification/tests)."""
        array = self._require_open()
        v = array[slot][:]
        v.flags.writeable = False
        return v

    def handle(self) -> PlaneHandle:
        """The picklable attachment token workers use to map the plane."""
        self._require_open()
        return PlaneHandle(self.name, self.slots, self.slot_size)

    def close(self) -> None:
        """Drop the owner's mapping (idempotent)."""
        if self._array is not None:
            self._array = None
            self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (idempotent; implies :meth:`close`)."""
        self.close()
        if not self._unlinked:
            self._unlinked = True
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedParameterPlane":
        return self

    def __exit__(self, *exc: object) -> None:
        self.unlink()


# ---------------------------------------------------------------------------
# Sweep fan-out
# ---------------------------------------------------------------------------

class ParallelFallbackWarning(UserWarning):
    """A parallel fan-out silently would have degraded to serial; now loud."""


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


_LAST_FALLBACK: ParallelFallback | None = None


def last_fallback() -> ParallelFallback | None:
    """The most recent recorded fallback, or None.

    Reset to None at the start of every ``run_configs`` call, so a caller
    checking right after a sweep sees exactly that sweep's outcome.
    """
    return _LAST_FALLBACK


def record_fallback(
    fallback: ParallelFallback,
    message: str,
    on_fallback: Callable[[ParallelFallback], None] | None = None,
) -> None:
    """Make a serial degradation loud: remember it for :func:`last_fallback`,
    emit a :class:`ParallelFallbackWarning`, call ``on_fallback``."""
    global _LAST_FALLBACK
    _LAST_FALLBACK = fallback
    warnings.warn(
        f"{fallback.kind}: {message} (reason={fallback.reason})",
        ParallelFallbackWarning,
        stacklevel=3,
    )
    if on_fallback is not None:
        on_fallback(fallback)


def _run_one(config: TrainingJobConfig, collect_telemetry: bool):
    """Worker body: one full run (top level so it pickles)."""
    # Imported lazily: forked workers inherit it, spawned ones re-import.
    from .runner import DistributedRunner

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
    on_fallback: Callable[[ParallelFallback], None] | None = None,
) -> list[tuple[RunResult, dict | None]]:
    """Run every config; return ``(result, telemetry-or-None)`` per config.

    ``jobs > 1`` fans out over a process pool; ``jobs <= 1`` — or configs
    that cannot be pickled — run serially in this process.  Output order
    always matches input order, and because each run is deterministic in
    its config alone, the results are identical either way.  ``progress``
    is invoked as ``progress(index, result)`` in input order.

    A forced serial degradation (unpicklable configs) is never silent: it
    emits a :class:`ParallelFallbackWarning`, records the event for
    :func:`last_fallback`, and invokes ``on_fallback`` when given.
    """
    global _LAST_FALLBACK
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    _LAST_FALLBACK = None
    configs = list(configs)
    effective = min(jobs, len(configs)) if configs else 1
    if jobs > 1 and configs and not picklable(configs):
        record_fallback(
            ParallelFallback(
                requested_jobs=jobs, configs=len(configs), reason="unpicklable_config"
            ),
            f"{len(configs)} config(s) cannot be shipped to worker processes; "
            f"running serially instead of jobs={jobs}",
            on_fallback,
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
