"""Client local-training steps as schedulable units of compute.

One function trains a client subtask — :func:`run_local_step`, the
compiled step program of :mod:`repro.nn.cohort` at cohort size 1 — and one
:class:`_StepContext` per process owns the programs it runs on.  The same
numerics can run three ways: inline at compute end, fused across a cohort
of clients (the same program at G > 1), or fanned out across worker
processes that receive each group's base vector by value, as a volunteer
host downloads its parameter file.  Architectures with
no stacked kernels train on the ``Tensor`` tape instead, one member at a
time; which path runs is decided by whether the architecture compiles.

Determinism is the load-bearing wall.  Simulated *time* never depends on
where compute runs (durations come from work units, not wall clock), and
the *numbers* are kept bit-identical by two rules:

* every RNG draw happens at submit time, in the serial schedule's order —
  :func:`draw_batch_orders` pre-draws one permutation per local epoch
  from the attempt's own batch stream, so deferring the (RNG-free)
  compute moves no draw;
* deferred execution is *value-lazy, schedule-eager*: the dispatcher
  batches submitted steps and computes the whole pending batch at the
  first resolve, which the client triggers when its upload is accepted —
  before any consumer reads the payload.

Clients whose upload is perturbed by state that depends on the trained
result (corrupt-designated clients, adversary-compromised clients) are
never deferred; the runner computes them at execute time through the same
context.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..data.dataset import Dataset
from ..errors import ConfigurationError, SimulationError
from ..nn.cohort import CohortTrainer, StepProgram, compile_program, train_steps
from ..nn.layers import Module
from ..nn.models import build_model
from .parallel import ParallelFallback, _pool_context, record_fallback
from .rules import ClientUpdate

__all__ = [
    "draw_batch_orders",
    "run_local_step",
    "StepTask",
    "DeferredUpdate",
    "StepDispatcher",
]


def draw_batch_orders(
    rng: np.random.Generator, n: int, epochs: int
) -> list[np.ndarray]:
    """Pre-draw the per-epoch batch permutations for one subtask.

    The contract: one ``rng.permutation(n)`` per local epoch, drawn in
    epoch order from the attempt's stream.  Nothing else consumes that
    stream, so when the compute runs cannot move a draw.
    """
    return [rng.permutation(n) for _ in range(epochs)]


def run_local_step(
    trainer: CohortTrainer,
    base_vec: np.ndarray,
    shard: Dataset,
    orders: Sequence[np.ndarray],
    *,
    batch_size: int,
    collect_gradient: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One client's full local-training subtask, RNG-free.

    Loads ``base_vec`` into the single-member ``trainer``'s arena, resets
    its optimizer, runs ``len(orders)`` epochs of mini-batch training with
    the pre-drawn batch orders, and packs the trained state into a fresh
    flat vector.  Returns ``(new_vec, gradient)`` where ``gradient`` is the
    accumulated local gradient when ``collect_gradient`` (rules like
    Downpour) and None otherwise.
    """
    program = trainer.program
    arena = program.arena
    arena.layout.unpack_into(base_vec, arena)
    trainer.optimizer.reset()
    totals = train_steps(
        program, trainer.optimizer, [shard], [orders], batch_size, collect_gradient
    )
    new_vec = arena.layout.pack(arena)
    return new_vec, None if totals is None else totals[0]


class StepTask:
    """One submitted-but-not-yet-computed client training step."""

    __slots__ = ("base_vec", "shard_index", "orders", "result")

    def __init__(
        self,
        base_vec: np.ndarray,
        shard_index: int,
        orders: list[np.ndarray],
    ) -> None:
        self.base_vec = base_vec
        self.shard_index = shard_index
        self.orders = orders
        self.result: tuple[np.ndarray, np.ndarray | None] | None = None


class DeferredUpdate:
    """Lazy stand-in for a :class:`ClientUpdate` travelling as upload payload.

    The client daemon duck-types on ``resolve_update`` right after the
    scheduler accepts the upload — before validation or assimilation ever
    look inside — and swaps in the real :class:`ClientUpdate`.  Upload
    retries reuse the same payload object, so the handle survives them.
    """

    __slots__ = ("_dispatcher", "_task", "client_id", "base_version")

    def __init__(
        self,
        dispatcher: "StepDispatcher",
        task: StepTask,
        client_id: str,
        base_version: int,
    ) -> None:
        self._dispatcher = dispatcher
        self._task = task
        self.client_id = client_id
        self.base_version = base_version

    def resolve_update(self) -> ClientUpdate:
        new_vec, gradient = self._dispatcher.resolve(self._task)
        return ClientUpdate(
            client_id=self.client_id,
            params=new_vec,
            gradient=gradient,
            base_version=self.base_version,
            claimed_credit=None,
        )


class _StepContext:
    """Everything one process needs to execute local steps.

    Owns a template model (only its architecture matters: every step
    starts from a downloaded base vector) and the trainers compiled from
    it — the single-member one every inline, singleton or warm-start step
    runs on, and the stacked one of the most recent cohort size (cohort
    arenas grow with G, so only one is kept).  When the architecture has
    no stacked kernels the single trainer runs on the ``Tensor`` tape and
    cohorts run one member at a time.  Lives once in the runner for
    in-process execution and once per pool worker (:func:`_pool_init`).
    """

    def __init__(
        self,
        template: Module,
        batch_size: int,
        optimizer: str,
        learning_rate: float,
        collect_gradient: bool,
    ) -> None:
        self.template = template
        self.batch_size = batch_size
        self.optimizer = optimizer
        self.learning_rate = learning_rate
        self.collect_gradient = collect_gradient
        program = compile_program(template)
        self.compiles = isinstance(program, StepProgram)
        self.single = CohortTrainer(program, optimizer, learning_rate)
        self._stacked: CohortTrainer | None = None

    def run_group(
        self,
        base_vec: np.ndarray,
        shards: Sequence[Dataset],
        orders_list: Sequence[list[np.ndarray]],
    ) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Execute a homogeneous group of steps sharing one base vector.

        A group of one is :func:`run_local_step`; larger groups run the
        same program stacked (bit-identical per member) when the
        architecture compiles, and member by member when it does not.
        """
        group = len(shards)
        if group > 1 and self.compiles:
            trainer = self._stacked
            if trainer is None or trainer.program.arena.group != group:
                trainer = self._stacked = CohortTrainer(
                    StepProgram(self.template, group),
                    self.optimizer,
                    self.learning_rate,
                )
            packed, totals = trainer.run(
                base_vec,
                shards,
                orders_list,
                batch_size=self.batch_size,
                collect_gradient=self.collect_gradient,
            )
            return [
                (packed[g].copy(), None if totals is None else totals[g].copy())
                for g in range(group)
            ]
        return [
            run_local_step(
                self.single,
                base_vec,
                shard,
                orders,
                batch_size=self.batch_size,
                collect_gradient=self.collect_gradient,
            )
            for shard, orders in zip(shards, orders_list)
        ]


# ---------------------------------------------------------------------------
# Pool worker plumbing (module level so it pickles under any start method)
# ---------------------------------------------------------------------------

_WORKER_CONTEXT: _StepContext | None = None
_WORKER_SHARDS: Sequence[Dataset] = ()


def _pool_init(
    model_spec,
    shards,
    batch_size,
    optimizer,
    learning_rate,
    collect_gradient,
) -> None:
    """Worker start-up: keep the shards, build the step context."""
    global _WORKER_CONTEXT, _WORKER_SHARDS
    _WORKER_SHARDS = shards
    template = build_model(model_spec, np.random.default_rng(0))
    _WORKER_CONTEXT = _StepContext(
        template,
        batch_size=batch_size,
        optimizer=optimizer,
        learning_rate=learning_rate,
        collect_gradient=collect_gradient,
    )


def _pool_run_group(
    base_vec: np.ndarray,
    shard_indexes: list[int],
    orders_list: list[list[np.ndarray]],
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Worker body: run one group from a base vector shipped by value."""
    assert _WORKER_CONTEXT is not None
    return _WORKER_CONTEXT.run_group(
        base_vec,
        [_WORKER_SHARDS[i] for i in shard_indexes],
        orders_list,
    )


class StepDispatcher:
    """Batches deferred client steps into cohorts and process fan-out.

    Submitted tasks accumulate until the first :meth:`resolve` (the
    simulation's first accepted upload whose payload is still pending) and
    are then flushed together: grouped by (base parameter version, shard
    length), chunked to ``cohort_size``, and executed either in-process or
    across a fork pool of ``jobs`` workers, each chunk shipped with its
    base vector by value.

    Everything here is wall-clock machinery; nothing touches simulated
    time, counters, traces or RNG — which is what keeps every enabled
    combination byte-identical to the serial run.
    """

    def __init__(
        self,
        context: _StepContext,
        model_spec,
        shards: Sequence[Dataset],
        cohort_size: int = 1,
        jobs: int = 1,
    ) -> None:
        if cohort_size < 1:
            raise ConfigurationError(f"cohort_size must be >= 1, got {cohort_size}")
        if jobs < 1:
            raise ConfigurationError(f"step_jobs must be >= 1, got {jobs}")
        self._context = context  # in-process execution; workers build their own
        self.model_spec = model_spec
        self.shards = list(shards)
        self.cohort_size = cohort_size
        self.jobs = jobs
        self._pending: list[StepTask] = []
        self._pool = None
        # Wall-clock-side stats, deliberately kept out of RunResult
        # counters and the trace (both are digest material).
        self.stats = {
            "tasks": 0,
            "flushes": 0,
            "max_flush": 0,
            "cohort_groups": 0,
            "cohort_members": 0,
            "singleton_members": 0,
            "unsupported_members": 0,
            "pool_groups": 0,
        }
        if cohort_size > 1 and not context.compiles:
            record_fallback(
                ParallelFallback(
                    requested_jobs=cohort_size, configs=1, reason="cohort_unsupported"
                ),
                f"the model has a layer with no stacked kernel; cohorts of up "
                f"to {cohort_size} steps run one member at a time on the "
                f"Tensor tape instead of fused",
            )

    # -- submit / resolve ----------------------------------------------
    def submit(
        self,
        base_vec: np.ndarray,
        shard_index: int,
        orders: list[np.ndarray],
    ) -> StepTask:
        """Queue one step; the task pins ``base_vec`` until computed."""
        task = StepTask(base_vec, shard_index, orders)
        self._pending.append(task)
        self.stats["tasks"] += 1
        return task

    def resolve(self, task: StepTask) -> tuple[np.ndarray, np.ndarray | None]:
        """Return the task's result, flushing the whole pending batch if
        it is still pending."""
        if task.result is None:
            self._flush()
        if task.result is None:
            raise SimulationError(
                "step task resolved without a result; it was not pending "
                "in this dispatcher"
            )
        return task.result

    def discard(self, task: StepTask) -> None:
        """Forget a still-pending task (its attempt aborted mid-compute)."""
        self._pending = [t for t in self._pending if t is not task]

    # -- execution ------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            context = self._context
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=_pool_context(),
                initializer=_pool_init,
                initargs=(
                    self.model_spec,
                    self.shards,
                    context.batch_size,
                    context.optimizer,
                    context.learning_rate,
                    context.collect_gradient,
                ),
            )
        return self._pool

    def _flush(self) -> None:
        pending, self._pending = self._pending, []
        if not pending:
            return
        self.stats["flushes"] += 1
        self.stats["max_flush"] = max(self.stats["max_flush"], len(pending))
        # Cohort members must share the exact base vector and batch
        # geometry.  The tasks themselves pin the base arrays, so id() is
        # collision-free while a task is pending.
        groups: dict[tuple[int, int], list[StepTask]] = {}
        for task in pending:
            key = (id(task.base_vec), len(self.shards[task.shard_index]))
            groups.setdefault(key, []).append(task)
        chunks = [
            tasks[i : i + self.cohort_size]
            for tasks in groups.values()
            for i in range(0, len(tasks), self.cohort_size)
        ]
        self._count_chunks(chunks)
        if self.jobs > 1 and len(chunks) > 1:
            self._run_chunks_pool(chunks)
        else:
            self._run_chunks_inprocess(chunks)

    def _count_chunks(self, chunks: list[list[StepTask]]) -> None:
        for chunk in chunks:
            if len(chunk) == 1:
                self.stats["singleton_members"] += 1
            elif self._context.compiles:
                self.stats["cohort_groups"] += 1
                self.stats["cohort_members"] += len(chunk)
            else:
                self.stats["unsupported_members"] += len(chunk)

    def _run_chunks_inprocess(self, chunks: list[list[StepTask]]) -> None:
        for chunk in chunks:
            results = self._context.run_group(
                chunk[0].base_vec,
                [self.shards[t.shard_index] for t in chunk],
                [t.orders for t in chunk],
            )
            for task, result in zip(chunk, results):
                task.result = result

    def _run_chunks_pool(self, chunks: list[list[StepTask]]) -> None:
        """Fan the chunks out across the pool, one future each, and collect
        the results in submission order."""
        pool = self._ensure_pool()
        futures = [
            pool.submit(
                _pool_run_group,
                chunk[0].base_vec,
                [t.shard_index for t in chunk],
                [t.orders for t in chunk],
            )
            for chunk in chunks
        ]
        self.stats["pool_groups"] += len(chunks)
        for chunk, future in zip(chunks, futures):
            for task, result in zip(chunk, future.result()):
                task.result = result

    # -- lifecycle ------------------------------------------------------
    def shutdown(self) -> None:
        """Drop pending work and stop the workers."""
        self._pending.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
