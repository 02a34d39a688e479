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
* a deferred step reads only inputs fixed at compute start (its base
  vector, shard and pre-drawn orders), so it may run any time between
  submit and the first resolve, which the client triggers when its upload
  is accepted — before any consumer reads the payload.  In-process the
  dispatcher computes the whole pending batch at that resolve; with a
  pool each step leaves for a worker as its compute starts and the
  resolve waits on that step alone.

Clients whose upload is perturbed by state that depends on the trained
result (corrupt-designated clients, adversary-compromised clients) are
never deferred; the runner computes them at execute time through the same
context.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
from concurrent.futures import Future
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
    """One submitted-but-not-yet-computed client training step.

    On a pool, ``future`` is the step's chunk once it has left for a
    worker and ``slot`` the step's place in that chunk.
    """

    __slots__ = (
        "base_vec", "shard_index", "orders", "wu_id", "result", "future", "slot"
    )

    def __init__(
        self,
        base_vec: np.ndarray,
        shard_index: int,
        orders: list[np.ndarray],
        wu_id: str | None = None,
    ) -> None:
        self.base_vec = base_vec
        self.shard_index = shard_index
        self.orders = orders
        self.wu_id = wu_id
        self.result: tuple[np.ndarray, np.ndarray | None] | None = None
        self.future: Future | None = None
        self.slot = 0


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
    """Worker start-up: keep the shards, build the step context, and
    exit with the parent."""
    global _WORKER_CONTEXT, _WORKER_SHARDS
    # A parent killed before its shutdown would leave the worker blocked
    # on its call queue forever.
    threading.Thread(
        target=_exit_when_closed,
        args=(multiprocessing.parent_process().sentinel,),
        daemon=True,
    ).start()
    _WORKER_SHARDS = shards
    template = build_model(model_spec, np.random.default_rng(0))
    _WORKER_CONTEXT = _StepContext(
        template,
        batch_size=batch_size,
        optimizer=optimizer,
        learning_rate=learning_rate,
        collect_gradient=collect_gradient,
    )


def _exit_when_closed(sentinel) -> None:
    multiprocessing.connection.wait([sentinel])
    os._exit(1)


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

    Steps that share a base vector and shard length form chunks of up to
    ``cohort_size``, each trained in one pass (:meth:`_StepContext.run_group`).

    * In-process (``jobs == 1``) submitted tasks accumulate until the
      first :meth:`resolve` of a pending one (the simulation's first
      accepted upload whose payload is still pending), which computes
      the whole pending batch, chunk by chunk.
    * With a pool (``jobs > 1``) a chunk leaves for a fork pool of
      ``jobs`` workers, with its base vector by value, as soon as it
      holds ``cohort_size`` steps — at cohort size 1, when the step's
      compute starts.  A resolve waits on its own chunk only; if that
      chunk is still filling, every partial chunk leaves first.  A chunk
      no worker has taken yet is cancelled and trained in-process
      instead, so the simulation never waits behind steps it does not
      need yet.

    ``stats`` counts ``tasks`` submitted, ``cohort_members`` computed in
    fused chunks of more than one, and ``flushes``: resolves that found
    their task still waiting here (in-process: the batch computations;
    on a pool: the sends of partial chunks, none at cohort size 1);
    ``stolen_groups`` counts the chunks a pool's resolve trained
    in-process.

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
        self._pending: list[StepTask] = []  # in-process: the next batch
        # Pool: chunks still filling, by chunk key, and per sent chunk
        # the members neither resolved nor discarded.
        self._filling: dict[tuple[int, int], list[StepTask]] = {}
        self._sent: dict[Future, list[StepTask]] = {}
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
            "stolen_groups": 0,
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
        wu_id: str | None = None,
    ) -> StepTask:
        """Queue one step (on a pool, send its chunk once full); the task
        pins ``base_vec``.  ``wu_id`` names the step in a worker's error."""
        task = StepTask(base_vec, shard_index, orders, wu_id)
        self.stats["tasks"] += 1
        if self.jobs == 1:
            self._pending.append(task)
            return task
        key = self._chunk_key(task)
        chunk = self._filling.setdefault(key, [])
        chunk.append(task)
        if len(chunk) == self.cohort_size:
            del self._filling[key]
            self._send(chunk)
        return task

    def resolve(self, task: StepTask) -> tuple[np.ndarray, np.ndarray | None]:
        """Return the task's result, computing (in-process) or waiting
        for (pool) it if it is still pending."""
        if task.result is None:
            if self.jobs == 1:
                self._flush()
            else:
                self._await(task)
        if task.result is None:
            raise SimulationError(
                "step task resolved without a result; it was not pending "
                "in this dispatcher"
            )
        return task.result

    def discard(self, task: StepTask) -> None:
        """Forget a still-pending task (its attempt aborted mid-compute).
        On a pool, its chunk is cancelled if no member is left and no
        worker has taken it yet."""
        if self.jobs == 1:
            self._pending = [t for t in self._pending if t is not task]
        elif task.future is not None:
            if not self._release(task):
                task.future.cancel()
            task.future = None
        else:
            key = self._chunk_key(task)
            chunk = [t for t in self._filling.get(key, ()) if t is not task]
            if chunk:
                self._filling[key] = chunk
            else:
                self._filling.pop(key, None)

    # -- execution ------------------------------------------------------
    def _chunk_key(self, task: StepTask) -> tuple[int, int]:
        # Cohort members must share the exact base vector and batch
        # geometry.  A task pins its base array, so id() is
        # collision-free while it waits.
        return id(task.base_vec), len(self.shards[task.shard_index])

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            # Forked where possible: workers inherit the shards instead of
            # unpickling them.  A pool run has no codec, so no pricing
            # thread exists to be forked mid-operation.
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
        groups: dict[tuple[int, int], list[StepTask]] = {}
        for task in pending:
            groups.setdefault(self._chunk_key(task), []).append(task)
        chunks = [
            tasks[i : i + self.cohort_size]
            for tasks in groups.values()
            for i in range(0, len(tasks), self.cohort_size)
        ]
        self._count_chunks(chunks)
        for chunk in chunks:
            self._run_here(chunk)

    def _run_here(self, chunk: list[StepTask]) -> None:
        """Train one chunk in this process."""
        results = self._context.run_group(
            chunk[0].base_vec,
            [self.shards[t.shard_index] for t in chunk],
            [t.orders for t in chunk],
        )
        for task, result in zip(chunk, results):
            task.result, task.future = result, None

    def _count_chunks(self, chunks: list[list[StepTask]]) -> None:
        for chunk in chunks:
            if len(chunk) == 1:
                self.stats["singleton_members"] += 1
            elif self._context.compiles:
                self.stats["cohort_groups"] += 1
                self.stats["cohort_members"] += len(chunk)
            else:
                self.stats["unsupported_members"] += len(chunk)

    def _send(self, chunk: list[StepTask]) -> None:
        """Ship one chunk to the pool with its base vector by value."""
        future = self._ensure_pool().submit(
            _pool_run_group,
            chunk[0].base_vec,
            [t.shard_index for t in chunk],
            [t.orders for t in chunk],
        )
        self._sent[future] = list(chunk)
        for slot, task in enumerate(chunk):
            task.future, task.slot = future, slot
        self._count_chunks([chunk])
        self.stats["pool_groups"] += 1

    def _await(self, task: StepTask) -> None:
        if task.future is None and self._filling:
            chunks = list(self._filling.values())
            self._filling.clear()
            self.stats["flushes"] += 1
            self.stats["max_flush"] = max(
                self.stats["max_flush"], sum(map(len, chunks))
            )
            for chunk in chunks:
                self._send(chunk)
        future = task.future
        if future is None:
            return
        if future.cancel():
            # No worker has taken the chunk: train it here rather than
            # wait behind the chunks sent before it.
            self._run_here(self._sent.pop(future))
            self.stats["stolen_groups"] += 1
            return
        try:
            results = future.result()
        except BaseException as exc:
            exc.add_note(f"while training workunit {task.wu_id!r} on a step worker")
            raise
        task.result = results[task.slot]
        self._release(task)
        task.future = None

    def _release(self, task: StepTask) -> bool:
        """Drop ``task`` from its sent chunk; False if none is left."""
        chunk = [t for t in self._sent.pop(task.future, ()) if t is not task]
        if chunk:
            self._sent[task.future] = chunk
        return bool(chunk)

    # -- lifecycle ------------------------------------------------------
    def shutdown(self) -> None:
        """Drop pending work, cancel unstarted chunks and stop the workers."""
        self._pending.clear()
        self._filling.clear()
        self._sent.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
