"""Client local-training steps as schedulable units of compute.

One function trains a client subtask — :func:`run_local_step`, the
compiled step program of :mod:`repro.nn.cohort` at cohort size 1 — and one
:class:`_StepContext` per process owns the programs it runs on.  Every
client step takes one route: the runner submits it to the
:class:`StepDispatcher` as its simulated compute starts and resolves it
when that compute ends.  Steps that share a parameter file fuse
into cohorts (the same program at G > 1), and ``step_jobs - 1`` worker
processes train beside this one, each receiving a chunk's base vector by
value, as a volunteer host downloads its parameter file; at
``step_jobs=1`` there are no workers.  Architectures with no stacked
kernels train on the ``Tensor`` tape instead, one member at a time;
which path runs is decided by whether the architecture compiles.

Determinism is the load-bearing wall.  Simulated *time* never depends on
where compute runs (durations come from work units, not wall clock), and
the *numbers* are kept bit-identical by two rules:

* every RNG draw happens at submit time, in the serial schedule's order —
  :func:`draw_batch_orders` pre-draws one permutation per local epoch
  from the attempt's own batch stream, so where the (RNG-free) compute
  runs moves no draw;
* a step reads only inputs fixed at compute start (its parameter file,
  shard and pre-drawn orders), so it may run any time between submit and
  its one resolve, at its attempt's compute end, where whatever perturbs
  the trained result (a codec encode, corruption noise, adversary tamper)
  draws in the serial order.  A step goes to a worker, if one is free, as
  its chunk fills, and a resolve trains what no worker has taken.
"""

from __future__ import annotations

import os
import pickle
import queue
import signal
import threading
import traceback
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..data.dataset import Dataset
from ..errors import ConfigurationError, SimulationError
from ..nn.cohort import CohortTrainer, StepProgram, compile_program, train_steps
from ..nn.layers import Module
from ..nn.models import build_model
from .parallel import ParallelFallback, _pool_context, record_fallback

if TYPE_CHECKING:
    from .codec_plane import VersionedParams

__all__ = [
    "draw_batch_orders",
    "run_local_step",
    "StepTask",
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

    It pins the downloaded parameter file, not a decoded vector: a lossy
    file decodes to a fresh model-sized vector, only where the step
    trains.  ``worker`` is the worker holding the step's chunk while the
    step waits for its result.  Nothing here points back at the chunk or
    the backlog: a cycle would keep a finished step's vectors alive until
    the next full garbage collection.
    """

    __slots__ = ("published", "shard_index", "orders", "wu_id", "result", "worker")

    def __init__(
        self,
        published: "VersionedParams",
        shard_index: int,
        orders: list[np.ndarray],
        wu_id: str | None = None,
    ) -> None:
        self.published = published
        self.shard_index = shard_index
        self.orders = orders
        self.wu_id = wu_id
        self.result: tuple[np.ndarray, np.ndarray | None] | None = None
        self.worker: _Worker | None = None


class _StepContext:
    """Everything one process needs to execute local steps.

    Owns a template model (only its architecture matters: every step
    starts from a downloaded base vector) and the trainers compiled from
    it — the single-member one every singleton or warm-start step runs
    on, and the stacked one of the most recent cohort size (cohort arenas
    grow with G, so only one is kept).  When the architecture has
    no stacked kernels the single trainer runs on the ``Tensor`` tape and
    cohorts run one member at a time.  Lives once in the runner (the
    dispatcher's own steps and the warm start) and once per worker
    (:func:`_worker_main`).
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
# Pool worker plumbing
# ---------------------------------------------------------------------------

# A worker holds at most this many steps (training and queued), counted
# in steps, not chunks: a full cohort chunk fills it alone, so the
# simulation still has chunks to train while it waits (DESIGN.md §8.5).
_WORKER_STEPS = 2


def _worker_main(
    conn,
    stale,
    model_spec,
    shards,
    batch_size,
    optimizer,
    learning_rate,
    collect_gradient,
) -> None:
    """A forked step worker: build a step context, then train each chunk
    the pipe brings, in order, and reply ``(True, results)`` or
    ``(False, exception)``.

    ``stale`` are the parent's pipe ends this process inherited (its own
    and its elder siblings'); closing them leaves the parent the only
    holder, so the pipe reads EOF — and the worker exits — when the
    parent closes it or dies.  A reader thread drains the pipe into a
    local queue, so a parent sending a vector larger than the socket
    buffer never waits on a worker that is itself sending a reply.
    """
    for end in stale:
        end.close()
    # Ctrl-C reaches the whole process group; the parent handles it and
    # stops its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    inbox: queue.SimpleQueue = queue.SimpleQueue()
    threading.Thread(target=_drain, args=(conn, inbox), daemon=True).start()
    context = _StepContext(
        build_model(model_spec, np.random.default_rng(0)),
        batch_size=batch_size,
        optimizer=optimizer,
        learning_rate=learning_rate,
        collect_gradient=collect_gradient,
    )
    while True:
        base_vec, shard_indexes, orders_list = inbox.get()
        try:
            results = context.run_group(
                base_vec, [shards[i] for i in shard_indexes], orders_list
            )
            reply = (True, results)
        except BaseException as exc:
            reply = (False, _portable(exc))
        try:
            conn.send(reply)
        except OSError:  # the parent closed the pipe or died
            os._exit(0)


def _drain(conn, inbox: queue.SimpleQueue) -> None:
    try:
        while True:
            inbox.put(conn.recv())
    except (EOFError, OSError):
        os._exit(0)


def _portable(exc: BaseException) -> BaseException:
    """``exc`` with the worker's traceback as a note, or its text in a
    :class:`SimulationError` if it does not survive a pickle round trip."""
    exc.add_note("worker traceback:\n" + "".join(traceback.format_exception(exc)))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return SimulationError("".join(traceback.format_exception_only(exc)).strip())
    return exc


class _Worker:
    """One forked step worker as the parent sees it: the process, the
    parent's end of its pipe, the chunks it holds in send order (replies
    come back in that order) and how many steps they add up to."""

    __slots__ = ("process", "conn", "chunks", "steps")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.chunks: deque[list[StepTask]] = deque()
        self.steps = 0


class StepDispatcher:
    """Trains every client step: cohorts, worker fan-out, and here.

    Steps that share a parameter file and shard length form chunks of up
    to ``cohort_size``, each trained in one pass
    (:meth:`_StepContext.run_group`).  ``jobs`` processes train chunks:
    this one and ``jobs - 1`` forked workers, each fed over its own pipe
    (none at ``jobs == 1``).  A chunk joins a FIFO backlog as soon as it
    holds ``cohort_size`` steps — at cohort size 1, when the step's
    compute starts — and every submit and resolve first collects the
    replies that are in, then hands backlog chunks, base vector by value,
    to any worker holding fewer than ``_WORKER_STEPS`` steps.  A resolve
    whose chunk is still filling moves every filling chunk to the backlog
    (the whole-batch rule that lets concurrent steps fuse); a resolve
    whose chunk no worker has taken trains it here; a resolve whose chunk
    a worker holds trains the backlog's head here while it waits, and
    blocks on that worker's pipe only when the backlog is empty.

    ``stats`` counts ``tasks`` submitted, ``cohort_members`` computed in
    fused chunks of more than one, ``flushes`` (resolves that moved the
    filling chunks to the backlog; none at cohort size 1), and where
    steps trained: ``worker_steps`` on workers, ``here_steps`` in this
    process, of which ``helped_steps`` while a resolve waited on a
    worker.

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
        self._context = context  # this process's steps; workers build their own
        self.model_spec = model_spec
        self.shards = list(shards)
        self.cohort_size = cohort_size
        self.jobs = jobs
        # Chunks still filling, by chunk key; full chunks no worker has
        # taken, oldest first; the workers, forked at the first send.
        self._filling: dict[tuple[int, int], list[StepTask]] = {}
        self._backlog: deque[list[StepTask]] = deque()
        self._workers: list[_Worker] = []
        # Wall-clock-side stats, deliberately kept out of RunResult
        # counters and the trace (both are digest material).
        self.stats = {
            "tasks": 0,
            "flushes": 0,
            "cohort_groups": 0,
            "cohort_members": 0,
            "singleton_members": 0,
            "unsupported_members": 0,
            "worker_steps": 0,
            "here_steps": 0,
            "helped_steps": 0,
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
        published: "VersionedParams",
        shard_index: int,
        orders: list[np.ndarray],
        wu_id: str | None = None,
    ) -> StepTask:
        """Queue one step from the parameter file ``published``; its chunk
        joins the backlog once full.  ``wu_id`` names the step in a
        worker's error."""
        task = StepTask(published, shard_index, orders, wu_id)
        self.stats["tasks"] += 1
        key = self._chunk_key(task)
        chunk = self._filling.setdefault(key, [])
        chunk.append(task)
        if len(chunk) == self.cohort_size:
            del self._filling[key]
            self._backlog.append(chunk)
        self._pump()
        return task

    def resolve(self, task: StepTask) -> tuple[np.ndarray, np.ndarray | None]:
        """Return the task's result, computing it here or waiting for
        (and helping) the worker that holds it if it is still pending."""
        if task.result is None:
            self._await(task)
        if task.result is None:
            raise SimulationError(
                "step task resolved without a result; it was not pending "
                "in this dispatcher"
            )
        return task.result

    def discard(self, task: StepTask) -> None:
        """Forget a still-pending task (its attempt aborted mid-compute).
        A chunk left with no member leaves the backlog; a worker's result
        for it is dropped when it arrives."""
        if task.worker is not None:
            task.worker = None
            return
        key = self._chunk_key(task)
        filling = self._filling.get(key)
        if filling is not None and task in filling:
            filling.remove(task)
            if not filling:
                del self._filling[key]
            return
        chunk = self._backlog_chunk(task)
        if chunk is not None:
            chunk.remove(task)
            if not chunk:
                self._backlog = deque(c for c in self._backlog if c is not chunk)

    # -- execution ------------------------------------------------------
    def _chunk_key(self, task: StepTask) -> tuple[int, int]:
        # Cohort members must share the exact base vector and batch
        # geometry.  A task pins its file's content, so id() is
        # collision-free while it waits.
        return id(task.published.content), len(self.shards[task.shard_index])

    def _backlog_chunk(self, task: StepTask) -> list[StepTask] | None:
        return next((c for c in self._backlog if task in c), None)

    def _await(self, task: StepTask) -> None:
        worker = task.worker
        if worker is None:
            if task in self._filling.get(self._chunk_key(task), ()):
                self._backlog.extend(self._filling.values())
                self._filling.clear()
                self.stats["flushes"] += 1
            # No worker has taken the chunk: train it here rather than
            # wait behind the chunks before it, once the workers have
            # what else is waiting.
            chunk = self._backlog_chunk(task)
            if chunk is not None:
                self._backlog = deque(c for c in self._backlog if c is not chunk)
                self._pump()
                self._train_here(chunk)
            return
        while True:
            self._pump()
            if task.result is not None:
                return
            if self._backlog:
                chunk = self._backlog.popleft()
                self.stats["helped_steps"] += len(chunk)
                self._train_here(chunk)
            else:
                self._collect(worker)

    def _train_here(self, chunk: list[StepTask]) -> None:
        """Train one chunk in this process."""
        self._count(chunk)
        self.stats["here_steps"] += len(chunk)
        results = self._context.run_group(
            chunk[0].published.decode_params(),
            [self.shards[t.shard_index] for t in chunk],
            [t.orders for t in chunk],
        )
        for task, result in zip(chunk, results):
            task.result = result

    def _count(self, chunk: list[StepTask]) -> None:
        if len(chunk) == 1:
            self.stats["singleton_members"] += 1
        elif self._context.compiles:
            self.stats["cohort_groups"] += 1
            self.stats["cohort_members"] += len(chunk)
        else:
            self.stats["unsupported_members"] += len(chunk)

    def _pump(self) -> None:
        """Collect every reply that is in, then feed the backlog, least
        loaded worker first, to the workers holding fewer than
        ``_WORKER_STEPS`` steps."""
        for worker in self._workers:
            while worker.conn.poll():
                self._collect(worker)
        if not self._backlog or self.jobs == 1:
            return
        workers = self._workers or self._start_workers()
        while self._backlog:
            worker = min(workers, key=lambda w: w.steps)
            if worker.steps >= _WORKER_STEPS:
                return
            self._send(worker, self._backlog.popleft())

    def _start_workers(self) -> list[_Worker]:
        # Forked where possible: workers inherit the shards instead of
        # unpickling them.  A run with workers has no codec, so no pricing
        # thread exists to be forked mid-operation.
        context = self._context
        settings = (
            self.model_spec,
            self.shards,
            context.batch_size,
            context.optimizer,
            context.learning_rate,
            context.collect_gradient,
        )
        mp = _pool_context()
        for _ in range(self.jobs - 1):
            ours, theirs = mp.Pipe()
            stale = [w.conn for w in self._workers] + [ours]
            process = mp.Process(
                target=_worker_main, args=(theirs, stale, *settings), daemon=True
            )
            process.start()
            theirs.close()
            self._workers.append(_Worker(process, ours))
        return self._workers

    def _send(self, worker: _Worker, chunk: list[StepTask]) -> None:
        """Ship one chunk to ``worker`` with its base vector by value."""
        try:
            worker.conn.send(
                (
                    chunk[0].published.decode_params(),
                    [t.shard_index for t in chunk],
                    [t.orders for t in chunk],
                )
            )
        except ConnectionError as exc:
            raise self._broken(worker, chunk[0]) from exc
        worker.chunks.append(chunk)
        worker.steps += len(chunk)
        for task in chunk:
            task.worker = worker
        self._count(chunk)
        self.stats["worker_steps"] += len(chunk)

    def _collect(self, worker: _Worker) -> None:
        """Receive ``worker``'s next reply (blocking) and hand its results
        to the tasks still waiting for them; re-raise its error if any
        is."""
        try:
            ok, payload = worker.conn.recv()
        except (EOFError, ConnectionError) as exc:
            held = [t for chunk in worker.chunks for t in chunk]
            raise self._broken(worker, held[0] if held else None) from exc
        chunk = worker.chunks.popleft()
        worker.steps -= len(chunk)
        waiting = [t for t in chunk if t.worker is worker]
        if not ok:
            if waiting:
                payload.add_note(_worker_note(waiting[0]))
                raise payload
            return
        for task, result in zip(chunk, payload):
            if task.worker is worker:
                task.result, task.worker = result, None

    def _broken(self, worker: _Worker, task: StepTask | None) -> BrokenProcessPool:
        error = BrokenProcessPool(
            f"step worker (pid {worker.process.pid}) exited unexpectedly"
        )
        if task is not None:
            error.add_note(_worker_note(task))
        return error

    # -- lifecycle ------------------------------------------------------
    def shutdown(self) -> None:
        """Drop pending work and stop the workers: closing a worker's
        pipe makes it exit; one that has not within a few seconds is
        terminated."""
        self._filling.clear()
        self._backlog.clear()
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.conn.close()
        for worker in workers:
            worker.process.join(5)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join()
            worker.process.close()


def _worker_note(task: StepTask) -> str:
    return f"while training workunit {task.wu_id!r} on a step worker"
