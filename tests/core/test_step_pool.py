"""The step pool: feeding, helping, lifecycle, failures and the auto width.

With ``step_jobs = N > 1`` this process and ``N - 1`` forked workers
train client steps.  A step's chunk joins a backlog when it is full
(at cohort size 1, when its simulated compute starts) and goes to a
worker that holds fewer than two steps; a resolve trains what no worker
has taken and, while it waits on a worker, the backlog's head
(DESIGN.md §8.5).  Bit-identity with the serial run is pinned in
``test_multicore_determinism.py``; this file pins what the pool does
with processes, pipes and errors, and how ``step_jobs=0`` (auto)
resolves.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import signal
import threading
import time
import weakref
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import DistributedRunner, FaultConfig, LocalTrainingConfig, run_configs
from repro.core import runner as runner_module
from repro.core.codec_plane import VersionedParams
from repro.core.parallel import step_jobs_for
from repro.core.steps import StepDispatcher, _StepContext, draw_batch_orders
from repro.errors import ConfigurationError, SimulationError
from repro.nn.models import ModelSpec

from repro.simulation.chaos import ChaosPlan, TransferFaultPlan
from repro.simulation.resources import TABLE1_CLIENTS, ComputeResource

from ..goldens import GOLDENS, digest_of
from .test_multicore_determinism import _scenario_config
from .test_runner import tiny_config


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


@pytest.fixture
def slow_workers(monkeypatch):
    """Workers forked after this fixture spend 0.2 s on every chunk."""
    run_group = _StepContext.run_group

    def slowed(self, *args):
        if _in_worker():
            time.sleep(0.2)
        return run_group(self, *args)

    monkeypatch.setattr(_StepContext, "run_group", slowed)


def _dispatcher(cohort_size=1, jobs=2):
    runner = DistributedRunner(tiny_config(step_jobs=1))
    shards = runner.work_generator.shards
    dispatcher = StepDispatcher(
        runner._steps, runner.config.model, shards, cohort_size, jobs
    )
    published = VersionedParams(runner._layout.pack(runner._eval_arena), 0)
    rng = np.random.default_rng(0)

    def submit(shard_index=0):
        orders = draw_batch_orders(rng, len(shards[shard_index]), 2)
        return dispatcher.submit(published, shard_index, orders, f"wu{shard_index}")

    return runner, dispatcher, submit


def _held(dispatcher) -> list[int]:
    """Steps each worker holds (training and queued)."""
    return [worker.steps for worker in dispatcher._workers]


class TestDispatcher:
    def test_pool_results_equal_in_process_results(self):
        runner, pool, submit = _dispatcher(jobs=2)
        try:
            tasks = [submit(i % 6) for i in range(8)]
            pooled = [pool.resolve(t) for t in tasks]
        finally:
            pool.shutdown()
        assert pool.stats["worker_steps"] > 0
        for task, (vec, gradient) in zip(tasks, pooled):
            assert task.worker is None
            want, _ = runner._steps.run_group(
                runner._layout.pack(runner._eval_arena),
                [pool.shards[task.shard_index]],
                [task.orders],
            )[0]
            assert gradient is None and np.array_equal(vec, want)

    def test_a_step_leaves_at_submit(self, slow_workers):
        _, pool, submit = _dispatcher(jobs=2)
        try:
            first, second, third = submit(), submit(1), submit(2)
            # The worker takes steps until it holds two; the third waits.
            assert first.worker is second.worker is pool._workers[0]
            assert _held(pool) == [2]
            assert third.worker is None and list(pool._backlog) == [[third]]
            for task in (first, second, third):
                pool.resolve(task)
        finally:
            pool.shutdown()
        assert pool.stats["flushes"] == 0 and pool.stats["tasks"] == 3

    def test_cohort_chunks_leave_full_or_when_a_resolve_needs_them(
        self, slow_workers
    ):
        _, pool, submit = _dispatcher(cohort_size=3, jobs=2)
        try:
            full = [submit(0) for _ in range(3)]
            # A full chunk of three fills the worker: the next full chunk
            # waits in the backlog, the partial one keeps filling.
            waiting = [submit(0) for _ in range(3)]
            partial = [submit(0) for _ in range(2)]
            assert all(t.worker is pool._workers[0] for t in full)
            assert _held(pool) == [3] and list(pool._backlog) == [waiting]
            assert all(t.worker is None and t.result is None for t in partial)
            pool.resolve(partial[0])
            assert partial[1].result is not None
            for task in full + waiting + partial:
                pool.resolve(task)
        finally:
            pool.shutdown()
        assert pool.stats["flushes"] == 1
        assert pool.stats["cohort_groups"] == 3
        assert pool.stats["cohort_members"] == 8 and pool.stats["tasks"] == 8

    def test_discard_cancels_a_step_no_worker_took(self, slow_workers):
        _, pool, submit = _dispatcher(jobs=2)
        try:
            tasks = [submit(i % 6) for i in range(4)]
            assert list(pool._backlog) == [[tasks[2]], [tasks[3]]]
            pool.discard(tasks[3])
            assert list(pool._backlog) == [[tasks[2]]]
            pool.resolve(tasks[2])
        finally:
            pool.shutdown()
        assert tasks[3].result is None
        assert pool.stats["worker_steps"] + pool.stats["here_steps"] == 3

    def test_discard_drops_a_sent_steps_result(self, slow_workers):
        _, pool, submit = _dispatcher(jobs=2)
        try:
            dropped, kept = submit(0), submit(1)
            pool.discard(dropped)
            assert dropped.worker is None
            pool.resolve(kept)
            # Replies come in send order: the dropped step's was in first.
            assert not pool._workers[0].chunks and _held(pool) == [0]
        finally:
            pool.shutdown()
        assert dropped.result is None and kept.result is not None

    def test_a_resolve_trains_a_step_no_worker_took_in_process(self, slow_workers):
        _, pool, submit = _dispatcher(jobs=2)
        try:
            tasks = [submit(i % 6) for i in range(8)]
            started = time.perf_counter()
            pool.resolve(tasks[-1])
            assert time.perf_counter() - started < 0.2
            assert tasks[-1].worker is None
        finally:
            pool.shutdown()
        assert pool.stats["here_steps"] == 1
        assert pool.stats["helped_steps"] == 0

    def test_a_resolve_helps_while_it_waits_on_a_worker(self, slow_workers):
        _, pool, submit = _dispatcher(jobs=2)
        try:
            tasks = [submit(i % 6) for i in range(8)]
            # The worker holds the first two; the resolve of the first
            # trains backlog heads here until the worker's reply is in.
            pool.resolve(tasks[0])
            helped = pool.stats["helped_steps"]
            assert helped >= 1
            assert all(t.result is not None for t in tasks[2 : 2 + helped])
            for task in tasks:
                pool.resolve(task)
        finally:
            pool.shutdown()
        stats = pool.stats
        assert stats["here_steps"] >= stats["helped_steps"] == helped
        assert stats["worker_steps"] + stats["here_steps"] == 8

    def test_a_finished_step_is_freed_without_the_garbage_collector(self):
        """A cycle through a finished step would pin its vectors until the
        next full collection, which a run may never reach: the parent's
        peak RSS on chaos_p3c3t4 grew by 14 MiB that way."""
        _, pool, submit = _dispatcher(jobs=2)
        gc.disable()
        try:
            tasks = [submit(i % 6) for i in range(4)]
            vectors = [weakref.ref(pool.resolve(t)[0]) for t in tasks]
            del tasks
            assert all(ref() is None for ref in vectors)
        finally:
            gc.enable()
            pool.shutdown()

    def test_shutdown_settles_every_chunk(self, slow_workers):
        _, pool, submit = _dispatcher(jobs=3)
        for i in range(8):
            submit(i % 6)
        # Both workers are fed, two steps each; the rest wait.
        assert _held(pool) == [2, 2] and len(pool._backlog) == 4
        pool.shutdown()
        assert not pool._workers and not pool._backlog and not pool._filling
        assert not multiprocessing.active_children()

    def test_two_step_jobs_fork_one_worker_and_no_thread(self):
        threads = threading.active_count()
        _, pool, submit = _dispatcher(jobs=2)
        try:
            tasks = [submit(i % 6) for i in range(4)]
            assert len(multiprocessing.active_children()) == 1
            assert len(pool._workers) == 1
            assert threading.active_count() == threads
            for task in tasks:
                pool.resolve(task)
        finally:
            pool.shutdown()
        assert threading.active_count() == threads


def _orphan_a_pool(conn) -> None:
    """Start a pool, report its worker pids, die without a shutdown."""
    _, pool, submit = _dispatcher(jobs=3)
    for task in [submit(i) for i in range(4)]:
        pool.resolve(task)
    conn.send(sorted(worker.process.pid for worker in pool._workers))
    os._exit(0)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_exit_with_a_parent_that_died_without_shutdown():
    reader, writer = multiprocessing.Pipe(duplex=False)
    owner = multiprocessing.get_context("fork").Process(
        target=_orphan_a_pool, args=(writer,)
    )
    owner.start()
    assert reader.poll(60), "the pool owner never reported its workers"
    pids = reader.recv()
    owner.join(10)
    assert not owner.is_alive()
    deadline = time.monotonic() + 10
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in pids if _alive(pid)]
    for pid in survivors:  # never leave them to outlive the test
        os.kill(pid, signal.SIGKILL)
    assert len(pids) == 2 and not survivors


def _record_sends(monkeypatch) -> list:
    chunks = []
    send = StepDispatcher._send

    def recording(self, worker, chunk):
        chunks.append(chunk)
        return send(self, worker, chunk)

    monkeypatch.setattr(StepDispatcher, "_send", recording)
    return chunks


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle this error")


class _Hung(Exception):
    pass


def _digest(runner) -> str:
    return hashlib.sha256(runner.pool.current_params().tobytes()).hexdigest()


class TestRunLifecycle:
    def test_no_chunk_outlives_run_under_preemption(self, monkeypatch):
        chunks = _record_sends(monkeypatch)
        runner = DistributedRunner(_scenario_config("preemption", "pool"))
        result = runner.run()
        assert result.counters["preemptions"] > 0
        # Every sent step came back or was discarded with its attempt.
        assert chunks and all(t.worker is None for c in chunks for t in c)
        assert not runner._dispatcher._workers and not runner._prepared
        assert not multiprocessing.active_children()

    def test_no_worker_outlives_a_clean_run(self):
        runner = DistributedRunner(tiny_config(step_jobs=2, max_epochs=1))
        runner.run()
        stats = runner._dispatcher.stats
        # The bench reads these three keys off every dispatcher.
        assert {"tasks", "cohort_members", "flushes"} <= set(stats)
        assert stats["tasks"] == stats["worker_steps"] + stats["here_steps"] == 6
        assert stats["worker_steps"] > 0 and stats["flushes"] == 0
        assert not multiprocessing.active_children()

    def test_a_step_that_raises_in_a_worker_surfaces_with_its_workunit(
        self, monkeypatch
    ):
        run_group = _StepContext.run_group

        def failing(self, *args):
            if _in_worker():
                raise FloatingPointError("diverged in a worker")
            return run_group(self, *args)

        monkeypatch.setattr(_StepContext, "run_group", failing)
        runner = DistributedRunner(tiny_config(step_jobs=2, max_epochs=1))
        with pytest.raises(FloatingPointError) as failure:
            runner.run()
        notes = getattr(failure.value, "__notes__", [])
        assert any("while training workunit 'job:e000:s" in n for n in notes)
        assert any("worker traceback" in n for n in notes)
        assert not multiprocessing.active_children()

    def test_an_unpicklable_worker_error_arrives_as_its_text(self, monkeypatch):
        run_group = _StepContext.run_group

        def failing(self, *args):
            if _in_worker():
                raise _Unpicklable("diverged in a worker")
            return run_group(self, *args)

        monkeypatch.setattr(_StepContext, "run_group", failing)
        runner = DistributedRunner(tiny_config(step_jobs=2, max_epochs=1))
        with pytest.raises(SimulationError, match="_Unpicklable: diverged") as failure:
            runner.run()
        notes = getattr(failure.value, "__notes__", [])
        assert any("while training workunit 'job:e000:s" in n for n in notes)
        assert not multiprocessing.active_children()

    def test_a_dead_worker_surfaces_as_a_broken_pool(self, monkeypatch):
        run_group = _StepContext.run_group

        def dying(self, *args):
            if _in_worker():
                os._exit(3)
            return run_group(self, *args)

        monkeypatch.setattr(_StepContext, "run_group", dying)
        runner = DistributedRunner(tiny_config(step_jobs=2, max_epochs=1))
        with pytest.raises(BrokenProcessPool) as failure:
            runner.run()
        notes = getattr(failure.value, "__notes__", [])
        assert any("while training workunit 'job:e000:s" in n for n in notes)
        assert not multiprocessing.active_children()

    def test_a_vector_larger_than_the_pipe_buffer_does_not_deadlock(self):
        """1.1M float64 parameters (8.8 MB) each way: a worker that could
        not read while it replies would block the parent's send forever."""
        config = dict(
            model=ModelSpec(
                "mlp", {"in_features": 48, "hidden": [1024, 1024], "num_classes": 4}
            ),
            local_training=LocalTrainingConfig(local_epochs=1, learning_rate=0.01),
            max_epochs=1,
        )
        serial = DistributedRunner(tiny_config(step_jobs=1, **config))
        serial.run()
        pooled = DistributedRunner(tiny_config(step_jobs=2, **config))
        assert pooled._layout.total_size >= 1_000_000

        def hung(signum, frame):
            raise _Hung("the step pool deadlocked on a large vector")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            pooled.run()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert pooled._dispatcher.stats["worker_steps"] > 0
        assert _digest(pooled) == _digest(serial)
        assert not multiprocessing.active_children()


class TestOneRoute:
    """Every attempt's step goes to the dispatcher at compute start, at
    every width, whoever the client is."""

    def test_one_step_job_forks_nothing_and_trains_every_step_here(
        self, monkeypatch
    ):
        _forbid_forks(monkeypatch)
        runner = DistributedRunner(tiny_config(step_jobs=1, cohort_size=3))
        runner.run()
        stats = runner._dispatcher.stats
        assert stats["tasks"] == stats["here_steps"] == 12
        assert stats["worker_steps"] == stats["helped_steps"] == 0
        assert stats["cohort_members"] > 0
        assert not multiprocessing.active_children()

    def test_a_corrupt_clients_step_starts_at_compute_start_on_the_pool(
        self, monkeypatch
    ):
        chunks = _record_sends(monkeypatch)
        runner = DistributedRunner(
            tiny_config(step_jobs=2, faults=FaultConfig(corrupt_clients=1))
        )
        starts, submitted = {}, {}
        for client in runner.server.clients.values():
            prepare = client.on_train_start

            def noting(wu, payloads, task, prepare=prepare):
                prepare(wu, payloads, task)
                key = (wu.wu_id, wu.num_attempts)
                starts[key] = runner.sim.now
                submitted[key] = runner._prepared[key][0]

            client.on_train_start = noting
        runner.run()
        corrupt = {
            key: step
            for key, step in submitted.items()
            if runner.server.scheduler.get_workunit(key[0])
            .attempts[key[1] - 1]
            .client_id
            == "client-000"
        }
        sent = {id(t) for chunk in chunks for t in chunk}
        assert corrupt and any(id(step) in sent for step in corrupt.values())
        # Its noise is still drawn at its compute end, never at the start.
        noise = [r.time for r in runner.trace if r.kind == "fault.corrupt_upload"]
        done = {
            r.time
            for r in runner.trace
            if r.kind == "client.train_done" and r["client"] == "client-000"
        }
        assert noise and set(noise) <= done
        assert not set(noise) & {starts[key] for key in corrupt}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_an_attempt_computes_once(self, jobs):
        """A download retry left over from an attempt that timed out dies
        with it: when the unit is reissued to the same client, only the new
        attempt's own download starts a compute, and every compute start
        submits the one step its compute end resolves."""
        golden = GOLDENS["attempts/reissued_downloads"]
        runner = DistributedRunner(golden.config(step_jobs=jobs))
        computes = Counter()
        for client in runner.server.clients.values():
            prepare = client.on_train_start

            def counting(wu, payloads, task, prepare=prepare):
                computes[wu.wu_id, wu.num_attempts] += 1
                prepare(wu, payloads, task)

            client.on_train_start = counting
        result = runner.run()
        assert result.counters["timeouts"] > 0
        started = runner.trace.count("client.train_start")
        assert runner._dispatcher.stats["tasks"] == started
        assert max(computes.values()) == 1
        assert digest_of(runner, result) == golden.hex

    @pytest.mark.parametrize(
        "config",
        [
            GOLDENS["attempts/reissued_downloads"].config(),
            tiny_config(
                num_clients=3,
                faults=FaultConfig(preemption_hourly_p=0.9, relaunch_delay_s=30),
                subtask_timeout_s=120,
                step_jobs=1,
            ),
        ],
        ids=["timeout", "preemption"],
    )
    def test_a_cancelled_compute_drops_its_step_at_once(self, config, monkeypatch):
        """A compute cancelled by a timeout, or lost with its machine to a
        preemption, drops its attempt's note and its pending step at the
        cancel's sim time, not at a later compute end or epoch end."""
        noted = {}  # id(compute task) -> (task, attempt key, step)
        prepare = DistributedRunner._prepare_subtask

        def noting(self, wu, payloads, task):
            prepare(self, wu, payloads, task)
            key = (wu.wu_id, wu.num_attempts)
            noted[id(task)] = task, key, self._prepared[key][0]

        monkeypatch.setattr(DistributedRunner, "_prepare_subtask", noting)
        runner = DistributedRunner(config)
        dispatcher = runner._dispatcher
        dropped = Counter()

        def check(how, tasks):
            for task in tasks:
                entry = noted.get(id(task))  # noted tasks stay alive: ids are unique
                if entry is None or not task.cancelled:
                    continue
                _, key, step = entry
                pending = [*dispatcher._filling.values(), *dispatcher._backlog]
                assert key not in runner._prepared
                assert not any(step in chunk for chunk in pending)
                dropped[how] += 1

        cancel, terminate = ComputeResource.cancel, ComputeResource.terminate

        def cancelling(resource, task):
            cancel(resource, task)
            check("cancel", [task])

        def terminating(resource):
            tasks = terminate(resource)
            check("terminate", tasks)
            return tasks

        monkeypatch.setattr(ComputeResource, "cancel", cancelling)
        monkeypatch.setattr(ComputeResource, "terminate", terminating)
        runner.run()
        how = "terminate" if config.faults.preemption_hourly_p else "cancel"
        assert dropped[how] > 0

    def test_no_step_outlives_its_epoch(self):
        """Under heavy transfer faults attempts time out mid-download and
        mid-compute.  A cancelled compute drops its step and every other
        step resolves at its compute end, so none is pending when an epoch
        ends."""
        faults = FaultConfig(
            chaos=ChaosPlan(transfer=TransferFaultPlan(failure_p=0.85))
        )
        runner = DistributedRunner(
            tiny_config(num_clients=3, max_epochs=4, faults=faults, step_jobs=1)
        )
        dispatcher = runner._dispatcher
        record_epoch = runner._record_epoch
        pending = []

        def recording():
            record = record_epoch()
            pending.append(len(dispatcher._backlog) + len(dispatcher._filling))
            return record

        runner._record_epoch = recording
        result = runner.run()
        stats = dispatcher.stats
        assert result.counters["timeouts"] > 0
        assert stats["here_steps"] < stats["tasks"]
        assert pending == [0] * 4

    def test_tasks_count_the_attempts_started(self):
        runner = DistributedRunner(_scenario_config("preemption", "pool"))
        result = runner.run()
        started = sum(1 for r in runner.trace if r.kind == "client.train_start")
        assert result.counters["preemptions"] > 0
        assert runner._dispatcher.stats["tasks"] == started


class TestCohortFusion:
    def test_a_homogeneous_fleet_fuses_as_pinned(self):
        """``cohort8_homog`` in miniature: eight identical T2 clients start
        their computes in waves, and every compute end resolves its step.
        The counts were captured when honest uploads still resolved at
        acceptance; resolving at compute end fuses exactly as that did."""
        runner = DistributedRunner(
            tiny_config(
                num_clients=8,
                num_train=480,
                num_shards=24,
                max_epochs=3,
                local_training=LocalTrainingConfig(local_epochs=2, learning_rate=0.01),
                client_specs=(TABLE1_CLIENTS[0],),
                cohort_size=8,
                step_jobs=1,
            )
        )
        runner.run()
        pinned = {
            "tasks": 72,
            "cohort_groups": 13,
            "cohort_members": 68,
            "singleton_members": 4,
            "flushes": 3,
        }
        stats = runner._dispatcher.stats
        assert {key: stats[key] for key in pinned} == pinned


def _forbid_forks(monkeypatch) -> None:
    def fork(self):
        raise AssertionError("a step worker was forked")

    monkeypatch.setattr(StepDispatcher, "_start_workers", fork)


class _ReportingRunner(DistributedRunner):
    """A runner whose telemetry also says which step width it used."""

    def telemetry(self):
        return {**super().telemetry(), "step_jobs": self.step_jobs}


class TestAutoWidth:
    def test_auto_is_the_default(self):
        assert tiny_config().step_jobs == 0

    def test_auto_uses_every_usable_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert step_jobs_for(tiny_config()) == 3
        assert step_jobs_for(tiny_config(cohort_size=4)) == 3

    def test_one_usable_cpu_resolves_to_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert step_jobs_for(tiny_config()) == 1
        _forbid_forks(monkeypatch)
        runner = DistributedRunner(tiny_config(max_epochs=1))
        runner.run()
        assert runner.step_jobs == runner._dispatcher.jobs == 1
        assert runner._dispatcher.stats["worker_steps"] == 0

    def test_codec_runs_resolve_to_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        _forbid_forks(monkeypatch)
        runner = DistributedRunner(tiny_config(codec="int8", max_epochs=1))
        runner.run()
        assert runner.step_jobs == runner._dispatcher.jobs == 1
        assert runner._dispatcher.stats["worker_steps"] == 0

    def test_an_explicit_codec_pool_is_still_rejected(self):
        with pytest.raises(ConfigurationError, match="pricing thread"):
            tiny_config(codec="int8", step_jobs=2)

    def test_explicit_widths_are_taken_as_given(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert step_jobs_for(tiny_config(step_jobs=1)) == 1
        assert step_jobs_for(tiny_config(step_jobs=3)) == 3

    def test_negative_widths_are_rejected(self):
        with pytest.raises(ConfigurationError, match="step_jobs"):
            tiny_config(step_jobs=-1)

    def test_sweeps_run_auto_points_in_process_at_any_width(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(runner_module, "DistributedRunner", _ReportingRunner)
        configs = [tiny_config(max_epochs=1), tiny_config(max_epochs=1, seed=5)]
        serial = run_configs(configs, jobs=1, collect_telemetry=True)
        fanned = run_configs(configs, jobs=2, collect_telemetry=True)
        assert [t["step_jobs"] for _, t in serial + fanned] == [1, 1, 1, 1]
        assert [t["digest"] for _, t in serial] == [t["digest"] for _, t in fanned]
        assert not multiprocessing.active_children()

    def test_worker_processes_resolve_auto_to_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            assert pool.submit(step_jobs_for, tiny_config()).result() == 1
            assert pool.submit(step_jobs_for, tiny_config(step_jobs=2)).result() == 2
        assert step_jobs_for(tiny_config()) == 2
