"""The asynchronous step pool: lifecycle, failures and the auto width.

With ``step_jobs > 1`` a deferred step leaves for a worker process when
its simulated compute starts and the simulation blocks only when it
needs that step's result (DESIGN.md §8.5).  Bit-identity with the serial
run is pinned in ``test_multicore_determinism.py``; this file pins what
the pool does with processes, futures and errors, and how ``step_jobs=0``
(auto) resolves.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import DistributedRunner, run_configs
from repro.core import runner as runner_module
from repro.core.parallel import step_jobs_for
from repro.core.steps import StepDispatcher, _StepContext, draw_batch_orders
from repro.errors import ConfigurationError

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
    base = runner._layout.pack(runner._eval_arena)
    rng = np.random.default_rng(0)

    def submit(shard_index=0, vec=base):
        orders = draw_batch_orders(rng, len(shards[shard_index]), 2)
        return dispatcher.submit(vec, shard_index, orders, f"wu{shard_index}")

    return runner, dispatcher, submit


class TestDispatcher:
    def test_pool_results_equal_in_process_results(self):
        runner, pool, submit = _dispatcher(jobs=2)
        try:
            tasks = [submit(i % 6) for i in range(8)]
            pooled = [pool.resolve(t) for t in tasks]
        finally:
            pool.shutdown()
        for task, (vec, gradient) in zip(tasks, pooled):
            assert task.future is None
            want, _ = runner._steps.run_group(
                runner._layout.pack(runner._eval_arena),
                [pool.shards[task.shard_index]],
                [task.orders],
            )[0]
            assert gradient is None and np.array_equal(vec, want)

    def test_a_step_leaves_at_submit(self):
        _, pool, submit = _dispatcher(jobs=2)
        try:
            task = submit()
            assert task.future is not None and not pool._filling
            pool.resolve(task)
        finally:
            pool.shutdown()
        assert pool.stats["flushes"] == 0 and pool.stats["tasks"] == 1

    def test_cohort_chunks_leave_full_or_when_a_resolve_needs_them(self):
        _, pool, submit = _dispatcher(cohort_size=3, jobs=2)
        try:
            full = [submit(0) for _ in range(3)]
            partial = [submit(0) for _ in range(2)]
            assert all(t.future is full[0].future for t in full)
            assert all(t.future is None for t in partial)
            pool.resolve(partial[0])
            assert partial[1].result is not None or partial[1].future is not None
            for task in full + partial:
                pool.resolve(task)
        finally:
            pool.shutdown()
        assert pool.stats["flushes"] == 1
        assert pool.stats["cohort_members"] == 5 and pool.stats["tasks"] == 5

    def test_discard_cancels_a_step_no_worker_took(self, slow_workers):
        _, pool, submit = _dispatcher(jobs=2)
        try:
            # Two chunks run and at most three wait in the call queue; the
            # eighth cannot have been taken within 0.2 s.
            tasks = [submit(i % 6) for i in range(8)]
            future = tasks[-1].future
            pool.discard(tasks[-1])
            assert future.cancelled()
            assert tasks[-1].future is None and future not in pool._sent
        finally:
            pool.shutdown()

    def test_a_resolve_trains_a_step_no_worker_took_in_process(self, slow_workers):
        _, pool, submit = _dispatcher(jobs=2)
        try:
            tasks = [submit(i % 6) for i in range(8)]
            started = time.perf_counter()
            pool.resolve(tasks[-1])
            assert time.perf_counter() - started < 0.2
        finally:
            pool.shutdown()
        assert pool.stats["stolen_groups"] == 1

    def test_shutdown_settles_every_future(self, slow_workers):
        _, pool, submit = _dispatcher(jobs=2)
        tasks = [submit(i % 6) for i in range(8)]
        futures = [t.future for t in tasks]
        pool.shutdown()
        assert all(f.done() for f in futures)
        assert any(f.cancelled() for f in futures)
        assert not multiprocessing.active_children()


def _orphan_a_pool(conn) -> None:
    """Start a pool, report its worker pids, die without a shutdown."""
    _, pool, submit = _dispatcher(jobs=2)
    pool.resolve(submit())
    conn.send(sorted(pool._pool._processes))
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


def _record_futures(monkeypatch) -> list:
    futures = []
    submit = ProcessPoolExecutor.submit

    def recording(self, *args, **kwargs):
        future = submit(self, *args, **kwargs)
        futures.append(future)
        return future

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording)
    return futures


class TestRunLifecycle:
    def test_no_future_outlives_run_under_preemption(self, monkeypatch):
        futures = _record_futures(monkeypatch)
        runner = DistributedRunner(_scenario_config("preemption", "pool"))
        result = runner.run()
        assert result.counters["preemptions"] > 0
        assert futures and all(f.done() for f in futures)
        assert not runner._dispatcher._sent and not runner._prepared
        assert not multiprocessing.active_children()

    def test_no_worker_outlives_a_clean_run(self):
        runner = DistributedRunner(tiny_config(step_jobs=2, max_epochs=1))
        runner.run()
        stats = runner._dispatcher.stats
        # The bench reads these three keys off every dispatcher.
        assert {"tasks", "cohort_members", "flushes"} <= set(stats)
        assert stats["tasks"] == stats["pool_groups"] == 6
        assert stats["flushes"] == 0
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
        assert not multiprocessing.active_children()

    def test_a_dead_worker_surfaces_as_a_broken_pool(self, monkeypatch):
        run_group = _StepContext.run_group

        def dying(self, *args):
            if _in_worker():
                os._exit(3)
            return run_group(self, *args)

        monkeypatch.setattr(_StepContext, "run_group", dying)
        runner = DistributedRunner(tiny_config(step_jobs=2, max_epochs=1))
        with pytest.raises(BrokenProcessPool):
            runner.run()
        assert not multiprocessing.active_children()


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
        runner = DistributedRunner(tiny_config())
        assert runner.step_jobs == 1 and runner._dispatcher is None

    def test_codec_runs_resolve_to_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        runner = DistributedRunner(tiny_config(codec="int8"))
        assert runner.step_jobs == 1 and runner._dispatcher is None

    def test_an_explicit_codec_pool_is_still_rejected(self):
        with pytest.raises(ConfigurationError, match="deferred execution"):
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
