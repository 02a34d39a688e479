"""Upload pricing on the pricing thread, and training ahead while it runs.

Inside ``DistributedRunner.run()``, when a noted attempt is free to train
ahead, a result upload's zlib pass runs on the codec plane's pricing
thread while the dispatcher trains the step of the in-flight attempt
whose compute ends next; the size resolves before the executor returns,
inside the same compute-end event, and that attempt's compute end takes
a finished result and, for a lossy upload, the upload prepared from it
(``tests/core/test_price_ahead.py``).  Otherwise the upload is priced
inline, as outside ``run()``.  None of it may show in the bits: the pins
(``tests/goldens.py``) were captured on the tree that priced every upload
inline and trained every subtask at its compute end.  If one moves, find
the leak — do not re-pin.
"""

from __future__ import annotations

import threading
import time
import weakref

import numpy as np
import pytest

import repro.core.codec_plane as codec_plane
import repro.nn.serialization as serialization
from repro.core import DistributedRunner, FaultConfig
from repro.core.rules import ClientUpdate
from repro.core.runner import PARAM_FILE

from ..goldens import family
from .test_runner import tiny_config

# Compositions the benchmark does not cover; each digest hashes the final
# parameters, the counters, the epoch records and every trace record in
# order, with its time and fields.  TRACE_ORDER hashes the ordered records
# alone.
GOLDEN = family("upload")
TRACE_ORDER = family("trace_order")


def pricing_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("repro-pricing")]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_composition_matches_its_golden(name):
    golden = GOLDEN[name]
    assert golden.recompute() == golden.hex


@pytest.mark.parametrize("name", sorted(TRACE_ORDER))
class TestTraceOrder:
    def test_records_keep_their_order(self, name):
        golden = TRACE_ORDER[name]
        assert golden.recompute() == golden.hex

    def test_a_slow_pricing_thread_moves_nothing(self, name, monkeypatch):
        deflate = codec_plane._deflate

        def slow(body):
            time.sleep(0.002)
            return deflate(body)

        monkeypatch.setattr(codec_plane, "_deflate", slow)
        golden = TRACE_ORDER[name]
        assert golden.recompute() == golden.hex


def held(runner) -> list:
    notes = runner._prepared.items()
    return [key for key, (step, _, _) in notes if step.result is not None]


def spy_on_uploads(plane) -> list[str]:
    """Classify every ``encode_upload`` call on ``plane`` as it returns,
    asserting the prepared-upload invariants on the way: a call ahead
    prepares only while no upload is prepared, and only the compute end
    of the prepared attempt takes it, committing it or, stale, encoding
    the upload again."""
    kinds: list[str] = []
    encode_upload = plane.encode_upload

    def spying(update, base_vec, wu_id, defer_price=False, attempt=None, ahead=False):
        before = plane._prepared_upload
        stale = plane.stats["prepared_stale"]
        out = encode_upload(update, base_vec, wu_id, defer_price, attempt, ahead)
        after = plane._prepared_upload
        if ahead:
            assert out is None
            if after is not before:
                assert before is None and after.attempt == attempt
                kinds.append("prepare")
            return out
        if before is not None and before.attempt == attempt:
            assert after is None
            if plane.stats["prepared_stale"] > stale:
                kinds.append("stale")
            else:
                assert out[1]._job is before.job
                kinds.append("commit")
        else:
            assert after is before
            pending = isinstance(out[1], codec_plane.PendingPrice)
            kinds.append("deferred" if pending else "inline")
        return out

    plane.encode_upload = spying
    return kinds


class TestThreads:
    def test_an_upload_deflates_off_thread_only_while_one_trains_ahead(
        self, monkeypatch
    ):
        runner = DistributedRunner(tiny_config(codec="int8"))
        plane = runner._codec_plane
        # Inside run() the simulation thread deflates an upload through
        # the codec's own encode only when no attempt can train meanwhile.
        # Otherwise the next finisher trains ahead and, unless it is the
        # last attempt still computing, its upload is prepared: encoded
        # once, its deflate queued, and committed by its own compute end
        # without encoding again.
        inline = []
        compressed_size = serialization.compressed_size
        monkeypatch.setattr(
            serialization,
            "compressed_size",
            lambda body: inline.append(1) or compressed_size(body),
        )
        encodes = []
        encode_unpriced = plane.up_codec.encode_unpriced
        plane.up_codec.encode_unpriced = (
            lambda *args, **kwargs: encodes.append(1) or encode_unpriced(*args, **kwargs)
        )
        kinds = spy_on_uploads(plane)
        execute = runner._execute_subtask

        def executing(wu, payloads):
            payload, wire = execute(wu, payloads)
            # The size left the executor resolved, and the one prepared
            # upload is the one held result's (the last attempt still
            # computing holds a result unprepared).
            assert type(wire) is int
            prepared = plane._prepared_upload
            if prepared is None:
                assert held(runner) in ([], list(runner._prepared))
            else:
                assert held(runner) == [prepared.attempt]
            return payload, wire

        for client in runner.server.clients.values():
            client.executor = executing
        counters = runner.run().counters
        uploads = [kind for kind in kinds if kind != "prepare"]
        assert len(uploads) == counters["codec_uploads"]
        assert len(inline) == uploads.count("inline") > 0
        assert uploads.count("commit") > 0 and uploads.count("deferred") > 0
        # A prepared upload commits or goes stale, or the epoch or the
        # run ends first; this run has no timeout or preemption.
        assert plane.stats["prepared_uploads"] == kinds.count("prepare")
        assert kinds.count("prepare") == (
            uploads.count("commit") + plane.stats["prepared_stale"]
        )
        assert "stale" not in uploads
        # Every upload is encoded once, a committed one where it was
        # prepared.
        assert len(encodes) == len(kinds) - uploads.count("commit")

    def test_a_failed_upload_deflate_surfaces_from_run(self, monkeypatch):
        def broken(body):
            raise RuntimeError("deflate failed")

        # The first deflate inside run() is the first upload's: the
        # constructor's publish was priced inline.
        monkeypatch.setattr(codec_plane, "_deflate", broken)
        runner = DistributedRunner(tiny_config(codec="zlib"))
        with pytest.raises(RuntimeError, match="deflate failed") as failure:
            runner.run()
        assert "_execute_subtask" in {entry.name for entry in failure.traceback}
        assert not pricing_threads()

    def test_uploads_outside_run_are_priced_inline(self):
        runner = DistributedRunner(tiny_config(codec="int8"))
        plane = runner._codec_plane
        base = runner.pool.current_params()
        update = ClientUpdate(client_id="client-000", params=base * 0.5)
        _, wire = plane.encode_upload(update, base, "wu")
        assert type(wire) is int and not plane._pending
        assert plane.upload_wire_bytes == wire
        last = list(runner.trace)[-1]
        assert (last.kind, last["direction"], last["wire"]) == ("net.encode", "up", wire)


def train(runner, wu, published, shard):
    """The attempt's step trained from ``published`` outside the dispatcher."""
    orders = runner._draw_orders(wu, wu.current_attempt.client_id, len(shard))
    return runner._steps.run_group(published.decode_params(), [shard], [orders])[0]


class TestTrainingAhead:
    """The compute-start hook submits every attempt's step and notes it
    under the attempt key; an upload deflate trains the next finisher's
    step ahead."""

    def setup_runner(self):
        runner = DistributedRunner(tiny_config(codec="int8"))
        units = runner.work_generator.make_epoch(0, PARAM_FILE)
        shard_files = {
            wu.wu_id: runner.work_generator.shard_file_name(wu.shard_index)
            for wu in units
        }
        return runner, units, shard_files

    def start(self, runner, wu, client_id, published, shard_file, work=None):
        """Attempt compute start, as the client daemon makes it."""
        wu.mark_sent(client_id, runner.sim.now)
        client = runner.server.clients[client_id]
        task = client.resource.submit(
            work or wu.work_units, lambda: None, label=wu.wu_id
        )
        payloads = {
            PARAM_FILE: published,
            shard_file: runner.server.catalog.get(shard_file).payload,
        }
        client.on_train_start(wu, payloads, task)
        return task, payloads

    def train_ahead(self, runner) -> None:
        """What an upload's deferred deflate does in the executor."""
        ahead = runner._next_finisher()
        if ahead is not None:
            runner._price_ahead(ahead)

    def test_a_reissued_attempt_never_takes_its_predecessors_result(self):
        runner, units, shard_files = self.setup_runner()
        wu, shard_file = units[0], shard_files[units[0].wu_id]
        first = runner.server.catalog.get(PARAM_FILE).payload
        runner._republish_params(first.decode_params() * 0.5)
        second = runner.server.catalog.get(PARAM_FILE).payload
        client = runner.server.clients["client-000"]
        task, payloads = self.start(runner, wu, client.client_id, first, shard_file)
        self.train_ahead(runner)
        assert held(runner) == [(wu.wu_id, 1)]
        # Attempt 1 times out and the unit goes back to the same client,
        # which downloaded the second copy.  Its compute end finds no
        # result under its own key, so it trains from its own base.
        wu.mark_timeout(runner.sim.now)
        client.resource.cancel(task)
        _, payloads = self.start(runner, wu, client.client_id, second, shard_file)
        uploaded = []
        encode_upload = runner._codec_plane.encode_upload

        def spying(update, *args):
            uploaded.append(update.params)
            return encode_upload(update, *args)

        runner._codec_plane.encode_upload = spying
        runner._execute_subtask(wu, payloads)

        def trained(published):
            return train(runner, wu, published, payloads[shard_file])[0]

        assert not np.array_equal(trained(first), trained(second))
        np.testing.assert_array_equal(uploaded[0], trained(second))

    def test_the_next_finisher_trains_and_one_result_is_held(self):
        runner, units, shard_files = self.setup_runner()
        published = runner.server.catalog.get(PARAM_FILE).payload
        started = [
            self.start(
                runner, wu, "client-000", published, shard_files[wu.wu_id], work
            )[0]
            for wu, work in zip(units, (3.0, 1.0))
        ]
        self.train_ahead(runner)
        assert held(runner) == [(units[1].wu_id, 1)]
        self.train_ahead(runner)
        assert held(runner) == [(units[1].wu_id, 1)]
        # The held attempt is cancelled: its entry and result are dropped,
        # and the freed slot trains the other attempt.
        runner.server.clients["client-000"].resource.cancel(started[1])
        self.train_ahead(runner)
        assert held(runner) == [(units[0].wu_id, 1)]
        assert set(runner._prepared) == {(units[0].wu_id, 1)}

    def test_the_taken_result_is_dead_before_the_next_trains(self):
        # Training ahead adds one model-sized step to the peak; the
        # finished attempt's own vectors must not ride along.
        runner, units, shard_files = self.setup_runner()
        published = runner.server.catalog.get(PARAM_FILE).payload
        payloads = [
            self.start(runner, wu, client, published, shard_files[wu.wu_id], work)[1]
            for wu, client, work in zip(
                units, ("client-000", "client-001"), (1.0, 3.0)
            )
        ]
        self.train_ahead(runner)
        taken = weakref.ref(runner._prepared[(units[0].wu_id, 1)][0].result[0])
        train_here = runner._dispatcher._train_here
        alive = []

        def training(chunk):
            alive.append(taken() is not None)
            return train_here(chunk)

        runner._dispatcher._train_here = training
        runner._codec_plane.start_pricing()
        try:
            runner._execute_subtask(units[0], payloads[0])
        finally:
            runner._codec_plane.stop_pricing()
        assert alive == [False]
        assert held(runner) == [(units[1].wu_id, 1)]

    def test_a_taken_result_equals_training_at_compute_end(self):
        runner, units, shard_files = self.setup_runner()
        wu = units[0]
        published = runner.server.catalog.get(PARAM_FILE).payload
        _, payloads = self.start(
            runner, wu, "client-000", published, shard_files[wu.wu_id]
        )
        expected = train(runner, wu, published, payloads[shard_files[wu.wu_id]])[0]
        self.train_ahead(runner)
        ((step, _, _),) = runner._prepared.values()
        np.testing.assert_array_equal(step.result[0], expected)

    def test_codec_free_runs_submit_every_attempt(self):
        runner = DistributedRunner(tiny_config(step_jobs=1, max_epochs=1))
        runner.run()
        started = sum(1 for r in runner.trace if r.kind == "client.train_start")
        assert runner._dispatcher.stats["tasks"] == started > 0
        assert not runner._prepared

    def test_corrupt_clients_draw_noise_at_compute_end(self):
        runner = DistributedRunner(
            tiny_config(codec="int8", faults=FaultConfig(corrupt_clients=1))
        )
        noted = []
        prepare = runner._prepare_subtask

        def spying(wu, payloads, task):
            prepare(wu, payloads, task)
            noted.extend(key for key in runner._prepared if key not in noted)

        for client in runner.server.clients.values():
            client.on_train_start = spying
        runner.run()
        clients = {
            runner.server.scheduler.get_workunit(wu_id).attempts[n - 1].client_id
            for wu_id, n in noted
        }
        assert "client-000" in clients
        noise = [r.time for r in runner.trace if r.kind == "fault.corrupt_upload"]
        done = {
            r.time
            for r in runner.trace
            if r.kind == "client.train_done" and r["client"] == "client-000"
        }
        assert noise and set(noise) <= done
