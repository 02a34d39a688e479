"""Upload pricing on the pricing thread, and training ahead while it runs.

Inside ``DistributedRunner.run()``, when a noted attempt is free to train
ahead, a result upload's zlib pass runs on the codec plane's pricing
thread while the runner trains the in-flight attempt whose compute ends
next; the size resolves before the executor returns, inside the same
compute-end event, and that attempt's compute end takes a finished
result.  Otherwise the upload is priced inline, as outside ``run()``.
Neither may show in the bits: the pins below
were captured on the tree that priced every upload inline and trained
every subtask at its compute end.  If one moves, find the leak — do not
re-pin.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import weakref

import numpy as np
import pytest

import repro.core.codec_plane as codec_plane
import repro.nn.serialization as serialization
from repro.core import DistributedRunner, FaultConfig, make_rule
from repro.core.rules import ClientUpdate
from repro.core.runner import PARAM_FILE
from repro.simulation.chaos import ChaosPlan, ServerCrash, TransferFaultPlan

from .test_runner import tiny_config

# Compositions the benchmark does not cover.  Each digest hashes the final
# parameters, the counters, the epoch records and every trace record in
# order, with its time and fields.
GOLDEN = {
    # 13 timeouts, 3 of them reissued to the client that timed out.
    "int8_timeouts": (
        dict(codec="int8", subtask_timeout_s=150),
        "036300099700196682e11b8f8d9b129c57aee5f745f921bcdd2591729bbbdb80",
    ),
    # One preemption mid-compute; its two attempts are reissued.
    "int8_preemption": (
        dict(
            codec="int8",
            num_clients=3,
            max_epochs=3,
            faults=FaultConfig(preemption_hourly_p=0.9, relaunch_delay_s=30),
        ),
        "8e2e43e93f7a56ddf44311f233d98ab22b364d22bdd845216ddedcf89df1cbfc",
    ),
    # A sole parameter server crashes and restores from its checkpoint,
    # and failed uploads retry with the size resolved the first time.
    "int8_chaos": (
        dict(
            codec="int8",
            max_epochs=3,
            faults=FaultConfig(
                chaos=ChaosPlan(
                    transfer=TransferFaultPlan(failure_p=0.2),
                    ps_crashes=(ServerCrash(at_s=300.0, restart_delay_s=60.0),),
                )
            ),
        ),
        "8b081088bf4657168f7eb77af4e2342571fa0b257f29584cc6eb1087ea0a9c74",
    ),
    # The gradient stream.
    "fp16_downpour": (
        dict(
            codec="fp16",
            num_clients=3,
            update_rule=make_rule("downpour", server_lr=0.05),
        ),
        "c60b553491cefa81828ec6994e5957b357114cac6bf3e2e31289417eab0cee01",
    ),
    "zlib": (
        dict(codec="zlib"),
        "30de0f46ff39c6089fbe6f42a477283116ab31a47e39b2650ead41b17e38d3a9",
    ),
    "delta": (
        dict(codec="delta"),
        "ae61dbf891974c6ac66923d130e8680ff03c2271fe57314fc9d81049699ea2cb",
    ),
    "topk": (
        dict(codec="topk"),
        "4b57f2cda9af4b2ecf77d7fd241d08dda5c5d053996b5a5b22cb302d3bc6a264",
    ),
}

# sha256 of the ordered ``[time, kind, sorted fields]`` records of a tiny
# run, captured on the same tree as the goldens.
TRACE_ORDER = {
    "int8": (
        dict(codec="int8"),
        "3a0fcc1b0c530b5530416ea09290f95e528e15701642611215226aa61dc2a3a7",
    ),
    "zlib": (
        dict(codec="zlib"),
        "638284997393838af13da99b5d912a451d65e34cecd340ad5fbce8903f5ddc1d",
    ),
}


def ordered_records(trace) -> bytes:
    return json.dumps(
        [[rec.time, rec.kind, sorted(rec.fields.items())] for rec in trace],
        default=repr,
    ).encode()


def run_digest(config) -> str:
    runner = DistributedRunner(config)
    result = runner.run()
    h = hashlib.sha256()
    h.update(runner.pool.current_params().tobytes())
    h.update(json.dumps(result.counters, sort_keys=True).encode())
    h.update(
        json.dumps(
            [
                [e.end_time_s, e.val_accuracy_mean, e.test_accuracy]
                for e in result.epochs
            ]
        ).encode()
    )
    h.update(ordered_records(runner.trace))
    return h.hexdigest()


def trace_digest(config) -> str:
    runner = DistributedRunner(config)
    runner.run()
    return hashlib.sha256(ordered_records(runner.trace)).hexdigest()


def pricing_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("repro-pricing")]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_composition_matches_its_golden(name):
    overrides, golden = GOLDEN[name]
    assert run_digest(tiny_config(**overrides)) == golden


@pytest.mark.parametrize("name", sorted(TRACE_ORDER))
class TestTraceOrder:
    def test_records_keep_their_order(self, name):
        overrides, golden = TRACE_ORDER[name]
        assert trace_digest(tiny_config(**overrides)) == golden

    def test_a_slow_pricing_thread_moves_nothing(self, name, monkeypatch):
        deflate = codec_plane._deflated_size

        def slow(body):
            time.sleep(0.002)
            return deflate(body)

        monkeypatch.setattr(codec_plane, "_deflated_size", slow)
        overrides, golden = TRACE_ORDER[name]
        assert trace_digest(tiny_config(**overrides)) == golden


def held(runner) -> list:
    return [key for key, a in runner._prepared.items() if a.result is not None]


class TestThreads:
    def test_an_upload_deflates_off_thread_only_while_one_trains_ahead(
        self, monkeypatch
    ):
        runner = DistributedRunner(tiny_config(codec="int8"))
        # Inside run() the simulation thread deflates an upload only
        # through the codec's own encode, and only when no attempt can
        # train meanwhile.
        inline = []
        compressed_size = serialization.compressed_size
        monkeypatch.setattr(
            serialization,
            "compressed_size",
            lambda body: inline.append(1) or compressed_size(body),
        )
        deferred = []
        encode_upload = runner._codec_plane.encode_upload

        def spying(*args):
            payload, wire = encode_upload(*args)
            deferred.append(isinstance(wire, codec_plane.PendingPrice))
            return payload, wire

        runner._codec_plane.encode_upload = spying
        execute = runner._execute_subtask

        def executing(wu, payloads):
            payload, wire = execute(wu, payloads)
            # A deferred deflate trained one attempt ahead, and its size
            # left the executor resolved.
            assert type(wire) is int
            assert len(held(runner)) == (1 if deferred[-1] else 0)
            return payload, wire

        for client in runner.server.clients.values():
            client.executor = executing
        counters = runner.run().counters
        assert len(deferred) == counters["codec_uploads"]
        assert len(inline) == deferred.count(False)
        assert 0 < deferred.count(True) < len(deferred)

    def test_a_failed_upload_deflate_surfaces_from_run(self, monkeypatch):
        def broken(body):
            raise RuntimeError("deflate failed")

        # The first deflate inside run() is the first upload's: the
        # constructor's publish was priced inline.
        monkeypatch.setattr(codec_plane, "_deflated_size", broken)
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


class TestTrainingAhead:
    """The compute-start hook notes each deferrable attempt under its
    attempt key; an upload deflate trains the next finisher ahead."""

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
            ahead.result = runner._train(
                ahead.wu, ahead.published.decode_params(), ahead.shard
            )

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
        wu.mark_sent(client.client_id, runner.sim.now)
        payloads = {**payloads, PARAM_FILE: second}
        uploaded = []
        encode_upload = runner._codec_plane.encode_upload

        def spying(update, *args):
            uploaded.append(update.params)
            return encode_upload(update, *args)

        runner._codec_plane.encode_upload = spying
        runner._execute_subtask(wu, payloads)

        def trained(published):
            return runner._train(wu, published.decode_params(), payloads[shard_file])[0]

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
        taken = weakref.ref(runner._prepared[(units[0].wu_id, 1)].result[0])
        train = runner._train
        alive = []

        def training(wu, base, shard):
            alive.append(taken() is not None)
            return train(wu, base, shard)

        runner._train = training
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
        expected = runner._train(
            wu, published.decode_params(), payloads[shard_files[wu.wu_id]]
        )[0]
        self.train_ahead(runner)
        (noted,) = runner._prepared.values()
        np.testing.assert_array_equal(noted.result[0], expected)

    def test_runs_without_a_codec_install_no_hook(self):
        runner = DistributedRunner(tiny_config(step_jobs=1))
        assert all(c.on_train_start is None for c in runner.server.clients.values())

    def test_corrupt_clients_are_never_noted(self):
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
        assert noted and "client-000" not in clients
