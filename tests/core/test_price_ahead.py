"""Pricing an upload one compute end ahead, and resolves that help.

Inside ``DistributedRunner.run()``, while an upload deflates and the
next finisher's step trains ahead, that step's upload is encoded too and
its deflate queued on the pricing thread
(``ParamCodecPlane.encode_upload(..., ahead=True)``).  The attempt's own
compute end commits it if its client's residual has not been written
since, and encodes the upload again otherwise; a cancelled attempt drops
it.  A resolve whose deflate is still queued deflates on the simulation
thread instead of waiting.  None of it may move a bit: every comparison
here is against the inline path or a golden captured before either
change.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import repro.core.codec_plane as codec_plane
from repro.core import DistributedRunner, FaultConfig, make_rule
from repro.core.codec_plane import ParamCodecPlane
from repro.core.runner import PARAM_FILE
from repro.obs import OBSERVABILITY_OFF
from repro.simulation.adversary import AdversaryBehavior, AdversaryPlan

from ..goldens import digest_of, family, ordered_records
from .test_runner import tiny_config

UPLOAD = family("upload")
TRACE_ORDER = family("trace_order")


def pricing_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("repro-pricing")]


def trace_hex(runner) -> str:
    return hashlib.sha256(ordered_records(runner.trace)).hexdigest()


class Attempts:
    """Attempts started and ended by hand on one runner, as the client
    daemons would; ``priced`` runs the pricing thread in between, so
    compute ends train and price ahead."""

    def __init__(self, priced: bool) -> None:
        self.runner = DistributedRunner(tiny_config(codec="int8"))
        self.plane = self.runner._codec_plane
        self.units = self.runner.work_generator.make_epoch(0, PARAM_FILE)
        self.tasks = {}
        self.payloads = {}
        if priced:
            self.plane.start_pricing()

    def start(self, index: int, client_id: str, work: float) -> None:
        runner, wu = self.runner, self.units[index]
        wu.mark_sent(client_id, runner.sim.now)
        client = runner.server.clients[client_id]
        self.tasks[index] = client.resource.submit(work, lambda: None, label=wu.wu_id)
        shard_file = runner.work_generator.shard_file_name(wu.shard_index)
        self.payloads[index] = {
            PARAM_FILE: runner.server.catalog.get(PARAM_FILE).payload,
            shard_file: runner.server.catalog.get(shard_file).payload,
        }
        client.on_train_start(wu, self.payloads[index], self.tasks[index])

    def time_out(self, index: int) -> None:
        wu = self.units[index]
        client_id = wu.current_attempt.client_id
        wu.mark_timeout(self.runner.sim.now)
        self.runner.server.clients[client_id].resource.cancel(self.tasks[index])

    def end(self, index: int) -> tuple[bytes, int]:
        update, wire = self.runner._execute_subtask(
            self.units[index], self.payloads[index]
        )
        return update.params.tobytes(), wire

    def outcome(self) -> tuple:
        """Residuals, counters and every ``net.encode`` record, in order."""
        self.plane.stop_pricing()
        residuals = {c: r.tobytes() for c, r in self.plane._residuals.items()}
        encodes = [
            sorted(rec.fields.items())
            for rec in self.runner.trace
            if rec.kind == "net.encode"
        ]
        return residuals, self.plane.counters(), encodes


# In both scenarios unit 4 computes longest: the last attempt still
# computing is never priced ahead, so it keeps unit 2's upload eligible.


def residual_moves_first(attempts: Attempts) -> list:
    attempts.start(0, "client-000", 1.0)
    attempts.start(1, "client-000", 2.0)
    attempts.start(2, "client-001", 3.0)
    attempts.start(4, "client-001", 9.0)
    ends = [attempts.end(0)]  # trains unit 1 ahead and prepares its upload
    attempts.start(3, "client-000", 0.5)
    ends.append(attempts.end(3))  # client-000's residual moves first
    ends.append(attempts.end(1))  # stale: encoded again; prepares unit 2
    ends.append(attempts.end(2))  # commits unit 2's
    ends.append(attempts.end(4))
    return ends


def cancelled(attempts: Attempts) -> list:
    attempts.start(0, "client-000", 1.0)
    attempts.start(1, "client-001", 2.0)
    attempts.start(2, "client-000", 3.0)
    attempts.start(4, "client-001", 9.0)
    ends = [attempts.end(0)]  # trains unit 1 ahead and prepares its upload
    attempts.time_out(1)
    attempts.start(1, "client-001", 1.0)  # its second attempt
    ends.append(attempts.end(1))  # prepares unit 2
    ends.append(attempts.end(2))  # commits it
    ends.append(attempts.end(4))
    return ends


class TestStalePreparedUploads:
    @pytest.mark.parametrize("scenario", [residual_moves_first, cancelled])
    def test_a_stale_prepared_upload_leaves_the_inline_path_unmoved(self, scenario):
        inline = Attempts(priced=False)
        expected = scenario(inline), inline.outcome()
        priced = Attempts(priced=True)
        try:
            ends = scenario(priced)
        finally:
            outcome = priced.outcome()
        assert (ends, outcome) == expected
        # The stale case happened: one prepared upload was dropped, and
        # another was committed.
        stats = priced.plane.stats
        assert stats["prepared_stale"] == 1
        assert stats["prepared_uploads"] == 2
        assert inline.plane.stats["prepared_uploads"] == 0

    def test_a_cancelled_attempt_drops_its_prepared_upload_at_once(self):
        attempts = Attempts(priced=True)
        try:
            attempts.start(0, "client-000", 1.0)
            attempts.start(1, "client-001", 2.0)
            attempts.start(2, "client-000", 3.0)
            attempts.end(0)
            prepared = attempts.plane._prepared_upload
            assert prepared.attempt == (attempts.units[1].wu_id, 1)
            attempts.time_out(1)
            assert attempts.plane._prepared_upload is None
            assert attempts.plane.stats["prepared_stale"] == 1
        finally:
            attempts.plane.stop_pricing()

    def test_the_last_attempt_computing_is_priced_by_the_codec_at_its_end(
        self, monkeypatch
    ):
        # It trains ahead but is not prepared; with nothing left to train
        # at its compute end, its upload goes through ``Codec.encode``.
        attempts = Attempts(priced=True)
        try:
            attempts.start(0, "client-000", 1.0)
            attempts.start(1, "client-001", 2.0)
            attempts.end(0)
            assert attempts.plane._prepared_upload is None
            step = attempts.runner._prepared[(attempts.units[1].wu_id, 1)][0]
            assert step.result is not None
            priced = []
            encode = type(attempts.plane.up_codec).encode
            monkeypatch.setattr(
                type(attempts.plane.up_codec),
                "encode",
                lambda *args, **kwargs: priced.append(1) or encode(*args, **kwargs),
            )
            _, wire = attempts.end(1)
            assert priced == [1] and type(wire) is int
            assert attempts.plane.stats["prepared_uploads"] == 0
        finally:
            attempts.plane.stop_pricing()

    def test_timed_out_prepared_uploads_leave_the_golden_unmoved(self):
        # Timeouts cancel computes whose uploads were prepared: the run
        # drops them and hashes to the digest captured on the tree that
        # priced every upload inline.
        golden = UPLOAD["int8_timeouts"]
        runner = DistributedRunner(golden.config())
        assert digest_of(runner, runner.run(), "ordered") == golden.hex
        stats = runner._codec_plane.stats
        assert stats["prepared_stale"] > 0
        assert stats["prepared_uploads"] > stats["prepared_stale"]

    def test_prepared_uploads_that_all_go_stale_move_nothing(self):
        runner = DistributedRunner(tiny_config(codec="int8"))
        plane = runner._codec_plane
        prepare = plane._prepare_upload

        def staling(update, base_vec, attempt):
            # As if the client's residual were written right after.
            prepare(update, base_vec, attempt)
            generations = plane._generations
            generations[update.client_id] = generations.get(update.client_id, 0) + 1

        plane._prepare_upload = staling
        encodes = []
        encode_unpriced = plane.up_codec.encode_unpriced
        plane.up_codec.encode_unpriced = (
            lambda *args, **kwargs: encodes.append(1) or encode_unpriced(*args, **kwargs)
        )
        counters = runner.run().counters
        assert trace_hex(runner) == TRACE_ORDER["int8"].hex
        prepared = plane.stats["prepared_uploads"]
        assert prepared > 0 and plane.stats["prepared_stale"] == prepared
        # Every stale upload was encoded again at its compute end.
        assert len(encodes) == counters["codec_uploads"] + prepared


ENCODED_AT_COMPUTE_END = {
    "corrupt": dict(faults=FaultConfig(corrupt_clients=2)),
    "adversary": dict(
        faults=FaultConfig(
            adversary=AdversaryPlan(
                behaviors=(
                    AdversaryBehavior(
                        clients=("client-001",), attack="falsify_scale", magnitude=3.0
                    ),
                )
            )
        )
    ),
    "replicated": dict(num_clients=4, replicas=2, quorum=2),
    "gradient_stream": dict(
        num_clients=3, update_rule=make_rule("downpour", server_lr=0.05)
    ),
}


class TestScope:
    @pytest.mark.parametrize("name", sorted(ENCODED_AT_COMPUTE_END))
    def test_uploads_that_draw_or_reach_a_quorum_encode_at_compute_end(self, name):
        runner = DistributedRunner(
            tiny_config(codec="int8", **ENCODED_AT_COMPUTE_END[name])
        )
        runner.run()
        assert runner._codec_plane.stats["prepared_uploads"] == 0

    @pytest.mark.parametrize("codec", ["topk", "zlib", "delta"])
    def test_codecs_without_a_residual_or_body_prepare_nothing(self, codec):
        runner = DistributedRunner(tiny_config(codec=codec))
        runner.run()
        assert runner._codec_plane.stats["prepared_uploads"] == 0

    def test_no_prepared_upload_crosses_an_epoch_boundary(self):
        # The first epoch is cut short while an in-flight attempt holds
        # a prepared upload; the boundary drops it.  Units are left
        # unfinished on purpose, so the auditor stays off.
        runner = DistributedRunner(
            tiny_config(codec="int8", max_epochs=3), observability=OBSERVABILITY_OFF
        )
        plane = runner._codec_plane
        epoch_complete = runner._epoch_complete
        record_epoch = runner._record_epoch
        cut, left = [], []

        def cutting() -> bool:
            merged = runner._epoch_assimilated > 0
            if not cut and merged and plane._prepared_upload is not None:
                cut.append(plane._prepared_upload)
                return True
            return epoch_complete()

        def recording():
            left.append(plane._prepared_upload)
            return record_epoch()

        runner._epoch_complete = cutting
        runner._record_epoch = recording
        runner.run()
        assert cut and left == [None, None, None]
        assert plane.stats["prepared_stale"] >= 1

    def test_loading_residuals_drops_the_prepared_upload(self):
        attempts = Attempts(priced=True)
        try:
            attempts.start(0, "client-000", 1.0)
            attempts.start(1, "client-001", 2.0)
            attempts.start(2, "client-000", 3.0)
            attempts.end(0)
            assert attempts.plane._prepared_upload is not None
            attempts.plane.load_state_dict(attempts.plane.state_dict())
            assert attempts.plane._prepared_upload is None
        finally:
            attempts.plane.stop_pricing()


class TestHelpingResolves:
    def test_a_held_pricing_thread_never_stalls_the_simulation(self, monkeypatch):
        # The pricing thread's first job holds it until the run stops
        # it; every price the simulation reads is deflated on its own
        # thread, and the run still hashes to its golden.
        hold = threading.Event()
        start, stop = ParamCodecPlane.start_pricing, ParamCodecPlane.stop_pricing

        def held_start(self):
            start(self)
            self._pricing.submit(hold.wait)

        def releasing_stop(self):
            hold.set()
            stop(self)

        monkeypatch.setattr(ParamCodecPlane, "start_pricing", held_start)
        monkeypatch.setattr(ParamCodecPlane, "stop_pricing", releasing_stop)
        where = []
        deflate = codec_plane._deflate
        monkeypatch.setattr(
            codec_plane,
            "_deflate",
            lambda body: where.append(threading.current_thread().name)
            or deflate(body),
        )
        runner = DistributedRunner(tiny_config(codec="int8"))
        failures = []

        def simulate():
            try:
                runner.run()
            except BaseException as exc:  # surfaced below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            sim = threading.Thread(target=simulate, name="simulation")
            sim.start()
            sim.join(timeout=60)
            finished = not sim.is_alive()
        finally:
            hold.set()
            sys.setswitchinterval(interval)
        assert finished, "the simulation blocked on a queued deflate"
        assert not failures
        for thread in pricing_threads():
            thread.join(timeout=10)
        assert not pricing_threads()
        stats = runner._codec_plane.stats
        assert where and set(where) == {"simulation"}
        assert stats["helped_deflates"] == len(where)
        assert stats["pricing_wait_s"] == 0.0
        assert trace_hex(runner) == TRACE_ORDER["int8"].hex

    def test_a_deflated_body_dies_before_its_price_is_read(self, monkeypatch):
        # Delta's XOR steps are held by nothing but their deflate job
        # (the window keeps only the pending price), and a publish's
        # vector here by nothing once its payload is dropped.
        bodies = []
        init = codec_plane._Deflate.__init__

        def recording(job, body, *args):
            bodies.append(weakref.ref(body))
            init(job, body, *args)

        monkeypatch.setattr(codec_plane._Deflate, "__init__", recording)
        plane = ParamCodecPlane("delta", layout=None)
        plane.start_pricing()
        try:
            rng = np.random.default_rng(3)
            for version in range(4):
                plane.encode_publish(rng.normal(size=20_000), version)
            deadline = time.monotonic() + 30
            while not all(p._job.future.done() for p in plane._pending):
                assert time.monotonic() < deadline, "the pricing thread stalled"
                time.sleep(0.001)
            assert len(bodies) == 7
            assert all(price.value is None for price in plane._pending)
            assert [ref() for ref in bodies] == [None] * 7
        finally:
            plane.stop_pricing()


def test_pricing_stats_are_host_gauges_and_out_of_the_counters():
    runner = DistributedRunner(tiny_config(codec="int8"))
    counters = runner.run().counters
    stats = runner._codec_plane.stats
    assert stats["prepared_uploads"] > 0
    registry = runner.obs.registry
    for name, value in stats.items():
        assert registry.gauge(f"codec.{name}").value == float(value)
        assert not any(name in key for key in counters)
