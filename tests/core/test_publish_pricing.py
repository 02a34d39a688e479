"""Publish pricing on the codec plane's pricing thread.

Inside ``DistributedRunner.run()`` the zlib pass that prices a published
parameter file runs on one worker thread, and the size stays pending until
the simulation first reads it.  These tests hold that to its contract:
resolution points are fixed by the simulation, not by when the thread
finishes; the thread never outlives ``run()``; it never calls a public
codec or serialization callable; and every ``Encoded.nbytes`` is an int.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

import repro.core.codec_plane as codec_plane
import repro.nn.serialization as serialization
from repro.core import DistributedRunner, make_rule, run_configs
from repro.core.codec_plane import ParamCodecPlane, PendingPrice
from repro.nn.codecs import CODEC_NAMES, Codec, Encoded, make_codec
from repro.nn.models import ModelSpec
from repro.obs import OBSERVABILITY_OFF

from .test_runner import tiny_config

# 74 k scalars: wide enough that a publish's deflate takes real time.
WIDE_MLP = ModelSpec("mlp", {"in_features": 48, "hidden": [1400], "num_classes": 4})
TINY_CODECS = {"int8": dict(codec="int8", model=WIDE_MLP), "fp16": dict(codec="fp16")}


def pricing_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("repro-pricing")]


def observe(config, observability=None):
    """Counters, epochs, final parameters and the ``net.encode`` records
    of one run, each with its place in the trace."""
    runner = DistributedRunner(config, observability=observability)
    result = runner.run()
    encodes = [
        (index, rec.time, sorted(rec.fields.items()))
        for index, rec in enumerate(runner.trace)
        if rec.kind == "net.encode"
    ]
    epochs = [(e.end_time_s, e.val_accuracy_mean) for e in result.epochs]
    params = runner.pool.current_params().tobytes()
    return result.counters, epochs, encodes, params


@pytest.mark.parametrize("codec", sorted(TINY_CODECS))
class TestDeterminism:
    def test_repeat_runs_and_obs_off_agree(self, codec):
        config = tiny_config(**TINY_CODECS[codec])
        first = observe(config)
        assert first[2], "the run should trace its publishes"
        assert observe(config) == first
        assert observe(config, OBSERVABILITY_OFF) == first

    def test_a_slow_pricing_thread_moves_nothing(self, codec, monkeypatch):
        # Resolution is where the simulation reads a size, never when the
        # deflate happens to finish: delaying every deflate changes no
        # counter, epoch or record (time and place included).
        config = tiny_config(**TINY_CODECS[codec])
        expected = observe(config)
        deflate = codec_plane._deflate

        def slow(body):
            time.sleep(0.002)
            return deflate(body)

        monkeypatch.setattr(codec_plane, "_deflate", slow)
        assert observe(config) == expected

    def test_every_publish_is_priced_once(self, codec):
        runner = DistributedRunner(tiny_config(**TINY_CODECS[codec]))
        counters = runner.run().counters
        downs = [
            rec for rec in runner.trace
            if rec.kind == "net.encode" and rec["direction"] == "down"
        ]
        assert len(downs) == counters["codec_publishes"]
        assert sum(rec["wire"] for rec in downs) == counters["codec_publish_wire_bytes"]
        assert not runner._codec_plane._pending


class TestThreadLifetime:
    @pytest.mark.parametrize("codec", sorted(TINY_CODECS))
    def test_thread_lives_only_inside_run(self, codec):
        runner = DistributedRunner(tiny_config(**TINY_CODECS[codec]))
        assert not pricing_threads()
        seen = []
        encode_publish = runner._codec_plane.encode_publish

        def spying(*args, **kwargs):
            priced = encode_publish(*args, **kwargs)
            seen.append(len(pricing_threads()))
            return priced

        runner._codec_plane.encode_publish = spying
        runner.run()
        assert seen and set(seen) == {1}
        assert not pricing_threads()

    def test_failed_deflate_surfaces_from_run(self, monkeypatch):
        def broken(body):
            raise RuntimeError("deflate failed")

        monkeypatch.setattr(codec_plane, "_deflate", broken)
        runner = DistributedRunner(tiny_config(codec="int8"))
        with pytest.raises(RuntimeError, match="deflate failed"):
            runner.run()
        assert not pricing_threads()

    def test_prices_outside_run_are_inline(self):
        runner = DistributedRunner(tiny_config(codec="int8"))
        plane = runner._codec_plane
        vec = runner.pool.current_params()
        payload, wire = plane.encode_publish(vec, 99)
        assert type(wire) is int and not plane._pending
        expected = make_codec("int8").encode(vec, runner._layout)
        assert wire == expected.nbytes

    def test_parallel_sweep_after_an_in_process_codec_run(self):
        # Sweeps fork their workers: a pricing thread left behind by the
        # run before would be copied into every child.
        configs = [tiny_config(codec="int8"), tiny_config(codec="fp16")]
        serial = [DistributedRunner(config).run() for config in configs]
        assert not pricing_threads()
        forked = run_configs(configs, jobs=2)
        assert [r.counters for r, _ in forked] == [r.counters for r in serial]


class TestMainThreadOnly:
    def test_public_callables_stay_on_the_main_thread(self, monkeypatch):
        off_main: list[str] = []

        def guard(fn, name):
            def wrapper(*args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    off_main.append(name)
                return fn(*args, **kwargs)

            return wrapper

        original = serialization.compressed_size
        wrapped = guard(original, "compressed_size")
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, wrapped)
        pending = [Codec]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for attr in ("encode", "decode"):
                if attr in cls.__dict__:
                    monkeypatch.setattr(
                        cls, attr, guard(cls.__dict__[attr], f"{cls.__name__}.{attr}")
                    )
        for codec in ("int8", "fp16", "zlib", "delta", "topk"):
            DistributedRunner(tiny_config(codec=codec)).run()
        assert not off_main


class TestPlainIntSizes:
    @pytest.mark.parametrize("name", CODEC_NAMES)
    def test_encoded_nbytes_is_int(self, name):
        vec = np.random.default_rng(0).normal(size=500)
        codec = make_codec(name)
        assert type(codec.encode(vec).nbytes) is int
        unpriced, _ = codec.encode_unpriced(vec)
        assert type(unpriced.nbytes) is int

    @pytest.mark.parametrize("codec", ["int8", "fp16", "zlib", "delta", "topk"])
    def test_no_size_is_left_pending_after_a_run(self, codec):
        runner = DistributedRunner(tiny_config(codec=codec))
        runner.run()

        def settled(size) -> bool:
            return type(size) is int or type(size.value) is int

        files = [runner.server.catalog.get(n) for n in runner.server.catalog.names()]
        assert all(settled(file.compressed_size) for file in files)
        assert all(settled(s) for s in runner._codec_plane._delta_window.values())
        for file in files:
            content = getattr(file.payload, "content", None)
            if isinstance(content, Encoded):
                assert type(content.nbytes) is int


class TestPublishDecodes:
    """Publishing decodes a lossy file only for a rule that keeps it."""

    def count_publish_decodes(self, rule) -> int:
        runner = DistributedRunner(tiny_config(codec="int8", update_rule=rule))
        plane = runner._codec_plane
        calls = []
        decode = plane.down_codec.decode
        plane.down_codec.decode = lambda enc: calls.append(1) or decode(enc)
        runner._republish_params(runner.pool.current_params().copy())
        return len(calls)

    def test_vcasgd_publish_decodes_nothing(self):
        assert self.count_publish_decodes(None) == 0

    def test_dcasgd_publish_decodes_its_backup(self):
        rule = make_rule("dcasgd", server_lr=0.005)
        assert rule.keeps_snapshots
        assert self.count_publish_decodes(rule) == 1


def test_pending_price_resolves_once():
    plane = ParamCodecPlane("int8", layout=None)
    plane.start_pricing()
    try:
        vec = np.random.default_rng(1).normal(size=3000)
        _, wire = plane.encode_publish(vec, 1)
        assert isinstance(wire, PendingPrice)
        assert plane.publish_wire_bytes == 0
        value = wire.resolve()
        assert wire.resolve() == value == make_codec("int8").encode(vec).nbytes
        assert plane.publish_wire_bytes == value
    finally:
        plane.stop_pricing()
    assert plane.publish_wire_bytes == value
