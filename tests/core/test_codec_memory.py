"""Lossy parameter files rest in their wire form; memory follows model size.

A lossy publish keeps the codec's encoded record, and every client decodes
its own copy on use.  The mechanisms are asserted directly: the stored
record's size here, block-sized optimizer and merge scratch in
``tests/nn/test_block_exactness.py``.  The traced-peak bound is the
end-to-end backstop.  Measured with tracemalloc on NumPy 2.4 / CPython
3.11, the run peaks at 19.2× the parameter bytes for int8 and 19.1× for
fp16, against 21.9× and 22.0× when every live version was held decoded
and scratch was model-sized.  N sits in the middle of that gap, so it
absorbs allocator noise from NumPy temporaries yet trips if either
mechanism comes back.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import DistributedRunner
from repro.core.runner import PARAM_FILE
from repro.nn.codecs import Encoded, make_codec
from repro.nn.models import ModelSpec

from .test_runner import tiny_config

# 108 548 scalars (0.87 MB): wider than one block, and large enough that
# parameter-sized arrays dominate the traced heap.
MODEL = ModelSpec("mlp", {"in_features": 48, "hidden": [2048], "num_classes": 4})
PEAK_PARAM_MULTIPLE = 20.5
STORED_FRACTION = {"int8": 1 / 4, "fp16": 1 / 2}


def stored_arrays(obj):
    """Every array reachable from an encoded record's data."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, Encoded):
        yield from stored_arrays(obj.data)
    elif isinstance(obj, tuple):
        for item in obj:
            yield from stored_arrays(item)


def run_recording_publishes(codec: str, **overrides):
    runner = DistributedRunner(tiny_config(codec=codec, model=MODEL, **overrides))
    plane = runner._codec_plane
    published = {}
    encode_publish = plane.encode_publish

    def recording(vec, version, frozen=False):
        payload, wire = encode_publish(vec, version, frozen)
        published[id(payload)] = vec.copy()
        return payload, wire

    plane.encode_publish = recording
    result = runner.run()
    return runner, result, published


@pytest.mark.parametrize("codec", sorted(STORED_FRACTION))
def test_published_file_rests_encoded_and_decodes_fresh(codec):
    runner, _, published = run_recording_publishes(codec)
    payload = runner.server.catalog.get(PARAM_FILE).payload
    raw = runner.param_size * 8
    assert isinstance(payload.content, Encoded)
    assert payload.nbytes == raw
    stored = list(stored_arrays(payload.content))
    assert sum(arr.nbytes for arr in stored) <= raw * STORED_FRACTION[codec]
    vec = published[id(payload)]
    reference = make_codec(codec)
    expected = reference.decode(reference.encode(vec, runner._layout))
    first, second = payload.decode_params(), payload.decode_params()
    assert first.tobytes() == expected.tobytes()
    assert first is not second and not np.shares_memory(first, second)
    assert not any(np.shares_memory(first, arr) for arr in stored)


def test_frozen_replica_copies_rest_encoded():
    runner, result, published = run_recording_publishes(
        "fp16", num_clients=3, replicas=2, quorum=2
    )
    assert result.counters["quorums_reached"] > 0
    frozen = [
        runner.server.catalog.get(name).payload
        for name in runner.server.catalog.names()
        if name.startswith(f"{PARAM_FILE}:e")
    ]
    assert frozen
    reference = make_codec("fp16")
    for payload in frozen:
        assert isinstance(payload.content, Encoded)
        expected = reference.decode(reference.encode(published[id(payload)]))
        assert payload.decode_params().tobytes() == expected.tobytes()


@pytest.mark.parametrize("codec", ["int8"])
def test_downloads_report_raw_bytes_without_decoding(codec):
    runner, _, _ = run_recording_publishes(codec)
    decodes = [
        rec for rec in runner.trace if rec.kind == "net.decode" and rec["direction"] == "down"
    ]
    assert decodes
    assert {rec["raw"] for rec in decodes} == {runner.param_size * 8}

def test_a_waiting_step_pins_the_file_not_a_decoded_vector():
    """Each of a codec run's in-flight steps would pin a fresh model-sized
    vector if it were decoded at submit; it is decoded where it trains."""
    runner = DistributedRunner(tiny_config(codec="int8", model=MODEL, max_epochs=1))
    submitted = []
    submit = runner._dispatcher.submit

    def recording(published, *args):
        task = submit(published, *args)
        held = [getattr(task, slot) for slot in type(task).__slots__]
        submitted.append((task.published, held))
        return task

    runner._dispatcher.submit = recording
    runner.run()
    assert submitted
    for published, held in submitted:
        assert isinstance(published.content, Encoded)
        arrays = [
            a
            for value in held
            for a in (value if isinstance(value, list) else [value])
            if isinstance(a, np.ndarray)
        ]
        # Only the pre-drawn batch orders, a shard's length each.
        assert arrays and all(a.dtype.kind == "i" for a in arrays)
        assert all(a.size < runner.param_size for a in arrays)



@pytest.mark.parametrize("codec", sorted(STORED_FRACTION))
def test_traced_peak_scales_with_parameter_bytes(codec):
    config = tiny_config(codec=codec, model=MODEL)
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        runner = DistributedRunner(config)
        runner.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    assert peak - before <= PEAK_PARAM_MULTIPLE * runner.param_size * 8
