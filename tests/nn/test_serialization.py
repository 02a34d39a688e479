"""Parameter serialization tests (flat vectors and wire sizes)."""

from __future__ import annotations

import sys
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.nn import serialization
from repro.nn.models import ModelSpec, build_model
from repro.nn.serialization import (
    StateLayout,
    compressed_size,
    compressed_size_cache_stats,
)

from ..goldens import state_checksum


def to_vector(state: dict[str, np.ndarray]) -> np.ndarray:
    return StateLayout.for_state(state).pack(state)


def from_vector(vector: np.ndarray, template: dict[str, np.ndarray]) -> dict:
    return StateLayout.for_state(template).views(vector)


@pytest.fixture
def state(rng) -> dict[str, np.ndarray]:
    return {
        "w1": rng.normal(size=(4, 3)),
        "b1": rng.normal(size=(3,)),
        "buffer:running": rng.normal(size=(3,)),
    }


class TestVectorRoundtrip:
    """The flat codec through :class:`StateLayout`: ``pack`` and ``views``."""

    def test_roundtrip_exact(self, state):
        vec = to_vector(state)
        assert vec.size == sum(v.size for v in state.values())
        restored = from_vector(vec, state)
        for key in state:
            np.testing.assert_array_equal(restored[key], state[key])

    def test_vector_order_is_key_sorted(self):
        state = {"b": np.array([2.0]), "a": np.array([1.0])}
        np.testing.assert_array_equal(to_vector(state), [1.0, 2.0])

    def test_size_mismatch_raises(self, state):
        with pytest.raises(SerializationError):
            from_vector(np.zeros(3), state)

    def test_empty_state_raises(self):
        with pytest.raises(SerializationError):
            to_vector({})

    def test_vector_is_contiguous_float64(self, state):
        vec = to_vector(state)
        assert vec.flags["C_CONTIGUOUS"]
        assert vec.dtype == np.float64

    def test_model_state_roundtrip(self, rng):
        spec = ModelSpec("mlp", {"in_features": 6, "hidden": [4], "num_classes": 3})
        model = build_model(spec, rng)
        state = model.state_dict()
        vec = to_vector(state)
        model2 = build_model(spec, np.random.default_rng(99))
        model2.load_state_dict(from_vector(vec, model2.state_dict()))
        np.testing.assert_array_equal(to_vector(model2.state_dict()), vec)


class TestChecksum:
    """The state digest the bit-identity tests compare models by."""

    def test_stable(self, state):
        assert state_checksum(state) == state_checksum(state)

    def test_sensitive_to_values(self, state):
        changed = dict(state)
        changed["w1"] = state["w1"] + 1e-12
        assert state_checksum(changed) != state_checksum(state)

    def test_sensitive_to_keys(self, state):
        renamed = {("x" + k): v for k, v in state.items()}
        assert state_checksum(renamed) != state_checksum(state)

    def test_insensitive_to_dict_order(self, state):
        reordered = dict(reversed(list(state.items())))
        assert state_checksum(reordered) == state_checksum(state)


class TestCompressedSize:
    def test_zeros_compress_well(self):
        raw = np.zeros(10000)
        assert compressed_size(raw) < raw.nbytes / 50

    def test_random_data_compresses_poorly(self, rng):
        raw = rng.normal(size=10000)
        assert compressed_size(raw) > raw.nbytes * 0.5

    def test_accepts_bytes(self):
        assert compressed_size(b"a" * 1000) < 100

    def test_array_and_its_bytes_share_one_memo_entry(self, rng):
        arr = rng.normal(size=(37, 11)).astype(np.float16)
        entries = len(serialization._COMPRESSED_SIZE_CACHE)
        hits, misses = compressed_size_cache_stats()
        size = compressed_size(arr)
        assert size == len(zlib.compress(arr.tobytes(), serialization._ZLIB_LEVEL))
        assert compressed_size(arr.tobytes()) == size
        assert compressed_size_cache_stats() == (hits + 1, misses + 1)
        assert len(serialization._COMPRESSED_SIZE_CACHE) == min(
            entries + 1, serialization._COMPRESSED_SIZE_CACHE_MAX
        )

    def test_strided_array_prices_as_its_contiguous_copy(self, rng):
        base = rng.normal(size=(20, 30))
        strided = base[:, ::3]
        assert not strided.flags["C_CONTIGUOUS"]
        hits, misses = compressed_size_cache_stats()
        size = compressed_size(strided)
        assert compressed_size(np.ascontiguousarray(strided)) == size
        assert compressed_size(strided.tobytes()) == size
        assert compressed_size_cache_stats() == (hits + 2, misses + 1)

    def test_memo_holds_under_two_threads(self, rng):
        # Any thread may price through the memo.  More threads than
        # cores hammer an overlapping set of payloads, with a short switch
        # interval, on a set larger than the memo so it also evicts under
        # load.
        sizes = rng.integers(20, 2000, size=serialization._COMPRESSED_SIZE_CACHE_MAX + 40)
        payloads = [
            rng.integers(0, 4, size=int(n)).astype(np.int8).tobytes() for n in sizes
        ]
        expected = [len(zlib.compress(p, serialization._ZLIB_LEVEL)) for p in payloads]
        calls_per_thread = 3 * len(payloads)
        strides = (1, 7, 11, 13)
        hits, misses = compressed_size_cache_stats()
        wrong: list = []
        start = threading.Barrier(len(strides))

        def hammer(stride: int) -> None:
            start.wait()
            for i in range(calls_per_thread):
                j = (i * stride) % len(payloads)
                try:
                    if serialization.compressed_size(payloads[j]) != expected[j]:
                        wrong.append(j)
                except Exception as exc:  # a thread's error fails the test
                    wrong.append(repr(exc))

        threads = [threading.Thread(target=hammer, args=(s,)) for s in strides]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        new_hits, new_misses = compressed_size_cache_stats()
        calls = len(strides) * calls_per_thread
        assert (new_hits - hits) + (new_misses - misses) == calls
        assert len(serialization._COMPRESSED_SIZE_CACHE) <= (
            serialization._COMPRESSED_SIZE_CACHE_MAX
        )

    def test_memo_is_locked_and_zlib_is_not(self, rng, monkeypatch):
        # Every memo access holds the lock; the zlib pass never does, so
        # a deflate on one thread does not stall the other's memo hits.
        lock = serialization._COMPRESSED_SIZE_LOCK
        unlocked: list[str] = []

        def check(what: str, held: bool) -> None:
            if lock.locked() != held:
                unlocked.append(what)

        class GuardedMemo(type(serialization._COMPRESSED_SIZE_CACHE)):
            def get(self, key, default=None):
                check("get", True)
                return super().get(key, default)

            def __setitem__(self, key, value):
                check("set", True)
                super().__setitem__(key, value)

            def move_to_end(self, key, last=True):
                check("move_to_end", True)
                super().move_to_end(key, last)

        deflate = zlib.compress

        def compress(data, level):
            check("zlib", False)
            return deflate(data, level)

        monkeypatch.setattr(serialization, "_COMPRESSED_SIZE_CACHE", GuardedMemo())
        monkeypatch.setattr(serialization.zlib, "compress", compress)
        payload = rng.integers(0, 4, size=5000).astype(np.int8)
        assert compressed_size(payload) == compressed_size(payload.tobytes())
        assert not unlocked


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n_arrays=st.integers(1, 5))
def test_property_vector_roundtrip_any_shapes(seed, n_arrays):
    rng = np.random.default_rng(seed)
    state = {}
    for i in range(n_arrays):
        shape = tuple(int(s) for s in rng.integers(1, 4, size=int(rng.integers(1, 4))))
        state[f"p{i}"] = rng.normal(size=shape)
    vec = to_vector(state)
    restored = from_vector(vec, state)
    for key in state:
        np.testing.assert_array_equal(restored[key], state[key])
