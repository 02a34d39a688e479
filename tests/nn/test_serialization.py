"""Parameter serialization tests (bytes blobs and flat vectors)."""

from __future__ import annotations

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
    state_checksum,
    state_from_bytes,
    state_num_scalars,
    state_to_bytes,
)


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


class TestBytesRoundtrip:
    def test_roundtrip_exact(self, state):
        restored = state_from_bytes(state_to_bytes(state))
        assert set(restored) == set(state)
        for key in state:
            np.testing.assert_array_equal(restored[key], state[key])

    def test_uncompressed_roundtrip(self, state):
        restored = state_from_bytes(state_to_bytes(state, compress=False))
        np.testing.assert_array_equal(restored["w1"], state["w1"])

    def test_garbage_raises(self):
        with pytest.raises(SerializationError):
            state_from_bytes(b"not an npz file")

    def test_compression_shrinks_redundant_data(self):
        state = {"w": np.zeros((100, 100))}
        assert len(state_to_bytes(state)) < len(state_to_bytes(state, compress=False))


class TestVectorRoundtrip:
    """The flat codec through :class:`StateLayout`: ``pack`` and ``views``."""

    def test_roundtrip_exact(self, state):
        vec = to_vector(state)
        assert vec.size == state_num_scalars(state)
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
