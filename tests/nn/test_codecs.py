"""Codec property tests: round-trip inverses, declared tolerances,
determinism, and wire-size accounting.

Lossless codecs must be bit-exact inverses.  Lossy codecs must stay
within the per-element bound their own :meth:`Codec.tolerance` declares —
the bound is part of the codec's contract, and the error-feedback plane
relies on decode being deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SerializationError
from repro.nn.codecs import (
    CODEC_NAMES,
    DeltaCodec,
    Fp16Codec,
    Int8Codec,
    TopKCodec,
    ZlibCodec,
    make_codec,
)
from repro.nn.serialization import StateLayout

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e8, max_value=1e8
)
vectors = st.lists(finite, min_size=1, max_size=64).map(
    lambda xs: np.asarray(xs, dtype=np.float64)
)

LOSSLESS = [ZlibCodec(), DeltaCodec()]
LOSSY = [
    Fp16Codec(),
    Int8Codec(),
    TopKCodec(fraction=0.25),
    TopKCodec(fraction=0.25, quant="fp16"),
    TopKCodec(fraction=0.25, quant="int8"),
]


def small_layout() -> StateLayout:
    return StateLayout({"w": np.zeros((4, 3)), "b": np.zeros(3)})


class TestLosslessRoundtrip:
    @pytest.mark.parametrize("codec", LOSSLESS, ids=lambda c: c.name)
    @given(vec=vectors)
    @settings(max_examples=50, deadline=None)
    def test_bit_exact(self, codec, vec):
        out = codec.decode(codec.encode(vec))
        np.testing.assert_array_equal(out, vec)
        assert not codec.lossy
        assert np.all(codec.tolerance(vec) == 0.0)

    @given(vec=vectors, ref_seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_delta_with_reference_bit_exact(self, vec, ref_seed):
        reference = np.random.default_rng(ref_seed).normal(size=vec.size)
        codec = DeltaCodec()
        enc = codec.encode(vec, reference=reference)
        np.testing.assert_array_equal(codec.decode(enc), vec)
        assert enc.nbytes <= vec.nbytes

    def test_delta_against_itself_is_tiny(self):
        vec = np.random.default_rng(7).normal(size=2048)
        enc = DeltaCodec().encode(vec, reference=vec.copy())
        # XOR of identical vectors is all zeros: near-free on the wire.
        assert enc.nbytes < vec.nbytes / 50

    def test_delta_reference_size_mismatch(self):
        with pytest.raises(SerializationError):
            DeltaCodec().encode(np.zeros(4), reference=np.zeros(5))


class TestLossyRoundtrip:
    @pytest.mark.parametrize("codec", LOSSY, ids=str)
    @given(vec=vectors)
    @settings(max_examples=50, deadline=None)
    def test_within_declared_tolerance(self, codec, vec):
        decoded = codec.decode(codec.encode(vec))
        assert decoded.shape == vec.shape
        assert np.all(np.abs(decoded - vec) <= codec.tolerance(vec))

    @pytest.mark.parametrize("codec", LOSSY, ids=str)
    @given(vec=vectors)
    @settings(max_examples=25, deadline=None)
    def test_deterministic(self, codec, vec):
        a = codec.encode(vec.copy())
        b = codec.encode(vec.copy())
        assert a.nbytes == b.nbytes
        np.testing.assert_array_equal(codec.decode(a), codec.decode(b))

    def test_int8_per_tensor_scales(self):
        # A huge weight tensor must not crush a small bias tensor: with
        # the layout, the bias segment gets its own scale.
        layout = small_layout()
        vec = np.concatenate([np.full(3, 1e-3), np.full(12, 1e3)])
        codec = Int8Codec()
        decoded = codec.decode(codec.encode(vec, layout))
        bias = decoded[:3]  # layout keys sort "b" before "w"
        assert np.all(np.abs(bias - 1e-3) <= 1e-3 / 253 + 1e-12)
        # Without the layout one global scale flattens the bias to zero.
        flat = codec.decode(codec.encode(vec))
        assert np.all(flat[:3] == 0.0)

    @pytest.mark.parametrize("value", [5e-324, -2e-322])
    def test_int8_subnormal_tensor_decodes_to_zero(self, value):
        # maxabs / 127 underflows to 0 for a subnormal maximum: the tensor
        # must encode as zeros, not as clipped ±127 codes with no scale.
        codec = Int8Codec()
        vec = np.array([value, 0.0])
        decoded = codec.decode(codec.encode(vec))
        np.testing.assert_array_equal(decoded, np.zeros(2))
        assert np.all(np.abs(decoded - vec) <= codec.tolerance(vec))

    def test_topk_keeps_largest(self):
        # Values chosen exactly representable in float32 so the fp32
        # value pass-through is bit-exact; ceil(0.33 * 6) keeps k=2.
        vec = np.array([0.125, -5.0, 0.25, 4.0, 0.0, -0.375])
        decoded = TopKCodec(fraction=0.33).decode(
            TopKCodec(fraction=0.33).encode(vec)
        )
        np.testing.assert_array_equal(
            decoded, np.array([0.0, -5.0, 0.0, 4.0, 0.0, 0.0])
        )


class TestWireAccounting:
    @given(vec=vectors)
    @settings(max_examples=25, deadline=None)
    def test_zlib_never_exceeds_raw(self, vec):
        enc = ZlibCodec().encode(vec)
        assert 0 < enc.nbytes <= enc.raw_nbytes == vec.nbytes

    def test_topk_wire_formula(self):
        vec = np.random.default_rng(3).normal(size=1000)
        for quant, value_bytes in (("fp32", 4), ("fp16", 2), ("int8", 1)):
            enc = TopKCodec(fraction=0.01, quant=quant).encode(vec)
            assert enc.nbytes == 10 * (4 + value_bytes) + 16

    def test_quantized_beats_baseline_on_random_vectors(self):
        vec = np.random.default_rng(11).normal(size=4096)
        base = ZlibCodec().encode(vec).nbytes
        assert Fp16Codec().encode(vec).nbytes < base
        assert Int8Codec().encode(vec).nbytes < base / 4


class TestValidation:
    def test_rejects_matrices(self):
        with pytest.raises(SerializationError):
            ZlibCodec().encode(np.zeros((2, 2)))

    def test_layout_size_mismatch(self):
        with pytest.raises(SerializationError):
            Int8Codec().encode(np.zeros(7), small_layout())

    def test_topk_fraction_bounds(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                TopKCodec(fraction=bad)
        with pytest.raises(ConfigurationError):
            TopKCodec(quant="fp8")

    def test_factory_covers_names(self):
        for name in CODEC_NAMES:
            assert make_codec(name).name == name
        with pytest.raises(ConfigurationError):
            make_codec("gzip")
