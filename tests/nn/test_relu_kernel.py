"""Bitwise contract of :func:`repro.nn.functional.relu_kernel`.

The step programs, the tape and the parameter server's validation pass all
run this one kernel, so every golden digest rests on its bits.  Its forward
must equal the masked select ``np.where(x > 0, x, 0.0)`` bit for bit —
signed zeros, NaNs of any sign and payload, infinities and subnormals
included — and its pull must stay ``g * (x > 0)``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.functional import relu_kernel

# A NaN or infinite ``g`` times a False mask is NaN in both the kernel's pull
# and the reference; that is part of the contract, not a fault to report.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

DTYPES = (np.float64, np.float32)
# Lengths around every SIMD lane width and unroll factor, plus one size
# past 64Ki elements (NumPy's ufunc buffer size).
LENGTHS = (*range(1, 301), 65536 + 37)


def reference(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, 0.0)


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def assert_bitwise(out, x: np.ndarray) -> None:
    want = reference(x)
    out = np.asarray(out)
    assert out.dtype == x.dtype == want.dtype
    assert out.shape == x.shape
    assert bits(out) == bits(want)


def special_values(dtype) -> np.ndarray:
    """±0, NaNs with sign and payload, ±inf, ±smallest subnormal, ±tiny, ±max."""
    info = np.finfo(dtype)
    uint = np.uint64 if dtype == np.float64 else np.uint32
    nbits = 64 if dtype == np.float64 else 32
    sign = uint(1 << (nbits - 1))
    quiet_nan = np.array([np.nan], dtype=dtype).view(uint)[0]
    nans = np.array(
        [quiet_nan, quiet_nan | uint(1), quiet_nan | uint(0x5A5A)], dtype=uint
    )
    nans = np.concatenate([nans, nans | sign]).view(dtype)
    finite = np.array(
        [0.0, info.smallest_subnormal, info.tiny, 1.0, info.max], dtype=dtype
    )
    return np.concatenate(
        [finite, -finite, np.array([np.inf, -np.inf], dtype=dtype), nans]
    )


def seeded_array(rng: np.random.Generator, dtype, n: int) -> np.ndarray:
    """Random normals with every special value planted at random slots."""
    x = rng.standard_normal(n).astype(dtype)
    specials = special_values(dtype)
    slots = rng.integers(0, n, size=min(n, 2 * specials.size))
    x[slots] = rng.choice(specials, size=slots.size)
    return x


@pytest.mark.parametrize("dtype", DTYPES)
def test_special_values_match_masked_select(dtype):
    x = special_values(dtype)
    out, _ = relu_kernel(x)
    assert_bitwise(out, x)
    # The two cases a plain maximum gets wrong: -0.0 and NaN both give +0.0.
    zero = np.zeros(1, dtype=dtype)
    for value in (-0.0, np.nan, -np.nan):
        out, _ = relu_kernel(np.array([value], dtype=dtype))
        assert bits(out) == bits(zero)


@pytest.mark.parametrize("dtype", DTYPES)
def test_every_length_matches_masked_select(dtype):
    rng = np.random.default_rng(40)
    for n in LENGTHS:
        x = seeded_array(rng, dtype, n)
        out, _ = relu_kernel(x)
        assert_bitwise(out, x)


@pytest.mark.parametrize("dtype", DTYPES)
def test_shapes_and_strided_views_match_masked_select(dtype):
    rng = np.random.default_rng(41)
    base = seeded_array(rng, dtype, 8 * 20 * 128).reshape(8, 20, 128)
    for x in (base, base.transpose(2, 0, 1), base[:, ::3, 1::2], base[0, 0, :1]):
        out, _ = relu_kernel(x)
        assert_bitwise(out, x)
    scalar = np.array(-0.0, dtype=dtype)
    out, _ = relu_kernel(scalar)
    assert_bitwise(out, scalar)


@pytest.mark.parametrize("dtype", DTYPES)
def test_pull_is_grad_times_mask(dtype):
    rng = np.random.default_rng(42)
    x = seeded_array(rng, dtype, 1031)
    g = seeded_array(rng, dtype, 1031)
    out, pull = relu_kernel(x)
    got = pull(g)
    want = g * (x > 0)
    assert got.dtype == want.dtype
    assert bits(got) == bits(want)


def test_tape_relu_runs_the_kernel():
    rng = np.random.default_rng(43)
    x = seeded_array(rng, np.float64, 300).reshape(20, 15)
    t = Tensor(x.copy(), requires_grad=True)
    out = F.relu(t)
    assert_bitwise(out.data, x)
    g = seeded_array(rng, np.float64, 300).reshape(20, 15)
    out.backward(g)
    want = np.zeros_like(x)
    want += g * (x > 0)  # the tape accumulates into a zeroed buffer
    assert bits(t.grad) == bits(want)


@settings(max_examples=200, deadline=None)
@given(
    x=st.one_of(
        hnp.arrays(
            np.float64,
            st.integers(1, 300),
            elements=st.floats(
                allow_nan=True, allow_infinity=True, allow_subnormal=True
            ),
        ),
        hnp.arrays(
            np.float32,
            st.integers(1, 300),
            elements=st.floats(
                width=32, allow_nan=True, allow_infinity=True, allow_subnormal=True
            ),
        ),
    )
)
def test_property_forward_and_pull_match_masked_select(x):
    out, pull = relu_kernel(x)
    assert_bitwise(out, x)
    g = np.ones_like(x)
    assert bits(pull(g)) == bits(g * (x > 0))
