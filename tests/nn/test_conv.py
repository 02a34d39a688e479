"""Convolution/pooling correctness: against naive loops and numeric grads."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.functional as F
from repro.errors import ShapeError
from repro.nn.conv import (
    avg_pool2d,
    col2im,
    conv2d,
    conv_output_size,
    global_avg_pool2d,
    im2col,
    max_pool2d,
)
from repro.nn.tensor import Tensor

from ..conftest import numerical_gradient


def naive_conv2d(
    x: np.ndarray, w: np.ndarray, b: np.ndarray | None, stride: int, pad: int
) -> np.ndarray:
    """Reference convolution with explicit loops."""
    n, c, h, ww = x.shape
    co, ci, kh, kw = w.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (ww + 2 * pad - kw) // stride + 1
    out = np.zeros((n, co, oh, ow))
    for ni in range(n):
        for oi in range(co):
            for yi in range(oh):
                for xi in range(ow):
                    patch = x[ni, :, yi * stride : yi * stride + kh, xi * stride : xi * stride + kw]
                    out[ni, oi, yi, xi] = (patch * w[oi]).sum()
            if b is not None:
                out[ni, oi] += b[oi]
    return out


class TestOutputSize:
    def test_basic(self):
        assert conv_output_size(8, 3, 1, 1) == 8
        assert conv_output_size(8, 3, 2, 1) == 4
        assert conv_output_size(5, 5, 1, 0) == 1

    def test_invalid_raises(self):
        with pytest.raises(ShapeError):
            conv_output_size(2, 5, 1, 0)


class TestIm2Col:
    def test_roundtrip_counts_overlaps(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        cols, oh, ow = im2col(x, 3, 3, 1, 0)
        assert cols.shape == (oh * ow, 9)
        back = col2im(np.ones_like(cols), x.shape, 3, 3, 1, 0)
        # Center pixel participates in 4 windows of a 4x4/3x3/s1 conv.
        assert back[0, 0, 1, 1] == 4.0
        assert back[0, 0, 0, 0] == 1.0

    def test_columns_match_patches(self, rng):
        x = rng.normal(size=(1, 2, 3, 3))
        cols, oh, ow = im2col(x, 2, 2, 1, 0)
        first_patch = x[0, :, :2, :2].reshape(-1)
        np.testing.assert_allclose(cols[0], first_patch)


class TestConv2D:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive(self, rng, stride, pad):
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad)
        np.testing.assert_allclose(
            out.data, naive_conv2d(x, w, b, stride, pad), rtol=1e-9, atol=1e-9
        )

    def test_no_bias(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), None, stride=1, pad=1)
        np.testing.assert_allclose(
            out.data, naive_conv2d(x, w, None, 1, 1), rtol=1e-9, atol=1e-9
        )

    def test_input_grad_numeric(self, rng):
        w = rng.normal(size=(2, 2, 3, 3))
        x_data = rng.normal(size=(1, 2, 5, 5))

        def loss(t: Tensor) -> Tensor:
            return conv2d(t, Tensor(w), None, stride=2, pad=1).sum()

        x = Tensor(x_data.copy(), requires_grad=True)
        loss(x).backward()
        numeric = numerical_gradient(lambda: loss(Tensor(x.data)).item(), x.data)
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-5, atol=1e-5)

    def test_weight_grad_numeric(self, rng):
        x = rng.normal(size=(2, 2, 4, 4))
        w_data = rng.normal(size=(3, 2, 2, 2))

        def loss(wt: Tensor) -> Tensor:
            return (conv2d(Tensor(x), wt, None, stride=1, pad=0) ** 2).sum()

        w = Tensor(w_data.copy(), requires_grad=True)
        loss(w).backward()
        numeric = numerical_gradient(lambda: loss(Tensor(w.data)).item(), w.data)
        np.testing.assert_allclose(w.grad, numeric, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_built_in_pad_equals_padding_the_input(self, rng, stride):
        """``pad=p`` forward and both gradients match convolving the
        input after :func:`~repro.nn.functional.pad2d` with ``pad=0``."""
        x_data = rng.normal(size=(2, 2, 5, 5))
        w_data = rng.normal(size=(3, 2, 3, 3))
        side = (5 + 2 - 3) // stride + 1
        g = rng.normal(size=(2, 3, side, side))
        runs = []
        for padded in (False, True):
            x = Tensor(x_data.copy(), requires_grad=True)
            w = Tensor(w_data.copy(), requires_grad=True)
            if padded:
                out = conv2d(F.pad2d(x, 1), w, None, stride=stride, pad=0)
            else:
                out = conv2d(x, w, None, stride=stride, pad=1)
            (out * g).sum().backward()
            runs.append((out.data, x.grad, w.grad))
        for built_in, reference in zip(*runs):
            np.testing.assert_allclose(built_in, reference, rtol=1e-12, atol=1e-12)

    def test_bias_grad_is_output_count(self, rng):
        x = rng.normal(size=(2, 1, 4, 4))
        w = rng.normal(size=(2, 1, 3, 3))
        b = Tensor(np.zeros(2), requires_grad=True)
        conv2d(Tensor(x), Tensor(w), b, stride=1, pad=0).sum().backward()
        np.testing.assert_allclose(b.grad, [2 * 2 * 2, 2 * 2 * 2])

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            conv2d(
                Tensor(rng.normal(size=(1, 3, 4, 4))),
                Tensor(rng.normal(size=(2, 4, 3, 3))),
                None,
            )

    def test_rejects_non4d(self, rng):
        with pytest.raises(ShapeError):
            conv2d(Tensor(rng.normal(size=(4, 4))), Tensor(rng.normal(size=(1, 1, 2, 2))), None)


class TestPooling:
    def test_max_pool_forward(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad_routes_to_argmax(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(x.grad[0, 0], expected)

    def test_avg_pool_forward(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_grad_uniform(self):
        x = Tensor(np.zeros((1, 1, 4, 4)), requires_grad=True)
        avg_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 4, 4), 0.25))

    def test_global_avg_pool(self, rng):
        x_data = rng.normal(size=(2, 3, 4, 4))
        out = global_avg_pool2d(Tensor(x_data))
        np.testing.assert_allclose(out.data, x_data.mean(axis=(2, 3)))

    def test_global_avg_pool_grad(self):
        x = Tensor(np.zeros((1, 2, 2, 2)), requires_grad=True)
        global_avg_pool2d(x).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 2, 2, 2), 0.25))

    def test_strided_max_pool(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        out = max_pool2d(Tensor(x), 3, stride=2)
        assert out.shape == (1, 1, 2, 2)
        assert out.data[0, 0, 0, 0] == x[0, 0, :3, :3].max()


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    size=st.integers(3, 7),
    kernel=st.integers(1, 3),
)
def test_property_conv_matches_naive(seed, size, kernel):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, 2, size, size))
    w = rng.normal(size=(2, 2, kernel, kernel))
    out = conv2d(Tensor(x), Tensor(w), None, stride=1, pad=0)
    np.testing.assert_allclose(
        out.data, naive_conv2d(x, w, None, 1, 0), rtol=1e-8, atol=1e-8
    )
