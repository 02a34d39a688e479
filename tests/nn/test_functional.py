"""Gradient and semantics tests for repro.nn.functional."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.functional as F
from repro.errors import ShapeError
from repro.nn.tensor import Tensor

from ..conftest import numerical_gradient


def check_grad(build_loss, x_data: np.ndarray, tol: float = 1e-5) -> None:
    x = Tensor(x_data.copy(), requires_grad=True)
    build_loss(x).backward()
    numeric = numerical_gradient(lambda: build_loss(Tensor(x.data)).item(), x.data)
    np.testing.assert_allclose(x.grad, numeric, rtol=tol, atol=tol)


class TestActivations:
    def test_relu_forward(self):
        out = F.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_relu_grad(self, rng):
        # Shift away from 0 to keep central differences well-defined.
        x = rng.normal(size=(4, 4))
        x[np.abs(x) < 0.05] += 0.1
        check_grad(lambda t: F.relu(t).sum(), x)

    def test_leaky_relu_grad(self, rng):
        x = rng.normal(size=(3, 5))
        x[np.abs(x) < 0.05] += 0.1
        check_grad(lambda t: F.leaky_relu(t, 0.1).sum(), x)

    def test_sigmoid_range_and_grad(self, rng):
        x = rng.normal(size=(10,)) * 3
        out = F.sigmoid(Tensor(x))
        assert np.all(out.data > 0) and np.all(out.data < 1)
        check_grad(lambda t: F.sigmoid(t).sum(), x)

    def test_sigmoid_extreme_values_stable(self):
        out = F.sigmoid(Tensor([-500.0, 500.0]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_tanh_grad(self, rng):
        check_grad(lambda t: F.tanh(t).sum(), rng.normal(size=(6,)))

class TestSoftmax:
    def test_softmax_rows_sum_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(4, 7))))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), rtol=1e-12)

    def test_softmax_shift_invariance(self, rng):
        x = rng.normal(size=(3, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_softmax_grad(self, rng):
        w = rng.normal(size=(3, 4))
        check_grad(lambda t: (F.softmax(t) * w).sum(), rng.normal(size=(3, 4)))


class TestDropout:
    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.normal(size=(5, 5)))
        out = F.dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_dropout_zero_p_is_identity(self, rng):
        x = Tensor(rng.normal(size=(5, 5)))
        assert F.dropout(x, 0.0, rng, training=True) is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, rng, training=True)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_dropout_invalid_p(self, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, rng)

    def test_dropout_grad_masks(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        out = F.dropout(x, 0.5, rng, training=True)
        out.sum().backward()
        # Gradient is zero exactly where the output was dropped.
        np.testing.assert_allclose((x.grad == 0), (out.data == 0))


class TestPadAndEmbedding:
    def test_pad2d_shape_and_grad(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        out = F.pad2d(x, 2)
        assert out.shape == (2, 3, 8, 8)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3, 4, 4)))

    def test_pad2d_zero_is_identity(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 2, 2)))
        assert F.pad2d(x, 0) is x

    def test_pad2d_rejects_non4d(self):
        with pytest.raises(ShapeError):
            F.pad2d(Tensor(np.ones((3, 3))), 1)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), cols=st.integers(2, 8))
def test_property_softmax_is_probability_distribution(seed, cols):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(3, cols)) * 5)
    out = F.softmax(x).data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(3), rtol=1e-9)
