"""Autograd engine tests: op gradients against numerical differentiation."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GradientError
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad, unbroadcast

from ..conftest import numerical_gradient


def check_grad(build_loss, x_data: np.ndarray, tol: float = 1e-5) -> None:
    """Compare autograd vs central differences for a scalar loss in x."""
    x = Tensor(x_data.copy(), requires_grad=True)
    loss = build_loss(x)
    loss.backward()
    numeric = numerical_gradient(lambda: build_loss(Tensor(x.data)).item(), x.data)
    np.testing.assert_allclose(x.grad, numeric, rtol=tol, atol=tol)


class TestBasicOps:
    def test_add_backward(self, rng):
        check_grad(lambda x: (x + 3.0).sum(), rng.normal(size=(3, 4)))

    def test_mul_backward(self, rng):
        y = rng.normal(size=(3, 4))
        check_grad(lambda x: (x * y).sum(), rng.normal(size=(3, 4)))

    def test_sub_and_neg(self, rng):
        y = rng.normal(size=(2, 5))
        check_grad(lambda x: (y - x).sum(), rng.normal(size=(2, 5)))

    def test_div_backward(self, rng):
        y = rng.normal(size=(3,)) + 5.0
        check_grad(lambda x: (x / y).sum(), rng.normal(size=(3,)))
        check_grad(lambda x: (y / (x + 10.0)).sum(), rng.normal(size=(3,)))

    def test_pow_backward(self, rng):
        check_grad(lambda x: (x**3).sum(), rng.normal(size=(4,)))

    def test_pow_requires_scalar_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])  # type: ignore[operator]

    def test_matmul_backward(self, rng):
        b = rng.normal(size=(4, 2))
        check_grad(lambda x: (x @ b).sum(), rng.normal(size=(3, 4)))

    def test_matmul_second_arg_grad(self, rng):
        a = rng.normal(size=(3, 4))

        def loss(x: Tensor) -> Tensor:
            return (Tensor(a) @ x).sum()

        check_grad(loss, rng.normal(size=(4, 2)))

    def test_chained_expression(self, rng):
        y = rng.normal(size=(3, 3))
        check_grad(
            lambda x: ((x * 2.0 + y) @ x.T).sum() * 0.5, rng.normal(size=(3, 3))
        )


class TestBroadcasting:
    def test_add_broadcast_bias(self, rng):
        bias = rng.normal(size=(4,))
        check_grad(lambda x: (x + bias).sum(), rng.normal(size=(5, 4)))

    def test_grad_flows_to_broadcast_operand(self, rng):
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        y = Tensor(rng.normal(size=(5, 4)))
        (x * y).sum().backward()
        np.testing.assert_allclose(x.grad, y.data.sum(axis=0))

    def test_unbroadcast_prepended_axes(self):
        g = np.ones((3, 4, 5))
        assert unbroadcast(g, (4, 5)).shape == (4, 5)
        np.testing.assert_allclose(unbroadcast(g, (4, 5)), 3 * np.ones((4, 5)))

    def test_unbroadcast_stretched_axes(self):
        g = np.ones((3, 4))
        out = unbroadcast(g, (3, 1))
        assert out.shape == (3, 1)
        np.testing.assert_allclose(out, 4 * np.ones((3, 1)))

    def test_unbroadcast_noop(self):
        g = np.ones((2, 2))
        assert unbroadcast(g, (2, 2)) is g


class TestShapeOps:
    def test_reshape_backward(self, rng):
        check_grad(lambda x: (x.reshape(6) * 2.0).sum(), rng.normal(size=(2, 3)))

    def test_transpose_backward(self, rng):
        y = rng.normal(size=(4, 3))
        check_grad(lambda x: (x.T * y).sum(), rng.normal(size=(3, 4)))

    def test_sum_axis_keepdims(self, rng):
        check_grad(
            lambda x: (x.sum(axis=1, keepdims=True) ** 2).sum(),
            rng.normal(size=(3, 4)),
        )

    def test_mean_matches_manual(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((3, 4), 1.0 / 12))

    def test_getitem_backward(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        x[1:3].sum().backward()
        expected = np.zeros((5, 3))
        expected[1:3] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        idx = np.array([0, 0, 1])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 1.0, 0.0, 0.0])


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (x + x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * np.ones(3))

    def test_backward_nonscalar_requires_grad_arg(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(GradientError):
            (x * 2).backward()

    def test_backward_with_explicit_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2).backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_backward_grad_shape_mismatch(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GradientError):
            (x * 2).backward(np.ones(4))

    def test_backward_on_no_grad_tensor(self):
        x = Tensor(np.ones(3))
        with pytest.raises(GradientError):
            x.sum().backward()

    def test_no_grad_context(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert y._backward is None

    def test_no_grad_restores_state(self):
        with no_grad():
            pass
        x = Tensor(np.ones(1), requires_grad=True)
        assert (x * 2).requires_grad

    def test_no_grad_is_per_thread(self):
        # A validation pass under no_grad on one thread must not strip the
        # tape from a training step another thread builds meanwhile.
        entered, release = threading.Event(), threading.Event()
        inside: list[bool] = []

        def validate() -> None:
            with no_grad():
                inside.append(is_grad_enabled())
                entered.set()
                release.wait(timeout=30)

        validator = threading.Thread(target=validate)
        validator.start()
        try:
            assert entered.wait(timeout=30)
            assert is_grad_enabled()
            x = Tensor(np.ones(3), requires_grad=True)
            (x * 2.0).sum().backward()
            np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0])
        finally:
            release.set()
            validator.join(timeout=30)
        assert not validator.is_alive()
        assert inside == [False]
        assert is_grad_enabled()

    def test_new_thread_starts_with_grad_enabled(self):
        seen: list[bool] = []
        with no_grad():
            worker = threading.Thread(target=lambda: seen.append(is_grad_enabled()))
            worker.start()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert seen == [True]

    def test_detach(self):
        x = Tensor(np.ones(3), requires_grad=True)
        d = x.detach()
        assert not d.requires_grad
        assert d.data is x.data  # no copy

    def test_zero_grad_keeps_buffer(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2).sum().backward()
        buf = x.grad
        x.zero_grad()
        assert x.grad is buf
        np.testing.assert_allclose(x.grad, 0.0)

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0])

    def test_diamond_graph(self, rng):
        # z = (x*2) + (x*3): both branches contribute.
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, 5 * np.ones(3))

    def test_int_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert np.issubdtype(t.dtype, np.floating)

    def test_repr_and_len(self):
        t = Tensor(np.zeros((4, 2)), requires_grad=True)
        assert "requires_grad" in repr(t)
        assert len(t) == 4


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_matmul_grad_matches_numeric(rows, cols, seed):
    """Property: d/dA sum(A @ B) == column-sum broadcast of B, any shape."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    b = rng.normal(size=(cols, 3))
    (a @ Tensor(b)).sum().backward()
    expected = np.tile(b.sum(axis=1), (rows, 1))
    np.testing.assert_allclose(a.grad, expected, rtol=1e-9, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_sum_then_backward_is_ones(seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    x.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones(shape))
