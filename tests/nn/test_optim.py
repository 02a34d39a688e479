"""Optimizer tests."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.layers import BatchNorm, Dense, Module, Parameter
from repro.nn.losses import cross_entropy
from repro.nn.models import make_mlp
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor


def quadratic_param(start: float = 5.0) -> Parameter:
    return Parameter(np.array([start]))


def quadratic_step(p: Parameter) -> None:
    """Set grad of f(x) = x^2 manually: grad = 2x."""
    p.grad = 2.0 * p.data.copy()


@pytest.mark.parametrize("optimizer", [SGD, Adam])
@pytest.mark.parametrize("lr", [0.0, -0.1, float("nan"), float("inf")])
def test_rejects_a_learning_rate_that_is_not_positive_and_finite(optimizer, lr):
    # NaN passes a ``lr <= 0`` check: every comparison with NaN is False.
    with pytest.raises(ConfigurationError, match="learning rate"):
        optimizer([quadratic_param()], lr=lr)


class TestSGD:
    def test_plain_update_formula(self):
        p = quadratic_param(1.0)
        opt = SGD([p], lr=0.1)
        quadratic_step(p)
        opt.step()
        np.testing.assert_allclose(p.data, [1.0 - 0.1 * 2.0])

    def test_converges_on_quadratic(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            quadratic_step(p)
            opt.step()
        assert abs(p.data[0]) < 1e-6

    def test_skips_params_without_grad(self):
        p = Parameter(np.array([3.0]))
        SGD([p], lr=0.1).step()  # no grad set
        np.testing.assert_allclose(p.data, [3.0])

    def test_empty_params_rejected(self):
        with pytest.raises(ConfigurationError):
            SGD([], lr=0.1)

    def test_update_is_in_place(self):
        p = quadratic_param()
        buf = p.data
        opt = SGD([p], lr=0.1)
        quadratic_step(p)
        opt.step()
        assert p.data is buf


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        # Adam's bias correction makes the first step ≈ lr * sign(grad).
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.01)
        p.grad = np.array([3.7])
        opt.step()
        np.testing.assert_allclose(p.data, [1.0 - 0.01], rtol=1e-6)

    def test_converges_on_quadratic(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.3)
        for _ in range(300):
            quadratic_step(p)
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_state_allocated_lazily_per_param(self):
        a, b = quadratic_param(), quadratic_param()
        opt = Adam([a, b], lr=0.1)
        quadratic_step(a)
        opt.step()
        assert opt._state[0] is not None and opt._state[1] is None

    def test_trains_real_model(self, rng):
        model = Dense(8, 3, rng)
        opt = Adam(model.parameters(), lr=0.05)
        x = rng.normal(size=(32, 8))
        y = x[:, :3].argmax(axis=1)  # linearly learnable labels
        first = None
        for _ in range(60):
            model.zero_grad()
            loss = cross_entropy(model(Tensor(x)), y)
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.3

    def test_update_is_in_place(self):
        p = quadratic_param()
        buf = p.data
        opt = Adam([p], lr=0.1)
        quadratic_step(p)
        opt.step()
        assert p.data is buf


class _Interleaved(Module):
    """Keys sort as ``bn.*`` < ``buffer:bn.*`` < ``head.*``: the buffers sit
    *between* parameters, so the arena exposes two trainable runs."""

    def __init__(self, rng):
        super().__init__()
        self.head = Dense(4, 3, rng)
        self.bn = BatchNorm(4)

    def forward(self, x):
        return self.head(self.bn(x))


OPTIMIZERS = {
    "adam": lambda params: Adam(params, lr=0.01),
    "sgd": lambda params: SGD(params, lr=0.05),
}


class TestArenaOptimizers:
    """One fused update over ``arena.trainable`` == one update per Parameter."""

    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    @pytest.mark.parametrize("build", [
        lambda rng: make_mlp(rng, in_features=5, hidden=(4,), num_classes=3,
                             batch_norm=True),
        _Interleaved,
    ])
    def test_bytewise_equal_and_buffers_untouched(self, name, build, rng):
        per_param = build(rng)
        fused = copy.deepcopy(per_param)
        arena = fused.to_arena()
        assert len(arena.trainable) == (2 if build is _Interleaved else 1)
        buffers = {n: b.copy() for n, b in fused.named_buffers()}
        opt_a = OPTIMIZERS[name](per_param.parameters())
        opt_b = OPTIMIZERS[name](arena.trainable)
        for _ in range(4):
            for (_, pa), (_, pb) in zip(
                per_param.named_parameters(), fused.named_parameters()
            ):
                # A gradient always has its parameter's (step) dtype.
                grad = rng.normal(size=pa.data.shape).astype(pa.data.dtype)
                pa.grad = grad.copy()
                pb.grad[...] = grad  # a view into arena.grad: write through
            opt_a.step()
            opt_b.step()
        for (key, pa), (_, pb) in zip(
            per_param.named_parameters(), fused.named_parameters()
        ):
            assert pa.data.tobytes() == pb.data.tobytes(), key
        for key, before in buffers.items():
            assert dict(fused.named_buffers())[key].tobytes() == before.tobytes(), key
        # ... and the fused moments are contiguous vectors over each run.
        for run, state in zip(arena.trainable, opt_b._state):
            assert all(s.shape == run.data.shape for s in state)

    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_reset_equals_a_fresh_optimizer(self, name, rng):
        def train(opt, p, grads):
            for g in grads:
                p.grad = g.copy()
                opt.step()
            return p.data.tobytes()

        grads = [rng.normal(size=6) for _ in range(5)]
        start = rng.normal(size=6)
        reused = Parameter(start.copy())
        opt = OPTIMIZERS[name]([reused])
        train(opt, reused, grads[::-1])  # dirty the moments and step count
        reused.data[...] = start
        opt.reset()
        fresh = Parameter(start.copy())
        assert train(opt, reused, grads) == train(OPTIMIZERS[name]([fresh]), fresh, grads)
