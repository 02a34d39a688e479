"""Loss function tests."""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn.functional as F
from repro.errors import ShapeError
from repro.nn.losses import cross_entropy
from repro.nn.tensor import Tensor

from ..conftest import numerical_gradient


class TestCrossEntropy:
    def test_uniform_logits_give_log_classes(self):
        logits = Tensor(np.zeros((4, 10)))
        loss = cross_entropy(logits, np.zeros(4, dtype=int))
        assert loss.item() == pytest.approx(np.log(10))

    def test_perfect_prediction_near_zero(self):
        logits = np.full((3, 5), -50.0)
        logits[np.arange(3), [0, 1, 2]] = 50.0
        loss = cross_entropy(Tensor(logits), np.array([0, 1, 2]))
        assert loss.item() < 1e-8

    def test_gradient_matches_numeric(self, rng):
        y = np.array([0, 2, 1, 2])
        x_data = rng.normal(size=(4, 3))

        def loss(t: Tensor) -> Tensor:
            return cross_entropy(t, y)

        x = Tensor(x_data.copy(), requires_grad=True)
        loss(x).backward()
        numeric = numerical_gradient(lambda: loss(Tensor(x.data)).item(), x.data)
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-6, atol=1e-7)

    def test_gradient_closed_form(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        y = np.array([1, 0])
        cross_entropy(x, y).backward()
        # grad = (softmax - onehot)/N
        soft = F.softmax(Tensor(x.data)).data
        soft[np.arange(2), y] -= 1
        np.testing.assert_allclose(x.grad, soft / 2, rtol=1e-9)

    def test_stable_for_large_logits(self):
        logits = Tensor(np.array([[1e4, -1e4]]), requires_grad=True)
        loss = cross_entropy(logits, np.array([1]))
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.isfinite(logits.grad).all()

    def test_shape_validation(self, rng):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(rng.normal(size=(4,))), np.zeros(4, dtype=int))
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(rng.normal(size=(4, 3))), np.zeros(5, dtype=int))

    def test_label_range_validation(self, rng):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(rng.normal(size=(2, 3))), np.array([0, 3]))
