"""Initializer statistics and metric correctness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn.initializers import (
    get_initializer,
    glorot_normal,
    glorot_uniform,
    he_normal,
    he_uniform,
    ones,
    zeros,
)
from repro.nn.metrics import accuracy, evaluate_classifier
from repro.nn.models import make_mlp
from repro.nn.tensor import Tensor


class TestInitializers:
    def test_he_normal_std(self, rng):
        w = he_normal((1000, 50), rng)
        assert abs(w.std() - np.sqrt(2.0 / 1000)) < 0.005

    def test_he_normal_conv_fans(self, rng):
        # OIHW (16, 8, 3, 3): fan_in = 8*9 = 72.
        w = he_normal((16, 8, 3, 3), rng)
        assert abs(w.std() - np.sqrt(2.0 / 72)) < 0.02

    def test_he_uniform_bounds(self, rng):
        w = he_uniform((100, 100), rng)
        limit = np.sqrt(6.0 / 100)
        assert np.abs(w).max() <= limit

    def test_glorot_normal_std(self, rng):
        w = glorot_normal((400, 600), rng)
        assert abs(w.std() - np.sqrt(2.0 / 1000)) < 0.005

    def test_glorot_uniform_bounds(self, rng):
        w = glorot_uniform((50, 50), rng)
        assert np.abs(w).max() <= np.sqrt(6.0 / 100)

    def test_zeros_ones(self, rng):
        np.testing.assert_array_equal(zeros((3, 3), rng), 0.0)
        np.testing.assert_array_equal(ones((3, 3), rng), 1.0)

    def test_registry_lookup(self):
        assert get_initializer("he_normal") is he_normal

    def test_registry_unknown(self):
        with pytest.raises(ConfigurationError):
            get_initializer("xavier_magic")

    def test_deterministic_given_rng(self):
        a = he_normal((4, 4), np.random.default_rng(3))
        b = he_normal((4, 4), np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_bias_shape_fans(self, rng):
        w = he_normal((64,), rng)
        assert w.shape == (64,)


class TestMetrics:
    def test_accuracy_basic(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 1.0], [0.0, 1.0]])
        labels = np.array([0, 1, 1, 1])
        assert accuracy(logits, labels) == pytest.approx(0.75)

    def test_accuracy_accepts_tensor(self):
        logits = Tensor(np.array([[1.0, 0.0]]))
        assert accuracy(logits, np.array([0])) == 1.0

    def test_accuracy_shape_check(self):
        with pytest.raises(ShapeError):
            accuracy(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_evaluate_classifier_restores_training_mode(self, rng):
        model = make_mlp(rng, in_features=4, hidden=(4,), num_classes=2)
        model.train()
        x = rng.normal(size=(10, 4))
        y = rng.integers(0, 2, size=10)
        evaluate_classifier(model, x, y)
        assert model.training

    def test_evaluate_classifier_batches_consistent(self, rng):
        model = make_mlp(rng, in_features=4, hidden=(4,), num_classes=2)
        x = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, size=50)
        loss_a, acc_a = evaluate_classifier(model, x, y, batch_size=7)
        loss_b, acc_b = evaluate_classifier(model, x, y, batch_size=50)
        assert loss_a == pytest.approx(loss_b)
        assert acc_a == pytest.approx(acc_b)
        assert acc_b == accuracy(model(Tensor(x)), y)
