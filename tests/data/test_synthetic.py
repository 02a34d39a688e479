"""Synthetic dataset generator tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SyntheticImageConfig, make_classification_splits, make_synthetic_images
from repro.errors import ConfigurationError
from repro.nn import Adam, Tensor, cross_entropy, make_mlp

from .reference_loader import BatchLoader


class TestConfig:
    def test_defaults_valid(self):
        cfg = SyntheticImageConfig()
        assert cfg.num_features == 3 * 8 * 8

    def test_invalid_classes(self):
        with pytest.raises(ConfigurationError):
            SyntheticImageConfig(num_classes=1)

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError):
            SyntheticImageConfig(image_size=1)

    def test_negative_noise(self):
        with pytest.raises(ConfigurationError):
            SyntheticImageConfig(noise_std=-0.1)

    def test_nan_noise(self):
        with pytest.raises(ConfigurationError):
            SyntheticImageConfig(noise_std=float("nan"))


class TestGeneration:
    def test_shapes(self, rng):
        cfg = SyntheticImageConfig(image_size=6, channels=2, num_classes=4)
        x, y = make_synthetic_images(40, cfg, rng)
        assert x.shape == (40, 2, 6, 6)
        assert y.shape == (40,)

    def test_flat_output(self, rng):
        cfg = SyntheticImageConfig(image_size=6, channels=2)
        x, _ = make_synthetic_images(10, cfg, rng, flat=True)
        assert x.shape == (10, 72)

    def test_labels_balanced(self, rng):
        cfg = SyntheticImageConfig(num_classes=5)
        _, y = make_synthetic_images(100, cfg, rng)
        counts = np.bincount(y)
        assert max(counts) - min(counts) <= 1

    def test_deterministic(self):
        cfg = SyntheticImageConfig()
        x1, y1 = make_synthetic_images(20, cfg, np.random.default_rng(9))
        x2, y2 = make_synthetic_images(20, cfg, np.random.default_rng(9))
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_nonpositive_samples(self, rng):
        with pytest.raises(ConfigurationError):
            make_synthetic_images(0, SyntheticImageConfig(), rng)

    def test_class_structure_exists(self, rng):
        """Images of the same class are more similar than across classes
        at low noise — the signal a classifier learns."""
        cfg = SyntheticImageConfig(noise_std=0.1)
        x, y = make_synthetic_images(200, cfg, rng, flat=True)
        centroids = np.stack([x[y == c].mean(axis=0) for c in range(cfg.num_classes)])
        within = np.mean(
            [np.linalg.norm(x[y == c] - centroids[c], axis=1).mean() for c in range(10)]
        )
        across = np.mean(
            [
                np.linalg.norm(centroids[c] - centroids[(c + 1) % 10])
                for c in range(10)
            ]
        )
        assert across > within


class TestSplits:
    def test_split_sizes(self, rng):
        cfg = SyntheticImageConfig()
        train, val, test = make_classification_splits(
            cfg, rng, num_train=100, num_val=30, num_test=20, flat=True
        )
        assert (len(train), len(val), len(test)) == (100, 30, 20)
        assert train.name == "train" and val.name == "val" and test.name == "test"

    def test_task_is_learnable(self, rng):
        """A small MLP must beat chance comfortably — guards against a
        generator regression that silently breaks every experiment."""
        cfg = SyntheticImageConfig(noise_std=1.5)
        train, val, _ = make_classification_splits(
            cfg, rng, num_train=600, num_val=200, num_test=10, flat=True
        )
        model = make_mlp(
            np.random.default_rng(0), in_features=cfg.num_features, hidden=(32,)
        )
        opt = Adam(model.parameters(), lr=0.003)
        loader = BatchLoader(train, 32, rng=np.random.default_rng(1))
        for _ in range(6):
            for xb, yb in loader:
                model.zero_grad()
                cross_entropy(model(Tensor(xb)), yb).backward()
                opt.step()
        logits = model(Tensor(val.x))
        acc = float((logits.data.argmax(axis=1) == val.y).mean())
        assert acc > 0.5  # chance is 0.1

    def test_task_not_trivially_saturated(self, rng):
        """At the default noise the task must retain headroom (accuracy
        dynamics over 40 epochs are the object of study)."""
        cfg = SyntheticImageConfig()
        train, val, _ = make_classification_splits(
            cfg, rng, num_train=400, num_val=200, num_test=10, flat=True
        )
        model = make_mlp(
            np.random.default_rng(0), in_features=cfg.num_features, hidden=(32,)
        )
        opt = Adam(model.parameters(), lr=0.003)
        loader = BatchLoader(train, 32, rng=np.random.default_rng(1))
        for xb, yb in loader:  # exactly one epoch
            model.zero_grad()
            cross_entropy(model(Tensor(xb)), yb).backward()
            opt.step()
        logits = model(Tensor(val.x))
        acc = float((logits.data.argmax(axis=1) == val.y).mean())
        assert acc < 0.75
