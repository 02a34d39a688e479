"""Augmentation pipeline tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.augment import (
    compose,
    cutout,
    gaussian_noise,
    random_crop,
    random_horizontal_flip,
)
from repro.errors import ConfigurationError, ShapeError


@pytest.fixture
def batch(rng) -> np.ndarray:
    return rng.normal(size=(8, 3, 6, 6))


class TestFlip:
    def test_always_flip(self, batch, rng):
        out = random_horizontal_flip(p=1.0)(batch, rng)
        np.testing.assert_array_equal(out, batch[:, :, :, ::-1])

    def test_never_flip(self, batch, rng):
        out = random_horizontal_flip(p=0.0)(batch, rng)
        np.testing.assert_array_equal(out, batch)

    def test_partial_flip(self, batch):
        rng = np.random.default_rng(0)
        out = random_horizontal_flip(p=0.5)(batch, rng)
        flipped = sum(
            np.array_equal(out[i], batch[i, :, :, ::-1]) for i in range(len(batch))
        )
        assert 0 < flipped < len(batch)

    def test_does_not_mutate_input(self, batch, rng):
        original = batch.copy()
        random_horizontal_flip(p=1.0)(batch, rng)
        np.testing.assert_array_equal(batch, original)

    def test_invalid_p(self):
        with pytest.raises(ConfigurationError):
            random_horizontal_flip(p=1.5)

    def test_rejects_non_nchw(self, rng):
        with pytest.raises(ShapeError):
            random_horizontal_flip()(np.zeros((3, 4)), rng)


class TestCrop:
    def test_shape_preserved(self, batch, rng):
        out = random_crop(padding=2)(batch, rng)
        assert out.shape == batch.shape

    def test_content_is_shifted_window(self, rng):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = random_crop(padding=1)(x, rng)
        # Every output value is either 0 (padding) or from the original.
        assert set(np.unique(out)) <= set(np.unique(x)) | {0.0}

    def test_offsets_vary(self):
        x = np.arange(36.0).reshape(1, 1, 6, 6).repeat(16, axis=0)
        rng = np.random.default_rng(1)
        out = random_crop(padding=1)(x, rng)
        distinct = {out[i].tobytes() for i in range(16)}
        assert len(distinct) > 1

    def test_invalid_padding(self):
        with pytest.raises(ConfigurationError):
            random_crop(padding=0)


class TestNoise:
    def test_changes_values(self, batch, rng):
        out = gaussian_noise(std=0.5)(batch, rng)
        assert not np.array_equal(out, batch)
        assert abs((out - batch).std() - 0.5) < 0.05

    def test_keeps_float32(self, batch):
        x = batch.astype(np.float32)
        out = gaussian_noise(std=0.5)(x, np.random.default_rng(3))
        assert out.dtype == np.float32
        noise = np.random.default_rng(3).normal(scale=0.5, size=x.shape)
        np.testing.assert_array_equal(out, x + noise.astype(np.float32))

    def test_float64_values_unchanged(self, batch):
        out = gaussian_noise(std=0.5)(batch, np.random.default_rng(3))
        noise = np.random.default_rng(3).normal(scale=0.5, size=batch.shape)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, batch + noise)

    def test_zero_std_identity_copy(self, batch, rng):
        out = gaussian_noise(std=0.0)(batch, rng)
        np.testing.assert_array_equal(out, batch)
        assert out is not batch

    def test_invalid_std(self):
        with pytest.raises(ConfigurationError):
            gaussian_noise(std=-1.0)


class TestCutout:
    def test_zeroes_square(self, rng):
        x = np.ones((4, 2, 6, 6))
        out = cutout(size=2)(x, rng)
        for i in range(4):
            assert (out[i] == 0).sum() == 2 * 2 * 2  # size^2 x channels

    def test_too_large_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            cutout(size=10)(np.ones((1, 1, 4, 4)), rng)

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            cutout(size=0)


class TestCompose:
    def test_chains_transforms(self, rng):
        x = np.ones((2, 1, 4, 4))
        pipeline = compose([cutout(size=1), gaussian_noise(std=0.0)])
        out = pipeline(x, rng)
        assert (out == 0).sum() == 2  # one zeroed pixel per image survives

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            compose([])

    def test_deterministic_given_rng(self, batch):
        pipeline = compose([random_horizontal_flip(), random_crop(), cutout()])
        a = pipeline(batch, np.random.default_rng(5))
        b = pipeline(batch, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)
