"""Image augmentations for NCHW batches.

The paper deliberately trains *without* regularization to keep the strategy
comparison clean (§IV-A); augmentation is provided for the ablations that
ask how much that choice matters, and for downstream users of the
substrate.  All transforms are vectorized over the batch and driven by an
explicit RNG (reproducible pipelines).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigurationError, ShapeError

__all__ = [
    "random_horizontal_flip",
    "random_crop",
    "gaussian_noise",
    "cutout",
    "compose",
]

Augmentation = Callable[[np.ndarray, np.random.Generator], np.ndarray]


def _check_nchw(x: np.ndarray) -> None:
    if x.ndim != 4:
        raise ShapeError(f"augmentations expect NCHW batches, got ndim={x.ndim}")


def random_horizontal_flip(p: float = 0.5) -> Augmentation:
    """Flip each image left-right with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0, 1], got {p}")

    def apply(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        _check_nchw(x)
        out = x.copy()
        mask = rng.random(len(x)) < p
        out[mask] = out[mask, :, :, ::-1]
        return out

    return apply


def random_crop(padding: int = 1) -> Augmentation:
    """Zero-pad by ``padding`` then crop back at a random offset per image
    (the standard CIFAR augmentation)."""
    if padding < 1:
        raise ConfigurationError("padding must be >= 1")

    def apply(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        _check_nchw(x)
        n, c, h, w = x.shape
        padded = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding))
        )
        out = np.empty_like(x)
        offsets_y = rng.integers(0, 2 * padding + 1, size=n)
        offsets_x = rng.integers(0, 2 * padding + 1, size=n)
        for i in range(n):  # offsets differ per image; loop is over N only
            oy, ox = offsets_y[i], offsets_x[i]
            out[i] = padded[i, :, oy : oy + h, ox : ox + w]
        return out

    return apply


def gaussian_noise(std: float = 0.1) -> Augmentation:
    """Additive white noise, added in the batch's (floating) dtype."""
    if std < 0:
        raise ConfigurationError("std must be non-negative")

    def apply(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        _check_nchw(x)
        if std == 0.0:
            return x.copy()
        return np.add(x, rng.normal(scale=std, size=x.shape), dtype=x.dtype)

    return apply


def cutout(size: int = 2) -> Augmentation:
    """Zero a random ``size``×``size`` square per image (DeVries & Taylor)."""
    if size < 1:
        raise ConfigurationError("size must be >= 1")

    def apply(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        _check_nchw(x)
        n, c, h, w = x.shape
        if size > min(h, w):
            raise ConfigurationError(f"cutout size {size} exceeds image {h}x{w}")
        out = x.copy()
        ys = rng.integers(0, h - size + 1, size=n)
        xs = rng.integers(0, w - size + 1, size=n)
        for i in range(n):
            out[i, :, ys[i] : ys[i] + size, xs[i] : xs[i] + size] = 0.0
        return out

    return apply


def compose(transforms: Sequence[Augmentation]) -> Augmentation:
    """Chain augmentations left to right."""
    if not transforms:
        raise ConfigurationError("compose() of an empty list")

    def apply(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        for transform in transforms:
            x = transform(x, rng)
        return x

    return apply
