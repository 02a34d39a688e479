"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import Dataset, SyntheticImageConfig, make_classification_splits
from repro.simulation import Simulator, Trace


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def trace() -> Trace:
    return Trace()


@pytest.fixture
def tiny_splits(rng) -> tuple[Dataset, Dataset, Dataset]:
    """Small train/val/test splits for fast end-to-end tests."""
    cfg = SyntheticImageConfig(image_size=4, num_classes=4, noise_std=1.0)
    return make_classification_splits(
        cfg, rng, num_train=160, num_val=48, num_test=48, flat=True
    )


def in_float64(module):
    """``module`` with every parameter and buffer re-homed in a float64 copy.

    Layers build their state in the float32 step dtype; a central difference
    at ``eps=1e-6`` is below float32 resolution, so gradient checks widen the
    model first and then compare at float64 precision.
    """
    for p in module._parameters.values():
        p.data, p.grad = p.data.astype(np.float64), None
    for name, buffer in module._buffers.items():
        module.register_buffer(name, buffer.astype(np.float64))
    for child in module._modules.values():
        in_float64(child)
    return module


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad
