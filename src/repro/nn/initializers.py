"""Weight initializers.

The paper initializes the ResNetV2 parameters with a **He-normal**
initializer (§IV-A); we implement that plus the other common schemes so the
substrate is usable beyond the single reproduced configuration.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "Initializer",
    "he_normal",
    "he_uniform",
    "glorot_normal",
    "glorot_uniform",
    "zeros",
    "ones",
    "get_initializer",
]

Initializer = Callable[[tuple[int, ...], np.random.Generator], np.ndarray]


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for dense and convolutional weights.

    Dense weights are (in, out); conv weights are OIHW, where the receptive
    field multiplies both fans.
    """
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive


def he_normal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He-normal: N(0, sqrt(2 / fan_in)) — the paper's initializer."""
    fan_in, _ = _fans(shape)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def he_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He-uniform: U(±sqrt(6 / fan_in))."""
    fan_in, _ = _fans(shape)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def glorot_normal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier normal: N(0, sqrt(2 / (fan_in + fan_out)))."""
    fan_in, fan_out = _fans(shape)
    return rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), size=shape)


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform: U(±sqrt(6 / (fan_in + fan_out)))."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def zeros(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """All-zeros (the bias default)."""
    return np.zeros(shape)


def ones(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """All-ones (batch-norm gain default)."""
    return np.ones(shape)


_REGISTRY: dict[str, Initializer] = {
    "he_normal": he_normal,
    "he_uniform": he_uniform,
    "glorot_normal": glorot_normal,
    "glorot_uniform": glorot_uniform,
    "zeros": zeros,
    "ones": ones,
}


def get_initializer(name: str) -> Initializer:
    """Look up an initializer by name (as model configs reference them)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown initializer {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
