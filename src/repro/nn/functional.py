"""Differentiable functions on :class:`~repro.nn.tensor.Tensor`.

Everything here follows the same pattern as the arithmetic ops on
``Tensor``: compute the forward value with vectorized NumPy, close over the
inputs, and register an adjoint via ``Tensor._make``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor

__all__ = [
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softmax",
    "dropout",
    "pad2d",
]


# A *kernel* is the tape-free form of a unary op: ``kernel(x)`` maps an
# ndarray to ``(out, pull)`` where ``pull(g)`` is the input gradient for an
# output gradient ``g``.  The Tensor functions below record exactly that
# pair on the tape; the compiled step programs of :mod:`repro.nn.cohort`
# call the same kernels directly, so each op's arithmetic exists once.
Pull = Callable[[np.ndarray], np.ndarray]
Kernel = Callable[[np.ndarray], "tuple[np.ndarray, Pull]"]


def apply_kernel(x: Tensor, kernel: Kernel) -> Tensor:
    """Run ``kernel`` on ``x`` and record its pull as the tape adjoint."""
    out, pull = kernel(x.data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(pull(g))

    return Tensor._make(out, (x,), backward)


def relu_kernel(x: np.ndarray):
    # Bitwise equal to ``np.where(x > 0, x, 0.0)`` at a fraction of the
    # cost of a data-dependent masked select: ``fmax`` maps NaN and every
    # non-positive value to 0.0, and the ``+ 0.0`` turns the -0.0 that
    # ``fmax(-0.0, 0.0)`` may return into +0.0 (DESIGN.md §8.2).
    mask = x > 0
    out = np.fmax(x, 0.0)
    out += 0.0
    return out, lambda g: g * mask


def leaky_relu_kernel(x: np.ndarray, negative_slope: float = 0.01):
    one, slope = x.dtype.type(1.0), x.dtype.type(negative_slope)
    scale = np.where(x > 0, one, slope)
    return x * scale, lambda g: g * scale


def sigmoid_kernel(x: np.ndarray):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out, lambda g: g * out * (1.0 - out)


def tanh_kernel(x: np.ndarray):
    out = np.tanh(x)
    return out, lambda g: g * (1.0 - out * out)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, ``max(x, 0)``."""
    return apply_kernel(x, relu_kernel)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU: identity for positive inputs, scaled for negative."""
    return apply_kernel(x, lambda data: leaky_relu_kernel(data, negative_slope))


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic sigmoid."""
    return apply_kernel(x, sigmoid_kernel)


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return apply_kernel(x, tanh_kernel)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (stable, subtracts the max)."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            dot = (g * out).sum(axis=axis, keepdims=True)
            x._accumulate(out * (g - dot))

    return Tensor._make(out, (x,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero with probability ``p``, scale by ``1/(1-p)``.

    The paper deliberately trains *without* dropout (§IV-A); we provide it
    for completeness and ablations.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * keep)

    return Tensor._make(x.data * keep, (x,), backward)


def pad2d(x: Tensor, pad: int) -> Tensor:
    """Zero-pad the trailing two (spatial) axes of an NCHW tensor."""
    if pad == 0:
        return x
    if x.ndim != 4:
        raise ShapeError(f"pad2d expects NCHW input, got ndim={x.ndim}")
    width = ((0, 0), (0, 0), (pad, pad), (pad, pad))

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g[:, :, pad:-pad, pad:-pad])

    return Tensor._make(np.pad(x.data, width), (x,), backward)
