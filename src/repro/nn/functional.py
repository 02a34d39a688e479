"""Differentiable functions on :class:`~repro.nn.tensor.Tensor`.

Everything here follows the same pattern as the arithmetic ops on
``Tensor``: compute the forward value with vectorized NumPy, close over the
inputs, and register an adjoint via ``Tensor._make``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor, unbroadcast

__all__ = [
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "exp",
    "log",
    "sqrt",
    "abs",
    "clip",
    "maximum",
    "softmax",
    "log_softmax",
    "dropout",
    "concatenate",
    "stack",
    "pad2d",
    "embedding_lookup",
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


def exp(x: Tensor) -> Tensor:
    """Elementwise exponential."""
    out = np.exp(x.data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * out)

    return Tensor._make(out, (x,), backward)


def log(x: Tensor) -> Tensor:
    """Natural logarithm."""

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g / x.data)

    return Tensor._make(np.log(x.data), (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root."""
    out = np.sqrt(x.data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * 0.5 / out)

    return Tensor._make(out, (x,), backward)


def abs(x: Tensor) -> Tensor:  # noqa: A001 - mirrors numpy naming
    """Elementwise absolute value (subgradient sign(x))."""
    sign = np.sign(x.data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * sign)

    return Tensor._make(np.abs(x.data), (x,), backward)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to ``[lo, hi]``; gradient is zero outside the interval."""
    mask = (x.data >= lo) & (x.data <= hi)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * mask)

    return Tensor._make(np.clip(x.data, lo, hi), (x,), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum; ties send the gradient to the first argument."""
    take_a = a.data >= b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(g * take_a, a.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(g * ~take_a, b.shape))

    return Tensor._make(np.maximum(a.data, b.data), (a, b), backward)


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))


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


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` (stable log-sum-exp formulation)."""
    out = x.data - _logsumexp(x.data, axis)
    soft = np.exp(out)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

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


def concatenate(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``; backward splits the gradient."""
    if not tensors:
        raise ShapeError("concatenate() of an empty list")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx: list[slice] = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    if not tensors:
        raise ShapeError("stack() of an empty list")

    def backward(g: np.ndarray) -> None:
        slabs = np.moveaxis(g, axis, 0)
        for t, slab in zip(tensors, slabs):
            if t.requires_grad:
                t._accumulate(slab)

    data = np.stack([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tuple(tensors), backward)


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


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``table[indices]`` with scatter-add backward.

    Provided for the NLP-flavoured workloads the paper lists as future work
    (§V); exercised by the time-series/NLP example.
    """
    indices = np.asarray(indices)

    def backward(g: np.ndarray) -> None:
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, indices, g)
            table._accumulate(full)

    return Tensor._make(table.data[indices], (table,), backward)
