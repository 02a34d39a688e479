"""Reverse-mode automatic differentiation on NumPy arrays.

This is the foundation of the :mod:`repro.nn` deep-learning substrate.  The
paper trained its models with TensorFlow; no deep-learning framework is
available in this environment, so we implement the minimum viable production
engine: a :class:`Tensor` wrapping an ``ndarray`` plus a dynamically built
tape of :class:`Op` nodes, walked in reverse topological order by
:meth:`Tensor.backward`.

Design notes (following the HPC guides):

* all array math is vectorized NumPy; the graph bookkeeping is O(#ops), not
  O(#elements);
* gradients accumulate **in place** (``+=``) into pre-allocated buffers;
* broadcasting in forward ops is undone in backward via
  :func:`unbroadcast`, so arbitrary NumPy-style broadcasting is supported.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import GradientError

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "unbroadcast"]


class _GradMode(threading.local):
    """Per-thread grad switch: a ``no_grad`` block on one thread (say, a
    validation pass) must not strip the tape from another's training."""

    enabled = True


_grad_mode = _GradMode()


class no_grad:
    """Context manager disabling graph construction (inference mode) on the
    calling thread."""

    def __enter__(self) -> "no_grad":
        self._prev = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc: object) -> None:
        _grad_mode.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether new ops on this thread record themselves on the
    autograd tape."""
    return _grad_mode.enabled


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches the pre-broadcast ``shape``.

    NumPy broadcasting may have (a) prepended axes and (b) stretched
    length-1 axes; the adjoint of broadcasting is summation over exactly
    those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched length-1 axes, keeping dims.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """An ``ndarray`` with optional gradient tracking.

    Parameters
    ----------
    data:
        Anything convertible to a float64/float32 array.  Arrays are used
        as-is (no copy) when their dtype is already floating.
    requires_grad:
        Whether to allocate a ``.grad`` buffer and participate in backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: np.ndarray | float | int | Sequence,
        requires_grad: bool = False,
        name: str | None = None,
    ) -> None:
        if isinstance(data, Tensor):  # pragma: no cover - defensive
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind != "f":  # anything but a real floating dtype
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad: bool = bool(requires_grad) and _grad_mode.enabled
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"

    def item(self) -> float:
        """The value of a scalar tensor as a Python float."""
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut off from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result node, recording the tape edge when grad is on."""
        parents = tuple(parents)
        out = Tensor(data)
        if _grad_mode.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def zero_grad(self) -> None:
        """Reset the gradient buffer (keeps the allocation when possible)."""
        if self.grad is not None:
            self.grad.fill(0.0)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        ``grad`` defaults to 1 for scalar outputs (the usual loss case).
        """
        if not self.requires_grad:
            raise GradientError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise GradientError(
                    "backward() without an explicit gradient requires a scalar "
                    f"output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise GradientError(
                f"gradient shape {grad.shape} does not match output {self.shape}"
            )

        order = _topological_order(self)
        self._accumulate(grad)
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic — each op closes over its inputs and defines its adjoint.
    # ------------------------------------------------------------------
    def _coerce(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(unbroadcast(g, b.shape))

        return Tensor._make(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(-g)

        return Tensor._make(-a.data, (a,), backward)

    def __sub__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(unbroadcast(g * a.data, b.shape))

        return Tensor._make(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(unbroadcast(g / b.data, a.shape))
            if b.requires_grad:
                b._accumulate(unbroadcast(-g * a.data / (b.data * b.data), b.shape))

        return Tensor._make(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other: "Tensor | float | int | np.ndarray") -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor ** only supports scalar exponents")
        a = self
        out_data = a.data**exponent

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(g * exponent * a.data ** (exponent - 1))

        return Tensor._make(out_data, (a,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                ga = g @ b.data.swapaxes(-1, -2)
                a._accumulate(unbroadcast(ga, a.shape))
            if b.requires_grad:
                gb = a.data.swapaxes(-1, -2) @ g
                b._accumulate(unbroadcast(gb, b.shape))

        return Tensor._make(a.data @ b.data, (a, b), backward)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """View with a new shape; gradient reshapes back."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old_shape = a.data.shape

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(g.reshape(old_shape))

        return Tensor._make(a.data.reshape(shape), (a,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        """Permute axes (reversed order by default); adjoint un-permutes."""
        a = self
        if not axes:
            axes = tuple(reversed(range(a.ndim)))
        inverse = np.argsort(axes)

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(g.transpose(inverse))

        return Tensor._make(a.data.transpose(axes), (a,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes by default); adjoint broadcasts."""
        a = self

        def backward(g: np.ndarray) -> None:
            if not a.requires_grad:
                return
            grad = g
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            a._accumulate(np.broadcast_to(grad, a.shape).copy())

        return Tensor._make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis`` (sum scaled by 1/count)."""
        a = self
        if axis is None:
            count = a.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([a.shape[ax] for ax in axes]))
        return a.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def __getitem__(self, idx: object) -> "Tensor":
        a = self

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                full = np.zeros_like(a.data)
                np.add.at(full, idx, g)
                a._accumulate(full)

        return Tensor._make(a.data[idx], (a,), backward)

    # Comparisons return plain bool arrays (no gradient flows through them).
    def __gt__(self, other: "Tensor | float") -> np.ndarray:
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data > other_data

    def __lt__(self, other: "Tensor | float") -> np.ndarray:
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data < other_data


def _topological_order(root: Tensor) -> list[Tensor]:
    """Return tape nodes reachable from ``root`` in reverse-topological order.

    Iterative DFS (deep graphs — e.g. hundreds of residual layers — would
    overflow the recursion limit with a recursive walk).
    """
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order
