"""Optimizers.

The paper's clients train with **Adam at a constant learning rate of 0.001,
no momentum tweaks, no weight decay** (§IV-A); plain SGD is the
comparison workhorse and the single-instance baseline's optimizer option.
All updates are in place on the parameter buffers — the parameter arrays
keep their identity, which matters because model state dicts alias them.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigurationError
from .serialization import BLOCK_SIZE
from .tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer over an explicit parameter list.

    A "parameter" is any tensor with ``data`` and ``grad`` arrays — a
    layer's :class:`~repro.nn.layers.Parameter`, or a whole run of a
    :class:`~repro.nn.serialization.ParameterArena` (``arena.trainable``),
    in which case one :meth:`_update` call covers every parameter in the
    run and the moments are contiguous vectors.  The update arithmetic is
    elementwise, so both give bit-identical parameters.

    Moments are full-size; scratch is at most one block of the last axis
    (:data:`~repro.nn.serialization.BLOCK_SIZE` columns), and every
    update walks the last axis block by block with the same ops in the
    same order per element (one pass when it fits in one block).
    """

    #: Scratch buffers :meth:`_update` writes its intermediates into.
    scratch_buffers = 1

    def __init__(self, parameters: Iterable[Tensor], lr: float) -> None:
        self.parameters: Sequence[Tensor] = list(parameters)
        if not self.parameters:
            raise ConfigurationError("optimizer got an empty parameter list")
        if not 0.0 < lr < math.inf:
            raise ConfigurationError(
                f"learning rate must be positive and finite, got {lr}"
            )
        # A Python float multiplies in the parameters' own dtype under both
        # NumPy 1.x and 2.x promotion; a NumPy scalar would widen a float32
        # update under NumPy 2 only.
        self.lr = float(lr)
        self.step_count = 0
        # Per-parameter moments, allocated at the parameter's first update
        # and reused for the optimizer's lifetime, and the same moments and
        # scratch cut into per-block views once, so a step slices only the
        # parameter's own data and grad.
        self._state: list[tuple[np.ndarray, ...] | None] = [None] * len(
            self.parameters
        )
        self._blocks: list[list[tuple] | None] = [None] * len(self.parameters)

    def zero_grad(self) -> None:
        """Clear gradients on every managed parameter."""
        for p in self.parameters:
            p.zero_grad()

    def reset(self) -> None:
        """Return to step 0 with zeroed moments, keeping the allocations —
        indistinguishable from a freshly constructed optimizer (scratch is
        always written before it is read)."""
        self.step_count = 0
        for state in self._state:
            for array in state or ():
                array.fill(0.0)

    def step(self) -> None:
        """Apply one update using the gradients currently stored on params."""
        lr = self.lr
        self.step_count += 1
        for i, p in enumerate(self.parameters):
            if p.grad is None:
                continue
            blocks = self._blocks[i]
            if blocks is None:
                blocks = self._blocks[i] = self._allocate(i, p.data)
            for cols, state, scratch in blocks:
                self._update(p.data[..., cols], p.grad[..., cols], state, scratch, lr)

    def _allocate(self, i: int, data: np.ndarray) -> list[tuple]:
        """Allocate parameter ``i``'s moments (full-size) and scratch (one
        block of columns); return ``(cols, moments, scratch)`` views per
        block of the last axis."""
        width = data.shape[-1]
        state = self._state[i] = self._new_state(data)
        scratch = tuple(
            np.empty(data.shape[:-1] + (min(width, BLOCK_SIZE),), dtype=data.dtype)
            for _ in range(self.scratch_buffers)
        )
        blocks = []
        for lo in range(0, width, BLOCK_SIZE):
            cols = slice(lo, lo + BLOCK_SIZE)
            part = slice(0, min(BLOCK_SIZE, width - lo))
            blocks.append(
                (
                    cols,
                    tuple(m[..., cols] for m in state),
                    tuple(s[..., part] for s in scratch),
                )
            )
        return blocks

    def _new_state(self, data: np.ndarray) -> tuple[np.ndarray, ...]:  # pragma: no cover
        raise NotImplementedError

    def _update(
        self,
        data: np.ndarray,
        grad: np.ndarray,
        state: tuple[np.ndarray, ...],
        scratch: tuple[np.ndarray, ...],
        lr: float,
    ) -> None:  # pragma: no cover
        raise NotImplementedError


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 0.01) -> None:
        super().__init__(parameters, lr)

    def _new_state(self, data: np.ndarray) -> tuple[np.ndarray, ...]:
        return ()

    def _update(self, data, grad, state, scratch, lr) -> None:
        (s,) = scratch
        # lr*grad lands in scratch instead of a fresh temporary; same
        # multiply, same subtract, bit-identical result.
        np.multiply(grad, lr, out=s)
        data -= s


class Adam(Optimizer):
    """Adam (Kingma & Ba) — the paper's client-side optimizer, at Keras's
    default betas and epsilon."""

    scratch_buffers = 2
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, parameters: Iterable[Tensor], lr: float = 0.001) -> None:
        super().__init__(parameters, lr)

    def _new_state(self, data: np.ndarray) -> tuple[np.ndarray, ...]:
        # First and second moment.
        return (np.zeros_like(data), np.zeros_like(data))

    def _update(self, data, grad, state, scratch, lr) -> None:
        """One Adam step, fully in place.

        Every intermediate lands in one of the two scratch buffers instead
        of a fresh temporary (the historical expression allocated eight).
        The operations and their order are unchanged, so the updates are
        bit-identical to the allocating form.
        """
        m, v = state
        s1, s2 = scratch
        t = self.step_count  # step() already incremented: t >= 1
        m *= self.BETA1
        np.multiply(grad, 1 - self.BETA1, out=s1)  # (1-beta1)*grad
        m += s1
        v *= self.BETA2
        np.multiply(grad, 1 - self.BETA2, out=s1)  # ((1-beta2)*grad)*grad
        s1 *= grad
        v += s1
        np.divide(m, 1 - self.BETA1**t, out=s1)  # m_hat
        np.divide(v, 1 - self.BETA2**t, out=s2)  # v_hat
        np.sqrt(s2, out=s2)
        s2 += self.EPS
        s1 *= lr  # (lr*m_hat) / (sqrt(v_hat)+eps)
        s1 /= s2
        data -= s1
