"""Optimizers and learning-rate schedules.

The paper's clients train with **Adam at a constant learning rate of 0.001,
no momentum tweaks, no weight decay** (§IV-A); plain SGD (with optional
momentum) is the comparison workhorse and the single-instance baseline's
optimizer option.  All updates are in place on the parameter buffers — the
parameter arrays keep their identity, which matters because model state
dicts alias them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigurationError
from .serialization import BLOCK_SIZE
from .tensor import Tensor

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "LRSchedule",
    "ConstantLR",
    "StepDecayLR",
    "CosineLR",
    "WarmupLR",
    "clip_grad_norm",
]


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most
    ``max_norm``; returns the pre-clip norm.

    Standard protection for recurrent models (exploding BPTT gradients);
    parameters without gradients are skipped.
    """
    if max_norm <= 0:
        raise ConfigurationError(f"max_norm must be positive, got {max_norm}")
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads:
            g *= scale
    return total


class LRSchedule:
    """Maps a step index to a learning rate."""

    def lr_at(self, step: int) -> float:  # pragma: no cover - abstract
        """Learning rate at the given 0-based step."""
        raise NotImplementedError


class ConstantLR(LRSchedule):
    """The paper's setting: constant learning rate (0.001 for Adam)."""

    def __init__(self, lr: float) -> None:
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def lr_at(self, step: int) -> float:
        return self.lr


class StepDecayLR(LRSchedule):
    """Multiply the rate by ``gamma`` every ``step_size`` steps."""

    def __init__(self, lr: float, step_size: int, gamma: float = 0.1) -> None:
        if step_size <= 0:
            raise ConfigurationError("step_size must be positive")
        self.lr = lr
        self.step_size = step_size
        self.gamma = gamma

    def lr_at(self, step: int) -> float:
        return self.lr * self.gamma ** (step // self.step_size)


class CosineLR(LRSchedule):
    """Cosine annealing from ``lr`` to ``min_lr`` over ``total_steps``."""

    def __init__(self, lr: float, total_steps: int, min_lr: float = 0.0) -> None:
        if total_steps <= 0:
            raise ConfigurationError("total_steps must be positive")
        self.lr = lr
        self.total_steps = total_steps
        self.min_lr = min_lr

    def lr_at(self, step: int) -> float:
        frac = min(step, self.total_steps) / self.total_steps
        return self.min_lr + 0.5 * (self.lr - self.min_lr) * (1 + np.cos(np.pi * frac))


class WarmupLR(LRSchedule):
    """Linear warmup to a base schedule's rate over ``warmup_steps``.

    Useful when distributed merging starts from aggressive client updates;
    wraps any other schedule.
    """

    def __init__(self, base: LRSchedule, warmup_steps: int) -> None:
        if warmup_steps < 1:
            raise ConfigurationError("warmup_steps must be >= 1")
        self.base = base
        self.warmup_steps = warmup_steps

    def lr_at(self, step: int) -> float:
        target = self.base.lr_at(step)
        if step >= self.warmup_steps:
            return target
        return target * (step + 1) / self.warmup_steps


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

    def __init__(self, parameters: Iterable[Tensor], schedule: LRSchedule) -> None:
        self.parameters: Sequence[Tensor] = list(parameters)
        if not self.parameters:
            raise ConfigurationError("optimizer got an empty parameter list")
        self.schedule = schedule
        self.step_count = 0
        # Per-parameter moments, allocated at the parameter's first update
        # and reused for the optimizer's lifetime, and the same moments and
        # scratch cut into per-block views once, so a step slices only the
        # parameter's own data and grad.
        self._state: list[tuple[np.ndarray, ...] | None] = [None] * len(
            self.parameters
        )
        self._blocks: list[list[tuple] | None] = [None] * len(self.parameters)

    @property
    def lr(self) -> float:
        # A Python float multiplies in the parameters' own dtype under both
        # NumPy 1.x and 2.x promotion; a NumPy scalar (a schedule's
        # ``np.cos``) would widen a float32 update under NumPy 2 only.
        return float(self.schedule.lr_at(self.step_count))

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
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float | LRSchedule = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        schedule = lr if isinstance(lr, LRSchedule) else ConstantLR(lr)
        super().__init__(parameters, schedule)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay

    def _new_state(self, data: np.ndarray) -> tuple[np.ndarray, ...]:
        return (np.zeros_like(data),) if self.momentum else ()

    def _update(self, data, grad, state, scratch, lr) -> None:
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        (s,) = scratch
        # lr*grad lands in scratch instead of a fresh temporary; same
        # multiply, same subtract, bit-identical result.
        np.multiply(grad, lr, out=s)
        if self.momentum:
            (v,) = state
            v *= self.momentum
            v -= s
            data += v
        else:
            data -= s


class Adam(Optimizer):
    """Adam (Kingma & Ba) — the paper's client-side optimizer.

    Defaults match the paper: lr=0.001, standard betas, no weight decay.
    """

    scratch_buffers = 2

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float | LRSchedule = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        schedule = lr if isinstance(lr, LRSchedule) else ConstantLR(lr)
        super().__init__(parameters, schedule)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay

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
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        m, v = state
        s1, s2 = scratch
        t = self.step_count  # step() already incremented: t >= 1
        m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=s1)  # (1-beta1)*grad
        m += s1
        v *= self.beta2
        np.multiply(grad, 1 - self.beta2, out=s1)  # ((1-beta2)*grad)*grad
        s1 *= grad
        v += s1
        np.divide(m, 1 - self.beta1**t, out=s1)  # m_hat
        np.divide(v, 1 - self.beta2**t, out=s2)  # v_hat
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 *= lr  # (lr*m_hat) / (sqrt(v_hat)+eps)
        s1 /= s2
        data -= s1
