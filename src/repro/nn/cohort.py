"""Tape-free step programs: G clients' training steps as stacked kernels.

A client subtask is a fixed chain of layers trained with softmax
cross-entropy, so the autograd tape rebuilds the same graph at every
step.  A :class:`StepProgram` compiles that chain once, from a serial
module tree, into ndarray ``forward``/``backward`` kernel pairs with a
leading *cohort* axis G over one :class:`ParameterArena`: every member's
parameters, buffers and gradients are views into its arena row, because
members diverge from the shared base after their first optimizer step —
only the *operations* are shared.  G = 1 is the serial client; a cohort
of homogeneous subtasks (same architecture, same shard length) is the
same program at G > 1.

Bit-identity contract: per member, every kernel performs exactly the
operations, in exactly the order, that the ``Tensor`` tape performs for
the serial layer — ``np.matmul`` on (G, n, d) @ (G, d, k) issues the same
per-slice GEMM as the 2-D product, elementwise ops are shape-blind, and
axis reductions over the member's own block accumulate in the same order.
``tests/nn/test_cohort_equivalence.py`` holds the program to the tape
loop (:class:`TapeProgram`) under Hypothesis across dtypes, cohort sizes
and optimizers; the runner-level golden digests hold it end to end.

One kernel pair per layer kind.  Anything else (Residual, LayerNorm,
Dropout, user subclasses) raises
:class:`CohortUnsupported` at compile time and trains on the tape through
:class:`TapeProgram` — never on silently different numerics.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from ..errors import ShapeError, TrainingError
from .conv import (
    avg_pool2d_kernel,
    col2im,
    global_avg_pool2d_kernel,
    im2col,
    max_pool2d_kernel,
)
from .functional import leaky_relu_kernel, relu_kernel, sigmoid_kernel, tanh_kernel
from .layers import (
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool2D,
    LeakyReLU,
    MaxPool2D,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .losses import cross_entropy
from .optim import SGD, Adam, Optimizer
from .serialization import BUFFER_PREFIX, ParameterArena, StateLayout
from .tensor import Tensor

__all__ = [
    "CohortUnsupported",
    "StepProgram",
    "TapeProgram",
    "compile_program",
    "train_steps",
    "CohortTrainer",
]


class CohortUnsupported(TrainingError):
    """The module tree contains a layer with no stacked kernel."""


# ---------------------------------------------------------------------------
# Kernels.  ``forward`` keeps what ``backward`` needs; ``backward`` writes
# the layer's parameter gradients into their arena views and returns the
# input gradient.  The first parametric kernel of a program has
# ``input_grad`` False and returns None instead: nothing upstream has
# parameters (the tape records nothing there either).
# ---------------------------------------------------------------------------

class _Dense:
    input_grad = True

    def __init__(self, layer: Dense, prefix: str, data: dict, grad: dict) -> None:
        self.w, self.gw = data[f"{prefix}weight"], grad[f"{prefix}weight"]
        self.b = self.gb = None
        if layer.bias is not None:
            self.b = data[f"{prefix}bias"][:, None, :]
            self.gb = grad[f"{prefix}bias"]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.x = x
        out = np.matmul(x, self.w)
        if self.b is not None:
            out += self.b
        return out

    def backward(self, g: np.ndarray) -> np.ndarray | None:
        if self.b is not None:
            np.add.reduce(g, axis=1, out=self.gb)
        np.matmul(self.x.swapaxes(-1, -2), g, out=self.gw)
        if self.input_grad:
            return np.matmul(g, self.w.swapaxes(-1, -2))
        return None


class _Conv2D:
    """(G, N, C, H, W) input, per-member OIHW weights.

    The im2col transform is per-sample, so the cohort axis folds into the
    batch axis for the unfold/scatter; the GEMM stays per-member (weights
    differ) as one batched ``np.matmul`` — the same per-slice dgemm the
    serial kernel issues.
    """

    input_grad = True

    def __init__(self, layer: Conv2D, prefix: str, data: dict, grad: dict) -> None:
        w = data[f"{prefix}weight"]
        self.kshape = w.shape[1:]
        self.w2d = w.reshape(w.shape[0], w.shape[1], -1)
        self.gw2d = grad[f"{prefix}weight"].reshape(self.w2d.shape)
        self.b = self.gb = None
        if layer.bias is not None:
            self.b = data[f"{prefix}bias"][:, None, :]
            self.gb = grad[f"{prefix}bias"]
        self.stride, self.pad = layer.stride, layer.padding

    def forward(self, x: np.ndarray) -> np.ndarray:
        g_, n, c, h, w = x.shape
        co, ci, kh, kw = self.kshape
        if ci != c:
            raise ShapeError(f"conv input has {c} channels, weight expects {ci}")
        cols, oh, ow = im2col(x.reshape(g_ * n, c, h, w), kh, kw, self.stride, self.pad)
        self.x_shape = x.shape
        self.cols3 = cols.reshape(g_, n * oh * ow, ci * kh * kw)
        out = np.matmul(self.cols3, self.w2d.transpose(0, 2, 1))  # (G, N*OH*OW, CO)
        if self.b is not None:
            out += self.b
        return np.ascontiguousarray(
            out.reshape(g_, n, oh, ow, co).transpose(0, 1, 4, 2, 3)
        )

    def backward(self, g: np.ndarray) -> np.ndarray | None:
        g_, n, c, h, w = self.x_shape
        co, ci, kh, kw = self.kshape
        # Materialized like the serial layer's workspace copy: for a batch
        # of one sample a bare reshape is a transposed *view*, and the GEMMs
        # below would run with the other operand order.
        g2d = np.ascontiguousarray(g.transpose(0, 1, 3, 4, 2)).reshape(g_, -1, co)
        if self.b is not None:
            np.add.reduce(g2d, axis=1, out=self.gb)
        np.matmul(g2d.transpose(0, 2, 1), self.cols3, out=self.gw2d)
        if not self.input_grad:
            return None
        gcols = np.matmul(g2d, self.w2d)  # (G, N*OH*OW, CI*KH*KW)
        gx = col2im(
            gcols.reshape(-1, ci * kh * kw),
            (g_ * n, c, h, w),
            kh,
            kw,
            self.stride,
            self.pad,
        )
        return gx.reshape(self.x_shape)


class _BatchNorm:
    """Training-mode batch norm: per-member batch statistics and running
    buffers (client subtasks always train).  Like the serial layer, the
    backward pass treats the batch statistics as constants."""

    input_grad = True

    def __init__(self, layer: BatchNorm, prefix: str, data: dict, grad: dict) -> None:
        self.gamma, self.ggamma = data[f"{prefix}gamma"], grad[f"{prefix}gamma"]
        self.beta, self.gbeta = data[f"{prefix}beta"], grad[f"{prefix}beta"]
        self.running_mean = data[f"{BUFFER_PREFIX}{prefix}running_mean"]
        self.running_var = data[f"{BUFFER_PREFIX}{prefix}running_var"]
        self.momentum, self.eps = layer.momentum, layer.eps

    def forward(self, x: np.ndarray) -> np.ndarray:
        g_, f = self.gamma.shape
        if x.ndim == 3:
            self.axes, bshape = (1,), (g_, 1, f)
        elif x.ndim == 5:
            self.axes, bshape = (1, 3, 4), (g_, 1, f, 1, 1)
        else:
            raise ShapeError(
                f"stacked BatchNorm expects 3-D or 5-D input, got ndim={x.ndim}"
            )
        mean = x.mean(axis=self.axes)
        var = x.var(axis=self.axes)
        self.running_mean *= self.momentum
        self.running_mean += (1.0 - self.momentum) * mean
        self.running_var *= self.momentum
        self.running_var += (1.0 - self.momentum) * var
        self.inv_std = (1.0 / np.sqrt(var + self.eps)).reshape(bshape)
        self.gamma_b = self.gamma.reshape(bshape)
        self.x_hat = (x + -mean.reshape(bshape)) * self.inv_std
        return self.x_hat * self.gamma_b + self.beta.reshape(bshape)

    def backward(self, g: np.ndarray) -> np.ndarray | None:
        np.add.reduce(g, axis=self.axes, out=self.gbeta)
        np.add.reduce(g * self.x_hat, axis=self.axes, out=self.ggamma)
        if self.input_grad:
            return g * self.gamma_b * self.inv_std
        return None


class _Flatten:
    def forward(self, x: np.ndarray) -> np.ndarray:
        self.shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, g: np.ndarray) -> np.ndarray:
        return g.reshape(self.shape)


class _PerSample:
    """A parameter-free per-sample ``(out, pull)`` kernel (activation,
    pool), applied with the cohort axis folded into the batch axis."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.shape = x.shape
        out, self.pull = self.kernel(x.reshape((-1,) + x.shape[2:]))
        return out.reshape(x.shape[:2] + out.shape[1:])

    def backward(self, g: np.ndarray) -> np.ndarray:
        return self.pull(g.reshape((-1,) + g.shape[2:])).reshape(self.shape)


_PARAMETRIC = {Dense: _Dense, Conv2D: _Conv2D, BatchNorm: _BatchNorm}
_PER_SAMPLE = {
    ReLU: lambda m: relu_kernel,
    LeakyReLU: lambda m: partial(leaky_relu_kernel, negative_slope=m.negative_slope),
    Tanh: lambda m: tanh_kernel,
    Sigmoid: lambda m: sigmoid_kernel,
    MaxPool2D: lambda m: partial(max_pool2d_kernel, kernel=m.kernel, stride=m.stride),
    AvgPool2D: lambda m: partial(avg_pool2d_kernel, kernel=m.kernel, stride=m.stride),
    GlobalAvgPool2D: lambda m: global_avg_pool2d_kernel,
}


def _compile(module: Module, prefix: str, data: dict, grad: dict) -> list:
    """Kernels for ``module``'s subtree.  Matches exact layer types: a
    subclass may override ``forward``, which no kernel would know about."""
    kind = type(module)
    if kind is Sequential:
        return [
            kernel
            for name, child in module._modules.items()
            for kernel in _compile(child, f"{prefix}{name}.", data, grad)
        ]
    if kind in _PARAMETRIC:
        return [_PARAMETRIC[kind](module, prefix, data, grad)]
    if kind is Flatten:
        return [_Flatten()]
    if kind in _PER_SAMPLE:
        return [_PerSample(_PER_SAMPLE[kind](module))]
    raise CohortUnsupported(
        f"no stacked kernel for layer {kind.__name__}; this architecture "
        "trains on the Tensor tape"
    )


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

class StepProgram(Module):
    """A serial module tree compiled to stacked kernels over one arena.

    Calling the program on a stacked mini-batch ``(G, n, ...)`` with
    ``(G, n)`` integer labels runs the forward kernels fused with softmax
    cross-entropy and returns the loss as a single autograd node: its
    ``backward()`` runs the backward kernels, which overwrite every
    gradient in ``arena.grad`` (no zeroing between steps).  The value is
    the *sum* of per-member mean losses — each member's gradient seed is
    1, matching one serial ``backward()`` per member.  The program is a
    :class:`Module` so that a step still enters through ``Module.__call__``,
    ``Tensor.backward`` and ``Optimizer.step``, the seams wall-clock
    tracing hooks; it has no parameters of its own and never touches the
    template's — every step starts from vectors loaded into the arena.
    """

    def __init__(self, template: Module, group: int = 1) -> None:
        super().__init__()
        layout = StateLayout.for_state(template.state_arrays())
        self.arena = ParameterArena(layout, group)
        self.kernels = _compile(
            template, "", self.arena.views(self.arena.data), self.arena.views(self.arena.grad)
        )
        for kernel in self.kernels:
            if type(kernel) in _PARAMETRIC.values():
                kernel.input_grad = False
                break
        self._pick: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def forward(self, x: np.ndarray, labels: np.ndarray) -> Tensor:
        for kernel in self.kernels:
            x = kernel.forward(x)
        if x.ndim != 3 or labels.shape != x.shape[:2]:
            raise ShapeError(
                f"labels shape {labels.shape} incompatible with stacked "
                f"logits {x.shape}"
            )
        g_, n, _ = x.shape
        pick = self._pick.get(n)
        if pick is None:
            pick = self._pick[n] = (np.arange(g_)[:, None], np.arange(n)[None, :])
        picked = (*pick, labels)
        shifted = x - np.maximum.reduce(x, axis=2, keepdims=True)
        logsumexp = np.log(np.add.reduce(np.exp(shifted), axis=2, keepdims=True))
        log_probs = shifted - logsumexp
        # Per-member mean negative log-likelihood, summed over members.
        loss = np.add.reduce(np.add.reduce(log_probs[picked], axis=1) / -n)

        def backward(seed: np.ndarray) -> None:
            g = np.exp(log_probs)
            g[picked] -= 1.0
            g *= float(seed) / n
            for kernel in reversed(self.kernels):
                g = kernel.backward(g)
                if g is None:
                    break
                # The tape hands every adjoint a gradient accumulated into
                # a fresh contiguous buffer; a strided one (a pool's
                # broadcast view) would steer the next GEMM off its BLAS path.
                if not g.flags.c_contiguous:
                    g = np.ascontiguousarray(g)
            # The tape accumulates every gradient into a zeroed buffer,
            # which turns a -0.0 into +0.0; adding zero reproduces that.
            np.add(self.arena.grad, 0.0, out=self.arena.grad)

        # The whole chain is this one node: no parents for backward() to walk.
        node = Tensor(loss, requires_grad=True)
        node._backward = backward
        return node


class TapeProgram(Module):
    """One member trained on the ``Tensor`` tape, behind the program
    interface: the implementation for architectures that do not compile,
    and the oracle the equivalence suite holds :class:`StepProgram` to.
    Trains ``model`` in place, re-homed in its own arena."""

    def __init__(self, model: Module) -> None:
        super().__init__()
        self.model = model.train()
        self.arena = model.to_arena()

    def forward(self, x: np.ndarray, labels: np.ndarray) -> Tensor:
        self.arena.grad.fill(0.0)
        return cross_entropy(self.model(Tensor(x[0])), labels[0])


def compile_program(template: Module) -> Module:
    """The single-member program ``template``'s architecture trains on:
    stacked kernels when every layer has one, else the ``Tensor`` tape
    (which trains ``template`` itself, in place)."""
    try:
        return StepProgram(template)
    except CohortUnsupported:
        return TapeProgram(template)


def train_steps(
    program: Module,
    optimizer: Optimizer,
    shards: Sequence,
    orders: Sequence[Sequence[np.ndarray]],
    batch_size: int,
    collect_gradient: bool = False,
) -> np.ndarray | None:
    """The one mini-batch loop — client subtasks and both baselines — on
    an already loaded program.

    ``shards[g]`` and ``orders[g]`` are member g's data and pre-drawn
    per-epoch batch orders (RNG draws happen at the caller's site, so the
    draw *order* never depends on where or when the compute runs); batches
    are ``order[start : start + batch_size]`` slices, short final batch
    included, so an order cut short ends its epoch early.  ``optimizer``
    must be over ``program.arena.trainable``; its state carries on from
    the previous call (callers that start a fresh subtask reset it).
    Returns the float64 ``(G, total_size)`` sum of every step's gradients when
    ``collect_gradient`` (rules like Downpour), else None; the trained
    state is left in the arena.
    """
    arena: ParameterArena = program.arena
    if not (len(shards) == len(orders) == arena.group):
        raise TrainingError(
            f"program of {arena.group} member(s) got {len(shards)} shards / "
            f"{len(orders)} batch orders"
        )
    lengths = [len(order) for order in orders[0]]
    if any([len(order) for order in member] != lengths for member in orders):
        raise TrainingError("cohort members' batch orders must have equal lengths")
    xs, ys = [shard.x for shard in shards], [shard.y for shard in shards]
    if min(int(y.min()) for y in ys) < 0:
        raise ShapeError("negative class label")
    totals = arena.layout.zeros(arena.group) if collect_gradient else None
    for epoch, n in enumerate(lengths):
        for start in range(0, n, batch_size):
            idxs = [member[epoch][start : start + batch_size] for member in orders]
            if len(idxs) == 1:
                x, y = xs[0][idxs[0]][None], ys[0][idxs[0]][None]
            else:
                x = np.stack([a[i] for a, i in zip(xs, idxs)])
                y = np.stack([a[i] for a, i in zip(ys, idxs)])
            program(x, y).backward()
            if totals is not None:
                arena.layout.accumulate(arena, totals)
            optimizer.step()
    return totals


class CohortTrainer:
    """A program plus its optimizer: runs whole local-training subtasks.

    Reused across subtasks — every run overwrites the whole arena from the
    base vectors and resets the optimizer, exactly as a client overwrites
    its model from the downloaded parameter file and starts a fresh Adam.
    """

    def __init__(
        self, program: Module, optimizer: str = "adam", learning_rate: float = 0.001
    ) -> None:
        self.program = program
        make = Adam if optimizer == "adam" else SGD
        self.optimizer = make(program.arena.trainable, lr=learning_rate)

    def run(
        self,
        base_vecs: np.ndarray,
        shards: Sequence,
        orders: Sequence[Sequence[np.ndarray]],
        batch_size: int,
        collect_gradient: bool = False,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Train every member from ``base_vecs`` — one shared ``(total_size,)``
        vector or one row per member — and return the stacked new parameter
        vectors and, when collected, the stacked accumulated gradients."""
        arena = self.program.arena
        arena.layout.unpack_into(base_vecs, arena)
        self.optimizer.reset()
        totals = train_steps(
            self.program, self.optimizer, shards, orders, batch_size, collect_gradient
        )
        return arena.layout.pack(arena, out=arena.layout.zeros(arena.group)), totals
