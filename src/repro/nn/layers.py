"""Neural-network layers (Modules) built on the autograd engine.

A :class:`Module` owns named :class:`Parameter` tensors and optional
non-trainable buffers (e.g. batch-norm running statistics).  Parameters and
buffers together form the *parameter copy* that the paper's clients ship to
the parameter server, so ``state_dict()`` / ``load_state_dict()`` round-trip
both.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ConfigurationError, ShapeError
from . import functional as F
from .conv import avg_pool2d, conv2d, global_avg_pool2d, max_pool2d
from .initializers import Initializer, get_initializer, he_normal
from .serialization import BUFFER_PREFIX, STEP_DTYPE, ParameterArena, StateLayout
from .tensor import Tensor
from .workspace import Workspace

__all__ = [
    "Parameter",
    "Module",
    "Dense",
    "Conv2D",
    "BatchNorm",
    "LayerNorm",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAvgPool2D",
    "Dropout",
    "Sequential",
    "Residual",
]


class Parameter(Tensor):
    """A trainable tensor of the step dtype; always requires grad."""

    def __init__(self, data: np.ndarray, name: str | None = None) -> None:
        super().__init__(
            np.asarray(data, dtype=STEP_DTYPE), requires_grad=True, name=name
        )


class Module:
    """Base class: parameter registry, train/eval mode, state dicts."""

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self._modules: dict[str, "Module"] = {}
        self.training: bool = True

    # -- registration ---------------------------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Track a non-trainable array that is part of the model state."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all trainable parameters, depth first, in definition order."""
        yield from self._parameters.values()
        for child in self._modules.values():
            yield from child.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield (dotted-path, parameter) pairs, depth first."""
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(f"{prefix}{child_name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield (dotted-path, buffer) pairs, depth first."""
        for name, b in self._buffers.items():
            yield (f"{prefix}{name}", b)
        for child_name, child in self._modules.items():
            yield from child.named_buffers(f"{prefix}{child_name}.")

    def num_parameters(self) -> int:
        """Total count of trainable scalars (the paper reports 4,941,578)."""
        return sum(p.size for p in self.parameters())

    # -- modes ----------------------------------------------------------
    def train(self) -> "Module":
        """Enter training mode (recursively); returns self."""
        self.training = True
        for child in self._modules.values():
            child.train()
        return self

    def eval(self) -> "Module":
        """Enter inference mode (recursively); returns self."""
        self.training = False
        for child in self._modules.values():
            child.eval()
        return self

    def zero_grad(self) -> None:
        """Clear the gradients of every parameter in the subtree."""
        for p in self.parameters():
            p.zero_grad()

    # -- state ----------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameters and buffers, keyed by dotted path."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update(
            {f"{BUFFER_PREFIX}{name}": b.copy() for name, b in self.named_buffers()}
        )
        return state

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Live (uncopied) parameter/buffer arrays, keyed like ``state_dict``.

        The arrays are the module's actual storage — writing through them
        changes the model.  This is the zero-copy counterpart of
        :meth:`state_dict` for use with
        :class:`~repro.nn.serialization.StateLayout`: the optimizers and
        batch-norm update these arrays strictly in place, so the mapping
        stays valid for the module's whole lifetime.  :meth:`to_arena`
        re-homes the arrays once; ``load_state_dict`` and checkpoint
        resume copy *into* them, so the binding survives both.
        """
        arrays = {name: p.data for name, p in self.named_parameters()}
        arrays.update(
            {f"{BUFFER_PREFIX}{name}": b for name, b in self.named_buffers()}
        )
        return arrays

    def to_arena(self) -> ParameterArena:
        """Re-home the subtree's state in one flat arena and return it.

        Every ``Parameter.data``/``.grad`` and every buffer becomes a view
        into one vector in :class:`StateLayout` order (current values are
        kept), so a whole-state load or pack is one copy, the gradients of
        a step are one contiguous vector, and an optimizer over
        ``arena.trainable`` updates the model in one fused pass.
        Idempotent; a module whose arrays were since re-homed by an
        enclosing module's arena (or a deep copy) is bound afresh.
        """
        arena = self.__dict__.get("_arena")
        arrays = self.state_arrays()
        if arena is not None and all(a.base is arena.data for a in arrays.values()):
            return arena
        layout = StateLayout.for_state(arrays)
        arena = ParameterArena(layout)
        layout.pack(arrays, out=arena.data[0])
        data, grad = layout.views(arena.data[0]), layout.views(arena.grad[0])
        self._rebind(data, grad, "")
        object.__setattr__(self, "_arena", arena)
        return arena

    def _rebind(self, data: dict, grad: dict, prefix: str) -> None:
        for name, p in self._parameters.items():
            p.data, p.grad = data[f"{prefix}{name}"], grad[f"{prefix}{name}"]
        for name in self._buffers:
            self.register_buffer(name, data[f"{BUFFER_PREFIX}{prefix}{name}"])
        for child_name, child in self._modules.items():
            child._rebind(data, grad, f"{prefix}{child_name}.")

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load a state dict produced by :meth:`state_dict` (strict)."""
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        expected = set(own_params) | {f"buffer:{n}" for n in own_buffers}
        if set(state) != expected:
            missing = expected - set(state)
            extra = set(state) - expected
            raise ShapeError(
                f"state dict mismatch: missing={sorted(missing)}, extra={sorted(extra)}"
            )
        for name, p in own_params.items():
            src = np.asarray(state[name])
            if src.shape != p.data.shape:
                raise ShapeError(
                    f"parameter {name!r}: shape {src.shape} != {p.data.shape}"
                )
            np.copyto(p.data, src)
        for name, b in own_buffers.items():
            src = np.asarray(state[f"buffer:{name}"])
            if src.shape != b.shape:
                raise ShapeError(f"buffer {name!r}: shape {src.shape} != {b.shape}")
            np.copyto(b, src)

    # -- call -----------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Dense(Module):
    """Fully connected layer: ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        initializer: Initializer | str = he_normal,
        bias: bool = True,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError("Dense dimensions must be positive")
        if isinstance(initializer, str):
            initializer = get_initializer(initializer)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(initializer((in_features, out_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2D(Module):
    """2-D convolution layer (NCHW / OIHW)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        initializer: Initializer | str = he_normal,
        bias: bool = True,
    ) -> None:
        super().__init__()
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ConfigurationError("invalid Conv2D geometry")
        if isinstance(initializer, str):
            initializer = get_initializer(initializer)
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(initializer(shape, rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        # Per-layer scratch arena: im2col/GEMM/col2im intermediates are
        # reused across steps (see repro.nn.workspace for the safety model).
        self._workspace = Workspace()

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding, self._workspace)


class BatchNorm(Module):
    """Batch normalization over the channel axis (works for 2-D and 4-D).

    Running statistics are registered buffers: they travel with the
    parameter copy between clients and the parameter server, exactly as a
    Keras ``.h5`` parameter file would carry them.
    """

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features, STEP_DTYPE))
        self.register_buffer("running_var", np.ones(num_features, STEP_DTYPE))

    def _axes_and_shape(self, x: Tensor) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if x.ndim == 2:
            return (0,), (1, self.num_features)
        if x.ndim == 4:
            return (0, 2, 3), (1, self.num_features, 1, 1)
        raise ShapeError(f"BatchNorm expects 2-D or 4-D input, got ndim={x.ndim}")

    def forward(self, x: Tensor) -> Tensor:
        axes, bshape = self._axes_and_shape(x)
        if self.training:
            mean = x.data.mean(axis=axes)
            var = x.data.var(axis=axes)
            # Update running stats in place (buffers are shared references).
            self.running_mean *= self.momentum
            self.running_mean += (1.0 - self.momentum) * mean
            self.running_var *= self.momentum
            self.running_var += (1.0 - self.momentum) * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean.reshape(bshape)) * inv_std.reshape(bshape)
        return x_hat * self.gamma.reshape(bshape) + self.beta.reshape(bshape)


class LayerNorm(Module):
    """Layer normalization over the last axis (Ba et al.).

    Unlike :class:`BatchNorm` it has no running statistics and no
    train/eval behaviour split.
    """

    def __init__(self, num_features: int, eps: float = 1e-5) -> None:
        super().__init__()
        if num_features <= 0:
            raise ConfigurationError("num_features must be positive")
        self.num_features = num_features
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.num_features:
            raise ShapeError(
                f"LayerNorm({self.num_features}) got last axis {x.shape[-1]}"
            )
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv_std = (var + self.eps) ** -0.5
        return centered * inv_std * self.gamma + self.beta


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return F.leaky_relu(x, self.negative_slope)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class MaxPool2D(Module):
    def __init__(self, kernel: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel = kernel
        self.stride = stride
        self._workspace = Workspace()

    def forward(self, x: Tensor) -> Tensor:
        return max_pool2d(x, self.kernel, self.stride, workspace=self._workspace)


class AvgPool2D(Module):
    def __init__(self, kernel: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel = kernel
        self.stride = stride
        self._workspace = Workspace()

    def forward(self, x: Tensor) -> Tensor:
        return avg_pool2d(x, self.kernel, self.stride, workspace=self._workspace)


class GlobalAvgPool2D(Module):
    def forward(self, x: Tensor) -> Tensor:
        return global_avg_pool2d(x)


class Dropout(Module):
    """Inverted dropout; identity in eval mode (paper trains without it)."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, training=self.training)


class Sequential(Module):
    """Compose modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = list(modules)
        for i, m in enumerate(modules):
            self._modules[str(i)] = m

    def append(self, module: Module) -> None:
        """Add a module to the end of the pipeline."""
        self._modules[str(len(self.layers))] = module
        self.layers.append(module)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class Residual(Module):
    """Residual wrapper: ``y = body(x) + shortcut(x)``.

    With ``shortcut=None`` the identity is used, which requires matching
    shapes (the classic ResNet identity block).
    """

    def __init__(self, body: Module, shortcut: Module | None = None) -> None:
        super().__init__()
        self.body = body
        if shortcut is not None:
            self.shortcut = shortcut
        else:
            self._shortcut_identity = True

    def forward(self, x: Tensor) -> Tensor:
        branch = self.body(x)
        skip = x if "shortcut" not in self._modules else self._modules["shortcut"](x)
        if branch.shape != skip.shape:
            raise ShapeError(
                f"residual branch {branch.shape} does not match skip {skip.shape}; "
                "provide a projection shortcut"
            )
        return branch + skip
