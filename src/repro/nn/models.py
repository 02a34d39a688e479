"""Model zoo and declarative model specs.

The paper ships a model *architecture file* (Keras ``.json``, 269 KB) with
each workunit, alongside a parameter file; clients rebuild the model from
the spec and load the parameters.  We mirror that: :class:`ModelSpec` is a
small JSON-serializable description, and :func:`build_model` deterministically
constructs the network from it (given an RNG for initialization).

Three architectures cover the reproduction:

* :func:`make_mlp` — fast classifier used by the large parameter sweeps;
* :func:`make_convnet` — small CNN for image-shaped inputs;
* :func:`make_resnetv2` — a pre-activation ResNetV2 in the spirit of the
  paper's 552-layer model, at configurable (laptop-scale) depth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from .layers import (
    BatchNorm,
    Conv2D,
    Dense,
    GlobalAvgPool2D,
    Module,
    ReLU,
    Residual,
    Sequential,
    Tanh,
)
from .tensor import Tensor

__all__ = [
    "ModelSpec",
    "build_model",
    "make_mlp",
    "make_convnet",
    "make_resnetv2",
    "paper_scale_resnet_spec",
    "PreActBlock",
]


@dataclass(frozen=True)
class ModelSpec:
    """Declarative architecture description (the ``.json`` model file).

    ``kind`` selects the factory; ``config`` holds its keyword arguments.
    """

    kind: str
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Canonical JSON encoding (the workunit's model file contents)."""
        return json.dumps({"kind": self.kind, "config": self.config}, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ModelSpec":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        return ModelSpec(kind=payload["kind"], config=payload["config"])


def build_model(spec: ModelSpec, rng: np.random.Generator) -> Module:
    """Instantiate the architecture described by ``spec``.

    The same spec + the same RNG state yields bit-identical initial weights,
    which the work generator relies on when seeding epoch-0 parameters.
    """
    factories = {
        "mlp": make_mlp,
        "convnet": make_convnet,
        "resnetv2": make_resnetv2,
    }
    try:
        factory = factories[spec.kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown model kind {spec.kind!r}; known: {sorted(factories)}"
        ) from None
    return factory(rng=rng, **spec.config)


def make_mlp(
    rng: np.random.Generator,
    in_features: int = 48,
    hidden: tuple[int, ...] | list[int] = (64, 64),
    num_classes: int = 10,
    activation: str = "relu",
    batch_norm: bool = False,
) -> Module:
    """Multi-layer perceptron classifier over flat feature vectors."""
    if in_features <= 0 or num_classes <= 0:
        raise ConfigurationError("in_features and num_classes must be positive")
    act: type[Module] = {"relu": ReLU, "tanh": Tanh}.get(activation)  # type: ignore[assignment]
    if act is None:
        raise ConfigurationError(f"unknown activation {activation!r}")
    layers: list[Module] = []
    prev = in_features
    for width in hidden:
        layers.append(Dense(prev, width, rng))
        if batch_norm:
            layers.append(BatchNorm(width))
        layers.append(act())
        prev = width
    layers.append(Dense(prev, num_classes, rng))
    return Sequential(*layers)


def make_convnet(
    rng: np.random.Generator,
    in_channels: int = 3,
    image_size: int = 8,
    channels: tuple[int, ...] | list[int] = (16, 32),
    num_classes: int = 10,
) -> Module:
    """Small VGG-style CNN: conv-BN-ReLU stacks with stride-2 downsampling."""
    layers: list[Module] = []
    prev = in_channels
    size = image_size
    for i, ch in enumerate(channels):
        stride = 2 if i > 0 else 1
        layers.append(Conv2D(prev, ch, 3, rng, stride=stride, padding=1, bias=False))
        layers.append(BatchNorm(ch))
        layers.append(ReLU())
        if stride == 2:
            size = (size + 1) // 2
        prev = ch
    layers.append(GlobalAvgPool2D())
    layers.append(Dense(prev, num_classes, rng))
    return Sequential(*layers)


def paper_scale_resnet_spec() -> ModelSpec:
    """A ResNetV2 spec in the paper's weight class (~5M parameters).

    The paper's model has 4,972,746 total parameters across 552 layers;
    this configuration lands within a few percent of that count with the
    same pre-activation block family (depth is shallower — parameters, not
    layer count, are what size the parameter files and the VC-ASGD merge).
    """
    return ModelSpec(
        "resnetv2",
        {
            "in_channels": 3,
            "num_classes": 10,
            "stage_channels": [69, 138, 276],
            "blocks_per_stage": 3,
        },
    )


class PreActBlock(Module):
    """Pre-activation residual block (BN → ReLU → conv, twice) — ResNetV2.

    He et al.'s "identity mappings" ordering, which is what distinguishes
    ResNetV2 (the paper's model) from the original ResNet.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: np.random.Generator,
        stride: int = 1,
    ) -> None:
        super().__init__()
        body = Sequential(
            BatchNorm(in_channels),
            ReLU(),
            Conv2D(in_channels, out_channels, 3, rng, stride=stride, padding=1, bias=False),
            BatchNorm(out_channels),
            ReLU(),
            Conv2D(out_channels, out_channels, 3, rng, stride=1, padding=1, bias=False),
        )
        shortcut: Module | None = None
        if stride != 1 or in_channels != out_channels:
            shortcut = Conv2D(in_channels, out_channels, 1, rng, stride=stride, bias=False)
        self.block = Residual(body, shortcut)

    def forward(self, x: Tensor) -> Tensor:
        return self.block(x)


def make_resnetv2(
    rng: np.random.Generator,
    in_channels: int = 3,
    num_classes: int = 10,
    stage_channels: tuple[int, ...] | list[int] = (16, 32, 64),
    blocks_per_stage: int = 2,
) -> Module:
    """Pre-activation ResNetV2 for small images (CIFAR-style stages).

    The paper used 552 layers / ~5M parameters; depth here is configurable
    so tests and benches stay laptop-scale while the architecture family is
    the same.
    """
    if blocks_per_stage <= 0:
        raise ConfigurationError("blocks_per_stage must be positive")
    layers: list[Module] = [
        Conv2D(in_channels, stage_channels[0], 3, rng, stride=1, padding=1, bias=False)
    ]
    prev = stage_channels[0]
    for stage, ch in enumerate(stage_channels):
        for block in range(blocks_per_stage):
            stride = 2 if (stage > 0 and block == 0) else 1
            layers.append(PreActBlock(prev, ch, rng, stride=stride))
            prev = ch
    layers.extend(
        [BatchNorm(prev), ReLU(), GlobalAvgPool2D(), Dense(prev, num_classes, rng)]
    )
    return Sequential(*layers)
