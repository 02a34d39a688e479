"""NumPy deep-learning substrate: autograd, layers, models, optimizers.

This package stands in for the TensorFlow/Keras stack the paper trained
with.  See DESIGN.md §2 for the substitution rationale.
"""

from . import functional
from .conv import avg_pool2d, conv2d, global_avg_pool2d, im2col, max_pool2d
from .initializers import get_initializer, he_normal
from .layers import (
    AvgPool2D,
    BatchNorm,
    LayerNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    LeakyReLU,
    MaxPool2D,
    Module,
    Parameter,
    ReLU,
    Residual,
    Sequential,
    Sigmoid,
    Tanh,
)
from .losses import cross_entropy
from .metrics import evaluate_classifier
from .models import ModelSpec, build_model, make_convnet, make_mlp, make_resnetv2
from .optim import SGD, Adam, Optimizer
from .serialization import (
    ParameterArena,
    StateLayout,
    compressed_size,
)
from .tensor import Tensor, no_grad
from .workspace import Workspace

__all__ = [
    "Tensor",
    "no_grad",
    "functional",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "im2col",
    "he_normal",
    "get_initializer",
    "Module",
    "Parameter",
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
    "cross_entropy",
    "evaluate_classifier",
    "ModelSpec",
    "build_model",
    "make_mlp",
    "make_convnet",
    "make_resnetv2",
    "Optimizer",
    "SGD",
    "Adam",
    "StateLayout",
    "ParameterArena",
    "compressed_size",
    "Workspace",
]
