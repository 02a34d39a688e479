"""Loss functions.

The reproduction trains classifiers with softmax cross-entropy, as the
paper's CIFAR10 setup does.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor

__all__ = ["cross_entropy"]


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy between ``logits`` (N, C) and int labels (N,).

    Fused log-softmax + NLL for numerical stability, with the standard
    closed-form gradient ``(softmax - onehot) / N``.
    """
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (N, C) logits, got {logits.shape}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"labels shape {labels.shape} incompatible with logits {logits.shape}"
        )
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise ShapeError(f"labels out of range [0, {c})")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - logsumexp
    loss = -log_probs[np.arange(n), labels].mean()

    def backward(g: np.ndarray) -> None:
        if logits.requires_grad:
            grad = np.exp(log_probs)
            grad[np.arange(n), labels] -= 1.0
            logits._accumulate(grad * (float(g) / n))

    return Tensor._make(np.asarray(loss), (logits,), backward)
