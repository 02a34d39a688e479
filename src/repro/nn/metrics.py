"""Evaluation metrics and model evaluation helpers."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .layers import Module
from .losses import cross_entropy
from .tensor import Tensor, no_grad

__all__ = ["accuracy", "evaluate_classifier"]


def accuracy(logits: np.ndarray | Tensor, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the integer label."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    labels = np.asarray(labels)
    if data.ndim != 2 or labels.shape != (data.shape[0],):
        raise ShapeError(f"accuracy expects (N, C) vs (N,), got {data.shape} vs {labels.shape}")
    return float((data.argmax(axis=1) == labels).mean())


def evaluate_classifier(
    model: Module,
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int = 256,
) -> tuple[float, float]:
    """Return ``(mean loss, accuracy)`` of ``model`` on ``(x, y)``.

    Runs in eval mode under ``no_grad`` and restores the previous mode —
    this is the validation pass the parameter server performs after each
    assimilation (§III-A).
    """
    was_training = model.training
    model.eval()
    total_loss = 0.0
    total_correct = 0
    n = x.shape[0]
    try:
        with no_grad():
            for start in range(0, n, batch_size):
                xb = Tensor(x[start : start + batch_size])
                yb = y[start : start + batch_size]
                logits = model(xb)
                total_loss += cross_entropy(logits, yb).item() * len(yb)
                total_correct += int((logits.data.argmax(axis=1) == yb).sum())
    finally:
        if was_training:
            model.train()
    return total_loss / n, total_correct / n
