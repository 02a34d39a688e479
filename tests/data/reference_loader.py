"""The historical mini-batch iterator, kept as a reference model.

Training batches in ``src/`` come from :func:`repro.core.steps.draw_batch_orders`
(one permutation per local epoch) sliced by :func:`repro.nn.cohort.train_steps`.
This iterator draws the same permutation lazily at the start of every pass;
``test_sharding_loader`` holds the two to the same stream.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data import Dataset
from repro.errors import ConfigurationError


class BatchLoader:
    """Iterate (x, y) mini-batches, reshuffling each pass when given an rng."""

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.rng = rng

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self.rng.permutation(n) if self.rng is not None else np.arange(n)
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            yield self.dataset.x[idx], self.dataset.y[idx]
