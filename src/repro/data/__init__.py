"""Dataset substrate: synthetic CIFAR-style data and shards."""

from .dataset import Dataset
from .sharding import shard_name, split_dataset
from .synthetic import (
    SyntheticImageConfig,
    make_classification_splits,
    make_synthetic_images,
)

__all__ = [
    "Dataset",
    "split_dataset",
    "shard_name",
    "SyntheticImageConfig",
    "make_synthetic_images",
    "make_classification_splits",
]
