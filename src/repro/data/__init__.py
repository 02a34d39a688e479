"""Dataset substrate: synthetic CIFAR-style data and shards."""

from . import augment
from .dataset import Dataset
from .sharding import shard_name, split_dataset
from .synthetic import (
    SyntheticImageConfig,
    make_classification_splits,
    make_synthetic_images,
)
from .timeseries import (
    TimeSeriesConfig,
    generate_series,
    train_val_split_series,
    windowed_dataset,
)

__all__ = [
    "augment",
    "TimeSeriesConfig",
    "generate_series",
    "windowed_dataset",
    "train_val_split_series",
    "Dataset",
    "split_dataset",
    "shard_name",
    "SyntheticImageConfig",
    "make_synthetic_images",
    "make_classification_splits",
]
