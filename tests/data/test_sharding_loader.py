"""Sharding (work-generator split) and mini-batch order tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.steps import draw_batch_orders
from repro.data import Dataset, shard_name, split_dataset
from repro.errors import ConfigurationError

from .reference_loader import BatchLoader


@pytest.fixture
def ds(rng) -> Dataset:
    x = rng.normal(size=(100, 4))
    y = np.arange(100) % 5
    return Dataset(x, y)


class TestSplitDataset:
    def test_covers_all_samples_once(self, ds, rng):
        shards = split_dataset(ds, 7, rng=rng)
        total = sum(len(s) for s in shards)
        assert total == len(ds)
        seen = np.concatenate([s.x[:, 0] for s in shards])
        assert len(np.unique(seen)) == len(ds)

    def test_sizes_differ_by_at_most_one(self, ds, rng):
        shards = split_dataset(ds, 7, rng=rng)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_contiguous_strategy(self, ds):
        shards = split_dataset(ds, 4, strategy="contiguous")
        np.testing.assert_array_equal(shards[0].x, ds.x[:25])

    def test_shuffled_requires_rng(self, ds):
        with pytest.raises(ConfigurationError):
            split_dataset(ds, 4, strategy="shuffled")

    def test_stratified_balances_classes(self, ds):
        shards = split_dataset(ds, 5, strategy="stratified")
        for shard in shards:
            counts = shard.class_counts()
            assert max(counts) - min(counts) <= 1

    def test_unknown_strategy(self, ds, rng):
        with pytest.raises(ConfigurationError):
            split_dataset(ds, 4, rng=rng, strategy="roundrobin")

    def test_too_many_shards(self, ds, rng):
        with pytest.raises(ConfigurationError):
            split_dataset(ds, 101, rng=rng)

    def test_nonpositive_shards(self, ds, rng):
        with pytest.raises(ConfigurationError):
            split_dataset(ds, 0, rng=rng)

    def test_shard_names_stable(self, ds, rng):
        shards = split_dataset(ds, 50, rng=rng)
        assert shards[7].name == "shard-07-of-50"
        assert shard_name(7, 50) == "shard-07-of-50"

    def test_deterministic_given_seed(self, ds):
        a = split_dataset(ds, 5, rng=np.random.default_rng(3))
        b = split_dataset(ds, 5, rng=np.random.default_rng(3))
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.x, sb.x)


class TestBatchLoader:
    def test_batch_count(self, ds):
        assert len(BatchLoader(ds, 32)) == 4  # 100/32 -> 3 full + 1 partial

    def test_iterates_all_samples(self, ds):
        seen = sum(len(xb) for xb, _ in BatchLoader(ds, 7))
        assert seen == 100

    def test_shuffles_with_rng(self, ds):
        loader = BatchLoader(ds, 100, rng=np.random.default_rng(1))
        (x1, _), = list(loader)
        (x2, _), = list(loader)
        assert not np.array_equal(x1, x2)  # reshuffled each pass

    def test_deterministic_without_rng(self, ds):
        loader = BatchLoader(ds, 100)
        (x1, _), = list(loader)
        np.testing.assert_array_equal(x1, ds.x)

    def test_labels_track_features(self, ds):
        loader = BatchLoader(ds, 13, rng=np.random.default_rng(5))
        lookup = {tuple(row): label for row, label in zip(ds.x, ds.y)}
        for xb, yb in loader:
            for row, label in zip(xb, yb):
                assert lookup[tuple(row)] == label

    def test_invalid_batch_size(self, ds):
        with pytest.raises(ConfigurationError):
            BatchLoader(ds, 0)

    def test_batch_orders_draw_the_same_stream(self, ds):
        """``draw_batch_orders`` sliced as ``train_steps`` slices it yields
        the reference loader's batches, pass for pass."""
        loader = BatchLoader(ds, 13, rng=np.random.default_rng(5))
        orders = draw_batch_orders(np.random.default_rng(5), len(ds), 3)
        for order in orders:
            for (xb, yb), start in zip(loader, range(0, len(ds), 13), strict=True):
                idx = order[start : start + 13]
                assert xb.tobytes() == ds.x[idx].tobytes()
                assert yb.tobytes() == ds.y[idx].tobytes()


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(10, 60),
    k=st.integers(1, 10),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_split_partition(n, k, seed):
    """Splitting is always a partition: no loss, no duplication."""
    rng = np.random.default_rng(seed)
    ds = Dataset(np.arange(n, dtype=float).reshape(n, 1), np.zeros(n, dtype=int))
    shards = split_dataset(ds, min(k, n), rng=rng)
    values = np.sort(np.concatenate([s.x[:, 0] for s in shards]))
    np.testing.assert_array_equal(values, np.arange(n, dtype=float))
