"""Work-generator tests: shard publication and epoch minting."""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from repro.boinc import FileCatalog, WorkGenerator
from repro.data import Dataset
from repro.errors import ConfigurationError


@pytest.fixture
def train_set(rng) -> Dataset:
    return Dataset(rng.normal(size=(100, 6)), rng.integers(0, 4, size=100))


def make_generator(train_set, **kwargs) -> tuple[WorkGenerator, FileCatalog]:
    catalog = FileCatalog()
    defaults = dict(
        job_id="job",
        catalog=catalog,
        train_set=train_set,
        num_shards=10,
        model_spec_json='{"kind": "mlp"}',
        timeout_s=300.0,
        rng=np.random.default_rng(0),
    )
    defaults.update(kwargs)
    return WorkGenerator(**defaults), catalog


class TestStaticPublication:
    def test_model_file_published_sticky(self, train_set):
        gen, catalog = make_generator(train_set)
        model_file = catalog.get(gen.model_file_name)
        assert model_file.sticky
        assert model_file.payload == '{"kind": "mlp"}'

    @pytest.mark.parametrize(
        "spec, capped",
        [('{"kind": "mlp"}', True), (json.dumps({"hidden": [128] * 64}), False)],
    )
    def test_model_file_priced_at_its_zlib_size_capped_at_raw(
        self, train_set, spec, capped
    ):
        gen, catalog = make_generator(train_set, model_spec_json=spec)
        raw = spec.encode()
        deflated = len(zlib.compress(raw, 6))
        model_file = catalog.get(gen.model_file_name)
        assert (deflated >= len(raw)) is capped
        assert model_file.raw_size == len(raw)
        assert model_file.wire_size(compression_enabled=True) == min(deflated, len(raw))
        assert model_file.wire_size(compression_enabled=False) == len(raw)

    def test_all_shards_published(self, train_set):
        gen, catalog = make_generator(train_set)
        for i in range(10):
            name = gen.shard_file_name(i)
            assert name in catalog
            assert catalog.get(name).sticky

    def test_shard_payloads_are_datasets(self, train_set):
        gen, catalog = make_generator(train_set)
        shard = catalog.get(gen.shard_file_name(0)).payload
        assert isinstance(shard, Dataset)
        assert len(shard) == 10

    def test_shard_sizes_cover_train_set(self, train_set):
        gen, _ = make_generator(train_set)
        assert sum(len(s) for s in gen.shards) == len(train_set)

    def test_compressed_size_below_raw(self, train_set):
        gen, catalog = make_generator(train_set)
        f = catalog.get(gen.shard_file_name(0))
        assert 0 < f.compressed_size <= f.raw_size

    def test_invalid_config(self, train_set):
        with pytest.raises(ConfigurationError):
            make_generator(train_set, num_shards=0)


class TestEpochMinting:
    def test_one_workunit_per_shard(self, train_set):
        gen, _ = make_generator(train_set)
        wus = gen.make_epoch(0, "params")
        assert len(wus) == 10
        assert {wu.shard_index for wu in wus} == set(range(10))

    def test_input_files_reference_params_and_shard(self, train_set):
        gen, _ = make_generator(train_set)
        wu = gen.make_epoch(3, "params-v7")[4]
        assert wu.input_files == (
            gen.model_file_name,
            "params-v7",
            gen.shard_file_name(4),
        )
        assert wu.epoch == 3

    def test_ids_unique_across_epochs(self, train_set):
        gen, _ = make_generator(train_set)
        ids = {wu.wu_id for wu in gen.make_epoch(0, "p")}
        ids |= {wu.wu_id for wu in gen.make_epoch(1, "p")}
        assert len(ids) == 20

    def test_work_jitter_varies_cost(self, train_set):
        gen, _ = make_generator(train_set, work_jitter=0.2)
        costs = [wu.work_units for wu in gen.make_epoch(0, "p")]
        assert len(set(costs)) > 1

    def test_zero_jitter_uniform_cost(self, train_set):
        gen, _ = make_generator(train_set, work_jitter=0.0)
        costs = {wu.work_units for wu in gen.make_epoch(0, "p")}
        assert costs == {144.0}

    def test_negative_epoch_rejected(self, train_set):
        gen, _ = make_generator(train_set)
        with pytest.raises(ConfigurationError):
            gen.make_epoch(-1, "p")

    def test_replicas_mint_suffixed_ids(self, train_set):
        gen, _ = make_generator(train_set, num_shards=4)
        wus = gen.make_epoch(0, "p", replicas=3)
        assert len(wus) == 12
        ids = [wu.wu_id for wu in wus]
        assert "job:e000:s000#r0" in ids and "job:e000:s000#r2" in ids
        # Replicas of one shard share the compute cost (same jitter draw).
        costs = {wu.work_units for wu in wus if wu.shard_index == 0}
        assert len(costs) == 1

    def test_single_replica_keeps_plain_ids(self, train_set):
        gen, _ = make_generator(train_set)
        assert gen.make_epoch(0, "p", replicas=1)[0].wu_id == "job:e000:s000"

    def test_invalid_replicas(self, train_set):
        gen, _ = make_generator(train_set)
        with pytest.raises(ConfigurationError):
            gen.make_epoch(0, "p", replicas=0)
