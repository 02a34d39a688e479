"""Work generator: turns a training job into per-epoch workunits (§III-A).

"The work generator component splits a single DL training job into multiple
training subtasks": it shards the dataset once, publishes the shard files
and the model-architecture file (both sticky — cached on clients), and at
each epoch mints one workunit per shard referencing the *current* server
parameter file (not sticky — refreshed every assimilation).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from ..data.dataset import Dataset
from ..data.sharding import split_dataset
from ..errors import ConfigurationError
from ..nn.serialization import compressed_size
from ..simulation.resources import SUBTASK_WORK_UNITS
from .files import FileCatalog, ServerFile
from .replication import replica_id
from .workunit import Workunit

__all__ = ["WorkGenerator"]

# Shard files are serialized purely to *measure* them (the catalogue ships
# the Dataset object itself; only the byte counts feed the transfer model).
# The npz encode — especially the deflate pass — costs tens of ms per
# shard and every sweep point re-creates an identical sharding, so sizes
# are memoised by shard content.
_SHARD_SIZE_CACHE: "OrderedDict[tuple[bytes, bool], int]" = OrderedDict()
_SHARD_SIZE_CACHE_MAX = 512


def _shard_digest(shard: Dataset) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(shard.name.encode())
    for arr in (shard.x, shard.y):
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.digest()


def _shard_nbytes(shard: Dataset, digest: bytes, compress: bool) -> int:
    key = (digest, compress)
    cached = _SHARD_SIZE_CACHE.get(key)
    if cached is not None:
        _SHARD_SIZE_CACHE.move_to_end(key)
        return cached
    size = len(shard.to_bytes(compress=compress))
    _SHARD_SIZE_CACHE[key] = size
    while len(_SHARD_SIZE_CACHE) > _SHARD_SIZE_CACHE_MAX:
        _SHARD_SIZE_CACHE.popitem(last=False)
    return size


class WorkGenerator:
    """Creates and publishes training subtasks for one job."""

    def __init__(
        self,
        job_id: str,
        catalog: FileCatalog,
        train_set: Dataset,
        num_shards: int,
        model_spec_json: str,
        timeout_s: float,
        work_jitter: float = 0.10,
        max_attempts: int = 5,
        rng: np.random.Generator | None = None,
        compress_shards: bool = True,
    ) -> None:
        if num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")
        self.job_id = job_id
        self.catalog = catalog
        self.num_shards = num_shards
        self.timeout_s = timeout_s
        self.work_jitter = work_jitter
        self.max_attempts = max_attempts
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.shards = split_dataset(train_set, num_shards, rng=self.rng, strategy="shuffled")
        self.model_file_name = f"{job_id}:model.json"
        self._publish_static(model_spec_json, compress_shards)

    def _publish_static(self, model_spec_json: str, compress_shards: bool) -> None:
        """Publish the architecture file and all data shards (sticky), each
        priced here (the spec at its zlib size, never above its raw size)."""
        spec_bytes = model_spec_json.encode()
        self.catalog.publish(
            ServerFile(
                name=self.model_file_name,
                payload=model_spec_json,
                raw_size=len(spec_bytes),
                compressed_size=min(compressed_size(spec_bytes), len(spec_bytes)),
                sticky=True,
            )
        )
        for shard in self.shards:
            digest = _shard_digest(shard)
            raw = _shard_nbytes(shard, digest, compress=False)
            compressed = (
                _shard_nbytes(shard, digest, compress=True)
                if compress_shards
                else raw
            )
            self.catalog.publish(
                ServerFile(
                    name=f"{self.job_id}:{shard.name}",
                    payload=shard,
                    raw_size=raw,
                    compressed_size=compressed,
                    sticky=True,
                )
            )

    def shard_file_name(self, shard_index: int) -> str:
        """Catalogue name of the data-shard file for one shard index."""
        return f"{self.job_id}:{self.shards[shard_index].name}"

    def make_epoch(
        self, epoch: int, param_file_name: str, replicas: int = 1
    ) -> list[Workunit]:
        """Mint workunits for ``epoch``: one logical subtask per shard,
        ``replicas`` physical workunits per subtask (§II-C redundancy).

        ``param_file_name`` is the catalogue entry holding the server
        parameter copy the clients should start from.  Per-subtask compute
        cost gets a small lognormal jitter (real subtasks are never exactly
        equal); draws are consumed in shard order so runs are reproducible.
        """
        if epoch < 0:
            raise ConfigurationError("epoch must be non-negative")
        if replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        workunits: list[Workunit] = []
        for shard_index in range(self.num_shards):
            base_id = f"{self.job_id}:e{epoch:03d}:s{shard_index:03d}"
            workunits.extend(
                self._mint_subtask(base_id, epoch, shard_index, param_file_name, replicas)
            )
        return workunits

    def make_retries(
        self,
        epoch: int,
        param_file_name: str,
        shard_indices: list[int],
        round_index: int,
        replicas: int = 1,
    ) -> list[Workunit]:
        """Mint replacement workunits for shards whose subtask failed
        permanently (all attempts of all replicas exhausted).

        Used by barrier-style update rules that cannot close an epoch while
        any shard's update is missing: the original workunit ids are spent,
        so replacements carry a ``:b<round>`` suffix and fresh attempt
        budgets.
        """
        if round_index < 1:
            raise ConfigurationError("round_index must be >= 1")
        workunits: list[Workunit] = []
        for shard_index in shard_indices:
            base_id = (
                f"{self.job_id}:e{epoch:03d}:s{shard_index:03d}:b{round_index}"
            )
            workunits.extend(
                self._mint_subtask(base_id, epoch, shard_index, param_file_name, replicas)
            )
        return workunits

    def _mint_subtask(
        self,
        base_id: str,
        epoch: int,
        shard_index: int,
        param_file_name: str,
        replicas: int,
    ) -> list[Workunit]:
        """One logical subtask: ``replicas`` physical workunits sharing a
        jitter draw (replicas must be bit-identical, §II-C)."""
        jitter = (
            float(self.rng.lognormal(mean=0.0, sigma=self.work_jitter))
            if self.work_jitter > 0
            else 1.0
        )
        return [
            Workunit(
                wu_id=base_id if replicas == 1 else replica_id(base_id, replica),
                job_id=self.job_id,
                epoch=epoch,
                shard_index=shard_index,
                input_files=(
                    self.model_file_name,
                    param_file_name,
                    self.shard_file_name(shard_index),
                ),
                work_units=SUBTASK_WORK_UNITS * jitter,
                timeout_s=self.timeout_s,
                max_attempts=self.max_attempts,
            )
            for replica in range(replicas)
        ]
