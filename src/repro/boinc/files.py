"""Server file catalogue, web-server transfers, and sticky-file caching.

§III-B: files (model architecture, parameter copies, data shards, client
code) are distributed by the BOINC web server.  Two latency optimizations
from the paper are modelled:

* **compression** — BOINC can gzip a file server-side and decompress on
  the client; the transfer then charges for the compressed size;
* **sticky files** — a client keeps named files cached, and the scheduler
  prefers clients that already hold a workunit's shard file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, SchedulerError
from ..simulation.chaos import PartitionSchedule, TransferFaultPlan
from ..simulation.engine import Simulator
from ..simulation.network import NetworkLink
from ..simulation.tracing import Trace

__all__ = [
    "ServerFile",
    "FileCatalog",
    "StickyCache",
    "WebServer",
    "TransferError",
]


@dataclass(frozen=True)
class TransferError:
    """Why a simulated transfer failed (handed to ``on_error`` callbacks)."""

    reason: str  # "failure" | "stall" | "partition"
    files: tuple[str, ...] = ()


@dataclass
class ServerFile:
    """A named file hosted by the BOINC web server.

    ``payload`` is the actual content (bytes or any object the executor
    understands); ``raw_size``/``compressed_size`` drive the transfer
    model; ``sticky`` marks it cacheable on clients; ``compressible``
    says whether the server serves the compressed representation.

    The publisher prices the file: ``compressed_size`` is an int, or a
    pending size — an object whose ``resolve()`` returns the int (the
    codec plane prices published parameter files on a pricing thread):
    the first :meth:`wire_size` read resolves it and keeps the int.
    """

    name: str
    payload: object
    raw_size: int
    compressed_size: object = None
    sticky: bool = False
    compressible: bool = True

    def __post_init__(self) -> None:
        if self.raw_size < 0:
            raise ConfigurationError(f"negative file size for {self.name!r}")
        if self.compressed_size is None:
            self.compressed_size = self.raw_size

    def wire_size(self, compression_enabled: bool) -> int:
        """Bytes actually sent over the network for one download."""
        if compression_enabled and self.compressible:
            if hasattr(self.compressed_size, "resolve"):
                self.compressed_size = self.compressed_size.resolve()
            return int(self.compressed_size)
        return self.raw_size


class FileCatalog:
    """All files currently published by the server."""

    def __init__(self) -> None:
        self._files: dict[str, ServerFile] = {}

    def publish(self, file: ServerFile) -> None:
        """Add or replace a file (parameter files are republished every update)."""
        self._files[file.name] = file

    def get(self, name: str) -> ServerFile:
        """Look up a published file; raises SchedulerError if absent."""
        try:
            return self._files[name]
        except KeyError:
            raise SchedulerError(f"file {name!r} not in catalog") from None

    def __contains__(self, name: str) -> bool:
        return name in self._files

    def names(self) -> list[str]:
        """Sorted names of all published files."""
        return sorted(self._files)


class StickyCache:
    """Per-client cache of sticky file names (§III-B).

    Capacity is expressed in bytes; eviction is LRU.  The paper's shards
    are small (3.9 MB), so in practice everything fits, but the bound keeps
    the model honest for bigger workloads (ImageNet extrapolation).
    """

    def __init__(self, capacity_bytes: float = 8e9) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError("cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._entries: dict[str, int] = {}  # name -> size (insertion order = LRU)
        self.hits = 0
        self.misses = 0
        # Publish version of the parameter file this client last fetched
        # (parameter files are not sticky, but the client's working copy
        # *is* a cache a delta codec can encode against).  Maintained by
        # the codec plane's ``on_downloaded``; None until the first
        # completed parameter download.
        self.param_version: int | None = None

    def has(self, name: str) -> bool:
        """Whether the named file is cached."""
        return name in self._entries

    def touch(self, name: str) -> None:
        """Refresh LRU recency of a cached file."""
        size = self._entries.pop(name)
        self._entries[name] = size

    def add(self, name: str, size: int) -> None:
        """Insert a file, evicting least-recently-used entries to fit."""
        if name in self._entries:
            self.touch(name)
            return
        while self._entries and self.used_bytes + size > self.capacity_bytes:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[name] = size

    @property
    def used_bytes(self) -> int:
        return sum(self._entries.values())

    def cached_names(self) -> set[str]:
        """Names currently cached (the sticky set sent to the scheduler)."""
        return set(self._entries)


class WebServer:
    """Transfer engine: moves catalogue files over client links.

    Download/upload durations come from the client's
    :class:`~repro.simulation.network.NetworkLink`; completion is signalled
    via callback on the shared simulator — the *only* way to obtain a
    payload.  A codec plane (:class:`repro.core.codec_plane.ParamCodecPlane`)
    set as ``codec_plane`` prices parameter files per client — the delta
    codec charges only the XOR chain between the client's cached version
    and the published one — and observes completed downloads (version
    bookkeeping, ``net.decode``); None charges each file's published size.

    The chaos fabric hooks in here: ``faults`` injects per-transfer
    failures/stalls and ``partitions`` cuts clients off for timed windows.
    A failed transfer fires ``on_error(TransferError)`` instead of
    ``on_done``; callers without an ``on_error`` (legacy/setup paths) are
    never subjected to injected faults.
    """

    def __init__(
        self,
        sim: Simulator,
        catalog: FileCatalog,
        compression_enabled: bool = True,
        trace: Trace | None = None,
        faults: TransferFaultPlan | None = None,
        partitions: PartitionSchedule | None = None,
    ) -> None:
        self.sim = sim
        self.catalog = catalog
        self.compression_enabled = compression_enabled
        self.codec_plane = None
        self.trace = trace
        self.faults = faults if faults is not None else TransferFaultPlan()
        self.partitions = partitions if partitions is not None else PartitionSchedule()
        self.bytes_down = 0
        self.bytes_up = 0
        self.bytes_wasted = 0  # partial transfers that failed mid-flight
        self.transfers_failed = 0

    # -- fault model -------------------------------------------------------
    def _fault_delay(
        self,
        nominal_s: float,
        link: NetworkLink,
        client_id: str,
        rng: np.random.Generator | None,
    ) -> tuple[str | None, float]:
        """(failure reason or None, seconds until completion/detection)."""
        window = self.partitions.blocking(client_id, self.sim.now)
        if window is not None:
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now,
                    "net.partition",
                    client=client_id,
                    until=window.end_s,
                )
            return "partition", link.handshake_time()
        if self.faults.active and rng is not None:
            draw = float(rng.random())
            if draw < self.faults.failure_p:
                # The connection drops partway through: the client learns
                # after a deterministic fraction of the nominal time.
                return "failure", nominal_s * float(rng.uniform(0.05, 0.95))
            if draw < self.faults.failure_p + self.faults.stall_p:
                return "stall", self.faults.stall_timeout_s
        return None, nominal_s

    def _resolve(self, names: list[str]) -> dict[str, object]:
        return {name: self.catalog.get(name).payload for name in names}

    def download(
        self,
        names: list[str],
        link: NetworkLink,
        cache: StickyCache | None,
        on_done,
        rng: np.random.Generator | None = None,
        on_error=None,
        client_id: str = "",
        wu_id: str = "",
    ) -> None:
        """Fetch ``names`` for a client; fire ``on_done(payloads)`` when done.

        Cached sticky files cost nothing; the rest are transferred
        back-to-back over the link.  On an injected fault the transfer
        charges nothing to the cache, wastes the partial bytes, and fires
        ``on_error(TransferError)`` after the detection delay (when
        ``on_error`` is None the transfer is exempt from fault injection —
        setup paths must not silently lose files).
        """
        total_time = 0.0
        total_wire = 0
        cache_hits: list[str] = []
        cache_misses: list[tuple[str, int, bool]] = []  # name, wire, sticky
        transferred: list[ServerFile] = []
        for name in names:
            file = self.catalog.get(name)
            if cache is not None and file.sticky and cache.has(name):
                cache_hits.append(name)
                continue
            wire = None
            if self.codec_plane is not None:
                wire = self.codec_plane.download_wire_size(file, cache)
            if wire is None:
                wire = file.wire_size(self.compression_enabled)
            total_time += link.transfer_time(wire, rng)
            total_wire += wire
            transferred.append(file)
            if cache is not None:
                cache_misses.append((name, wire, file.sticky))
        reason = None
        if on_error is not None:
            reason, total_time = self._fault_delay(total_time, link, client_id, rng)
        if reason is not None:
            self.transfers_failed += 1
            self.bytes_wasted += total_wire
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now,
                    "web.xfer_fail",
                    direction="down",
                    reason=reason,
                    client=client_id,
                    wu=wu_id,
                    files=list(names),
                )
            error = TransferError(reason=reason, files=tuple(names))
            self.sim.schedule(
                total_time, lambda: on_error(error), label="web:download-fail"
            )
            return
        # Cache bookkeeping only on transfers that actually complete.
        for name in cache_hits:
            cache.touch(name)
            cache.hits += 1
        for name, wire, sticky in cache_misses:
            cache.misses += 1
            if sticky:
                cache.add(name, wire)
        if self.codec_plane is not None:
            for file in transferred:
                self.codec_plane.on_downloaded(file, cache, client_id, wu_id)
        self.bytes_down += total_wire
        if self.trace is not None:
            self.trace.emit(
                self.sim.now,
                "web.download",
                files=list(names),
                seconds=total_time,
                client=client_id,
                wu=wu_id,
            )
        payloads = self._resolve(names)
        self.sim.schedule(total_time, lambda: on_done(payloads), label="web:download")

    def upload(
        self,
        nbytes: int,
        link: NetworkLink,
        on_done,
        rng: np.random.Generator | None = None,
        on_error=None,
        client_id: str = "",
        wu_id: str = "",
    ) -> None:
        """Client → server transfer of a result file of ``nbytes``."""
        seconds = link.transfer_time(nbytes, rng)
        reason = None
        if on_error is not None:
            reason, seconds = self._fault_delay(seconds, link, client_id, rng)
        if reason is not None:
            self.transfers_failed += 1
            self.bytes_wasted += nbytes
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now,
                    "web.xfer_fail",
                    direction="up",
                    reason=reason,
                    client=client_id,
                    wu=wu_id,
                    nbytes=nbytes,
                )
            error = TransferError(reason=reason)
            self.sim.schedule(seconds, lambda: on_error(error), label="web:upload-fail")
            return
        self.bytes_up += nbytes
        if self.trace is not None:
            self.trace.emit(
                self.sim.now,
                "web.upload",
                nbytes=nbytes,
                seconds=seconds,
                client=client_id,
                wu=wu_id,
            )
        self.sim.schedule(seconds, on_done, label="web:upload")
