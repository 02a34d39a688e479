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

from ..errors import ConfigurationError, SchedulerError, SimulationError
from ..nn.serialization import compressed_size
from ..simulation.chaos import PartitionSchedule, TransferFaultPlan
from ..simulation.engine import Simulator
from ..simulation.network import NetworkLink
from ..simulation.tracing import Trace

__all__ = [
    "ServerFile",
    "FileCatalog",
    "StickyCache",
    "FileTransferModel",
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

    ``compressed_size`` may be :data:`ServerFile.AUTO`, in which case the
    catalogue measures the payload's real zlib size exactly once at
    registration (memoised by content, so republishing an identical
    payload never re-compresses).  It may also be a pending size — an
    object whose ``resolve()`` returns the int (the codec plane prices
    published parameter files on a pricing thread): the first
    :meth:`wire_size` read resolves it and keeps the int.
    """

    AUTO = "auto"

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
            if self.compressed_size == self.AUTO:
                raise SimulationError(
                    f"file {self.name!r} has an unresolved AUTO compressed "
                    "size; publish it through a FileCatalog first"
                )
            if hasattr(self.compressed_size, "resolve"):
                self.compressed_size = self.compressed_size.resolve()
            return int(self.compressed_size)
        return self.raw_size


class FileCatalog:
    """All files currently published by the server."""

    def __init__(self) -> None:
        self._files: dict[str, ServerFile] = {}

    def publish(self, file: ServerFile) -> None:
        """Add or replace a file (parameter files are republished every update).

        AUTO compressed sizes are resolved here, once per registration —
        the catalogue is the single place every served file passes
        through, so later ``wire_size`` queries are pure lookups.
        """
        if file.compressed_size == ServerFile.AUTO:
            file.compressed_size = self._measure_compressed(file)
        self._files[file.name] = file

    @staticmethod
    def _measure_compressed(file: ServerFile) -> int:
        """Real (memoised) zlib size of a measurable payload, capped at
        ``raw_size`` — an incompressible payload never costs more on the
        wire than its raw form (the server would skip compression)."""
        payload = file.payload
        if isinstance(payload, str):
            payload = payload.encode()
        if isinstance(payload, (bytes, np.ndarray)):
            return min(compressed_size(payload), file.raw_size)
        return file.raw_size

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
        # the codec plane's FileTransferModel hook; None until the first
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


class FileTransferModel:
    """Decides what one file download costs on the wire.

    The default model is the historical one: the file's published
    compressed (or raw) size.  A codec plane
    (:class:`repro.core.codec_plane.ParamCodecPlane`) hooks in here to
    price parameter files per client — e.g. the delta codec charges only
    the XOR chain between the client's cached version and the published
    one — and to observe completed downloads (version bookkeeping,
    ``net.decode`` tracing).  With no plane attached, behaviour is
    byte-identical to the pre-codec transfer path.
    """

    def __init__(self) -> None:
        self.codec_plane = None

    def wire_size(self, file: ServerFile, cache, compression_enabled: bool) -> int:
        """Bytes charged for one client's download of ``file``."""
        if self.codec_plane is not None:
            override = self.codec_plane.download_wire_size(file, cache)
            if override is not None:
                return override
        return file.wire_size(compression_enabled)

    def downloaded(self, file: ServerFile, cache, client_id: str, wu_id: str) -> None:
        """Hook: one file of a completed (non-faulted) transfer."""
        if self.codec_plane is not None:
            self.codec_plane.on_downloaded(file, cache, client_id, wu_id)


class WebServer:
    """Transfer engine: moves catalogue files over client links.

    Download/upload durations come from the client's
    :class:`~repro.simulation.network.NetworkLink`; completion is signalled
    via callback on the shared simulator — the *only* way to obtain a
    payload on the simulated path (use :meth:`peek_payloads` in tests).

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
        transfer_model: FileTransferModel | None = None,
    ) -> None:
        self.sim = sim
        self.catalog = catalog
        self.compression_enabled = compression_enabled
        self.transfer_model = (
            transfer_model if transfer_model is not None else FileTransferModel()
        )
        self.trace = trace
        self.faults = faults if faults is not None else TransferFaultPlan()
        self.partitions = partitions if partitions is not None else PartitionSchedule()
        self.bytes_down = 0
        self.bytes_up = 0
        self.bytes_wasted = 0  # partial transfers that failed mid-flight
        self.transfers_failed = 0
        # Test-only escape hatch: peek_payloads bypasses the simulated
        # transfer path entirely, so production code must never reach it.
        # Tests that need it opt in explicitly.
        self.peek_enabled = False

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

    def peek_payloads(self, names: list[str]) -> dict[str, object]:
        """Test-only accessor: catalogue payloads with **no** simulated
        transfer, no caching side effects, and no fault injection.  The
        simulation-correct path is :meth:`download`'s callback.  Guarded
        behind ``peek_enabled`` (default off) so production paths cannot
        grow a dependency on the un-simulated shortcut."""
        if not self.peek_enabled:
            raise SimulationError(
                "peek_payloads is a test-only accessor; set "
                "web.peek_enabled = True in the test to use it"
            )
        return self._resolve(names)

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
            wire = self.transfer_model.wire_size(file, cache, self.compression_enabled)
            total_time += link.transfer_time(wire, rng, now=self.sim.now)
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
        for file in transferred:
            self.transfer_model.downloaded(file, cache, client_id, wu_id)
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
        seconds = link.transfer_time(nbytes, rng, now=self.sim.now)
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
