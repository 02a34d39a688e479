"""Codec plane: wires transfer codecs into the runner's wire paths.

The codecs themselves (``repro.nn.codecs``) are pure, stateless vector
transforms.  This module owns everything *stateful* about using them in
one run:

* **publish path** — every republished parameter file is encoded once
  and the measured encoded size becomes the file's wire size.  A lossy
  file rests in its wire form (:class:`VersionedParams`): each client
  decodes its own copy when it trains, so quantization error affects
  real training (simulation honesty) while the server holds one encoded
  record per live version, not one float64 vector.  Inside
  ``DistributedRunner.run()`` the zlib pass that prices a publish is
  queued for one pricing thread, overlapping the simulation thread's
  NumPy work; the size is a :class:`PendingPrice` until something first
  reads it (see :meth:`ParamCodecPlane.start_pricing`).  A read that
  finds its deflate still queued takes it off the queue and runs it on
  the simulation thread rather than wait behind older ones;
* **download path** — the delta codec keeps a bounded window of
  version-to-version XOR sizes; a client whose sticky cache records the
  last parameter version it fetched is charged only the chain of deltas
  between that version and the published one (full size when the chain
  left the window).  Each completed parameter download emits a
  ``net.decode`` record: the decode cost is paid client-side, per
  download, in the real system;
* **upload path** — exactly one vector crosses the wire per result
  (matching the historical accounting): the accumulated gradient for
  gradient-consuming rules, the parameter delta against the downloaded
  base for averaging rules.  Inside ``DistributedRunner.run()`` its zlib
  pass runs on the same pricing thread when the runner has a subtask to
  train meanwhile; the size resolves before the runner hands it to the
  client's upload, in the same compute-end event.  A lossy
  parameter-stream upload is priced one compute end ahead: when the
  runner trains the next finisher's step early (and another attempt is
  still computing), it also encodes that step's upload and queues its
  deflate, keeping only the encoded record.
  The attempt's own compute end commits it if the client's residual
  generation is unchanged, writing the residual and counting, tracing
  and pricing it where an inline encode would; otherwise it encodes the
  upload again (:meth:`ParamCodecPlane.encode_upload`).  A lossy upload is a
  plain :class:`~repro.core.rules.ClientUpdate` holding the *decoded*
  vector (the client needs that decode for its residual); the server's
  accept path counts and traces the decode (:meth:`ParamCodecPlane.on_accepted`),
  so its ``net.decode`` record lands at receipt.  Lossy codecs apply
  **error feedback**: the encode error is carried client-side as a
  residual and added to the next upload from the same client, so
  dropped/rounded mass is delayed, never lost.  Residuals are
  checkpointable (:meth:`state_dict`) and are disabled under
  replication, where sibling replicas must produce bit-identical decoded
  payloads to reach quorum.

Determinism contract: every counter is an integer derived from encoded
content, never from timing.  A pending price resolves only at points the
simulation fixes (a file's first size read, the runner's executor
returning an upload, an epoch boundary, :meth:`ParamCodecPlane.counters`),
never when the thread happens to finish, so its counter increment and
its ``net.encode`` record land at the same place on every run.  The
``encode_cpu_s``/``decode_cpu_s`` attributes and the ``stats`` dict
(prepared, stale and helped counts, seconds blocked on the thread) are
host wall-clock attributions for benchmarks and obs metrics only — they
must never reach ``RunResult.counters``, trace fields, or any digested
artifact.
"""

from __future__ import annotations

import time
import zlib
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from ..nn.codecs import Encoded, TopKCodec, ZlibCodec, make_codec, wire_nbytes
from ..nn.serialization import _ZLIB_LEVEL, compressed_size
from .rules import ClientUpdate

__all__ = ["ParamCodecPlane", "PendingPrice", "VersionedParams"]

# Versions retained in the delta-size window; older chains fall back to
# the full transfer.  One entry per publish: an int (or a pending price
# that holds none of the vectors), so the window is tiny regardless of
# model size.
DELTA_WINDOW = 64
# Floor charged for a delta download whose chain is empty (client already
# holds the published version): headers still cross the wire.
DELTA_MIN_WIRE = 32


@dataclass(frozen=True)
class VersionedParams:
    """Published server parameter copy, tagged with its publish version.

    The version travels with the payload itself, so staleness bookkeeping
    no longer needs an id()-keyed side table that outlives its vectors:
    every downloader reads the version straight off the file it trained
    from, including frozen per-epoch replica copies.

    A lossy codec's file rests in its wire form: ``content`` is the
    codec's :class:`~repro.nn.codecs.Encoded` record and ``decoder`` its
    decoder.  Otherwise ``content`` is the float64 vector itself, shared
    by reference.
    """

    content: np.ndarray | Encoded
    version: int
    decoder: Callable[[Encoded], np.ndarray] | None = None

    def decode_params(self) -> np.ndarray:
        """The parameter vector a downloader trains on.

        For a lossy file every call decodes and allocates a fresh
        model-sized vector (never cached), so a caller reads it once per
        use and keeps the result.  Otherwise it is ``content`` itself.
        """
        if self.decoder is None:
            return self.content
        return self.decoder(self.content)

    @property
    def nbytes(self) -> int:
        """Bytes of the float64 parameter vector, without decoding it."""
        if self.decoder is None:
            return int(self.content.nbytes)
        return int(self.content.raw_nbytes)


def _deflate(body: np.ndarray) -> int:
    """The zlib size of one body: the pricing path's only deflate.

    No memo: every body the plane prices is fresh content (the memo
    behind ``compressed_size`` hits 0 times on every benchmark workload),
    so hashing it first is pure cost.  The pricing thread and a helping
    resolve both call this name, never a public codec or serialization
    callable."""
    return len(zlib.compress(body, _ZLIB_LEVEL))


class _Deflate:
    """One body's zlib pass, queued on the pricing thread.

    The body is held only until it is deflated: on the pricing thread,
    or on the simulation thread when a reader takes the job off the
    queue first (:meth:`result`).
    """

    __slots__ = ("body", "future", "stats")

    def __init__(self, body: np.ndarray, pricing: ThreadPoolExecutor, stats: dict):
        self.body = body
        self.stats = stats
        self.future = pricing.submit(self.run)

    def run(self) -> tuple[int, float]:
        """The body's zlib size and the CPU seconds it took on this
        thread (time spent waiting for the GIL excluded)."""
        body, self.body = self.body, None
        t0 = time.thread_time()
        try:
            return _deflate(body), time.thread_time() - t0
        finally:
            del body

    def result(self) -> tuple[int, float]:
        """``run()``'s result.  Still queued, the job is deflated here
        rather than behind older jobs (``helped_deflates``); otherwise
        the thread's is waited for (``pricing_wait_s``)."""
        if self.future.cancel():
            self.stats["helped_deflates"] += 1
            return self.run()
        t0 = time.perf_counter()
        try:
            return self.future.result()
        finally:
            self.stats["pricing_wait_s"] += time.perf_counter() - t0

    def cancel(self) -> None:
        """Drop a job nobody will read; one still queued never runs."""
        if self.future.cancel():
            self.body = None


class PendingPrice:
    """Wire size of a file while its deflate is queued or running.

    :meth:`resolve` takes the deflate once (running it here if it is
    still queued) and hands it to ``finish`` (the plane's bookkeeping),
    which returns the wire size; later calls return the same int.
    ``ServerFile`` sizes, the delta window and a result upload's size
    hold these until they are read.
    """

    __slots__ = ("_job", "_finish", "value")

    def __init__(self, job: _Deflate, finish: Callable[[int, float], int]) -> None:
        self._job = job
        self._finish = finish
        self.value: int | None = None

    def resolve(self) -> int:
        if self.value is None:
            self.value = self._finish(*self._job.result())
            self._job = self._finish = None
        return self.value


@dataclass(frozen=True)
class _PreparedUpload:
    """An upload encoded one compute end early, its deflate queued.

    Keeps the encoded record (1 byte per scalar for int8), never a
    float64 vector: the residual and the decoded update are recomputed
    from the same inputs when the attempt's compute end commits it.
    ``generation`` is the client's residual generation the encode read.
    """

    attempt: object
    generation: int
    encoded: Encoded
    body_nbytes: int
    job: _Deflate


class ParamCodecPlane:
    """Per-run codec state: residuals, delta chains, counters, tracing."""

    def __init__(
        self,
        name: str,
        *,
        layout,
        trace=None,
        now_fn=None,
        topk_fraction: float = 0.01,
        quant: str = "fp32",
        error_feedback: bool = True,
    ) -> None:
        self.name = name
        self.layout = layout
        self.trace = trace
        self.now = now_fn if now_fn is not None else (lambda: 0.0)
        if name == "topk":
            # Sparsification is an upload-side codec; broadcasts of the
            # full dense state go out at the zlib baseline.
            self.down_codec = ZlibCodec()
            self.up_codec = TopKCodec(topk_fraction, quant)
        else:
            self.down_codec = make_codec(name, topk_fraction, quant)
            self.up_codec = make_codec(name, topk_fraction, quant)
        self._delta = name == "delta"
        self._zlib = ZlibCodec()
        # Error feedback only makes sense for lossy uploads, and must be
        # off under replication (per-client residuals would make sibling
        # replicas' decoded payloads disagree).
        self.error_feedback = bool(error_feedback) and self.up_codec.lossy
        # Delta bookkeeping: the previous published vector and the wire
        # size of each version's XOR step against its predecessor.
        self._last_published: np.ndarray | None = None
        self._delta_window: "OrderedDict[int, int | PendingPrice]" = OrderedDict()
        # The pricing thread (only between start_pricing and stop_pricing)
        # and the prices it has not had read yet, oldest first.
        self._pricing: ThreadPoolExecutor | None = None
        self._pending: list[PendingPrice] = []
        # Per-client error-feedback residuals (flat vectors), and how many
        # times each has been written: a prepared upload commits only if
        # its client's generation is the one its encode read.
        self._residuals: dict[str, np.ndarray] = {}
        self._generations: dict[str, int] = {}
        # The one upload priced a compute end ahead, if any.  Only lossy
        # codecs with a body to deflate price ahead (top-k has none).
        self._prepared_upload: _PreparedUpload | None = None
        self._prices_ahead = self.up_codec.lossy and not isinstance(
            self.up_codec, TopKCodec
        )
        # Integer counters — deterministic, safe for RunResult.counters.
        self.publishes = 0
        self.publish_raw_bytes = 0
        self.publish_wire_bytes = 0
        self.uploads = 0
        self.upload_raw_bytes = 0
        self.upload_wire_bytes = 0
        self.decodes = 0
        self.delta_chain_downloads = 0
        self.delta_full_downloads = 0
        # Host CPU attribution (benchmark/obs only; never digested).
        self.encode_cpu_s = 0.0
        self.decode_cpu_s = 0.0
        # Host-side pricing stats, kept out of counters and the trace like
        # encode_cpu_s: uploads prepared a compute end ahead, prepared
        # uploads re-encoded or dropped instead of committed, deflates the
        # simulation thread ran itself, and seconds it blocked on one.
        self.stats = {
            "prepared_uploads": 0,
            "prepared_stale": 0,
            "helped_deflates": 0,
            "pricing_wait_s": 0.0,
        }

    # -- publish / download paths -----------------------------------------

    def encode_publish(
        self, vec: np.ndarray, version: int, frozen: bool = False
    ) -> tuple[VersionedParams, "int | PendingPrice"]:
        """Encode one published parameter file.

        Returns ``(payload, wire_bytes)``: the file's payload — the
        encoded record for lossy codecs, ``vec`` by reference otherwise —
        and its wire size (for delta, the full-transfer fallback — the
        per-client chain price is computed at download time).  Frozen
        per-epoch replica copies are encoded identically but do not
        advance the delta chain (they alias the current version).

        While the pricing thread runs, the wire size (and a delta step's
        size) is a :class:`PendingPrice`; the publish's wire-byte counter
        and ``net.encode`` record wait for its resolution.
        """
        t0 = time.perf_counter()
        raw = int(vec.nbytes)
        if self._delta:
            if not frozen:
                if self._last_published is not None:
                    step, body = self.down_codec.encode_unpriced(
                        vec, self.layout, reference=self._last_published
                    )
                    self._delta_window[version] = self._price(step, body)
                    while len(self._delta_window) > DELTA_WINDOW:
                        self._delta_window.popitem(last=False)
                self._last_published = vec.copy()
            encoded, body = self._zlib.encode_unpriced(vec)
            payload = VersionedParams(vec, version)
        else:
            encoded, body = self.down_codec.encode_unpriced(vec, self.layout)
            if self.down_codec.lossy:
                payload = VersionedParams(encoded, version, self._decode_download)
            else:
                payload = VersionedParams(vec, version)
        wire = self._price(
            encoded,
            body,
            dict(direction="down", codec=self.name, version=version, raw=raw),
        )
        self.encode_cpu_s += time.perf_counter() - t0
        self.publishes += 1
        self.publish_raw_bytes += raw
        return payload, wire

    # -- pricing -------------------------------------------------------------

    def _price(
        self, unpriced: Encoded, body: np.ndarray | None, record: dict | None = None
    ) -> "int | PendingPrice":
        """Wire size of an unpriced record: deflated on the pricing thread
        while it runs, else here.  ``record`` marks a whole published file
        or result upload: the ``net.encode`` fields it is counted and
        traced with once priced."""
        if body is None:  # already priced, or a fixed-size format (top-k)
            return self._priced(unpriced.nbytes, 0, record, 0, 0.0)
        if self._pricing is None:
            return self._priced(
                unpriced.nbytes, body.nbytes, record, compressed_size(body), 0.0
            )
        job = _Deflate(body, self._pricing, self.stats)
        return self._pend(job, unpriced.nbytes, body.nbytes, record)

    def _pend(
        self, job: _Deflate, unpriced_nbytes: int, body_nbytes: int, record
    ) -> PendingPrice:
        price = PendingPrice(
            job, partial(self._priced, unpriced_nbytes, body_nbytes, record)
        )
        self._pending.append(price)
        return price

    def _priced(
        self,
        unpriced_nbytes: int,
        body_nbytes: int,
        record: dict | None,
        deflated: int,
        seconds: float,
    ) -> int:
        wire = wire_nbytes(unpriced_nbytes, body_nbytes, deflated)
        self.encode_cpu_s += seconds
        if record is not None:
            if record["direction"] == "down":
                self.publish_wire_bytes += wire
            else:
                self.upload_wire_bytes += wire
            if self.trace is not None:
                self.trace.emit(self.now(), "net.encode", **record, wire=wire)
        return wire

    def start_pricing(self) -> None:
        """Deflate publishes and uploads on one pricing thread from now on.

        ``DistributedRunner.run`` brackets itself with this and
        :meth:`stop_pricing`, so the thread never outlives a run (sweeps
        fork between runs).  The thread calls only :func:`_deflate`,
        never a public codec or serialization callable.
        """
        self._pricing = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-pricing"
        )

    def settle(self) -> None:
        """Resolve every pending price, oldest first (epoch boundaries,
        :meth:`counters`)."""
        pending, self._pending = self._pending, []
        for price in pending:
            price.resolve()

    def stop_pricing(self) -> None:
        """Join the pricing thread once its current job is done, drop the
        prepared upload and settle what is pending (deflating here what
        the thread left queued); publishes and uploads price inline
        again."""
        self.discard_prepared()
        pricing, self._pricing = self._pricing, None
        if pricing is not None:
            pricing.shutdown(wait=True, cancel_futures=True)
        self.settle()

    def _decode_download(self, enc: Encoded) -> np.ndarray:
        """A client decodes its downloaded copy of a lossy parameter file."""
        t0 = time.perf_counter()
        vec = self.down_codec.decode(enc)
        self.decode_cpu_s += time.perf_counter() - t0
        return vec

    def download_wire_size(self, file, cache) -> int | None:
        """Per-client wire size override for a download, or None for the
        default (the file's published wire size).

        Only the delta codec prices per client: the chain of XOR steps
        between the client's cached parameter version and the published
        one, charged only while every step is still in the window.
        """
        if not self._delta:
            return None
        version = getattr(file.payload, "version", None)
        if version is None:
            return None  # shards, model specs: not parameter files
        full = file.wire_size(compression_enabled=True)
        base = cache.param_version if cache is not None else None
        if base is None:
            self.delta_full_downloads += 1
            return full
        lo, hi = (base, version) if base <= version else (version, base)
        chain = 0
        for v in range(lo + 1, hi + 1):
            step = self._delta_window.get(v)
            if step is None:
                self.delta_full_downloads += 1
                return full
            chain += step if isinstance(step, int) else step.resolve()
        self.delta_chain_downloads += 1
        return min(max(chain, DELTA_MIN_WIRE), full)

    def on_downloaded(self, file, cache, client_id: str, wu_id: str) -> None:
        """Completed parameter download: record the client's new version
        (the reference future delta chains price against) and emit the
        client-side decode."""
        payload = file.payload
        version = getattr(payload, "version", None)
        if version is None:
            return
        if cache is not None:
            prev = cache.param_version
            cache.param_version = version if prev is None else max(prev, version)
        self.decodes += 1
        if self.trace is not None:
            self.trace.emit(
                self.now(),
                "net.decode",
                direction="down",
                codec=self.name,
                client=client_id,
                wu=wu_id,
                raw=payload.nbytes,
            )

    # -- upload path -------------------------------------------------------

    def encode_upload(
        self,
        update: ClientUpdate,
        base_vec: np.ndarray | VersionedParams,
        wu_id: str,
        defer_price: bool = False,
        attempt=None,
        ahead: bool = False,
    ) -> "tuple[ClientUpdate, int | PendingPrice] | None":
        """Encode one result upload; returns ``(update, wire_bytes)``.

        Exactly one vector is charged to the wire, matching the
        historical accounting: the accumulated gradient when the rule
        consumes gradients, else the parameter delta against the base the
        client trained from.  A lossy codec returns the *decoded* update —
        what the server actually receives; the server counts and traces
        that decode when it accepts the result (:meth:`on_accepted`).

        ``defer_price`` says the caller has work to do before it reads
        the size.  Then, while the pricing thread runs, the body is
        deflated there and the wire size is a :class:`PendingPrice`
        (top-k's fixed-size format excepted); the upload's wire-byte
        counter and ``net.encode`` record wait for its resolution.
        Otherwise the codec's own ``encode`` prices it here.

        ``attempt`` names the attempt the upload belongs to.  With
        ``ahead`` the call comes one compute end early, from the
        attempt's finished step, and ``base_vec`` is the published file
        that step trained from (decoded only if it is used): while the
        pricing thread runs, a lossy parameter-stream upload is encoded,
        its deflate queued, and the record kept as the one prepared
        upload; nothing is counted, traced or written, and the call
        returns None.  The call naming
        the same ``attempt`` at its compute end commits it — residual,
        counters, a :class:`PendingPrice` on the queued deflate — if the
        client's residual has not been written since; otherwise the
        upload is encoded again, as if never prepared.
        """
        if ahead:
            self._prepare_upload(update, base_vec, attempt)
            return None
        deferred = defer_price and self._pricing is not None

        def encode(codec, vec, layout=None, **options):
            if deferred:
                return codec.encode_unpriced(vec, layout, **options)
            return codec.encode(vec, layout, **options), None

        t0 = time.perf_counter()
        gradient_stream = update.gradient is not None
        raw_nbytes = int(
            (update.gradient if gradient_stream else update.params).nbytes
        )
        prepared = None
        if not self.up_codec.lossy:
            if self._delta and not gradient_stream:
                # Both sides hold the base (the server published it), so
                # the upload is the XOR of the new parameters against it.
                enc, body = encode(
                    self.up_codec, update.params, self.layout, reference=base_vec
                )
            else:
                # The zlib baseline compresses the uploaded result file
                # itself (gradient or full parameter copy), not a delta.
                uploaded = update.gradient if gradient_stream else update.params
                enc, body = encode(self._zlib, np.ascontiguousarray(uploaded))
        else:
            # Error feedback turns the encoded vector into the next
            # residual, in place when it is the fresh ``params - base``.
            vector = self._feedback_vector(update, base_vec)
            prepared = self._take_prepared(attempt, update.client_id)
            if prepared is None:
                enc, body = encode(self.up_codec, vector, self.layout)
            else:
                enc = prepared.encoded
            t1 = time.perf_counter()
            decoded = self.up_codec.decode(enc)
            self.decode_cpu_s += time.perf_counter() - t1
            if self.error_feedback:
                owned = vector is not update.gradient
                self._residuals[update.client_id] = np.subtract(
                    vector, decoded, out=vector if owned else None
                )
                self._generations[update.client_id] = (
                    self._generations.get(update.client_id, 0) + 1
                )
            if gradient_stream:
                # The gradient is what crossed the wire; the parameter
                # copy rides along as bookkeeping (today's payloads carry
                # both while the wire charges one vector).
                update = replace(update, gradient=decoded)
            else:
                update = replace(
                    update, params=np.add(base_vec, decoded, out=decoded)
                )
        self.uploads += 1
        self.upload_raw_bytes += raw_nbytes
        record = dict(
            direction="up",
            codec=self.name,
            client=update.client_id,
            wu=wu_id,
            raw=raw_nbytes,
        )
        if prepared is None:
            wire = self._price(enc, body, record)
        else:
            wire = self._pend(prepared.job, enc.nbytes, prepared.body_nbytes, record)
        self.encode_cpu_s += time.perf_counter() - t0
        return update, wire

    def _feedback_vector(self, update: ClientUpdate, base_vec: np.ndarray):
        """What a lossy upload encodes: the gradient or ``params - base``,
        plus the client's residual under error feedback.

        ``params - base`` is the one fresh vector, and the residual is
        added into it.  ``gradient + residual`` lands in the old residual
        instead, so ``update.gradient`` is never written."""
        gradient_stream = update.gradient is not None
        if gradient_stream:
            vector = update.gradient
        else:
            vector = np.subtract(update.params, base_vec)
        if self.error_feedback:
            residual = self._residuals.get(update.client_id)
            if residual is not None:
                out = residual if gradient_stream else vector
                vector = np.add(vector, residual, out=out)
        return vector

    def _prepare_upload(
        self, update: ClientUpdate, published: VersionedParams, attempt
    ) -> None:
        """Encode a lossy parameter-stream upload a compute end ahead and
        queue its deflate (see :meth:`encode_upload`).  The plane alone
        decides which codecs and streams price ahead; the base is decoded
        only for an upload it prepares."""
        if (
            self._pricing is None
            or not self._prices_ahead
            or self._prepared_upload is not None
            or attempt is None
            or update.gradient is not None
        ):
            return
        t0 = time.perf_counter()
        enc, body = self.up_codec.encode_unpriced(
            self._feedback_vector(update, published.decode_params()), self.layout
        )
        self._prepared_upload = _PreparedUpload(
            attempt,
            self._generations.get(update.client_id, 0),
            enc,
            body.nbytes,
            _Deflate(body, self._pricing, self.stats),
        )
        self.stats["prepared_uploads"] += 1
        self.encode_cpu_s += time.perf_counter() - t0

    def _take_prepared(self, attempt, client_id: str) -> _PreparedUpload | None:
        """The upload prepared for ``attempt``, if its client's residual
        is still the one it read; a stale one is dropped."""
        prepared = self._prepared_upload
        if prepared is None or attempt is None or prepared.attempt != attempt:
            return None
        if prepared.generation != self._generations.get(client_id, 0):
            self.discard_prepared()
            return None
        self._prepared_upload = None
        return prepared

    def discard_prepared(self, attempt=None) -> None:
        """Drop the prepared upload (only ``attempt``'s when one is
        named): its compute was cancelled, its residual went stale, the
        epoch ended, residuals were reloaded or the run stopped.  Its
        deflate, if still queued, never runs."""
        prepared = self._prepared_upload
        if prepared is None or (attempt is not None and prepared.attempt != attempt):
            return
        self._prepared_upload = None
        self.stats["prepared_stale"] += 1
        prepared.job.cancel()

    def on_accepted(self, update: ClientUpdate, wu_id: str) -> None:
        """The server accepted a result: a lossy upload is decoded on
        receipt, so its decode is counted and traced here."""
        if not self.up_codec.lossy:
            return
        self.decodes += 1
        if self.trace is not None:
            self.trace.emit(
                self.now(),
                "net.decode",
                direction="up",
                codec=self.name,
                client=update.client_id,
                wu=wu_id,
                raw=int(update.params.nbytes),
            )

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Error-feedback residuals, keyed for npz round-tripping."""
        return {
            f"residual__{cid}": arr.copy()
            for cid, arr in sorted(self._residuals.items())
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.discard_prepared()
        self._residuals = {
            key[len("residual__") :]: np.array(value, dtype=np.float64)
            for key, value in state.items()
            if key.startswith("residual__")
        }

    # -- reporting ---------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Deterministic integer counters for ``RunResult.counters``."""
        self.settle()
        out = {
            "codec_publishes": self.publishes,
            "codec_publish_raw_bytes": self.publish_raw_bytes,
            "codec_publish_wire_bytes": self.publish_wire_bytes,
            "codec_uploads": self.uploads,
            "codec_upload_raw_bytes": self.upload_raw_bytes,
            "codec_upload_wire_bytes": self.upload_wire_bytes,
            "codec_decodes": self.decodes,
        }
        if self._delta:
            out["codec_delta_chain_downloads"] = self.delta_chain_downloads
            out["codec_delta_full_downloads"] = self.delta_full_downloads
        return out
