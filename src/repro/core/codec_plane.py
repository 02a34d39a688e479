"""Codec plane: wires transfer codecs into the runner's wire paths.

The codecs themselves (``repro.nn.codecs``) are pure, stateless vector
transforms.  This module owns everything *stateful* about using them in
one run:

* **publish path** — every republished parameter file is encoded once
  and the measured encoded size becomes the file's wire size.  A lossy
  file rests in its wire form (:class:`VersionedParams`): each client
  decodes its own copy when it trains, so quantization error affects
  real training (simulation honesty) while the server holds one encoded
  record per live version, not one float64 vector;
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
  base for averaging rules.  Lossy codecs apply **error feedback**: the
  encode error is carried client-side as a residual and added to the
  next upload from the same client, so dropped/rounded mass is delayed,
  never lost.  Residuals are checkpointable (:meth:`state_dict`) and are
  disabled under replication, where sibling replicas must produce
  bit-identical decoded payloads to reach quorum.

Determinism contract: every counter is an integer derived from encoded
content, never from timing.  The ``encode_cpu_s``/``decode_cpu_s``
attributes are host wall-clock attributions for benchmarks and obs
metrics only — they must never reach ``RunResult.counters``, trace
fields, or any digested artifact.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..nn.codecs import Encoded, TopKCodec, ZlibCodec, make_codec
from .rules import ClientUpdate

__all__ = ["ParamCodecPlane", "EncodedUpdate", "VersionedParams"]

# Versions retained in the delta-size window; older chains fall back to
# the full transfer.  One entry per publish: an int, so the window is
# tiny regardless of model size.
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


class EncodedUpdate:
    """Lazy wrapper for an encoded upload payload.

    The client uploads this object; when the scheduler accepts the result
    the client resolves it (the same ``resolve_update`` hook
    :class:`~repro.core.steps.DeferredUpdate` uses), which is the moment
    the *server* pays the decode — so the ``net.decode`` record lands at
    server-receipt time.  Upload retries reuse the payload object;
    resolution happens at most once.
    """

    __slots__ = ("_plane", "_resolved", "client_id", "wu_id")

    def __init__(
        self,
        plane: "ParamCodecPlane",
        resolved: ClientUpdate,
        client_id: str,
        wu_id: str,
    ) -> None:
        self._plane = plane
        self._resolved = resolved
        self.client_id = client_id
        self.wu_id = wu_id

    def resolve_update(self) -> ClientUpdate:
        self._plane._on_upload_decoded(self)
        return self._resolved


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
        self._delta_window: "OrderedDict[int, int]" = OrderedDict()
        # Per-client error-feedback residuals (flat vectors).
        self._residuals: dict[str, np.ndarray] = {}
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

    # -- publish / download paths -----------------------------------------

    def encode_publish(
        self, vec: np.ndarray, version: int, frozen: bool = False
    ) -> tuple[VersionedParams, int]:
        """Encode one published parameter file.

        Returns ``(payload, wire_bytes)``: the file's payload — the
        encoded record for lossy codecs, ``vec`` by reference otherwise —
        and its wire size (for delta, the full-transfer fallback — the
        per-client chain price is computed at download time).  Frozen
        per-epoch replica copies are encoded identically but do not
        advance the delta chain (they alias the current version).
        """
        t0 = time.perf_counter()
        if self._delta:
            if not frozen:
                if self._last_published is not None:
                    step = self.down_codec.encode(
                        vec, self.layout, reference=self._last_published
                    )
                    self._delta_window[version] = step.nbytes
                    while len(self._delta_window) > DELTA_WINDOW:
                        self._delta_window.popitem(last=False)
                self._last_published = vec.copy()
            full = self._zlib.encode(vec)
            payload, wire = VersionedParams(vec, version), full.nbytes
        else:
            enc = self.down_codec.encode(vec, self.layout)
            wire = enc.nbytes
            if self.down_codec.lossy:
                payload = VersionedParams(enc, version, self._decode_download)
            else:
                payload = VersionedParams(vec, version)
        self.encode_cpu_s += time.perf_counter() - t0
        self.publishes += 1
        self.publish_raw_bytes += int(vec.nbytes)
        self.publish_wire_bytes += int(wire)
        if self.trace is not None:
            self.trace.emit(
                self.now(),
                "net.encode",
                direction="down",
                codec=self.name,
                version=version,
                raw=int(vec.nbytes),
                wire=int(wire),
            )
        return payload, int(wire)

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
        full = int(file.compressed_size)
        base = getattr(cache, "param_version", None) if cache is not None else None
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
            chain += step
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
            prev = getattr(cache, "param_version", None)
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
        self, update: ClientUpdate, base_vec: np.ndarray, wu_id: str
    ) -> tuple[object, int]:
        """Encode one result upload; returns ``(payload, wire_bytes)``.

        Exactly one vector is charged to the wire, matching the
        historical accounting: the accumulated gradient when the rule
        consumes gradients, else the parameter delta against the base the
        client trained from.  Lossy codecs return an
        :class:`EncodedUpdate` whose resolution yields the *decoded*
        update — what the server actually receives.
        """
        t0 = time.perf_counter()
        gradient_stream = update.gradient is not None
        raw_nbytes = int(
            (update.gradient if gradient_stream else update.params).nbytes
        )
        if not self.up_codec.lossy:
            if self._delta and not gradient_stream:
                # Both sides hold the base (the server published it), so
                # the upload is the XOR of the new parameters against it.
                enc = self.up_codec.encode(
                    update.params, self.layout, reference=base_vec
                )
            else:
                # The zlib baseline compresses the uploaded result file
                # itself (gradient or full parameter copy), not a delta.
                uploaded = update.gradient if gradient_stream else update.params
                enc = self._zlib.encode(np.ascontiguousarray(uploaded))
            wire = enc.nbytes
            payload: object = update
        else:
            # ``params - base`` is the one fresh vector: the residual is
            # added into it, and error feedback turns it into the next
            # residual in place.  ``gradient + residual`` lands in the old
            # residual instead, so ``update.gradient`` is never written.
            vector = (
                update.gradient
                if gradient_stream
                else np.subtract(update.params, base_vec)
            )
            residual = (
                self._residuals.get(update.client_id) if self.error_feedback else None
            )
            if residual is not None:
                vector = np.add(
                    vector, residual, out=residual if gradient_stream else vector
                )
            enc = self.up_codec.encode(vector, self.layout)
            t1 = time.perf_counter()
            decoded = self.up_codec.decode(enc)
            self.decode_cpu_s += time.perf_counter() - t1
            if self.error_feedback:
                owned = vector is not update.gradient
                self._residuals[update.client_id] = np.subtract(
                    vector, decoded, out=vector if owned else None
                )
            wire = enc.nbytes
            if gradient_stream:
                # The gradient is what crossed the wire; the parameter
                # copy rides along as bookkeeping (today's payloads carry
                # both while the wire charges one vector).
                resolved = ClientUpdate(
                    client_id=update.client_id,
                    params=update.params,
                    gradient=decoded,
                    base_version=update.base_version,
                    claimed_credit=update.claimed_credit,
                )
            else:
                resolved = ClientUpdate(
                    client_id=update.client_id,
                    params=np.add(base_vec, decoded, out=decoded),
                    gradient=None,
                    base_version=update.base_version,
                    claimed_credit=update.claimed_credit,
                )
            payload = EncodedUpdate(self, resolved, update.client_id, wu_id)
        self.encode_cpu_s += time.perf_counter() - t0
        self.uploads += 1
        self.upload_raw_bytes += raw_nbytes
        self.upload_wire_bytes += int(wire)
        if self.trace is not None:
            self.trace.emit(
                self.now(),
                "net.encode",
                direction="up",
                codec=self.name,
                client=update.client_id,
                wu=wu_id,
                raw=raw_nbytes,
                wire=int(wire),
            )
        return payload, int(wire)

    def _on_upload_decoded(self, encoded: EncodedUpdate) -> None:
        self.decodes += 1
        if self.trace is not None:
            self.trace.emit(
                self.now(),
                "net.decode",
                direction="up",
                codec=self.name,
                client=encoded.client_id,
                wu=encoded.wu_id,
                raw=int(encoded._resolved.params.nbytes),
            )

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Error-feedback residuals, keyed for npz round-tripping."""
        return {
            f"residual__{cid}": arr.copy()
            for cid, arr in sorted(self._residuals.items())
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self._residuals = {
            key[len("residual__") :]: np.array(value, dtype=np.float64)
            for key, value in state.items()
            if key.startswith("residual__")
        }

    # -- reporting ---------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Deterministic integer counters for ``RunResult.counters``."""
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
