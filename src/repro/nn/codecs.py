"""Transfer codecs: how a parameter/gradient vector crosses the wire.

The paper relies on BOINC's server-side gzip (§III-B); this module goes
further with the ROADMAP's codec plane: fp16/int8 quantization with
per-tensor scales, top-k sparsification, and XOR/delta encoding against a
reference vector the receiver already holds.  A codec answers two
questions for one flat float64 vector:

* **how many bytes does it cost on the wire?** — the simulation's
  transfer model charges for :attr:`Encoded.nbytes`; measured sizes
  (zlib over the actual encoded bytes) keep the accounting honest;
* **what does the receiver actually get?** — :meth:`Codec.decode`
  returns the reconstructed vector.  For lossy codecs this differs from
  the input, and the simulation trains on the *decoded* copy, so the
  accuracy effect of quantization is real, not assumed.

Every codec is deterministic: identical input vectors produce identical
encoded forms, byte sizes and decoded vectors, which is what lets
replicated workunits reach bit-exact quorums and golden-digest tests pin
whole runs.  Codecs never hold state — error-feedback residuals and
delta chains live in the runner's :class:`~repro.core.codec_plane.ParamCodecPlane`,
where they can be checkpointed.

Wire-format accounting (simulated; payloads travel by reference):

==========  ===========================================================
``zlib``    measured zlib size of the raw float64 bytes (the baseline)
``fp16``    measured zlib size of the float16 cast (≤ 2 bytes/scalar)
``int8``    measured zlib size of the int8 codes + one float32 scale
            per tensor (per-tensor maxabs/127 scaling)
``topk``    k × (4-byte index + value bytes) + 16-byte header; value
            bytes follow ``quant`` (fp32/fp16/int8)
``delta``   measured zlib size of the XOR of the two vectors' float64
            bit patterns (lossless; falls back to ``zlib`` without a
            reference)
==========  ===========================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigurationError, SerializationError

__all__ = [
    "CODEC_NAMES",
    "VALUE_QUANTS",
    "Encoded",
    "wire_nbytes",
    "Codec",
    "ZlibCodec",
    "Fp16Codec",
    "Int8Codec",
    "TopKCodec",
    "DeltaCodec",
    "make_codec",
]

CODEC_NAMES = ("zlib", "fp16", "int8", "topk", "delta")
VALUE_QUANTS = ("fp32", "fp16", "int8")

_FP16_MAX = 65504.0
# Conservative per-element fp16 round-trip bound: half-ulp relative error
# doubled, plus the subnormal quantum for values near zero.
_FP16_RTOL = 2.0**-10
_FP16_ATOL = 1e-7


def _as_f64(vec: np.ndarray) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1:
        raise SerializationError("codecs operate on flat 1-D vectors")
    if not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


def _segments(layout, n: int) -> tuple[tuple[int, int], ...]:
    """(offset, size) per tensor from a StateLayout, or one whole-vector
    segment when no layout is given."""
    if layout is None:
        return ((0, n),)
    if layout.total_size != n:
        raise SerializationError(
            f"layout covers {layout.total_size} scalars, vector has {n}"
        )
    return tuple(zip(layout.offsets, layout.sizes))


@dataclass(frozen=True)
class Encoded:
    """One encoded vector: wire cost + whatever ``decode`` needs.

    ``data`` is codec-specific and travels by reference (the simulation
    never serializes payloads — see DESIGN.md §5); ``nbytes`` is what the
    transfer model charges for.  A record from :meth:`Codec.encode_unpriced`
    has not been through zlib yet: its ``nbytes`` is the uncompressed
    wire form, the file as it rests on the server.
    """

    codec: str
    nbytes: int
    raw_nbytes: int
    data: object


def wire_nbytes(unpriced_nbytes: int, body_nbytes: int, deflated: int) -> int:
    """Wire size of an unpriced record (``unpriced_nbytes``) whose body
    (``body_nbytes`` of them) deflates to ``deflated`` bytes: the body
    crosses the wire zlib'd, or raw when zlib would not shrink it; the
    rest of the record is fixed-size."""
    return unpriced_nbytes - max(0, body_nbytes - deflated)


class Codec:
    """Deterministic, stateless encoder/decoder for flat float64 vectors."""

    name: str = "base"
    lossy: bool = False

    def encode(self, vec: np.ndarray, layout=None, **options) -> Encoded:
        """Encode ``vec`` and price it: ``nbytes`` is the wire size."""
        from .serialization import compressed_size

        encoded, body = self.encode_unpriced(vec, layout, **options)
        if body is None:
            return encoded
        wire = wire_nbytes(encoded.nbytes, body.nbytes, compressed_size(body))
        return replace(encoded, nbytes=wire)

    def encode_unpriced(
        self, vec: np.ndarray, layout=None
    ) -> tuple[Encoded, np.ndarray | None]:
        """Encode ``vec`` without running zlib.

        Returns ``(record, body)``: the decodable record, whose ``nbytes``
        is the uncompressed wire form, and the array the wire prices
        through zlib (None when the format is fixed-size).
        :func:`wire_nbytes` turns the body's deflated size into the wire
        size :meth:`encode` reports.
        """
        raise NotImplementedError

    def decode(self, encoded: Encoded) -> np.ndarray:
        raise NotImplementedError

    def tolerance(self, vec: np.ndarray, layout=None) -> np.ndarray:
        """Per-element bound on ``|decode(encode(vec)) - vec|``.

        Zero for lossless codecs; lossy codecs declare their guarantee
        here and the property tests hold them to it.
        """
        return np.zeros(np.asarray(vec).size)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}()"


class ZlibCodec(Codec):
    """The baseline: today's compressed transfer, with a measured size.

    Lossless — ``decode`` returns the input vector itself (payloads pass
    by reference on the simulated wire), and the wire size is the real
    zlib size of the float64 bytes, capped at raw (an incompressible
    vector is served uncompressed).
    """

    name = "zlib"
    lossy = False

    def encode_unpriced(self, vec: np.ndarray, layout=None):
        vec = _as_f64(vec)
        return Encoded(self.name, vec.nbytes, vec.nbytes, vec), vec

    def decode(self, encoded: Encoded) -> np.ndarray:
        return encoded.data


class Fp16Codec(Codec):
    """Half-precision cast, zlib'd: ≤ 2 bytes per scalar on the wire.

    Values are clipped to the fp16 range before the cast (training
    parameters never approach ±65504 in practice, but the codec must not
    emit infinities the validator would reject).
    """

    name = "fp16"
    lossy = True

    def encode_unpriced(self, vec: np.ndarray, layout=None):
        vec = _as_f64(vec)
        q = np.clip(vec, -_FP16_MAX, _FP16_MAX).astype(np.float16)
        return Encoded(self.name, q.nbytes, vec.nbytes, q), q

    def decode(self, encoded: Encoded) -> np.ndarray:
        return encoded.data.astype(np.float64)

    def tolerance(self, vec: np.ndarray, layout=None) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.float64)
        clipped = np.clip(vec, -_FP16_MAX, _FP16_MAX)
        return np.abs(clipped) * _FP16_RTOL + np.abs(vec - clipped) + _FP16_ATOL


class Int8Codec(Codec):
    """Linear int8 quantization with one scale per tensor.

    Per-tensor scaling (via the StateLayout's offsets) keeps small-valued
    tensors — biases, batch-norm shifts — from being crushed by a single
    global scale.  Each tensor quantizes to ``round(x / (maxabs/127))``;
    an all-zero tensor encodes with scale 0.  The wire charges the zlib'd
    codes plus one float32 scale per tensor.
    """

    name = "int8"
    lossy = True

    def encode_unpriced(self, vec: np.ndarray, layout=None):
        from .serialization import BLOCK_SIZE

        vec = _as_f64(vec)
        segments = _segments(layout, vec.size)
        scales = np.zeros(len(segments))
        codes = np.zeros(vec.size, dtype=np.int8)
        # ``round(x / scale)`` clipped to ±127, one block at a time through
        # one scratch buffer: no segment-sized temporaries.
        work = np.empty(min(vec.size, BLOCK_SIZE))
        for i, (offset, size) in enumerate(segments):
            chunk = vec[offset : offset + size]
            maxabs = float(max(chunk.max(), -chunk.min())) if size else 0.0
            if maxabs == 0.0:
                continue
            scale = maxabs / 127.0
            scales[i] = scale
            for lo in range(offset, offset + size, BLOCK_SIZE):
                hi = min(lo + BLOCK_SIZE, offset + size)
                q = np.divide(vec[lo:hi], scale, out=work[: hi - lo])
                np.round(q, out=q)
                np.clip(q, -127, 127, out=q)
                codes[lo:hi] = q
        wire = codes.nbytes + 4 * len(segments)
        data = (codes, scales, segments)
        return Encoded(self.name, wire, vec.nbytes, data), codes

    def decode(self, encoded: Encoded) -> np.ndarray:
        codes, scales, segments = encoded.data
        out = codes.astype(np.float64)
        for scale, (offset, size) in zip(scales, segments):
            if scale != 0.0:
                out[offset : offset + size] *= scale
        return out

    def tolerance(self, vec: np.ndarray, layout=None) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.float64)
        bound = np.zeros(vec.size)
        for offset, size in _segments(layout, vec.size):
            chunk = vec[offset : offset + size]
            maxabs = float(np.abs(chunk).max()) if size else 0.0
            # Half a quantization step, with float slack.
            bound[offset : offset + size] = maxabs / 253.0 + 1e-12
        return bound


class TopKCodec(Codec):
    """Keep the k largest-magnitude entries; everything else is zero.

    The classic gradient-sparsification codec: the upload carries
    ``k = ceil(fraction * n)`` (index, value) pairs.  Selection is a
    stable argsort on magnitude, so ties break by position and the
    encoded form is deterministic.  Values are optionally quantized
    (``quant`` ∈ fp32/fp16/int8 — int8 uses one global scale over the
    selected values).  The dropped mass is what the codec plane's
    error-feedback residual carries to the next upload.
    """

    name = "topk"
    lossy = True

    def __init__(self, fraction: float = 0.01, quant: str = "fp32") -> None:
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError("topk fraction must be in (0, 1]")
        if quant not in VALUE_QUANTS:
            raise ConfigurationError(
                f"unknown topk value quant {quant!r} (choices: {VALUE_QUANTS})"
            )
        self.fraction = fraction
        self.quant = quant

    def _k(self, n: int) -> int:
        return max(1, min(n, int(math.ceil(self.fraction * n))))

    def encode_unpriced(self, vec: np.ndarray, layout=None):
        vec = _as_f64(vec)
        k = self._k(vec.size)
        idx = np.argsort(-np.abs(vec), kind="stable")[:k]
        idx = np.sort(idx)
        values = vec[idx]
        if self.quant == "fp16":
            decoded = (
                np.clip(values, -_FP16_MAX, _FP16_MAX)
                .astype(np.float16)
                .astype(np.float64)
            )
            value_bytes = 2
        elif self.quant == "int8":
            maxabs = float(np.abs(values).max()) if k else 0.0
            scale = maxabs / 127.0
            if scale > 0.0:
                decoded = (
                    np.clip(np.round(values / scale), -127, 127).astype(np.int8)
                    .astype(np.float64)
                    * scale
                )
            else:
                decoded = np.zeros(k)
            value_bytes = 1
        else:
            decoded = values.astype(np.float32).astype(np.float64)
            value_bytes = 4
        wire = k * (4 + value_bytes) + 16
        return Encoded(self.name, wire, vec.nbytes, (vec.size, idx, decoded)), None

    def decode(self, encoded: Encoded) -> np.ndarray:
        n, idx, decoded = encoded.data
        out = np.zeros(n)
        out[idx] = decoded
        return out

    def tolerance(self, vec: np.ndarray, layout=None) -> np.ndarray:
        # The dropped entries are the error: bounded by the k-th largest
        # magnitude; kept entries carry only their value-quant error.
        vec = np.asarray(vec, dtype=np.float64)
        return np.abs(vec) + 1e-12


class DeltaCodec(Codec):
    """XOR of float64 bit patterns against a reference, zlib'd.

    Consecutive parameter publishes share most of their bits, so the XOR
    stream is far more compressible than either vector alone.  Lossless:
    the receiver holds the reference (its cached sticky copy, or the
    base version it downloaded) and reconstructs exactly.  Without a
    reference the codec degrades to the zlib baseline.
    """

    name = "delta"
    lossy = False

    def encode_unpriced(self, vec: np.ndarray, layout=None, reference=None):
        vec = _as_f64(vec)
        if reference is None:
            body = vec
        else:
            reference = _as_f64(reference)
            if reference.size != vec.size:
                raise SerializationError(
                    f"delta reference has {reference.size} scalars, vector {vec.size}"
                )
            body = np.bitwise_xor(vec.view(np.uint64), reference.view(np.uint64))
        return Encoded(self.name, vec.nbytes, vec.nbytes, vec), body

    def decode(self, encoded: Encoded) -> np.ndarray:
        return encoded.data


def make_codec(
    name: str,
    topk_fraction: float = 0.01,
    quant: str = "fp32",
) -> Codec:
    """Codec factory used by the job config and the CLI flags."""
    if name == "zlib":
        return ZlibCodec()
    if name == "fp16":
        return Fp16Codec()
    if name == "int8":
        return Int8Codec()
    if name == "topk":
        return TopKCodec(topk_fraction, quant)
    if name == "delta":
        return DeltaCodec()
    raise ConfigurationError(
        f"unknown codec {name!r} (choices: {', '.join(CODEC_NAMES)})"
    )
