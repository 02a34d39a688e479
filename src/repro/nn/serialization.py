"""Parameter (de)serialization — the ``.h5``/``.npz`` files of the paper.

The paper ships parameters as a compressed ``.h5`` file (21.2 MB for the
~5M-parameter ResNetV2) and data shards as ``.npz`` (3.9 MB each).  Two
representations are provided:

* **bytes** — a compressed ``.npz`` blob, used wherever a component needs a
  realistic payload size (KV store values, web-server file transfers);
* **flat vector** — all parameters packed into one contiguous ``float64``
  vector, used by the parameter-update rules so that Eq. (1) is a pair of
  vectorized in-place BLAS-1 operations rather than a per-layer Python loop.
  The parameter servers, rules, codecs, validator, wire pricing and
  checkpoints all work on these vectors.

The flat codec is driven by :class:`StateLayout` — per-key offsets, shapes
and sizes precomputed once per state-dict *signature* and cached, so the
hot path (one pack + one unpack per client result) never re-sorts keys,
never re-derives shapes, and allocates nothing beyond what the caller
asks for.

A :class:`ParameterArena` is the storage counterpart of a layout: the
whole state already *lives* in layout order, so packing and unpacking are
one ``copyto`` and a step's gradients are one contiguous vector.

Two number formats meet here.  A client step trains in :data:`STEP_DTYPE`
(float32, the format the paper's TensorFlow/Keras clients train and ship
parameters in): the arena, the optimizer state, the kernels' arrays, the
tape's leaves and the data all have it.  The flat vectors stay float64.
They meet at exactly two casts, both in :class:`StateLayout`:
:meth:`~StateLayout.unpack_into` rounds a vector into an arena, and
:meth:`~StateLayout.pack` (with :meth:`~StateLayout.accumulate` for a
step's gradients) widens an arena back, exactly.
"""

from __future__ import annotations

import hashlib
import io
import threading
import zlib
from collections import OrderedDict
from itertools import groupby
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SerializationError

if TYPE_CHECKING:
    from .tensor import Tensor

__all__ = [
    "STEP_DTYPE",
    "BUFFER_PREFIX",
    "BLOCK_SIZE",
    "StateLayout",
    "ParameterArena",
    "state_to_bytes",
    "state_from_bytes",
    "state_num_scalars",
    "state_checksum",
    "compressed_size",
    "compressed_size_cache_stats",
    # codec plane re-exports (defined in repro.nn.codecs; the ROADMAP
    # names repro.nn.serialization as the codec home, so both paths work)
    "CODEC_NAMES",
    "VALUE_QUANTS",
    "Encoded",
    "Codec",
    "ZlibCodec",
    "Fp16Codec",
    "Int8Codec",
    "TopKCodec",
    "DeltaCodec",
    "make_codec",
]


# The number format of a client step: every array a step allocates (the
# parameter arena, optimizer moments and scratch, kernel intermediates,
# tape leaves, the synthetic data) has it.  One value, not an option.
STEP_DTYPE = np.dtype(np.float32)

# State-dict keys of non-trainable buffers (batch-norm running statistics)
# carry this prefix; they occupy layout slots but never receive gradients.
BUFFER_PREFIX = "buffer:"

# Columns per block of the blocked elementwise passes over parameter
# vectors (optimizer updates, the VC-ASGD merge, int8 quantization): their
# scratch holds one block, not one model.  2**16 scalars are 256 KiB in
# the step dtype and 512 KiB in a float64 vector.
BLOCK_SIZE = 1 << 16


def _as_f64_contiguous(value: np.ndarray) -> np.ndarray:
    """Float64 C-contiguous view of ``value`` — a copy only when needed."""
    arr = value if isinstance(value, np.ndarray) else np.asarray(value)
    if arr.dtype == np.float64 and arr.flags["C_CONTIGUOUS"]:
        return arr
    return np.ascontiguousarray(arr, dtype=np.float64)


class StateLayout:
    """Cached flat-vector codec for one state-dict signature.

    Precomputes the sorted key order, per-key shapes/sizes and vector
    offsets so pack/unpack are straight ``memcpy``-style loops with zero
    per-call bookkeeping.  Layouts are immutable and shared: obtain one
    via :meth:`for_state`, which caches by signature (the sorted
    ``(key, shape)`` tuple), so every runner, rule and checkpoint touching
    the same model shape reuses a single instance.

    Aliasing contract: :meth:`views` returns *views into the vector* —
    writes through them mutate the vector and vice versa.
    """

    __slots__ = ("keys", "shapes", "sizes", "offsets", "total_size", "signature")

    def __init__(self, template: dict[str, np.ndarray]) -> None:
        if not template:
            raise SerializationError("cannot build a layout for an empty state dict")
        self.keys: tuple[str, ...] = tuple(sorted(template))
        shapes = []
        sizes = []
        offsets = []
        offset = 0
        for key in self.keys:
            shape = np.asarray(template[key]).shape
            size = int(np.prod(shape)) if shape else 1
            shapes.append(shape)
            sizes.append(size)
            offsets.append(offset)
            offset += size
        self.shapes: tuple[tuple[int, ...], ...] = tuple(shapes)
        self.sizes: tuple[int, ...] = tuple(sizes)
        self.offsets: tuple[int, ...] = tuple(offsets)
        self.total_size: int = offset
        self.signature: tuple[tuple[str, tuple[int, ...]], ...] = tuple(
            zip(self.keys, self.shapes)
        )

    # -- construction / cache -------------------------------------------------

    _CACHE: "OrderedDict[tuple, StateLayout]" = OrderedDict()
    _CACHE_MAX = 64

    @classmethod
    def for_state(cls, template: dict[str, np.ndarray]) -> "StateLayout":
        """The shared layout for ``template``'s signature (cached)."""
        if not template:
            raise SerializationError("cannot build a layout for an empty state dict")
        signature = tuple(
            (key, np.asarray(template[key]).shape) for key in sorted(template)
        )
        layout = cls._CACHE.get(signature)
        if layout is None:
            layout = cls(template)
            cls._CACHE[signature] = layout
            while len(cls._CACHE) > cls._CACHE_MAX:
                cls._CACHE.popitem(last=False)
        else:
            cls._CACHE.move_to_end(signature)
        return layout

    # -- vector <-> state ----------------------------------------------------

    def pack(
        self,
        state: "dict[str, np.ndarray] | ParameterArena",
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Pack ``state`` into a flat float64 vector.

        With ``out`` given, writes into it (no allocation) and returns it;
        otherwise allocates a fresh vector.  Only per-key *sizes* must
        match the layout: each entry is ravelled.  A
        :class:`ParameterArena` is already in layout order: one copy,
        which widens its step dtype to float64 exactly.  A single member
        packs to one vector; a larger arena packs one row per member into
        an ``out`` shaped like its ``data``.
        """
        if isinstance(state, ParameterArena):
            self._check_arena(state)
            rows = state.data
            if out is None or out.ndim == 1:
                if state.group != 1:
                    raise SerializationError(
                        f"cannot pack a {state.group}-member arena into one vector"
                    )
                rows = rows[0]
            if out is None:
                out = np.empty(self.total_size, dtype=np.float64)
            elif out.shape != rows.shape:
                raise SerializationError(
                    f"pack out buffer has shape {out.shape}, expected {rows.shape}"
                )
            np.copyto(out, rows)
            return out
        if out is None:
            out = np.empty(self.total_size, dtype=np.float64)
        elif out.shape != (self.total_size,):
            raise SerializationError(
                f"pack out buffer has shape {out.shape}, "
                f"expected ({self.total_size},)"
            )
        for key, offset, size in zip(self.keys, self.offsets, self.sizes):
            try:
                value = state[key]
            except KeyError:
                raise SerializationError(
                    f"state dict is missing key {key!r} required by layout"
                ) from None
            flat = np.asarray(value).ravel()
            if flat.size != size:
                raise SerializationError(
                    f"entry {key!r} has {flat.size} scalars, layout expects {size}"
                )
            np.copyto(out[offset : offset + size], flat)
        return out

    def _check_arena(self, arena: "ParameterArena") -> None:
        if arena.layout is not self and arena.layout.signature != self.signature:
            raise SerializationError("arena was built for a different state layout")

    def _check_vector(self, vector: np.ndarray) -> np.ndarray:
        # A floating vector is taken as it is: an arena row stays a view of
        # its arena (a copy here would bind a model to a detached copy).
        vector = np.asarray(vector)
        if vector.dtype.kind != "f":
            vector = vector.astype(np.float64)
        if vector.ndim != 1 or vector.size != self.total_size:
            raise SerializationError(
                f"vector of size {vector.size} does not match template "
                f"({self.total_size} scalars)"
            )
        return vector

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Unpack into *views* of ``vector`` — zero-copy.

        Writes through a view mutate the vector (and vice versa); callers
        must not let a view outlive the vector's logical lifetime.
        """
        vector = self._check_vector(vector)
        return {
            key: vector[offset : offset + size].reshape(shape)
            for key, offset, size, shape in zip(
                self.keys, self.offsets, self.sizes, self.shapes
            )
        }

    def unpack_into(
        self, vector: np.ndarray, arena: "ParameterArena"
    ) -> "ParameterArena":
        """Copy ``vector`` into ``arena`` in one copy, rounding it to the
        step dtype: one ``(total_size,)`` vector broadcast to every member,
        or one ``(group, total_size)`` row per member."""
        self._check_arena(arena)
        if np.ndim(vector) == 2 and np.shape(vector) == arena.data.shape:
            np.copyto(arena.data, vector)
        else:
            np.copyto(arena.data, self._check_vector(vector))
        return arena

    # -- gradients -----------------------------------------------------------

    def zeros(self, rows: int) -> np.ndarray:
        """``(rows, total_size)`` zeroed float64 vectors, e.g. the
        accumulator :meth:`accumulate` adds a run of steps' gradients into."""
        return np.zeros((rows, self.total_size), dtype=np.float64)

    def accumulate(self, arena: "ParameterArena", out: np.ndarray) -> np.ndarray:
        """Add one step's gradients into ``out`` in place: one add, ``out``
        shaped like ``arena.grad`` or, for one member, like its row.  A
        float64 ``out`` receives the step-dtype gradients widened exactly.
        Buffer slots of ``arena.grad`` are never written, so they add zero.
        """
        self._check_arena(arena)
        return np.add(out, arena.grad.reshape(out.shape), out=out)


class ParameterArena:
    """``group`` copies of one model state, each flat in layout order.

    ``data`` and ``grad`` are ``(group, total_size)`` arrays of
    :data:`STEP_DTYPE`; every
    parameter, buffer and gradient of a member is a view into its row, so
    loading a parameter file, packing the trained state and summing a
    step's gradients are single whole-arena operations.  ``trainable``
    exposes the parameter slots to an optimizer as one tensor per
    contiguous run of non-buffer keys (a single tensor unless buffers sit
    between parameters): the optimizer's moments and scratch are then
    contiguous vectors too, and one update call covers the whole model.
    Buffer slots of ``grad`` are never written and stay zero.
    """

    __slots__ = ("layout", "group", "data", "grad", "trainable")

    def __init__(self, layout: StateLayout, group: int = 1) -> None:
        if group < 1:
            raise SerializationError(f"arena group must be >= 1, got {group}")
        self.layout = layout
        self.group = group
        from .tensor import Tensor  # tensor.py reads STEP_DTYPE from here

        self.data = np.zeros((group, layout.total_size), dtype=STEP_DTYPE)
        self.grad = np.zeros((group, layout.total_size), dtype=STEP_DTYPE)
        self.trainable: list[Tensor] = []
        slots = zip(layout.keys, layout.offsets, layout.sizes)
        for is_buffer, run in groupby(
            slots, key=lambda slot: slot[0].startswith(BUFFER_PREFIX)
        ):
            if is_buffer:
                continue
            run = list(run)
            start, stop = run[0][1], run[-1][1] + run[-1][2]
            tensor = Tensor(self.data[:, start:stop])
            tensor.requires_grad = True  # even when built under no_grad
            tensor.grad = self.grad[:, start:stop]
            self.trainable.append(tensor)

    def views(self, stacked: np.ndarray) -> dict[str, np.ndarray]:
        """Per-key ``(group, *shape)`` views of ``data``, ``grad`` or any
        array shaped like them."""
        layout = self.layout
        return {
            key: stacked[:, offset : offset + size].reshape((self.group,) + shape)
            for key, offset, size, shape in zip(
                layout.keys, layout.offsets, layout.sizes, layout.shapes
            )
        }


def state_to_bytes(state: dict[str, np.ndarray], compress: bool = True) -> bytes:
    """Serialize a state dict to a (compressed) ``.npz`` byte blob."""
    buf = io.BytesIO()
    save = np.savez_compressed if compress else np.savez
    # Keys may contain characters that are fine for npz archive member names.
    # Entries that are already ndarrays go straight through — no copies.
    save(buf, **{k: v if isinstance(v, np.ndarray) else np.asarray(v) for k, v in state.items()})
    return buf.getvalue()


def state_from_bytes(blob: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`state_to_bytes`."""
    try:
        with np.load(io.BytesIO(blob)) as archive:
            return {k: archive[k].copy() for k in archive.files}
    except Exception as exc:  # zipfile/np.load raise various types
        raise SerializationError(f"cannot decode parameter blob: {exc}") from exc


def state_num_scalars(state: dict[str, np.ndarray]) -> int:
    """Total scalar count across all entries."""
    return int(sum(np.asarray(v).size for v in state.values()))


def state_checksum(state: dict[str, np.ndarray]) -> str:
    """Stable content hash of a state dict (used by the BOINC validator)."""
    digest = hashlib.sha256()
    for key in sorted(state):
        digest.update(key.encode())
        arr = _as_f64_contiguous(state[key])
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


# The one zlib level every wire size in the system is priced at.
_ZLIB_LEVEL = 6

# ``compressed_size`` memoisation, keyed by a BLAKE2b content digest so
# identical payloads compress once.  Written for repeated queries of one
# payload's size; measured at 0 hits on every benchmark workload, where
# each priced payload is fresh.  The codec plane's pricing path deflates
# without it (``repro.core.codec_plane._deflate``).
_COMPRESSED_SIZE_CACHE: "OrderedDict[bytes, int]" = OrderedDict()
_COMPRESSED_SIZE_CACHE_MAX = 256
# Process-global hit/miss tallies for the memo above.  Surfaced through
# the (digest-excluded) obs metrics registry only — the cache is shared
# across runs in one process, so putting these in RunResult.counters
# would break repeat-run determinism.
_COMPRESSED_SIZE_CACHE_STATS = {"hits": 0, "misses": 0}
# Guards the memo and its tallies, so any thread may price through it.
# Never held across the zlib pass, so two threads' deflates overlap.
_COMPRESSED_SIZE_LOCK = threading.Lock()


def compressed_size(payload: bytes | np.ndarray) -> int:
    """Size in bytes of ``payload`` after zlib compression.

    Models BOINC's server-side gzip feature (§III-B): the network transfer
    model charges for compressed bytes when compression is enabled.
    Results are memoised by content checksum (bounded LRU, so
    million-publish fleet runs cannot grow it without limit), so a repeated
    query for the same payload would skip the compression pass.  None
    repeats on the benchmark workloads (0 hits: every wire body is fresh),
    so each call pays a hash on top of the deflate; the codec plane's
    pricing thread and helping resolves deflate without the memo.
    An array is hashed and compressed through its own buffer, so it shares
    its memo entry with its ``tobytes()``.  Safe to call from any thread.
    """
    if isinstance(payload, np.ndarray):
        payload = np.ascontiguousarray(payload)
    key = hashlib.blake2b(payload, digest_size=16).digest()
    with _COMPRESSED_SIZE_LOCK:
        cached = _COMPRESSED_SIZE_CACHE.get(key)
        if cached is not None:
            _COMPRESSED_SIZE_CACHE.move_to_end(key)
            _COMPRESSED_SIZE_CACHE_STATS["hits"] += 1
            return cached
        _COMPRESSED_SIZE_CACHE_STATS["misses"] += 1
    size = len(zlib.compress(payload, _ZLIB_LEVEL))
    with _COMPRESSED_SIZE_LOCK:
        _COMPRESSED_SIZE_CACHE[key] = size
        while len(_COMPRESSED_SIZE_CACHE) > _COMPRESSED_SIZE_CACHE_MAX:
            _COMPRESSED_SIZE_CACHE.popitem(last=False)
    return size


def compressed_size_cache_stats() -> tuple[int, int]:
    """(hits, misses) of the process-global ``compressed_size`` memo."""
    with _COMPRESSED_SIZE_LOCK:
        return (
            _COMPRESSED_SIZE_CACHE_STATS["hits"],
            _COMPRESSED_SIZE_CACHE_STATS["misses"],
        )


# Codec plane (ROADMAP "first-class codecs in repro.nn.serialization").
# Implemented in repro.nn.codecs — imported last because the codecs call
# back into compressed_size for their measured wire sizes.
from .codecs import (  # noqa: E402
    CODEC_NAMES,
    VALUE_QUANTS,
    Codec,
    DeltaCodec,
    Encoded,
    Fp16Codec,
    Int8Codec,
    TopKCodec,
    ZlibCodec,
    make_codec,
)
