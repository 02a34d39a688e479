"""Training-job checkpointing: survive *server* failure.

§II-B notes that TensorFlow's parameter-server strategy "is not fault
tolerant against failure of the centralized server".  In the paper's
design the server parameter copy lives in a database, so a restarted
server can resume the job.  This module makes that concrete: a
:class:`Checkpoint` captures the server parameter vector, the completed
epoch count, the elapsed simulated time, the per-epoch history, the
parameter-publish counter, and the update rule's internal state (DC-ASGD
delay-compensation backups, sync-round counters — see
:meth:`repro.core.rules.UpdateRule.state_dict`); a new
:class:`~repro.core.runner.DistributedRunner` can resume from it with the
rule exactly where it left off.

Checkpoints serialize to a single ``.npz`` file (the same codec the
parameter files use) wrapped in an integrity envelope, and the file
write is **crash-consistent**: the blob carries a format version and a
BLAKE2 digest that is verified on load (torn or bit-flipped files raise
:class:`~repro.errors.CheckpointError` instead of half-loading), and
:func:`save_checkpoint` writes to a temp file and atomically renames it
so a crash mid-write can never destroy the previous good checkpoint.
A blob without the envelope is rejected, never loaded unverified.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import CheckpointError, SerializationError, TrainingError
from .results import EpochRecord, RunResult

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint"]

# Integrity envelope: MAGIC + 1-byte format version + 16-byte BLAKE2b
# digest of the payload, then the npz payload itself.
_MAGIC = b"RPROCKPT"
_FORMAT_VERSION = 1
_DIGEST_SIZE = 16


def _digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()

_RECORD_FIELDS = (
    "epoch",
    "end_time_s",
    "val_accuracy_mean",
    "val_accuracy_min",
    "val_accuracy_max",
    "test_accuracy",
    "alpha",
    "assimilations",
    "timeouts_so_far",
    "lost_updates_so_far",
)


@dataclass(frozen=True)
class Checkpoint:
    """Resumable snapshot of a distributed training job."""

    params: np.ndarray  # flat server parameter vector
    epochs_completed: int
    elapsed_s: float
    label: str = ""
    history: tuple[EpochRecord, ...] = field(default_factory=tuple)
    # Update-rule internals (see UpdateRule.state_dict) and the parameter
    # publish counter, so staleness/delay bookkeeping survives a restart.
    rule_state: dict[str, np.ndarray] = field(default_factory=dict)
    publish_count: int = 0
    # Codec-plane internals (per-client error-feedback residuals — see
    # ParamCodecPlane.state_dict): a resumed lossy-codec run carries the
    # exact residual mass its clients had accumulated.  Empty for
    # codec-free runs and for blobs written before the codec plane.
    codec_state: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.epochs_completed < 0 or self.elapsed_s < 0:
            raise TrainingError("checkpoint with negative progress")
        if np.asarray(self.params).ndim != 1:
            raise TrainingError("checkpoint params must be a flat vector")
        if self.publish_count < 0:
            raise TrainingError("checkpoint with negative publish count")

    @staticmethod
    def from_result(
        result: RunResult,
        params: np.ndarray,
        rule_state: dict[str, np.ndarray] | None = None,
        publish_count: int = 0,
        codec_state: dict[str, np.ndarray] | None = None,
    ) -> "Checkpoint":
        """Snapshot the end state of a (possibly partial) run.

        ``np.array`` copies exactly once (``asarray(...).copy()`` would
        pay a second full-vector copy when dtype conversion already made
        one); the checkpoint must own its vector so later server merges
        cannot mutate history.
        """
        return Checkpoint(
            params=np.array(params, dtype=np.float64),
            epochs_completed=len(result.epochs),
            elapsed_s=result.total_time_s,
            label=result.label,
            history=tuple(result.epochs),
            rule_state=dict(rule_state or {}),
            publish_count=publish_count,
            codec_state=dict(codec_state or {}),
        )

    def seed_result(self) -> RunResult:
        """A RunResult pre-populated with the checkpointed history."""
        result = RunResult(label=self.label)
        for record in self.history:
            result.append(record)
        return result

    # -- serialization --------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to a digest-protected compressed ``.npz`` byte blob."""
        payload = self._payload_bytes()
        header = _MAGIC + bytes([_FORMAT_VERSION]) + _digest(payload)
        return header + payload

    def _payload_bytes(self) -> bytes:
        meta = {
            "epochs_completed": self.epochs_completed,
            "elapsed_s": self.elapsed_s,
            "label": self.label,
            "publish_count": self.publish_count,
        }
        columns = {
            f"history_{name}": np.asarray(
                [getattr(rec, name) for rec in self.history]
            )
            for name in _RECORD_FIELDS
        }
        columns.update(
            {f"rule__{key}": np.asarray(value) for key, value in self.rule_state.items()}
        )
        columns.update(
            {
                f"codec__{key}": np.asarray(value)
                for key, value in self.codec_state.items()
            }
        )
        buf = io.BytesIO()
        np.savez_compressed(
            buf,
            params=self.params,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            **columns,
        )
        return buf.getvalue()

    @staticmethod
    def from_bytes(blob: bytes) -> "Checkpoint":
        """Inverse of :meth:`to_bytes`; verifies the integrity envelope.

        The magic, format version and digest are all checked before any
        field is decoded, so a torn write, a bit flip or a blob that never
        was a checkpoint raises :class:`CheckpointError` rather than
        yielding a half-loaded (or unverified) checkpoint.
        """
        if not blob.startswith(_MAGIC):
            raise CheckpointError(
                "not a checkpoint: the integrity header's magic is missing "
                "or damaged; refusing to load it"
            )
        header_len = len(_MAGIC) + 1 + _DIGEST_SIZE
        if len(blob) < header_len:
            raise CheckpointError("checkpoint truncated inside its integrity header")
        version = blob[len(_MAGIC)]
        if version != _FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format version {version} "
                f"(this build reads version {_FORMAT_VERSION})"
            )
        stored = blob[len(_MAGIC) + 1 : header_len]
        blob = blob[header_len:]
        if _digest(blob) != stored:
            raise CheckpointError(
                "checkpoint digest mismatch: file is corrupt or was "
                "torn mid-write; refusing to load it"
            )
        try:
            with np.load(io.BytesIO(blob)) as archive:
                meta = json.loads(archive["meta"].tobytes().decode())
                n = len(archive["history_epoch"])
                history = tuple(
                    EpochRecord(
                        **{
                            name: (
                                int(archive[f"history_{name}"][i])
                                if name
                                in (
                                    "epoch",
                                    "assimilations",
                                    "timeouts_so_far",
                                    "lost_updates_so_far",
                                )
                                else float(archive[f"history_{name}"][i])
                            )
                            for name in _RECORD_FIELDS
                        }
                    )
                    for i in range(n)
                )
                rule_state = {
                    name[len("rule__"):]: archive[name].copy()
                    for name in archive.files
                    if name.startswith("rule__")
                }
                codec_state = {
                    name[len("codec__"):]: archive[name].copy()
                    for name in archive.files
                    if name.startswith("codec__")
                }
                return Checkpoint(
                    params=archive["params"].copy(),
                    epochs_completed=meta["epochs_completed"],
                    elapsed_s=meta["elapsed_s"],
                    label=meta["label"],
                    history=history,
                    rule_state=rule_state,
                    publish_count=meta.get("publish_count", 0),
                    codec_state=codec_state,
                )
        except TrainingError:
            raise
        except Exception as exc:
            raise SerializationError(f"cannot decode checkpoint: {exc}") from exc


def save_checkpoint(path: str | pathlib.Path, checkpoint: Checkpoint) -> None:
    """Atomically write a checkpoint file.

    The blob lands in a sibling temp file first and is renamed into place
    (``os.replace``), so a crash mid-write leaves either the old good file
    or the new one — never a torn hybrid.
    """
    target = pathlib.Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_bytes(checkpoint.to_bytes())
    os.replace(tmp, target)


def load_checkpoint(path: str | pathlib.Path) -> Checkpoint:
    """Read and verify a checkpoint file."""
    return Checkpoint.from_bytes(pathlib.Path(path).read_bytes())
