"""Crash-consistent checkpointing: atomic writes, digest verification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.checkpoint import (
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.results import EpochRecord
from repro.errors import CheckpointError, SerializationError


def make_checkpoint() -> Checkpoint:
    return Checkpoint(
        params=np.arange(8, dtype=np.float64),
        epochs_completed=3,
        elapsed_s=123.5,
        label="P1C2T2",
        history=(
            EpochRecord(
                epoch=1,
                end_time_s=40.0,
                val_accuracy_mean=0.5,
                val_accuracy_min=0.4,
                val_accuracy_max=0.6,
                test_accuracy=0.45,
                alpha=0.5,
                assimilations=6,
                timeouts_so_far=0,
                lost_updates_so_far=1,
            ),
        ),
        rule_state={"backup": np.ones(8)},
        publish_count=9,
    )


class TestEnvelope:
    def test_roundtrip(self):
        ckpt = make_checkpoint()
        clone = Checkpoint.from_bytes(ckpt.to_bytes())
        np.testing.assert_array_equal(clone.params, ckpt.params)
        assert clone.epochs_completed == 3
        assert clone.publish_count == 9
        np.testing.assert_array_equal(clone.rule_state["backup"], np.ones(8))
        assert clone.history[0].val_accuracy_mean == 0.5

    def test_bit_flip_rejected(self):
        blob = bytearray(make_checkpoint().to_bytes())
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(CheckpointError, match="digest mismatch"):
            Checkpoint.from_bytes(bytes(blob))

    def test_torn_write_rejected(self):
        blob = make_checkpoint().to_bytes()
        with pytest.raises(CheckpointError, match="digest mismatch"):
            Checkpoint.from_bytes(blob[: len(blob) // 2])

    def test_truncated_header_rejected(self):
        blob = make_checkpoint().to_bytes()
        with pytest.raises(CheckpointError, match="truncated"):
            Checkpoint.from_bytes(blob[:12])

    def test_unknown_format_version_rejected(self):
        blob = bytearray(make_checkpoint().to_bytes())
        blob[8] = 99  # the version byte after the 8-byte magic
        with pytest.raises(CheckpointError, match="version 99"):
            Checkpoint.from_bytes(bytes(blob))

    def test_checkpoint_error_is_serialization_error(self):
        # Callers catching the pre-existing SerializationError keep working.
        assert issubclass(CheckpointError, SerializationError)

    def test_garbage_still_rejected(self):
        with pytest.raises(SerializationError):
            Checkpoint.from_bytes(b"not a checkpoint")

    def test_envelope_less_blob_rejected(self):
        # A raw npz payload carries no digest to verify, so it never loads.
        with pytest.raises(CheckpointError, match="magic"):
            Checkpoint.from_bytes(make_checkpoint()._payload_bytes())

    def test_flipped_magic_bit_never_loads(self):
        good = make_checkpoint().to_bytes()
        for bit in range(64):
            blob = bytearray(good)
            blob[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(CheckpointError, match="magic"):
                Checkpoint.from_bytes(bytes(blob))


class TestAtomicSave:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "job.ckpt"
        save_checkpoint(path, make_checkpoint())
        clone = load_checkpoint(path)
        assert clone.epochs_completed == 3

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "job.ckpt"
        save_checkpoint(path, make_checkpoint())
        assert [p.name for p in tmp_path.iterdir()] == ["job.ckpt"]

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "job.ckpt"
        save_checkpoint(path, make_checkpoint())
        second = Checkpoint(
            params=np.zeros(2), epochs_completed=5, elapsed_s=1.0
        )
        save_checkpoint(path, second)
        assert load_checkpoint(path).epochs_completed == 5

    def test_corrupted_file_never_half_loads(self, tmp_path):
        path = tmp_path / "job.ckpt"
        save_checkpoint(path, make_checkpoint())
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
