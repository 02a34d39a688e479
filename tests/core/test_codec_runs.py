"""Codec plane end-to-end: golden bit-exactness, honest lossy training,
checkpointable residuals, and the delta download chain.

The most important contract is the first one: with ``codec=None`` the
whole plane is dormant and runs are byte-identical to the pre-codec tree
(parameters, counters, epoch records, trace-kind census).  The goldens
(``tests/goldens.py``) were captured on the commit preceding the codec
plane; if one moves, the plane leaked into the default path — find the
leak, do not re-pin.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core import DistributedRunner, make_rule
from repro.core.checkpoint import Checkpoint
from repro.errors import ConfigurationError

from ..goldens import GOLDENS, family, run_digest
from .test_runner import tiny_config

GOLDEN_LOSSY = family("codec_lossy")

CODEC_COUNTERS = (
    "codec_publishes",
    "codec_publish_raw_bytes",
    "codec_publish_wire_bytes",
    "codec_uploads",
    "codec_upload_raw_bytes",
    "codec_upload_wire_bytes",
    "codec_decodes",
)


class TestCodecNoneBitExact:
    def test_vcasgd_matches_pre_codec_golden(self):
        golden = GOLDENS["codec_none/vcasgd"]
        assert golden.recompute() == golden.hex

    def test_downpour_matches_pre_codec_golden(self):
        golden = GOLDENS["codec_none/downpour"]
        assert golden.recompute() == golden.hex


class TestLossyCodecGolden:
    """Error feedback on (one replica) except in the replicated run, where
    the plane turns it off."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_LOSSY))
    def test_matches_golden(self, name):
        golden = GOLDEN_LOSSY[name]
        assert golden.recompute() == golden.hex


class TestCodecRuns:
    @pytest.mark.parametrize("codec", ["zlib", "fp16", "int8", "topk", "delta"])
    def test_run_completes_and_is_deterministic(self, codec):
        config = tiny_config(codec=codec)
        assert run_digest(config) == run_digest(config)

    @pytest.mark.parametrize("codec", ["fp16", "topk"])
    def test_gradient_rules_carry_codecs(self, codec):
        config = tiny_config(
            codec=codec,
            update_rule=make_rule("downpour", server_lr=0.05),
        )
        assert run_digest(config) == run_digest(config)

    def test_counters_present_and_consistent(self):
        runner = DistributedRunner(tiny_config(codec="int8"))
        result = runner.run()
        for name in CODEC_COUNTERS:
            assert name in result.counters, name
        c = result.counters
        assert c["codec_publishes"] > 0 and c["codec_uploads"] > 0
        # Quantized transfers must beat the raw float64 stream.
        assert c["codec_publish_wire_bytes"] < c["codec_publish_raw_bytes"]
        assert c["codec_upload_wire_bytes"] < c["codec_upload_raw_bytes"]
        # Lossy plane: every publish and every upload is decoded.
        assert c["codec_decodes"] == c["codec_publishes"] + c["codec_uploads"] - 1

    def test_codec_free_runs_have_no_codec_counters(self):
        result = DistributedRunner(tiny_config()).run()
        assert not any(k.startswith("codec_") for k in result.counters)

    def test_trace_kinds_gated_on_codec(self):
        with_codec = DistributedRunner(tiny_config(codec="fp16"))
        with_codec.run()
        kinds = {rec.kind for rec in with_codec.trace}
        assert "net.encode" in kinds and "net.decode" in kinds
        without = DistributedRunner(tiny_config())
        without.run()
        kinds = {rec.kind for rec in without.trace}
        assert "net.encode" not in kinds and "net.decode" not in kinds

    def test_delta_chain_prices_below_full(self):
        runner = DistributedRunner(tiny_config(codec="delta"))
        plain = DistributedRunner(tiny_config())
        r_delta, r_plain = runner.run(), plain.run()
        assert r_delta.counters["codec_delta_chain_downloads"] > 0
        # Same schedule, cheaper parameter downloads.
        assert r_delta.counters["bytes_down"] < r_plain.counters["bytes_down"]

    def test_replicated_codec_run_reaches_quorum(self):
        # Lossy codec + replication: error feedback is disabled (sibling
        # replicas must decode identically) and quorums still agree.
        config = tiny_config(num_clients=3, codec="fp16", replicas=2, quorum=2)
        runner = DistributedRunner(config)
        result = runner.run()
        assert result.counters["quorums_reached"] > 0
        assert runner._codec_plane.error_feedback is False


class TestCodecValidation:
    def test_unknown_codec_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(codec="gzip")

    def test_codec_requires_compression(self):
        with pytest.raises(ConfigurationError):
            tiny_config(codec="zlib", compression_enabled=False)

    def test_codec_incompatible_with_deferred_plane(self):
        with pytest.raises(ConfigurationError):
            tiny_config(codec="fp16", cohort_size=2)

    def test_topk_knobs_validated(self):
        with pytest.raises(ConfigurationError):
            tiny_config(codec="topk", codec_topk=0.0)
        with pytest.raises(ConfigurationError):
            tiny_config(codec="topk", codec_quant="fp8")


class TestResidualCheckpointing:
    def test_residuals_survive_checkpoint_roundtrip(self):
        runner = DistributedRunner(tiny_config(codec="topk", max_epochs=1))
        runner.run()
        ck = runner.checkpoint()
        assert ck.codec_state, "lossy run should accumulate residuals"
        restored = Checkpoint.from_bytes(ck.to_bytes())
        assert set(restored.codec_state) == set(ck.codec_state)
        for key, value in ck.codec_state.items():
            np.testing.assert_array_equal(restored.codec_state[key], value)

    def test_resume_restores_residuals_and_stays_deterministic(self):
        runner = DistributedRunner(tiny_config(codec="topk", max_epochs=1))
        runner.run()
        ck = Checkpoint.from_bytes(runner.checkpoint().to_bytes())

        def resumed_digest() -> str:
            resumed = DistributedRunner(
                tiny_config(codec="topk", max_epochs=2), resume_from=ck
            )
            for key, value in ck.codec_state.items():
                client_id = key[len("residual__"):]
                np.testing.assert_array_equal(
                    resumed._codec_plane._residuals[client_id], value
                )
            result = resumed.run()
            h = hashlib.sha256()
            h.update(resumed.pool.current_params().tobytes())
            h.update(json.dumps(result.counters, sort_keys=True).encode())
            return h.hexdigest()

        assert resumed_digest() == resumed_digest()

    def test_codec_free_checkpoints_have_empty_codec_state(self):
        runner = DistributedRunner(tiny_config(max_epochs=1))
        runner.run()
        assert runner.checkpoint().codec_state == {}
