"""Update-rule fabric integration tests: the ASGD family on the real substrate.

The refactor promotes :class:`UpdateRule` to the core server-side
abstraction: these tests pin down (a) exact backward parity of the default
VC-ASGD path, (b) gradient-carrying rules (Downpour, DC-ASGD, Rescaled
ASGD) running end-to-end through the BOINC pipeline, (c) barrier semantics
for fault-intolerant rules, (d) version tagging / staleness bookkeeping,
and (e) rule state surviving checkpoint/resume.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.boinc.workunit import WorkunitState
from repro.core import (
    Checkpoint,
    ConstantAlpha,
    DCASGDRule,
    DistributedRunner,
    DownpourRule,
    EASGDRule,
    FaultConfig,
    LocalTrainingConfig,
    RescaledASGDRule,
    SyncAllReduceRule,
    TrainingJobConfig,
    VarAlpha,
    VCASGDRule,
    make_rule,
)
from repro.core.codec_plane import VersionedParams
from repro.core.rules import RULE_NAMES, ClientUpdate
from repro.core.runner import MAX_BARRIER_RETRIES
from repro.data import SyntheticImageConfig
from repro.errors import ConfigurationError, TrainingError
from repro.nn.models import ModelSpec


def tiny_config(**overrides) -> TrainingJobConfig:
    defaults = dict(
        num_param_servers=1,
        num_clients=2,
        max_concurrent_subtasks=2,
        model=ModelSpec("mlp", {"in_features": 48, "hidden": [8], "num_classes": 4}),
        data=SyntheticImageConfig(image_size=4, num_classes=4, noise_std=1.5),
        num_train=120,
        num_val=40,
        num_test=40,
        num_shards=6,
        max_epochs=2,
        local_training=LocalTrainingConfig(local_epochs=6, learning_rate=0.01),
        alpha_schedule=ConstantAlpha(0.8),
        seed=77,
    )
    defaults.update(overrides)
    return TrainingJobConfig(**defaults)


class TestDefaultPathParity:
    """update_rule=None must be indistinguishable from the pre-fabric runner."""

    def test_explicit_vcasgd_matches_default(self):
        default = DistributedRunner(tiny_config()).run()
        explicit = DistributedRunner(
            tiny_config(update_rule=VCASGDRule(ConstantAlpha(0.8)))
        ).run()
        assert [e.val_accuracy_mean for e in default.epochs] == [
            e.val_accuracy_mean for e in explicit.epochs
        ]
        assert [e.test_accuracy for e in default.epochs] == [
            e.test_accuracy for e in explicit.epochs
        ]
        assert default.total_time_s == explicit.total_time_s
        assert default.counters == explicit.counters

    def test_labels(self):
        assert DistributedRunner(tiny_config()).result.label == "P1C2T2:alpha=0.8"
        runner = DistributedRunner(
            tiny_config(update_rule=VCASGDRule(ConstantAlpha(0.8)))
        )
        assert runner.result.label == "P1C2T2:VC-ASGD(alpha=0.8)"

    def test_rule_is_deep_copied_per_run(self):
        rule = DCASGDRule(server_lr=0.02)
        config = tiny_config(update_rule=rule, max_epochs=1)
        runner = DistributedRunner(config)
        runner.run()
        assert runner.rule is not rule
        assert runner.rule._backups and not rule._backups


def _spy_on_uploads(runner: DistributedRunner) -> list:
    """Capture every ClientUpdate the fleet produces (clients bind the
    executor at construction, so patch them, not the runner)."""
    captured: list = []
    original = runner._execute_subtask

    def spy(wu, payloads):
        update, nbytes = original(wu, payloads)
        captured.append(update)
        return update, nbytes

    for client in runner.server.clients.values():
        client.executor = spy
    return captured


class TestGradientRulesOnSubstrate:
    """Gradient-consuming rules run end-to-end through the BOINC pipeline."""

    @pytest.mark.parametrize(
        "rule",
        [
            DownpourRule(server_lr=0.002),
            DCASGDRule(server_lr=0.002, lam=0.04),
            RescaledASGDRule(server_lr=0.002),
        ],
        ids=["downpour", "dcasgd", "rescaled"],
    )
    def test_runs_to_completion(self, rule):
        result = DistributedRunner(tiny_config(update_rule=rule)).run()
        assert len(result.epochs) == 2
        assert result.counters["assimilations"] == 12  # 6 shards x 2 epochs
        assert rule.describe().split("(")[0] in result.label

    def test_gradient_rules_move_differently_from_vcasgd(self):
        vc = DistributedRunner(tiny_config(max_epochs=1))
        vc_result = vc.run()
        dp = DistributedRunner(
            tiny_config(max_epochs=1, update_rule=DownpourRule(server_lr=0.002))
        )
        dp_result = dp.run()
        assert not np.allclose(vc.pool.current_params(), dp.pool.current_params())
        # Same substrate events: identical assimilation counts.
        assert (
            vc_result.counters["assimilations"]
            == dp_result.counters["assimilations"]
        )

    def test_dcasgd_accumulates_backups(self):
        runner = DistributedRunner(
            tiny_config(update_rule=DCASGDRule(server_lr=0.002))
        )
        runner.run()
        assert len(runner.rule._backups) > 0
        # Backups are keyed by publish version and bounded.
        assert max(runner.rule._backups) <= runner._param_publish_count
        assert len(runner.rule._backups) <= runner.rule.max_backups

    def test_rescaled_tracks_latest_version(self):
        runner = DistributedRunner(
            tiny_config(update_rule=RescaledASGDRule(server_lr=0.002))
        )
        runner.run()
        assert runner.rule._latest_version == runner._param_publish_count

    def test_vcasgd_clients_skip_gradient_accumulation(self):
        """Parity guard: the default rule must not pay for gradients."""
        runner = DistributedRunner(tiny_config(max_epochs=1, step_jobs=1))
        captured = _spy_on_uploads(runner)
        runner.run()
        assert captured and all(u.gradient is None for u in captured)

    def test_gradient_rule_clients_upload_gradients(self):
        runner = DistributedRunner(
            tiny_config(
                max_epochs=1, update_rule=DownpourRule(server_lr=0.002), step_jobs=1
            )
        )
        captured = _spy_on_uploads(runner)
        runner.run()
        assert captured
        for update in captured:
            assert update.gradient is not None
            assert update.gradient.shape == update.params.shape
            assert float(np.abs(update.gradient).sum()) > 0.0


class TestBarrierSemantics:
    """Fault-intolerant rules (EASGD, BSP) on the faulty substrate."""

    def test_easgd_fault_free_completes_without_stalls(self):
        result = DistributedRunner(
            tiny_config(update_rule=EASGDRule(moving_rate=0.2))
        ).run()
        assert len(result.epochs) == 2
        assert result.counters["barrier_stalls"] == 0

    def test_fault_tolerant_rules_do_not_report_barrier_counter(self):
        result = DistributedRunner(tiny_config()).run()
        assert "barrier_stalls" not in result.counters

    def test_easgd_stalls_under_preemption(self):
        """The paper's fault-intolerance claim on the real pipeline: when a
        shard's subtask fails permanently, EASGD must reissue it and pay
        wall clock, where VC-ASGD would just proceed."""
        faults = FaultConfig(preemption_hourly_p=0.99, relaunch_delay_s=30.0)
        easgd = DistributedRunner(
            tiny_config(
                update_rule=EASGDRule(moving_rate=0.2),
                faults=faults,
                max_attempts=1,
            )
        ).run()
        assert easgd.counters["barrier_stalls"] >= 1
        assert len(easgd.epochs) == 2  # reissues eventually closed the barrier
        fault_free = DistributedRunner(
            tiny_config(update_rule=EASGDRule(moving_rate=0.2))
        ).run()
        assert easgd.total_time_s > fault_free.total_time_s

    def test_vcasgd_tolerates_same_fault_profile(self):
        faults = FaultConfig(preemption_hourly_p=0.99, relaunch_delay_s=30.0)
        result = DistributedRunner(
            tiny_config(faults=faults, max_attempts=1)
        ).run()
        assert len(result.epochs) == 2
        assert "barrier_stalls" not in result.counters

    def test_barrier_raises_after_retry_budget(self):
        runner = DistributedRunner(
            tiny_config(update_rule=SyncAllReduceRule())
        )
        runner._barrier_round = MAX_BARRIER_RETRIES
        runner._missing_shard_indices = lambda: [0, 3]
        with pytest.raises(TrainingError, match="barrier stalled"):
            runner._barrier_blocked()

    def test_allreduce_runs_fault_free(self):
        result = DistributedRunner(
            tiny_config(update_rule=SyncAllReduceRule())
        ).run()
        assert len(result.epochs) == 2
        assert result.counters["barrier_stalls"] == 0


class TestEpochCompletion:
    """The scheduler's O(1) terminal count closes each epoch exactly when a
    scan of the epoch's units would, through barrier retries and replicas."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(
                update_rule=EASGDRule(moving_rate=0.2),
                faults=FaultConfig(preemption_hourly_p=0.99, relaunch_delay_s=30.0),
                max_attempts=1,
            ),
            dict(num_clients=3, replicas=2, quorum=1),
        ],
        ids=["barrier_retries", "replicas"],
    )
    def test_terminal_count_agrees_with_a_scan(self, overrides):
        runner = DistributedRunner(tiny_config(**overrides))
        counted = runner._epoch_complete
        closed: list[int] = []

        def checked() -> bool:
            units = runner._epoch_workunits
            done = sum(1 for wu in units if wu.state is WorkunitState.DONE)
            scanned = (
                all(wu.is_terminal for wu in units)
                and runner._epoch_assimilated >= done
            )
            assert counted() == scanned
            if scanned:
                closed.append(len(units))
            return scanned

        runner._epoch_complete = checked
        result = runner.run()
        assert len(result.epochs) == 2
        assert closed
        if "update_rule" in overrides:
            # Retries joined the epoch's units and its count alike.
            assert result.counters["barrier_stalls"] >= 1
            assert max(closed) > runner.config.num_shards


class TestVersionTagging:
    """Satellite fix: publish versions ride on the payload, no id() table."""

    def test_published_payload_is_versioned(self):
        runner = DistributedRunner(tiny_config())
        published = runner.server.catalog.get("job:params")
        assert isinstance(published.payload, VersionedParams)
        assert published.payload.version == runner._param_publish_count == 1

    def test_no_id_keyed_side_table(self):
        runner = DistributedRunner(tiny_config())
        assert not hasattr(runner, "_payload_versions")

    def test_staleness_samples_survive_refactor(self):
        result = DistributedRunner(tiny_config()).run()
        assert result.counters["mean_staleness_x100"] > 0
        assert result.counters["max_staleness"] >= 1

    def test_replicated_run_tags_frozen_params(self):
        """Frozen per-epoch replica files now carry the real publish
        version instead of an untagged 0."""
        runner = DistributedRunner(tiny_config(replicas=2, quorum=2))
        result = runner.run()
        frozen = runner.server.catalog.get("job:params:e000")
        assert isinstance(frozen.payload, VersionedParams)
        assert frozen.payload.version >= 1
        assert result.counters["quorums_reached"] > 0
        assert len(result.epochs) == 2

    def test_gradient_rule_through_quorum(self):
        """ClientUpdate payloads travel intact through replication."""
        result = DistributedRunner(
            tiny_config(
                replicas=2, quorum=2, update_rule=DCASGDRule(server_lr=0.002)
            )
        ).run()
        assert result.counters["quorums_reached"] == 12
        assert len(result.epochs) == 2


class TestRuleStateCheckpointing:
    def test_checkpoint_blob_roundtrips_rule_state(self):
        rule = DCASGDRule(server_lr=0.01)
        rule.snapshot_sent(1, np.arange(4.0))
        rule.snapshot_sent(2, np.arange(4.0) * 2)
        ckpt = Checkpoint(
            params=np.zeros(4),
            epochs_completed=1,
            elapsed_s=10.0,
            rule_state=rule.state_dict(),
            publish_count=7,
        )
        restored = Checkpoint.from_bytes(ckpt.to_bytes())
        assert restored.publish_count == 7
        fresh = DCASGDRule(server_lr=0.01)
        fresh.load_state_dict(restored.rule_state)
        assert set(fresh._backups) == {1, 2}
        np.testing.assert_array_equal(fresh._backups[2], np.arange(4.0) * 2)

    def test_dcasgd_backups_survive_server_failure(self):
        """Resume must restore delay-compensation state, not reset it."""
        config = tiny_config(
            update_rule=DCASGDRule(server_lr=0.002), max_epochs=1
        )
        first = DistributedRunner(config)
        first.run()
        ckpt = Checkpoint.from_bytes(first.checkpoint().to_bytes())
        assert ckpt.publish_count == first._param_publish_count
        resumed = DistributedRunner(
            tiny_config(
                update_rule=DCASGDRule(server_lr=0.002), max_epochs=2
            ),
            resume_from=ckpt,
        )
        # Backups restored before the constructor's initial publish added
        # one more (at version publish_count + 1).
        for version, backup in first.rule._backups.items():
            np.testing.assert_array_equal(resumed.rule._backups[version], backup)
        assert resumed._param_publish_count == ckpt.publish_count + 1
        result = resumed.run()
        assert [e.epoch for e in result.epochs] == [1, 2]

    def test_stateless_rule_rejects_foreign_state(self):
        with pytest.raises(ConfigurationError, match="stateless"):
            VCASGDRule(ConstantAlpha(0.5)).load_state_dict(
                {"backup:1": np.zeros(3)}
            )

    def test_publish_count_continuity_preserves_staleness_math(self):
        first = DistributedRunner(tiny_config(max_epochs=1))
        first.run()
        resumed = DistributedRunner(
            tiny_config(max_epochs=2), resume_from=first.checkpoint()
        )
        result = resumed.run()
        assert resumed._param_publish_count > first._param_publish_count
        assert result.counters["max_staleness"] < resumed._param_publish_count


@pytest.mark.parametrize("name", RULE_NAMES)
class TestApplyContract:
    """``apply`` is ``apply_into`` on a fresh vector — for every rule.

    The parameter-server pool commits what ``apply`` returns *by
    reference*, so the result may alias nothing the rule or the caller
    still holds.
    """

    @staticmethod
    def _updates(steps=4):
        rng = np.random.default_rng(5)
        return [
            ClientUpdate(
                "c0",
                rng.normal(size=16),
                gradient=rng.normal(size=16),
                base_version=max(1, version - 1),
            )
            for version in range(1, steps + 1)
        ]

    def test_apply_equals_apply_into(self, name):
        by_apply, by_kernel = make_rule(name), make_rule(name)
        server = np.linspace(-1.0, 1.0, 16)
        for version, update in enumerate(self._updates(), start=1):
            for rule in (by_apply, by_kernel):
                rule.snapshot_sent(version, server)  # DC-ASGD backup, rescaled τ
            out = np.empty(16)
            got = by_apply.apply(server, update, epoch=2)
            assert by_kernel.apply_into(server, update, 2, out) is out
            assert got.tobytes() == out.tobytes()
            server = got

    def test_apply_returns_a_fresh_unaliased_vector(self, name):
        rule = make_rule(name)
        server = np.linspace(-1.0, 1.0, 16)
        returned = []
        for version, update in enumerate(self._updates(), start=1):
            rule.snapshot_sent(version, server)
            got = rule.apply(server, update, epoch=2)
            held = [server, update.params, update.gradient, *returned]
            held += rule.__dict__.get("_scratch_buffers", {}).values()
            if getattr(rule, "_buf", None) is not None:
                held.append(rule._buf)  # the robust rules' window
            assert not any(np.shares_memory(got, other) for other in held)
            returned.append(got)
            server = got


class TestMakeRuleFactory:
    def test_every_name_builds(self):
        for name in RULE_NAMES:
            assert make_rule(name).describe()

    def test_vcasgd_defaults_to_var_schedule(self):
        rule = make_rule("vcasgd")
        assert isinstance(rule, VCASGDRule)
        assert isinstance(rule.schedule, VarAlpha)

    def test_easgd_translates_constant_alpha(self):
        rule = make_rule("easgd", alpha_schedule=ConstantAlpha(0.999))
        assert isinstance(rule, EASGDRule)
        assert rule.moving_rate == pytest.approx(0.001)

    def test_normalizes_spelling(self):
        assert isinstance(make_rule("DC-ASGD"), DCASGDRule)
        assert isinstance(make_rule("all_reduce"), SyncAllReduceRule)
        assert isinstance(make_rule("SyncAllReduce"), SyncAllReduceRule)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown update rule"):
            make_rule("federated-dreams")
