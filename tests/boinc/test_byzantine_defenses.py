"""Byzantine defense layers: collusion-aware quorum, deferred credit,
host quarantine and validator norm bounds.

These are the server-side answers to the adversary fabric
(:mod:`repro.simulation.adversary`); the attack/defense matrix in
``benchmarks/test_attack_defense.py`` exercises them end to end, while
these tests pin each mechanism in isolation.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.boinc import (
    BoincServer,
    CallbackAssimilator,
    ParameterValidator,
    Scheduler,
    SchedulerConfig,
    Workunit,
)
from repro.boinc.replication import (
    QuorumAssimilator,
    QuorumConfig,
    replica_id,
)
from repro.boinc.scheduler import PING_IDLE_MAX_S
from repro.errors import SchedulerError
from repro.simulation import Simulator, Trace


def make_replica(logical: str, k: int, host: str, now: float = 0.0) -> Workunit:
    wu = Workunit(
        wu_id=replica_id(logical, k),
        job_id="job",
        epoch=0,
        shard_index=0,
        input_files=("m", "p", "s0"),
        work_units=10.0,
        timeout_s=100.0,
    )
    wu.mark_sent(host, now)
    wu.mark_result_received(now)
    return wu


def payload(value: float, claimed: float | None = None, size: int = 4):
    return SimpleNamespace(
        params=np.full(size, value), gradient=None, claimed_credit=claimed
    )


def make_quorum(
    config: QuorumConfig,
    reliability: dict[str, float] | None = None,
    sink: list | None = None,
):
    inner = CallbackAssimilator(
        lambda wu, p: sink.append(wu.wu_id) if sink is not None else None
    )
    quorum = QuorumAssimilator(inner, config, trace=Trace(), sim=Simulator())
    if reliability is not None:
        quorum.reliability_fn = lambda host: reliability.get(host, 1.0)
    return quorum


class TestCollusionAwareQuorum:
    CFG = QuorumConfig(replicas=3, min_quorum=2, collusion_aware=True)

    def test_degraded_cartel_loses_to_trusted_singleton(self):
        """Two bit-identical wrong answers from low-reliability hosts are
        out-scored by one honest replica from a trusted host."""
        sink: list = []
        quorum = make_quorum(
            self.CFG, {"bad1": 0.3, "bad2": 0.3, "good": 0.95}, sink
        )
        quorum.assimilate(make_replica("u", 0, "bad1"), payload(9.0), lambda: None)
        quorum.assimilate(make_replica("u", 1, "bad2"), payload(9.0), lambda: None)
        assert sink == []  # ambiguous: wait for the honest replica
        quorum.assimilate(make_replica("u", 2, "good"), payload(1.0), lambda: None)
        assert sink == ["u#r2"]
        assert quorum.quorums_reached == 1

    def test_fresh_cartel_outvotes_singleton(self):
        """Without a reliability history the cartel wins — the guard needs
        the quarantine loop to build a track record first."""
        sink: list = []
        quorum = make_quorum(self.CFG, {}, sink)
        for k, host in enumerate(("bad1", "bad2", "good")):
            value = 9.0 if host.startswith("bad") else 1.0
            quorum.assimilate(make_replica("u", k, host), payload(value), lambda: None)
        assert sink == ["u#r0"]

    def test_early_decision_when_unbeatable(self):
        """A full-reliability agreeing pair decides before the last replica
        arrives: one outstanding host cannot outweigh score 2.0."""
        sink: list = []
        quorum = make_quorum(self.CFG, None, sink)
        quorum.assimilate(make_replica("u", 0, "h1"), payload(1.0), lambda: None)
        assert sink == []
        quorum.assimilate(make_replica("u", 1, "h2"), payload(1.0), lambda: None)
        assert sink == ["u#r0"]
        assert quorum.pending_units() == 0

    def test_low_reliability_pair_waits_for_third(self):
        """An agreeing pair whose combined score (0.8) could still be
        overtaken by the one outstanding replica (weight <= 1.0) must wait."""
        sink: list = []
        quorum = make_quorum(self.CFG, {"h1": 0.4, "h2": 0.4}, sink)
        quorum.assimilate(make_replica("u", 0, "h1"), payload(1.0), lambda: None)
        quorum.assimilate(make_replica("u", 1, "h2"), payload(1.0), lambda: None)
        assert quorum.decided_units() == 0
        quorum.assimilate(make_replica("u", 2, "h3"), payload(1.0), lambda: None)
        assert quorum.decided_units() == 1
        assert sink == ["u#r0"]

    def test_all_disagree_fails_quorum(self):
        failed: list = []
        quorum = make_quorum(self.CFG, {"h1": 0.5, "h2": 0.5, "h3": 0.5})
        quorum.on_failed = lambda key, wus: failed.append((key, len(wus)))
        for k, value in enumerate((1.0, 2.0, 3.0)):
            quorum.assimilate(
                make_replica("u", k, f"h{k + 1}"), payload(value), lambda: None
            )
        assert quorum.quorums_failed == 1
        assert failed == [("u", 3)]
        assert quorum.pending_units() == 0


class TestQuorumDeferredCredit:
    def build(self, config: QuorumConfig, reliability=None):
        sim = Simulator()
        quorum = make_quorum(config, reliability)
        quorum.sim = sim
        server = BoincServer(
            sim,
            assimilator=quorum,
            validator=ParameterValidator(expected_size=4),
            scheduler_config=SchedulerConfig(timeout_s=100.0),
        )
        server.enable_quorum_credit(quorum)
        return server, quorum

    def test_winners_share_median_claim(self):
        server, _ = self.build(QuorumConfig(replicas=3, min_quorum=3))
        for k, (host, claimed) in enumerate(
            (("a", 10.0), ("b", 12.0), ("cheat", 1000.0))
        ):
            server._handle_accepted_result(
                make_replica("u", k, host), payload(1.0, claimed=claimed)
            )
        for host in ("a", "b", "cheat"):
            assert server.credit.host_total(host) == 12.0

    def test_claims_deferred_until_decision(self):
        server, _ = self.build(QuorumConfig(replicas=2, min_quorum=2))
        server._handle_accepted_result(make_replica("u", 0, "a"), payload(1.0, 7.0))
        assert server.credit.granted_total == 0.0  # stashed, not granted
        server._handle_accepted_result(make_replica("u", 1, "b"), payload(1.0, 7.0))
        assert server.credit.host_total("a") == 7.0
        assert server.credit.host_total("b") == 7.0

    def test_loser_denied(self):
        server, _ = self.build(QuorumConfig(replicas=3, min_quorum=2))
        server._handle_accepted_result(make_replica("u", 0, "liar"), payload(9.0, 10.0))
        server._handle_accepted_result(make_replica("u", 1, "a"), payload(1.0, 10.0))
        server._handle_accepted_result(make_replica("u", 2, "b"), payload(1.0, 10.0))
        assert server.credit.host_total("a") == 10.0
        assert server.credit.host_total("liar") == 0.0
        assert server.credit.hosts["liar"].results_denied == 1

    def test_late_agreeing_replica_gets_decided_amount(self):
        server, _ = self.build(QuorumConfig(replicas=3, min_quorum=2))
        server._handle_accepted_result(make_replica("u", 0, "a"), payload(1.0, 10.0))
        server._handle_accepted_result(make_replica("u", 1, "b"), payload(1.0, 14.0))
        # Decided at median 12; the straggler claims 99 but matches.
        server._handle_accepted_result(make_replica("u", 2, "late"), payload(1.0, 99.0))
        assert server.credit.host_total("late") == 12.0

    def test_late_disagreeing_replica_denied(self):
        server, _ = self.build(QuorumConfig(replicas=3, min_quorum=2))
        server._handle_accepted_result(make_replica("u", 0, "a"), payload(1.0, 10.0))
        server._handle_accepted_result(make_replica("u", 1, "b"), payload(1.0, 10.0))
        server._handle_accepted_result(make_replica("u", 2, "liar"), payload(5.0, 10.0))
        assert server.credit.host_total("liar") == 0.0
        assert server.credit.hosts["liar"].results_denied == 1

    def test_failed_quorum_denies_everyone(self):
        server, quorum = self.build(
            QuorumConfig(replicas=2, min_quorum=2, collusion_aware=True),
            reliability={"a": 0.5, "b": 0.5},
        )
        server.invalid_feedback = True
        server._handle_accepted_result(make_replica("u", 0, "a"), payload(1.0, 10.0))
        server._handle_accepted_result(make_replica("u", 1, "b"), payload(2.0, 10.0))
        assert quorum.quorums_failed == 1
        assert server.credit.host_total("a") == 0.0
        assert server.credit.hosts["a"].results_denied == 1
        assert server.credit.hosts["b"].results_denied == 1
        assert server.scheduler.client("a").invalid_results == 1


class TestQuarantine:
    def make(self, after: int) -> Scheduler:
        return Scheduler(
            Simulator(), SchedulerConfig(timeout_s=100.0, quarantine_after=after)
        )

    def test_threshold_bars_host(self):
        sched = self.make(2)
        assert sched.record_invalid_result("h") is False
        assert sched.record_invalid_result("h") is True  # newly quarantined
        assert sched.record_invalid_result("h") is False  # already barred
        assert sched.client("h").quarantined
        assert sched.hosts_quarantined == 1

    def test_quarantined_host_gets_no_work(self):
        sched = self.make(1)
        wu = Workunit(
            wu_id="w0", job_id="j", epoch=0, shard_index=0,
            input_files=("m", "p", "s0"), work_units=1.0, timeout_s=50.0,
        )
        sched.add_workunits([wu])
        sched.record_invalid_result("h")
        assert sched.request_work("h", set(), 2) == []
        granted = sched.request_work("honest", set(), 2)
        assert [w.wu_id for w in granted] == ["w0"]

    def test_sleep_hint_reason(self):
        sched = self.make(1)
        sched.record_invalid_result("h")
        granted, hint = sched.ping("h", set(), 2)
        assert granted == []
        assert hint == PING_IDLE_MAX_S

    def test_disabled_by_default(self):
        sched = self.make(0)
        for _ in range(10):
            sched.record_invalid_result("h")
        assert not sched.client("h").quarantined
        assert sched.hosts_quarantined == 0

    def test_negative_threshold_rejected(self):
        with pytest.raises(SchedulerError):
            SchedulerConfig(quarantine_after=-1)


class TestValidatorNormBound:
    def test_norm_bound_rejects(self):
        validator = ParameterValidator(expected_size=4, max_norm=1.0)
        verdict = validator.validate(np.full(4, 10.0))
        assert not verdict.ok
        assert verdict.code == "norm_bound"
        assert validator.rejections_by_code == {"norm_bound": 1}

    def test_within_bound_accepted(self):
        validator = ParameterValidator(expected_size=4, max_norm=10.0)
        assert validator.validate(np.full(4, 0.5)).ok

    def test_no_bound_by_default(self):
        validator = ParameterValidator(expected_size=4)
        assert validator.validate(np.full(4, 1e5)).ok

    @pytest.mark.parametrize(
        "vec,code",
        [
            ("not-an-array", "decode"),
            (np.zeros((2, 2)), "shape"),
            (np.zeros(3), "size"),
            (np.array([1.0, np.nan, 0.0, 0.0]), "non_finite"),
            (np.full(4, 1e7), "bound"),
        ],
    )
    def test_reason_codes(self, vec, code):
        validator = ParameterValidator(expected_size=4)
        verdict = validator.validate(vec)
        assert not verdict.ok
        assert verdict.code == code
        assert validator.rejections_by_code == {code: 1}
