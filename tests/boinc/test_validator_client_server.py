"""Validator checks and client/server integration over the simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boinc import (
    BoincServer,
    CallbackAssimilator,
    ClientDaemon,
    ParameterValidator,
    SchedulerConfig,
    ServerFile,
    Workunit,
)
from repro.simulation import InstanceSpec, Simulator


class TestValidator:
    @pytest.fixture
    def validator(self) -> ParameterValidator:
        return ParameterValidator(expected_size=10)

    def test_accepts_good_vector(self, validator, rng):
        assert validator.validate(rng.normal(size=10)).ok
        assert validator.accepted == 1

    def test_rejects_wrong_type(self, validator):
        res = validator.validate([1.0] * 10)
        assert not res.ok and "type" in res.reason

    def test_rejects_wrong_ndim(self, validator, rng):
        assert not validator.validate(rng.normal(size=(2, 5))).ok

    def test_rejects_wrong_size(self, validator, rng):
        assert not validator.validate(rng.normal(size=11)).ok

    def test_rejects_nan(self, validator):
        vec = np.zeros(10)
        vec[3] = np.nan
        res = validator.validate(vec)
        assert not res.ok and "finite" in res.reason

    def test_rejects_inf(self, validator):
        vec = np.zeros(10)
        vec[0] = np.inf
        assert not validator.validate(vec).ok

    def test_rejects_exploded_magnitude(self, validator):
        vec = np.zeros(10)
        vec[0] = 1e9
        res = validator.validate(vec)
        assert not res.ok and "magnitude" in res.reason
        assert validator.rejected == 1


def _two_scan_verdict(vec: np.ndarray, bound: float) -> tuple[bool, str, str]:
    """The historical finite-then-magnitude check, kept verbatim as the
    oracle for the one-scan accept path."""
    if not np.isfinite(vec).all():
        return False, "non-finite parameter values", "non_finite"
    peak = float(np.abs(vec).max()) if vec.size else 0.0
    if peak > bound:
        return False, f"parameter magnitude {peak:.3g} exceeds bound", "bound"
    return True, "", "ok"


_ELEMENTS = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([np.nan, np.inf, -np.inf, 100.0, -100.0, 100.5, 1e300]),
)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(_ELEMENTS, min_size=0, max_size=12),
    bound=st.sampled_from([100.0, 1e6, np.inf]),
)
def test_property_one_scan_verdicts_match_two_scan_oracle(values, bound):
    vec = np.asarray(values, dtype=np.float64)
    validator = ParameterValidator(expected_size=vec.size, max_abs_value=bound)
    verdict = validator.validate(vec)
    assert (verdict.ok, verdict.reason, verdict.code) == _two_scan_verdict(vec, bound)


def build_system(
    sim: Simulator,
    num_clients: int = 2,
    max_concurrent: int = 2,
    timeout_s: float = 500.0,
    executor=None,
) -> tuple[BoincServer, CallbackAssimilator, list[ClientDaemon]]:
    """Minimal BOINC system: echo executor, tiny files, fast links."""
    assimilated: list[str] = []
    assim = CallbackAssimilator(lambda wu, payload: assimilated.append(wu.wu_id))
    assim.log = assimilated  # type: ignore[attr-defined]
    server = BoincServer(
        sim,
        assimilator=assim,
        validator=ParameterValidator(expected_size=4),
        scheduler_config=SchedulerConfig(timeout_s=timeout_s, max_attempts=3),
    )
    server.catalog.publish(ServerFile("model", "spec", raw_size=100, sticky=True))
    server.catalog.publish(ServerFile("params", np.zeros(4), raw_size=100))
    for i in range(50):
        server.catalog.publish(
            ServerFile(f"shard-{i:02d}", f"data{i}", raw_size=200, sticky=True)
        )

    if executor is None:
        def executor(wu: Workunit, payloads: dict) -> tuple[np.ndarray, int]:
            return np.ones(4), 100

    spec = InstanceSpec("c", vcpus=4, clock_ghz=2.4, ram_gb=8, network_gbps=1)
    clients = []
    for i in range(num_clients):
        client = ClientDaemon(
            client_id=f"c{i}",
            sim=sim,
            spec=spec,
            scheduler=server.scheduler,
            web=server.web,
            executor=executor,
            max_concurrent=max_concurrent,
        )
        server.attach_client(client)
        clients.append(client)
    return server, assim, clients


def make_wus(
    n: int, timeout_s: float = 500.0, max_attempts: int = 5
) -> list[Workunit]:
    return [
        Workunit(
            wu_id=f"wu{i:02d}",
            job_id="job",
            epoch=0,
            shard_index=i,
            input_files=("model", "params", f"shard-{i:02d}"),
            work_units=10.0,
            timeout_s=timeout_s,
            max_attempts=max_attempts,
        )
        for i in range(n)
    ]


class TestEndToEnd:
    def test_all_workunits_complete_and_assimilate(self, sim):
        server, assim, _ = build_system(sim)
        server.publish_workunits(make_wus(8))
        sim.run()
        assert server.scheduler.all_terminal()
        assert assim.count == 8
        assert sorted(assim.log) == [f"wu{i:02d}" for i in range(8)]

    def test_concurrency_respects_tn(self, sim):
        server, _, clients = build_system(sim, num_clients=1, max_concurrent=3)
        server.publish_workunits(make_wus(10))
        max_active = 0

        def watch() -> None:
            nonlocal max_active
            max_active = max(max_active, clients[0].resource.active_count)
            sim.schedule(0.5, watch)

        sim.schedule(0.0, watch)
        sim.run(max_events=100_000, until=10_000)
        assert 0 < max_active <= 3

    def test_invalid_results_are_retried(self, sim):
        calls = {"n": 0}

        def flaky_executor(wu: Workunit, payloads: dict) -> tuple[np.ndarray, int]:
            calls["n"] += 1
            if calls["n"] == 1:
                return np.full(4, np.nan), 100  # first result invalid
            return np.ones(4), 100

        server, assim, _ = build_system(sim, num_clients=1, executor=flaky_executor)
        server.publish_workunits(make_wus(1))
        sim.run()
        assert assim.count == 1
        assert server.validator.rejected == 1
        assert server.scheduler.get_workunit("wu00").num_attempts == 2

    def test_client_termination_recovers_via_reissue(self, sim):
        server, assim, clients = build_system(sim, num_clients=2, max_concurrent=1)
        server.publish_workunits(make_wus(4))
        # Kill client 0 shortly after it starts working.
        sim.schedule(1.0, clients[0].terminate)
        sim.run()
        assert server.scheduler.all_terminal()
        assert assim.count == 4  # survivor finished everything
        assert clients[1].subtasks_completed >= 3

    def test_all_clients_dead_leaves_work_unsent(self, sim):
        server, assim, clients = build_system(sim, num_clients=1)
        server.publish_workunits(make_wus(3))
        sim.schedule(0.5, clients[0].terminate)
        sim.run()
        assert assim.count < 3
        assert server.scheduler.unsent_count() > 0

    def test_timeout_abort_and_reliability_probation(self, sim):
        """A pathologically slow client repeatedly times out, its
        reliability decays onto probation, and the fast client eventually
        completes every unit — fault tolerance + reliability end to end."""
        server, assim, clients = build_system(
            sim, num_clients=2, max_concurrent=1, timeout_s=30.0
        )
        # Make client 0 pathologically slow by shrinking its core rate.
        clients[0].resource.spec = InstanceSpec(
            "slow", vcpus=4, clock_ghz=0.024, ram_gb=8, network_gbps=1
        )
        server.publish_workunits(make_wus(2, timeout_s=30.0, max_attempts=12))
        sim.run()
        assert server.scheduler.timeouts >= 1
        assert clients[0].subtasks_aborted >= 1
        assert assim.count == 2
        # The slow client's failure lowered its reliability and put it in
        # work-fetch backoff, which is what let the fast client recover.
        record = server.scheduler.client("c0")
        assert record.reliability < 1.0
        assert record.consecutive_failures >= 1

    def test_sticky_cache_reused_across_epochs(self, sim):
        server, _, clients = build_system(sim, num_clients=1)
        server.publish_workunits(make_wus(4))
        sim.run()
        bytes_after_first = server.web.bytes_down
        # Same shards again (epoch 2): shard files should be cache hits.
        second = [
            Workunit(
                wu_id=f"e2-wu{i:02d}",
                job_id="job",
                epoch=1,
                shard_index=i,
                input_files=("model", "params", f"shard-{i:02d}"),
                work_units=10.0,
                timeout_s=500.0,
            )
            for i in range(4)
        ]
        server.publish_workunits(second)
        sim.run()
        delta = server.web.bytes_down - bytes_after_first
        # Only the params file (100 B x 4) should transfer, not shards/model.
        assert delta == 400
        assert clients[0].cache.hits >= 4
