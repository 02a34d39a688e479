"""Time-varying network congestion tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.simulation import CongestedLink, CongestionSchedule, NetworkLink


def evening_peak(factor: float = 0.35) -> CongestionSchedule:
    """Full speed, except ``factor`` from 18:00 to 23:00 every day."""
    return CongestionSchedule(steps=((0.0, 1.0), (18 * 3600.0, factor), (23 * 3600.0, 1.0)))


class TestSchedule:
    def test_factor_lookup(self):
        sched = CongestionSchedule(
            steps=((0.0, 1.0), (100.0, 0.5), (200.0, 0.8)), period_s=300.0
        )
        assert sched.factor_at(50) == 1.0
        assert sched.factor_at(150) == 0.5
        assert sched.factor_at(250) == 0.8

    def test_cyclic(self):
        sched = CongestionSchedule(steps=((0.0, 1.0), (100.0, 0.5)), period_s=200.0)
        assert sched.factor_at(350) == 0.5  # 350 % 200 = 150 -> second step
        assert sched.factor_at(401) == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steps": ()},
            {"steps": ((5.0, 1.0),)},
            {"steps": ((0.0, 1.0), (50.0, 0.0))},
            {"steps": ((0.0, 1.0),), "period_s": 0.0},
            {"steps": ((0.0, 1.0), (500.0, 0.5)), "period_s": 300.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            CongestionSchedule(**kwargs)


class TestCongestedLink:
    def test_peak_transfers_slower(self):
        base = NetworkLink(latency_s=0.0, bandwidth_bps=1000.0)
        link = CongestedLink(base, evening_peak(0.25))
        fast = link.transfer_time(1000, now=12 * 3600)
        slow = link.transfer_time(1000, now=20 * 3600)
        assert fast == pytest.approx(1.0)
        assert slow == pytest.approx(4.0)

    def test_latency_unaffected(self):
        base = NetworkLink(latency_s=0.1, bandwidth_bps=1e9)
        link = CongestedLink(base, evening_peak(0.25))
        # Tiny transfer: dominated by latency, same on- and off-peak.
        assert link.transfer_time(1, now=20 * 3600) == pytest.approx(
            link.transfer_time(1, now=0.0), rel=1e-6
        )

    def test_properties_passthrough(self):
        base = NetworkLink(latency_s=0.05, bandwidth_bps=777.0)
        link = CongestedLink(base, evening_peak())
        assert link.latency_s == 0.05
        assert link.bandwidth_bps == 777.0

    def test_plain_link_ignores_now(self):
        base = NetworkLink(latency_s=0.0, bandwidth_bps=1000.0)
        assert base.transfer_time(1000, now=12345.0) == base.transfer_time(1000)


class TestEndToEndCongestion:
    def test_evening_epoch_slower(self):
        """Drive a client through the web server during peak vs off-peak."""
        from repro.boinc import FileCatalog, ServerFile, WebServer
        from repro.simulation import Simulator

        def run_at(start_time: float) -> float:
            sim = Simulator()
            sim.schedule(start_time, lambda: None)
            sim.run()
            catalog = FileCatalog()
            catalog.publish(ServerFile("f", b"x", raw_size=10_000_000))
            web = WebServer(sim, catalog, compression_enabled=False)
            base = NetworkLink(latency_s=0.0, bandwidth_bps=1e6)
            link = CongestedLink(base, evening_peak(0.2))
            done: list[float] = []
            web.download(["f"], link, None, lambda p: done.append(sim.now))
            sim.run()
            return done[0] - start_time

        offpeak = run_at(10 * 3600.0)
        peak = run_at(20 * 3600.0)
        assert peak == pytest.approx(5 * offpeak, rel=1e-6)
