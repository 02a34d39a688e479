"""Time-varying network conditions (§II-A: "variable network latency").

Volunteer WAN paths are not stationary: residential links congest in the
evening, institutional ones during work hours.  A
:class:`CongestionSchedule` maps simulated time to a bandwidth factor
(cyclic, piecewise constant), and :class:`CongestedLink` applies it on top
of a base :class:`~repro.simulation.network.NetworkLink`.

The transfer-time API is shared with the plain link (duck-typed
``transfer_time(nbytes, rng, now)``); the web server passes the simulation
clock so the congestion phase is consistent across the run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .network import NetworkLink

__all__ = ["CongestionSchedule", "CongestedLink"]


@dataclass(frozen=True)
class CongestionSchedule:
    """Cyclic piecewise-constant bandwidth factors.

    ``steps`` is a sorted tuple of (start_seconds, factor) pairs; the first
    entry must start at 0.  The schedule repeats with ``period_s``.
    A factor of 1.0 is uncongested; 0.25 means a quarter of nominal
    bandwidth.
    """

    steps: tuple[tuple[float, float], ...]
    period_s: float = 24 * 3600.0

    def __post_init__(self) -> None:
        if not self.steps:
            raise ConfigurationError("schedule needs at least one step")
        if self.steps[0][0] != 0.0:
            raise ConfigurationError("first step must start at t=0")
        if self.period_s <= 0:
            raise ConfigurationError("period must be positive")
        last = -1.0
        for start, factor in self.steps:
            if start <= last and start != 0.0:
                raise ConfigurationError("step starts must be increasing")
            if not 0.0 < factor:
                raise ConfigurationError(f"factor must be positive, got {factor}")
            if start >= self.period_s:
                raise ConfigurationError("step start beyond the period")
            last = start

    def factor_at(self, now: float) -> float:
        """Bandwidth factor in effect at simulated time ``now``."""
        phase = now % self.period_s
        current = self.steps[0][1]
        for start, factor in self.steps:
            if phase >= start:
                current = factor
            else:
                break
        return current


class CongestedLink:
    """A network link whose bandwidth follows a congestion schedule."""

    def __init__(self, base: NetworkLink, schedule: CongestionSchedule) -> None:
        self.base = base
        self.schedule = schedule

    @property
    def latency_s(self) -> float:
        """Base one-way latency (congestion affects bandwidth only)."""
        return self.base.latency_s

    @property
    def bandwidth_bps(self) -> float:
        """Nominal (uncongested) bandwidth."""
        return self.base.bandwidth_bps

    def transfer_time(
        self,
        nbytes: int,
        rng: np.random.Generator | None = None,
        now: float = 0.0,
    ) -> float:
        """Transfer seconds at the bandwidth in effect at time ``now``."""
        factor = self.schedule.factor_at(now)
        return self.base.scaled(factor).transfer_time(nbytes, rng)

    def handshake_time(self) -> float:
        """Connection-failure detection time (congestion leaves RTT alone)."""
        return self.base.handshake_time()
