"""Network latency / bandwidth model (§III-B: variable network latency).

Every client owns a :class:`NetworkLink` to the server.  A file transfer of
``n`` bytes costs::

    round_trip_latency + n / bandwidth      (+ lognormal jitter)

Volunteer nodes connect over WAN, so the default client profiles have
higher latency and lower bandwidth than the server-side LAN.  BOINC's
server-side compression (§III-B) is modelled by charging for the compressed
byte count when the file is marked compressible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = ["NetworkLink", "wan_link", "lan_link"]


@dataclass
class NetworkLink:
    """One direction-symmetric network path between a client and the server.

    Parameters
    ----------
    latency_s:
        One-way base latency in seconds (RTT/2).
    bandwidth_bps:
        Sustained throughput in bytes per second.
    jitter:
        Lognormal sigma applied multiplicatively to each transfer's total
        time; 0 disables jitter.
    """

    latency_s: float
    bandwidth_bps: float
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.bandwidth_bps <= 0 or self.jitter < 0:
            raise ConfigurationError(f"invalid link parameters: {self}")

    def transfer_time(self, nbytes: int, rng: np.random.Generator | None = None) -> float:
        """Seconds to move ``nbytes`` over this link (including handshake)."""
        if nbytes < 0:
            raise ConfigurationError(f"negative transfer size {nbytes}")
        base = 2.0 * self.latency_s + nbytes / self.bandwidth_bps
        if self.jitter > 0 and rng is not None:
            base *= float(rng.lognormal(mean=0.0, sigma=self.jitter))
        return base

    def handshake_time(self) -> float:
        """Seconds to learn a connection cannot be established (one RTT).

        Used by the chaos fabric: a transfer blocked by a network partition
        fails fast after the handshake instead of charging the full
        transfer duration.
        """
        return 2.0 * self.latency_s


def wan_link(
    bandwidth_gbps: float = 0.1, latency_ms: float = 40.0, jitter: float = 0.15
) -> NetworkLink:
    """Typical volunteer WAN path: tens of ms latency, sub-Gbps throughput."""
    return NetworkLink(
        latency_s=latency_ms / 1e3,
        bandwidth_bps=bandwidth_gbps * 1e9 / 8.0,
        jitter=jitter,
    )


def lan_link(bandwidth_gbps: float = 10.0, latency_ms: float = 0.5) -> NetworkLink:
    """Datacenter LAN path (the paper's same-region cloud instances)."""
    return NetworkLink(
        latency_s=latency_ms / 1e3,
        bandwidth_bps=bandwidth_gbps * 1e9 / 8.0,
        jitter=0.02,
    )
