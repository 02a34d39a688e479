"""Volunteer credit accounting (§II-A's non-monetary incentive).

Volunteer computing works because hosts earn *credit* — BOINC's public
score of contributed computation.  The essentials implemented here follow
BOINC's model:

* each completed result carries a **claimed credit** proportional to the
  work performed (we use the workunit's work-unit cost; BOINC uses
  benchmarked FLOPs × runtime);
* for replicated workunits the **granted credit** is the same for every
  host in the quorum and is derived from the agreeing claims (BOINC grants
  the average/median of the valid claims — defeating claim inflation);
* hosts that return invalid or late results get nothing;
* a leaderboard aggregates granted credit per host, with a recent-average
  (exponentially decayed) figure BOINC uses to rank active contributors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = ["CreditClaim", "HostCredit", "CreditLedger"]


@dataclass(frozen=True)
class CreditClaim:
    """One host's claim for one completed result."""

    host_id: str
    wu_id: str
    claimed: float

    def __post_init__(self) -> None:
        if self.claimed < 0:
            raise ConfigurationError("claimed credit must be non-negative")


@dataclass
class HostCredit:
    """Aggregate credit state of one host."""

    host_id: str
    total: float = 0.0
    recent_average: float = 0.0
    results_granted: int = 0
    results_denied: int = 0
    last_update_s: float = 0.0


class CreditLedger:
    """Grants and aggregates credit across hosts.

    ``half_life_s`` controls the recent-average decay (BOINC uses ~1 week;
    scaled down here to match simulated experiment horizons).

    ``claim_cap_factor`` hardens 2-replica quorums against claim
    inflation.  With two claims the median *is* the midpoint, so a single
    cheater claiming 100x still pockets ~50x.  BOINC's production
    validators sanity-cap grants against historical claims for the same
    app version; here every quorum grant is capped at
    ``claim_cap_factor`` times the median of a sliding window of recent
    claims (all claims seen by :meth:`grant_quorum`, honest and not).
    The cap only engages once the window holds ``_CLAIM_WINDOW_MIN``
    claims, so cold-start grants are never distorted, and equal honest
    claims sit far below the cap and are unaffected.  ``None`` disables
    the cap (pre-hardening behaviour).
    """

    _CLAIM_WINDOW = 101
    _CLAIM_WINDOW_MIN = 5

    def __init__(
        self,
        half_life_s: float = 24 * 3600.0,
        claim_cap_factor: float | None = 2.0,
    ) -> None:
        if half_life_s <= 0:
            raise ConfigurationError("half_life_s must be positive")
        if claim_cap_factor is not None and claim_cap_factor < 1.0:
            raise ConfigurationError("claim_cap_factor must be >= 1 (or None)")
        self.half_life_s = half_life_s
        self.claim_cap_factor = claim_cap_factor
        self.hosts: dict[str, HostCredit] = {}
        self.granted_total = 0.0
        self.claims_capped = 0
        self._recent_claims: deque[float] = deque(maxlen=self._CLAIM_WINDOW)

    def _host(self, host_id: str) -> HostCredit:
        host = self.hosts.get(host_id)
        if host is None:
            host = HostCredit(host_id=host_id)
            self.hosts[host_id] = host
        return host

    def _decay(self, host: HostCredit, now: float) -> None:
        dt = now - host.last_update_s
        if dt > 0:
            host.recent_average *= 0.5 ** (dt / self.half_life_s)
            host.last_update_s = now

    # -- granting ---------------------------------------------------------
    def grant_single(self, claim: CreditClaim, now: float) -> float:
        """Unreplicated result: grant exactly the claim."""
        host = self._host(claim.host_id)
        self._decay(host, now)
        host.total += claim.claimed
        host.recent_average += claim.claimed
        host.results_granted += 1
        self.granted_total += claim.claimed
        return claim.claimed

    def grant_quorum(self, claims: list[CreditClaim], now: float) -> float:
        """Replicated result: every quorum member gets the *median* claim.

        The median defeats a single host inflating its claim (BOINC's
        motivation for averaging valid claims) — except in 2-replica
        quorums, where the median degenerates to the midpoint; there the
        recent-claim cap (see class docstring) bounds the damage.
        Returns the per-host grant.
        """
        if not claims:
            raise ConfigurationError("grant_quorum with no claims")
        grant = float(np.median([c.claimed for c in claims]))
        if (
            self.claim_cap_factor is not None
            and len(self._recent_claims) >= self._CLAIM_WINDOW_MIN
        ):
            cap = self.claim_cap_factor * float(np.median(self._recent_claims))
            if grant > cap:
                grant = cap
                self.claims_capped += 1
        self._recent_claims.extend(c.claimed for c in claims)
        for claim in claims:
            host = self._host(claim.host_id)
            self._decay(host, now)
            host.total += grant
            host.recent_average += grant
            host.results_granted += 1
            self.granted_total += grant
        return grant

    def deny(self, host_id: str, now: float) -> None:
        """Invalid/stale result: no credit, and the denial is recorded."""
        host = self._host(host_id)
        self._decay(host, now)
        host.results_denied += 1

    # -- queries --------------------------------------------------------------
    def leaderboard(self, now: float | None = None) -> list[HostCredit]:
        """Hosts sorted by total credit, descending (ties by id)."""
        hosts = list(self.hosts.values())
        if now is not None:
            for host in hosts:
                self._decay(host, now)
        return sorted(hosts, key=lambda h: (-h.total, h.host_id))

    def host_total(self, host_id: str) -> float:
        """Total granted credit of one host (0 for unknown hosts)."""
        return self._host(host_id).total
