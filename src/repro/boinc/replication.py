"""Workunit replication with quorum validation (§II-C).

BOINC "allows a workunit to be replicated on multiple clients to create
computational redundancy, which can help with fault tolerance and
verification of results."  In BOINC terms a workunit has
``target_nresults`` replicas and a ``min_quorum``; the validator declares a
*canonical result* once enough replicas agree.

Training results are floating-point parameter vectors, so agreement is
fuzzy: two results agree when their relative L2 distance is below a
tolerance (deterministic replicas agree exactly; a corrupted or malicious
replica does not).  The coordinator sits between the BOINC server and the
real assimilator:

* the work generator mints ``replicas`` physical workunits per logical
  subtask (ids suffixed ``#r<k>``);
* each validated replica result lands here instead of the parameter
  server;
* when ``min_quorum`` mutually-agreeing results exist, ONE canonical
  result is forwarded to the inner assimilator; later replicas of the
  same logical unit are discarded (BOINC cancels or ignores them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConfigurationError
from ..simulation.engine import Simulator
from ..simulation.tracing import Trace
from .assimilator import Assimilator
from .workunit import Workunit

__all__ = ["logical_id", "replica_id", "QuorumConfig", "QuorumAssimilator"]

_SEPARATOR = "#r"
# Relative L2 tolerance within which two replica results agree.
AGREEMENT_RTOL = 1e-9
# Mean-reliability floor of the adaptive-replication escape hatch: when no
# clique reaches ``min_quorum``, a clique of hosts this trusted that
# outweighs every competitor is accepted anyway (BOINC's "adaptive
# replication" trusts reliable hosts with less redundancy).
TRUST_THRESHOLD = 0.9


def replica_id(wu_id: str, replica: int) -> str:
    """Physical workunit id of replica ``replica`` of logical unit ``wu_id``."""
    return f"{wu_id}{_SEPARATOR}{replica}"


def logical_id(physical_id: str) -> str:
    """Strip the replica suffix (identity for unreplicated ids)."""
    base, sep, _ = physical_id.rpartition(_SEPARATOR)
    return base if sep else physical_id


@dataclass(frozen=True)
class QuorumConfig:
    """Replication policy: how many copies, how many must agree.

    ``collusion_aware`` switches canonical selection from raw clique size
    to a per-host reliability weighting (see
    :meth:`QuorumAssimilator._collusion_decision`): a cartel of hosts with
    a history of invalidated results cannot out-vote honest replicas by
    submitting bit-identical wrong answers.  Agreement is within
    ``AGREEMENT_RTOL``, and ``TRUST_THRESHOLD`` is the adaptive-replication
    floor.
    """

    replicas: int = 2
    min_quorum: int = 2
    collusion_aware: bool = False

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        if not 1 <= self.min_quorum <= self.replicas:
            raise ConfigurationError(
                f"min_quorum must be in [1, replicas], got {self.min_quorum}"
            )


def _agreement_vector(payload: object) -> np.ndarray:
    """The vector replicas must agree on.

    Structured client updates (anything exposing ``params``, e.g.
    :class:`repro.core.rules.ClientUpdate`) are compared by their parameter
    copy — deterministic replicas produce identical weights *and*
    gradients, and the weights alone already expose corruption.
    """
    return np.asarray(getattr(payload, "params", payload))


@dataclass
class _LogicalUnit:
    """Collected replica results for one logical subtask.

    ``canonical`` retains the winning (workunit, payload) pair after the
    decision, so late replicas can be validated against it (BOINC grants a
    straggler credit iff it matches the canonical result).  It stays None
    for units whose quorum failed.
    """

    results: list[tuple[Workunit, object]] = field(default_factory=list)
    decided: bool = False
    failed: bool = False
    canonical: tuple[Workunit, object] | None = None


class QuorumAssimilator:
    """Assimilator wrapper enforcing replica quorum before assimilation."""

    def __init__(
        self,
        inner: Assimilator,
        config: QuorumConfig,
        trace: Trace | None = None,
        sim: Simulator | None = None,
    ) -> None:
        self.inner = inner
        self.config = config
        self.trace = trace
        self.sim = sim
        self._units: dict[str, _LogicalUnit] = {}
        self.quorums_reached = 0
        self.quorums_failed = 0
        self.disagreements = 0
        self.discarded_extras = 0
        # Hook: called with the logical id when a quorum is reached, so the
        # server can cancel the still-outstanding sibling replicas (BOINC
        # aborts redundant results once a canonical one exists).
        self.on_decided: Callable[[str], None] | None = None
        # Credit hooks (all optional; the server wires them when credit is
        # deferred to the quorum decision):
        # on_quorum(key, winners, losers) — decision made; winners are the
        #   canonical clique's workunits, losers the arrived disagreeing ones.
        # on_late(key, workunit, agrees) — replica arrived after the
        #   decision; ``agrees`` compares it against the canonical payload.
        # on_failed(key, workunits) — all replicas arrived, no quorum.
        self.on_quorum: Callable[[str, list[Workunit], list[Workunit]], None] | None = (
            None
        )
        self.on_late: Callable[[str, Workunit, bool], None] | None = None
        self.on_failed: Callable[[str, list[Workunit]], None] | None = None
        # Per-host reliability lookup for collusion-aware selection (wired
        # to the scheduler's reliability EWMA; None = every host weighs 1).
        self.reliability_fn: Callable[[str], float] | None = None

    # -- Assimilator protocol ------------------------------------------------
    def assimilate(
        self, workunit: Workunit, payload: object, on_done: Callable[[], None]
    ) -> None:
        """Collect one replica result; forward the canonical one on quorum."""
        key = logical_id(workunit.wu_id)
        unit = self._units.setdefault(key, _LogicalUnit())
        if unit.decided:
            # Canonical result already chosen; BOINC ignores the straggler.
            self.discarded_extras += 1
            if self.on_late is not None:
                agrees = unit.canonical is not None and self._agrees(
                    unit.canonical[1], payload
                )
                self.on_late(key, workunit, agrees)
            on_done()
            return
        unit.results.append((workunit, payload))
        largest = self._largest_agreeing_group(unit)
        if self.config.collusion_aware:
            group = self._collusion_decision(unit)
        else:
            group = largest if len(largest) >= self.config.min_quorum else None
        if group is not None:
            unit.decided = True
            unit.canonical = group[0]
            self.quorums_reached += 1
            canonical_wu, canonical_payload = group[0]
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now if self.sim is not None else 0.0,
                    "quorum.reached",
                    logical=key,
                    canonical=canonical_wu.wu_id,
                    replicas_seen=len(unit.results),
                )
            if self.on_quorum is not None:
                winner_ids = {wu.wu_id for wu, _ in group}
                losers = [wu for wu, _ in unit.results if wu.wu_id not in winner_ids]
                self.on_quorum(key, [wu for wu, _ in group], losers)
            self.inner.assimilate(canonical_wu, canonical_payload, on_done)
            if self.on_decided is not None:
                self.on_decided(key)
            return
        if (
            self.config.collusion_aware
            and len(unit.results) >= self.config.replicas
        ):
            # Every expected replica arrived and no clique qualifies: the
            # unit's quorum has failed for good (mutually disagreeing
            # results — e.g. several independent falsifiers).
            unit.decided = True
            unit.failed = True
            self.quorums_failed += 1
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now if self.sim is not None else 0.0,
                    "quorum.failed",
                    logical=key,
                    replicas_seen=len(unit.results),
                )
            if self.on_failed is not None:
                self.on_failed(key, [wu for wu, _ in unit.results])
            on_done()
            return
        if len(unit.results) > len(largest) and len(unit.results) >= 2:
            self.disagreements += 1
        on_done()

    # -- agreement ----------------------------------------------------------
    def _agrees(self, a: object, b: object) -> bool:
        vec_a, vec_b = _agreement_vector(a), _agreement_vector(b)
        if vec_a.shape != vec_b.shape:
            return False
        scale = max(float(np.linalg.norm(vec_a)), float(np.linalg.norm(vec_b)), 1e-30)
        return float(np.linalg.norm(vec_a - vec_b)) <= AGREEMENT_RTOL * scale

    def _largest_agreeing_group(
        self, unit: _LogicalUnit
    ) -> list[tuple[Workunit, object]]:
        """Largest clique of mutually agreeing results (greedy by anchor:
        agreement is near-transitive at tight tolerances)."""
        best: list[tuple[Workunit, object]] = []
        for i, (wu_i, payload_i) in enumerate(unit.results):
            group = [
                (wu_j, payload_j)
                for wu_j, payload_j in unit.results
                if self._agrees(payload_i, payload_j)
            ]
            if len(group) > len(best):
                best = group
        return best

    # -- collusion-aware selection ------------------------------------------
    def _host_reliability(self, workunit: Workunit) -> float:
        if self.reliability_fn is None:
            return 1.0
        return float(self.reliability_fn(workunit.current_attempt.client_id))

    def _weighted_cliques(
        self, unit: _LogicalUnit
    ) -> list[tuple[list[tuple[Workunit, object]], float]]:
        """Anchor cliques deduplicated by membership, with reliability scores."""
        cliques: list[tuple[list[tuple[Workunit, object]], float]] = []
        seen: set[frozenset[str]] = set()
        for wu_i, payload_i in unit.results:
            members = [
                (wu_j, payload_j)
                for wu_j, payload_j in unit.results
                if self._agrees(payload_i, payload_j)
            ]
            ids = frozenset(wu.wu_id for wu, _ in members)
            if ids in seen:
                continue
            seen.add(ids)
            score = sum(self._host_reliability(wu) for wu, _ in members)
            cliques.append((members, score))
        return cliques

    def _collusion_decision(
        self, unit: _LogicalUnit
    ) -> list[tuple[Workunit, object]] | None:
        """Reliability-weighted canonical selection.

        Deterministic replicas are bit-identical *by design* (a replica's
        batch RNG derives from the logical id), so bit-exact agreement is
        not itself suspicious and a colluding cartel is indistinguishable
        from honest replicas by payload inspection alone.  The defense is
        the hosts' track record: cliques are scored by the sum of their
        members' scheduler reliability, and the decision waits until the
        leading clique cannot be overtaken — early only when no
        combination of the still-outstanding replicas (at the maximum
        reliability of 1.0 each) could beat it, otherwise once every
        expected replica has arrived.  When no clique reaches
        ``min_quorum`` at that point, a clique of trusted hosts (mean
        reliability >= ``TRUST_THRESHOLD``) that outweighs every
        competitor is accepted — BOINC's adaptive replication — else the
        quorum fails.  Returns the winning clique or None (keep waiting /
        fail).
        """
        cliques = self._weighted_cliques(unit)
        best = max(cliques, key=lambda c: (c[1], len(c[0])))
        competitor = max(
            (score for members, score in cliques if members is not best[0]),
            default=0.0,
        )
        arrivals = len(unit.results)
        remaining = self.config.replicas - arrivals
        if remaining > 0:
            if (
                len(best[0]) >= self.config.min_quorum
                and best[1] > competitor + remaining
            ):
                return best[0]
            return None
        if len(best[0]) >= self.config.min_quorum:
            return best[0]
        mean_reliability = best[1] / len(best[0])
        if mean_reliability >= TRUST_THRESHOLD and best[1] > competitor:
            return best[0]
        return None

    # -- introspection ----------------------------------------------------------
    def pending_units(self) -> int:
        """Logical units still waiting for quorum."""
        return sum(1 for u in self._units.values() if not u.decided)

    def decided_units(self) -> int:
        """Logical units whose canonical result was chosen."""
        return sum(1 for u in self._units.values() if u.decided)
