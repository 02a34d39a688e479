"""Byzantine adversary fabric: declarative malicious-client behaviour.

The chaos plan (:mod:`repro.simulation.chaos`) injects *faults* — crashes,
stalls, partitions — but every client stays honest.  Open volunteer
enrollment (Anderson 2018) guarantees some hosts return wrong or malicious
results, so this module adds the missing threat model as a peer layer:

* **result falsification** — uploaded parameters replaced with random
  noise, scaled copies, or sign-flipped deltas;
* **gradient poisoning** — updates drift toward a fixed wrong optimum,
  steering the global model instead of merely corrupting it;
* **claim inflation** — honest compute, dishonest credit claims
  (defeated by median-of-claims granting in the credit ledger);
* **sybil fleets** — many logical clients behind one adversary identity,
  multiplying any of the above behaviours;
* **collusion** — replicas of the same logical unit submit *bit-identical*
  wrong answers, defeating a naive fuzzy-agreement quorum (answered by
  reliability-weighted canonical selection in the quorum assimilator).

An :class:`AdversaryPlan` is pure data, exactly like :class:`ChaosPlan`:
the same plan plus the same seed must reproduce a bit-identical run, so
plans never hold RNGs — the runtime :class:`AdversaryFabric` draws from
named streams of the run's :class:`RngRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigurationError
from .rng import stable_name_hash

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .rng import RngRegistry
    from .tracing import Trace

__all__ = [
    "ATTACK_KINDS",
    "AdversaryBehavior",
    "SybilFleet",
    "AdversaryPlan",
    "AdversaryFabric",
    "TamperedUpdate",
]

ATTACK_KINDS = (
    "falsify_random",
    "falsify_scale",
    "falsify_signflip",
    "poison_drift",
    "claim_inflate",
    "collude",
)


@dataclass(frozen=True)
class AdversaryBehavior:
    """One malicious behaviour assigned to a set of clients.

    ``attack`` names the tampering applied to every upload of the listed
    clients; ``magnitude`` scales its strength (noise scale, parameter
    scale factor, flip gain, or drift step depending on the attack);
    ``claim_factor`` multiplies the credit claim (only meaningful for
    ``claim_inflate``, where the computation itself stays honest);
    ``collusion_group`` names the cartel for ``collude`` — members of the
    same group submit bit-identical wrong answers for the same logical
    unit, so a fuzzy-agreement quorum sees a perfectly agreeing clique.
    """

    clients: tuple[str, ...]
    attack: str = "falsify_random"
    magnitude: float = 1.0
    claim_factor: float = 1.0
    collusion_group: str = "cartel-0"

    def __post_init__(self) -> None:
        if not self.clients:
            raise ConfigurationError("AdversaryBehavior needs at least one client")
        if self.attack not in ATTACK_KINDS:
            raise ConfigurationError(
                f"unknown attack {self.attack!r}; expected one of {ATTACK_KINDS}"
            )
        if self.magnitude <= 0:
            raise ConfigurationError("attack magnitude must be positive")
        if self.claim_factor < 1.0:
            raise ConfigurationError("claim_factor must be >= 1 (1 = honest claim)")


@dataclass(frozen=True)
class SybilFleet:
    """Extra logical clients operated by a single adversary identity.

    ``count`` sybil clients join the fleet at runtime (named
    ``sybil-<identity>-NNN``), all applying ``attack`` with ``magnitude``.
    They share one *identity*, which matters for the reliability/quarantine
    loop: all their invalidated results accrue to separate host records
    (BOINC cannot see through a sybil), which is exactly why quarantine
    alone cannot stop a sybil fleet and robust aggregation must back it up.
    """

    identity: str
    count: int
    attack: str = "falsify_random"
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if not self.identity:
            raise ConfigurationError("SybilFleet needs a non-empty identity")
        if self.count < 1:
            raise ConfigurationError("SybilFleet.count must be >= 1")
        if self.attack not in ATTACK_KINDS:
            raise ConfigurationError(
                f"unknown attack {self.attack!r}; expected one of {ATTACK_KINDS}"
            )
        if self.magnitude <= 0:
            raise ConfigurationError("attack magnitude must be positive")


@dataclass(frozen=True)
class AdversaryPlan:
    """The full Byzantine threat plan for one run — pure data, no RNGs."""

    behaviors: tuple[AdversaryBehavior, ...] = ()
    sybils: tuple[SybilFleet, ...] = ()

    def __post_init__(self) -> None:
        for behavior in self.behaviors:
            if not isinstance(behavior, AdversaryBehavior):
                raise ConfigurationError(
                    "AdversaryPlan.behaviors must hold AdversaryBehaviors"
                )
        for fleet in self.sybils:
            if not isinstance(fleet, SybilFleet):
                raise ConfigurationError("AdversaryPlan.sybils must hold SybilFleets")
        seen: set[str] = set()
        for behavior in self.behaviors:
            for client in behavior.clients:
                if client in seen:
                    raise ConfigurationError(
                        f"client {client!r} assigned to more than one behavior"
                    )
                seen.add(client)

    @property
    def active(self) -> bool:
        """Whether the plan compromises any client at all."""
        return bool(self.behaviors or self.sybils)


@dataclass(frozen=True)
class TamperedUpdate:
    """Outcome of one tampering decision for an upload."""

    params: np.ndarray
    gradient: np.ndarray | None
    claimed_credit: float | None
    attack: str | None

    @property
    def tampered(self) -> bool:
        return self.attack is not None and self.attack != "claim_inflate"


class _Assignment:
    """Resolved behaviour for one client id."""

    __slots__ = ("attack", "magnitude", "claim_factor", "collusion_group", "identity")

    def __init__(
        self,
        attack: str,
        magnitude: float,
        claim_factor: float,
        collusion_group: str,
        identity: str,
    ) -> None:
        self.attack = attack
        self.magnitude = magnitude
        self.claim_factor = claim_factor
        self.collusion_group = collusion_group
        self.identity = identity


class AdversaryFabric:
    """Runtime tampering engine for an :class:`AdversaryPlan`.

    Sits between local training and the upload in the runner: the client
    computes an honest update, then :meth:`tamper` decides — from the
    per-client assignment and deterministic named RNG streams — what
    actually goes over the wire.  Honest clients never reach this object,
    so a run with no plan is bit-identical to a run predating the fabric.
    """

    def __init__(self, plan: AdversaryPlan, rngs: "RngRegistry", trace: "Trace") -> None:
        self.plan = plan
        self.rngs = rngs
        self.trace = trace
        self._assignments: dict[str, _Assignment] = {}
        self._drift_targets: dict[str, np.ndarray] = {}
        self.tampered_uploads = 0
        self.inflated_claims = 0
        for behavior in plan.behaviors:
            for client in behavior.clients:
                self._assignments[client] = _Assignment(
                    attack=behavior.attack,
                    magnitude=behavior.magnitude,
                    claim_factor=behavior.claim_factor,
                    collusion_group=behavior.collusion_group,
                    identity=client,
                )

    def register_sybil(self, fleet: SybilFleet, client_id: str) -> None:
        """Bind a runtime sybil client id to its fleet's behaviour."""
        self._assignments[client_id] = _Assignment(
            attack=fleet.attack,
            magnitude=fleet.magnitude,
            claim_factor=1.0,
            collusion_group=f"sybil-{fleet.identity}",
            identity=fleet.identity,
        )

    def compromised(self, client_id: str) -> bool:
        return client_id in self._assignments

    def attack_for(self, client_id: str) -> str | None:
        assignment = self._assignments.get(client_id)
        return assignment.attack if assignment is not None else None

    def tamper(
        self,
        client_id: str,
        wu_id: str,
        logical_id: str,
        base_params: np.ndarray,
        honest_params: np.ndarray,
        honest_gradient: np.ndarray | None,
        honest_credit: float,
        now: float,
    ) -> TamperedUpdate:
        """Apply the client's assigned attack to an honest update.

        ``base_params`` is the published vector the client trained from,
        ``honest_params`` / ``honest_gradient`` the true training result.
        Every stochastic draw comes from a stream named after the client
        (or, for collusion, a stream keyed by cartel + logical unit, so
        all cartel members produce the same bytes for the same unit).
        """
        assignment = self._assignments.get(client_id)
        if assignment is None:
            return TamperedUpdate(honest_params, honest_gradient, None, None)
        attack = assignment.attack
        magnitude = assignment.magnitude
        params = honest_params
        gradient = honest_gradient
        claimed: float | None = None
        if attack == "falsify_random":
            rng = self.rngs.stream(f"adv:{client_id}")
            scale = magnitude * (float(np.mean(np.abs(base_params))) + 1e-3)
            params = rng.standard_normal(honest_params.shape).astype(
                honest_params.dtype
            )
            params *= scale
            gradient = self._noise_like(rng, gradient, scale)
        elif attack == "falsify_scale":
            params = honest_params * magnitude
            if gradient is not None:
                gradient = gradient * magnitude
        elif attack == "falsify_signflip":
            params = base_params - magnitude * (honest_params - base_params)
            if gradient is not None:
                gradient = -magnitude * gradient
        elif attack == "poison_drift":
            target = self._drift_target(assignment.identity, base_params)
            step = min(1.0, 0.25 * magnitude)
            params = honest_params + step * (target - honest_params)
            if gradient is not None:
                gradient = magnitude * (base_params - target)
        elif attack == "claim_inflate":
            claimed = honest_credit * assignment.claim_factor
            self.inflated_claims += 1
            self.trace.emit(
                now,
                "adv.claim_inflate",
                client=client_id,
                wu=wu_id,
                claimed=claimed,
                honest=honest_credit,
            )
            return TamperedUpdate(honest_params, honest_gradient, claimed, attack)
        elif attack == "collude":
            # Cartel members derive the wrong answer from (group, logical
            # unit) alone, so replicas of one unit are bit-identical — a
            # perfectly agreeing clique of wrong results.
            seed_name = f"adv-collude:{assignment.collusion_group}:{logical_id}"
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    entropy=(self.rngs.seed, stable_name_hash(seed_name))
                )
            )
            scale = magnitude * (float(np.mean(np.abs(base_params))) + 1e-3)
            params = rng.standard_normal(honest_params.shape).astype(
                honest_params.dtype
            )
            params *= scale
            gradient = self._noise_like(rng, gradient, scale)
        self.tampered_uploads += 1
        self.trace.emit(
            now, "adv.tamper", client=client_id, wu=wu_id, attack=attack
        )
        return TamperedUpdate(params, gradient, claimed, attack)

    @staticmethod
    def _noise_like(
        rng: np.random.Generator, gradient: np.ndarray | None, scale: float
    ) -> np.ndarray | None:
        """Replacement noise gradient for falsified uploads.

        Gradient-consuming rules (:meth:`UpdateRule.uses_gradient`) require
        every update to carry one, so a falsifier must forge it too — drawn
        *after* the parameter noise from the same stream so cartel members
        stay bit-identical.
        """
        if gradient is None:
            return None
        forged = rng.standard_normal(gradient.shape).astype(gradient.dtype)
        forged *= scale
        return forged

    def _drift_target(self, identity: str, base_params: np.ndarray) -> np.ndarray:
        """The fixed wrong optimum an identity steers toward (lazy, cached)."""
        target = self._drift_targets.get(identity)
        if target is None:
            rng = self.rngs.fresh(f"adv-target:{identity}")
            scale = 4.0 * (float(np.std(base_params)) + 1e-3)
            target = rng.standard_normal(base_params.shape).astype(base_params.dtype)
            target *= scale
            self._drift_targets[identity] = target
        return target
