"""Server-side update rules: the pluggable merge fabric of the pipeline.

§II-B / §III-C compare VC-ASGD against the prior ASGD family.  Every
scheme is an :class:`UpdateRule` applied per arriving client result, so
the *same* rule objects run on both substrates:

* the compact round harness (:mod:`.baselines.rounds`), which isolates the
  update-rule variable; and
* the full BOINC pipeline (:class:`~repro.core.runner.DistributedRunner`
  → :class:`~repro.core.param_server.ParameterServerPool`), where rules
  additionally experience real staleness, timeouts, preemptions and
  KV-store semantics.

Rules implemented:

* **VC-ASGD** (the paper, Eq. 1) — weighted merge of the client's full
  parameter copy with an α schedule.
* **Downpour SGD** (Dean et al.) — clients push *gradients*; the server
  applies them directly with its own learning rate.
* **EASGD** (Zhang et al.) — elastic averaging with moving rate β; the
  canonical round form *requires updates from every client*, which is the
  paper's fault-intolerance argument (modelled as a barrier in both
  harnesses).
* **DC-ASGD** (Zheng et al.) — Downpour plus a delay-compensation term
  built from a diagonal Hessian approximation:
  ``g + λ · g ⊙ g ⊙ (W_now − W_backup)``.
* **Rescaled ASGD** (after Mahran et al.) — delay-scaled Downpour: the
  server step for an update with staleness τ is divided by (1 + τ), so
  stragglers on slow volunteers cannot blow up the server copy.
* **SyncAllReduce** — bulk-synchronous mean, the AllReduce family's
  fault-intolerant reference point.

All rules operate on flat float64 parameter/gradient vectors (the
:mod:`repro.nn.serialization` codec).  Stateful rules (DC-ASGD backups,
sync-round counters) expose ``state_dict``/``load_state_dict`` so their
state participates in :class:`~repro.core.checkpoint.Checkpoint`
save/resume — a server failure must not silently reset delay compensation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..nn.serialization import BLOCK_SIZE
from .vcasgd import AlphaSchedule, ConstantAlpha, VarAlpha, vcasgd_merge

__all__ = [
    "ClientUpdate",
    "UpdateRule",
    "VCASGDRule",
    "DownpourRule",
    "EASGDRule",
    "DCASGDRule",
    "RescaledASGDRule",
    "SyncAllReduceRule",
    "CoordMedianRule",
    "CenteredClipRule",
    "RULE_NAMES",
    "make_rule",
]


@dataclass(frozen=True)
class ClientUpdate:
    """What one client sends to the server after local training.

    VC-ASGD and EASGD consume ``params`` (a full weight copy); Downpour,
    DC-ASGD and Rescaled ASGD consume ``gradient`` (the accumulated local
    gradient in the same flat codec, zero-filled at buffer slots).
    ``base_version`` identifies the server publish the client started from
    (staleness bookkeeping; DC-ASGD uses the corresponding backup weights).

    On the full pipeline this object is the upload payload itself: it flows
    through the BOINC validator, replication quorum and assimilator intact.
    ``gradient`` may be None when the configured rule does not need it
    (clients then skip the accumulation work).
    """

    client_id: int | str
    params: np.ndarray
    gradient: np.ndarray | None = None
    base_version: int = 0
    #: BOINC-style credit the client *claims* for this result (None = the
    #: server-side nominal cost).  Honest clients leave it None; the
    #: adversary fabric's claim-inflation attack sets it, and the credit
    #: ledger defends by granting the median of a quorum's claims.
    claimed_credit: float | None = None


class UpdateRule:
    """Applies client updates to the server parameter vector."""

    #: Whether the rule can make progress when some clients never report
    #: (VC-ASGD / Downpour / DC-ASGD / Rescaled: yes; EASGD and BSP: no).
    fault_tolerant: bool = True

    #: Whether :meth:`apply` reads ``update.gradient``.  Clients only pay
    #: for gradient accumulation when the job's rule needs it.
    uses_gradient: bool = False
    #: Whether :meth:`snapshot_sent` keeps the vector it is handed.  A
    #: lossy publish decodes a copy only for a rule that does; the others
    #: are handed the undecoded server vector.
    keeps_snapshots: bool = False

    def apply(self, server: np.ndarray, update: ClientUpdate, epoch: int) -> np.ndarray:
        """Return the new server vector after absorbing one client update.

        Out of place: with an eventually consistent store, ``server`` may
        be a snapshot other in-flight transactions still reference, and
        the store commits the result by reference, so every call returns a
        fresh vector — one allocation, zero temporaries.  ``epoch`` is
        1-based, as the paper counts.
        """
        return self.apply_into(server, update, epoch, np.empty_like(server))

    def apply_into(
        self,
        server: np.ndarray,
        update: ClientUpdate,
        epoch: int,
        out: np.ndarray,
    ) -> np.ndarray:
        """The rule's kernel: write the merged vector into ``out``, return it.

        ``out`` must not alias ``server``, ``update.params`` or
        ``update.gradient``.  Rules implement this with ``np.<op>(...,
        out=)`` BLAS-1 calls over per-rule scratch buffers — the same
        elementwise ops in the same order as the textbook expressions,
        with zero temporaries.
        """
        raise NotImplementedError

    def _scratch(self, shape: tuple[int, ...], slot: int = 0) -> np.ndarray:
        """A reusable per-rule scratch buffer (lazily grown per slot).

        Scratch holds *intermediate* values only — never the returned
        vector — so reuse across calls cannot alias anything a store
        snapshot, catalog payload or checkpoint still references.
        """
        buffers = self.__dict__.setdefault("_scratch_buffers", {})
        buf = buffers.get(slot)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape)
            buffers[slot] = buf
        return buf

    def snapshot_sent(self, version: int, server: np.ndarray) -> None:
        """Hook: the server copy ``server`` was published as ``version``."""

    def state_dict(self) -> dict[str, np.ndarray]:
        """Checkpointable rule state (empty for stateless rules)."""
        return {}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        if state:
            raise ConfigurationError(
                f"{type(self).__name__} is stateless but got rule state "
                f"{sorted(state)}"
            )

    def describe(self) -> str:
        """Short label used in result tables."""
        return type(self).__name__

    def merge_weight(self, epoch: int) -> float | None:
        """Blending weight the rule would use for a merge at ``epoch``.

        Purely informational (trace/span attribution joins it to per-merge
        staleness); None when the rule has no single scalar weight.
        ``epoch`` is 1-based, matching :meth:`apply`.
        """
        return None

    @staticmethod
    def _require_gradient(update: ClientUpdate) -> np.ndarray:
        if update.gradient is None:
            raise ConfigurationError(
                "update rule needs an accumulated gradient but the client "
                "update carries none (was the job configured before the "
                "rule was set?)"
            )
        return update.gradient


@dataclass
class VCASGDRule(UpdateRule):
    """The paper's Eq. 1 with an α schedule."""

    schedule: AlphaSchedule
    fault_tolerant: bool = True

    def apply_into(
        self,
        server: np.ndarray,
        update: ClientUpdate,
        epoch: int,
        out: np.ndarray,
    ) -> np.ndarray:
        # One block of scratch: vcasgd_merge walks longer vectors by block.
        return vcasgd_merge(
            server,
            update.params,
            self.schedule.alpha_at(epoch),
            out=out,
            scratch=self._scratch((min(server.size, BLOCK_SIZE),)),
        )

    def describe(self) -> str:
        return f"VC-ASGD({self.schedule.describe()})"

    def merge_weight(self, epoch: int) -> float | None:
        return float(self.schedule.alpha_at(epoch))


@dataclass
class DownpourRule(UpdateRule):
    """Server-side SGD on pushed gradients (Downpour's parameter server)."""

    server_lr: float = 0.05
    fault_tolerant: bool = True
    uses_gradient: bool = True

    def __post_init__(self) -> None:
        if self.server_lr <= 0:
            raise ConfigurationError("server_lr must be positive")

    def apply_into(
        self,
        server: np.ndarray,
        update: ClientUpdate,
        epoch: int,
        out: np.ndarray,
    ) -> np.ndarray:
        g = self._require_gradient(update)
        scaled = np.multiply(g, self.server_lr, out=self._scratch(g.shape))
        return np.subtract(server, scaled, out=out)

    def describe(self) -> str:
        return f"Downpour(lr={self.server_lr})"


@dataclass
class EASGDRule(UpdateRule):
    """Elastic averaging: ``W_s ← W_s + β (W_c − W_s)``.

    Algebraically the server-side move equals VC-ASGD with α = 1 − β (the
    paper reads its α = 0.999 run as EASGD with moving rate 0.001).  The
    crucial *system* difference — EASGD expects every client's update each
    round — is enforced by the harness when ``fault_tolerant`` is False.
    """

    moving_rate: float = 0.001
    fault_tolerant: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.moving_rate < 1.0:
            raise ConfigurationError("moving_rate must be in (0, 1)")

    def apply_into(
        self,
        server: np.ndarray,
        update: ClientUpdate,
        epoch: int,
        out: np.ndarray,
    ) -> np.ndarray:
        pull = np.subtract(update.params, server, out=self._scratch(server.shape))
        np.multiply(pull, self.moving_rate, out=pull)
        return np.add(server, pull, out=out)

    def describe(self) -> str:
        return f"EASGD(beta={self.moving_rate})"

    def merge_weight(self, epoch: int) -> float | None:
        return float(self.moving_rate)


@dataclass
class SyncAllReduceRule(UpdateRule):
    """Bulk-synchronous data parallelism (the AllReduce family, §II-B).

    Each round the server replaces its copy with the *mean* of every
    client's parameters — computed incrementally as updates arrive
    (``W ← W + (W_c − W)/k`` for the k-th arrival of the round), which
    equals the exact mean once all have landed.  Like every BSP scheme it
    requires all clients per round, so ``fault_tolerant = False``: in a VC
    environment each dropout stalls the barrier.
    """

    fault_tolerant: bool = False
    _round: int = field(default=-1, repr=False)
    _arrivals: int = field(default=0, repr=False)

    def apply_into(
        self,
        server: np.ndarray,
        update: ClientUpdate,
        epoch: int,
        out: np.ndarray,
    ) -> np.ndarray:
        if epoch != self._round:
            self._round = epoch
            self._arrivals = 0
        self._arrivals += 1
        if self._arrivals == 1:
            np.copyto(out, update.params)
            return out
        delta = np.subtract(update.params, server, out=self._scratch(server.shape))
        np.divide(delta, self._arrivals, out=delta)
        return np.add(server, delta, out=out)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {
            "round": np.asarray([self._round]),
            "arrivals": np.asarray([self._arrivals]),
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if state:
            self._round = int(np.asarray(state["round"])[0])
            self._arrivals = int(np.asarray(state["arrivals"])[0])

    def describe(self) -> str:
        return "SyncAllReduce"


@dataclass
class DCASGDRule(UpdateRule):
    """Delay-compensated ASGD (Zheng et al. 2017).

    Keeps a backup of each parameter snapshot it hands out; on receiving a
    gradient computed against backup ``W_bak`` while the server has moved
    to ``W_s``, applies::

        W_s ← W_s − lr · (g + λ · g ⊙ g ⊙ (W_s − W_bak))

    The λ-term is the diagonal approximation of the Hessian correction.
    ``max_backups`` bounds memory on long runs: only the most recent
    publishes keep a backup; older updates fall back to plain Downpour
    (their compensation window has passed anyway).
    """

    server_lr: float = 0.05
    lam: float = 0.04
    max_backups: int = 64
    fault_tolerant: bool = True
    uses_gradient: bool = True
    _backups: dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    keeps_snapshots = True

    def __post_init__(self) -> None:
        if self.server_lr <= 0 or self.lam < 0:
            raise ConfigurationError("invalid DC-ASGD parameters")
        if self.max_backups < 1:
            raise ConfigurationError("max_backups must be >= 1")

    def snapshot_sent(self, version: int, server: np.ndarray) -> None:
        self._backups[version] = server.copy()
        while len(self._backups) > self.max_backups:
            del self._backups[min(self._backups)]

    def apply_into(
        self,
        server: np.ndarray,
        update: ClientUpdate,
        epoch: int,
        out: np.ndarray,
    ) -> np.ndarray:
        backup = self._backups.get(update.base_version)
        g = self._require_gradient(update)
        # Same elementwise op order as the historical expression
        # ``server - lr * (g + ((lam*g)*g) * (server - backup))`` so results
        # stay bit-identical; two scratch slots hold the intermediates.
        work = self._scratch(g.shape)
        if backup is None:
            np.multiply(g, self.server_lr, out=work)
            return np.subtract(server, work, out=out)
        np.multiply(g, self.lam, out=work)
        np.multiply(work, g, out=work)
        drift = np.subtract(server, backup, out=self._scratch(server.shape, slot=1))
        np.multiply(work, drift, out=work)
        np.add(g, work, out=work)
        np.multiply(work, self.server_lr, out=work)
        return np.subtract(server, work, out=out)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {f"backup:{version}": vec for version, vec in self._backups.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self._backups = {
            int(key.split(":", 1)[1]): np.asarray(vec, dtype=np.float64).copy()
            for key, vec in state.items()
        }

    def describe(self) -> str:
        return f"DC-ASGD(lr={self.server_lr}, lambda={self.lam})"


@dataclass
class RescaledASGDRule(UpdateRule):
    """Staleness-rescaled ASGD (after Mahran et al.).

    A Downpour-style gradient step whose size shrinks with the update's
    *delay*: an update trained from publish ``base_version`` while the
    server is at version ``v`` has staleness τ = v − base_version and is
    applied as::

        W_s ← W_s − (lr / (1 + τ)^p) · g

    With p = 1 this is the classic staleness-aware rescaling (Rudra's
    τ-inverse learning rate, Gupta et al., reaches the same fixed point);
    heterogeneous volunteer fleets produce highly dispersed τ, which is
    exactly the regime the rescaling targets.  The rule tracks the latest
    published version via :meth:`snapshot_sent`, so it needs no harness
    cooperation beyond the version tags every publish already carries.
    """

    server_lr: float = 0.05
    power: float = 1.0
    fault_tolerant: bool = True
    uses_gradient: bool = True
    _latest_version: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.server_lr <= 0 or self.power < 0:
            raise ConfigurationError("invalid Rescaled ASGD parameters")

    def snapshot_sent(self, version: int, server: np.ndarray) -> None:
        self._latest_version = max(self._latest_version, version)

    def staleness_of(self, update: ClientUpdate) -> int:
        """Delay τ of an update relative to the latest publish."""
        return max(0, self._latest_version - update.base_version)

    def apply_into(
        self,
        server: np.ndarray,
        update: ClientUpdate,
        epoch: int,
        out: np.ndarray,
    ) -> np.ndarray:
        g = self._require_gradient(update)
        scale = self.server_lr / (1.0 + self.staleness_of(update)) ** self.power
        scaled = np.multiply(g, scale, out=self._scratch(g.shape))
        return np.subtract(server, scaled, out=out)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {"latest_version": np.asarray([self._latest_version])}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if state:
            self._latest_version = int(np.asarray(state["latest_version"])[0])

    def describe(self) -> str:
        return f"RescaledASGD(lr={self.server_lr}, p={self.power:g})"


# -- robust aggregation (Byzantine defense) ---------------------------------


class _WindowedRule(UpdateRule):
    """Shared machinery: a ring buffer of the most recent client params.

    Robust aggregators need *several* client vectors to out-vote a
    Byzantine minority, but the BOINC pipeline delivers results one at a
    time.  The window turns the stream into a sliding population: each
    arriving update is pushed, then the robust aggregate of the window
    replaces the raw client vector in the Eq. 1 merge
    ``W_s ← α·W_s + (1−α)·agg(window)``.  The buffer participates in
    ``state_dict`` so a checkpoint resume sees the same population.
    """

    window: int
    _buf: np.ndarray | None
    _filled: int
    _next: int

    def _push(self, params: np.ndarray) -> np.ndarray:
        """Append ``params`` to the ring; return the filled-rows view."""
        if self._buf is None or self._buf.shape[1:] != params.shape:
            self._buf = np.empty((self.window,) + params.shape)
            self._filled = 0
            self._next = 0
        np.copyto(self._buf[self._next], params)
        self._next = (self._next + 1) % self.window
        self._filled = min(self._filled + 1, self.window)
        return self._buf[: self._filled]

    def state_dict(self) -> dict[str, np.ndarray]:
        if self._buf is None:
            return {}
        return {
            "window_buf": self._buf[: self._filled].copy(),
            "window_next": np.asarray([self._next]),
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if not state:
            self._buf = None
            self._filled = 0
            self._next = 0
            return
        rows = np.asarray(state["window_buf"], dtype=np.float64)
        self._buf = np.empty((self.window,) + rows.shape[1:])
        self._filled = min(rows.shape[0], self.window)
        np.copyto(self._buf[: self._filled], rows[: self._filled])
        self._next = int(np.asarray(state["window_next"])[0]) % self.window


@dataclass
class CoordMedianRule(_WindowedRule):
    """Coordinate-wise median over a window of recent client results.

    The classic Byzantine-robust aggregator (Yin et al. 2018): each
    parameter coordinate takes the median of the last ``window`` client
    vectors, so any minority of falsified uploads is out-voted
    coordinate-by-coordinate.  The median then enters the paper's Eq. 1
    with the configured α schedule — identical server-side semantics to
    VC-ASGD, just a robustified client vector.
    """

    schedule: AlphaSchedule
    window: int = 5
    fault_tolerant: bool = True
    _buf: np.ndarray | None = field(default=None, repr=False)
    _filled: int = field(default=0, repr=False)
    _next: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")

    def apply_into(
        self,
        server: np.ndarray,
        update: ClientUpdate,
        epoch: int,
        out: np.ndarray,
    ) -> np.ndarray:
        rows = self._push(update.params)
        median = np.median(rows, axis=0, out=self._scratch(server.shape))
        return vcasgd_merge(
            server,
            median,
            self.schedule.alpha_at(epoch),
            out=out,
            scratch=self._scratch(server.shape, slot=1),
        )

    def describe(self) -> str:
        return f"CoordMedian(w={self.window}, {self.schedule.describe()})"

    def merge_weight(self, epoch: int) -> float | None:
        return float(self.schedule.alpha_at(epoch))


@dataclass
class CenteredClipRule(_WindowedRule):
    """CenteredClip (Gorbunov et al., "Secure Distributed Training at Scale").

    Iteratively refines an estimate ``v`` starting at the current server
    copy::

        v ← v + (1/k) · Σ_i clip(x_i − v, τ)

    where ``clip(d, τ)`` rescales ``d`` to L2 norm at most τ.  Honest
    updates (small deltas off the server copy) pass through nearly
    unclipped; falsified vectors far from consensus contribute at most a
    τ-length pull per iteration, bounding Byzantine influence regardless
    of magnitude.  The converged ``v`` then enters Eq. 1 with the α
    schedule, like every averaging rule on this substrate.
    """

    schedule: AlphaSchedule
    tau: float = 1.0
    iters: int = 3
    window: int = 5
    fault_tolerant: bool = True
    _buf: np.ndarray | None = field(default=None, repr=False)
    _filled: int = field(default=0, repr=False)
    _next: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ConfigurationError("tau must be positive")
        if self.iters < 1:
            raise ConfigurationError("iters must be >= 1")
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")

    def apply_into(
        self,
        server: np.ndarray,
        update: ClientUpdate,
        epoch: int,
        out: np.ndarray,
    ) -> np.ndarray:
        rows = self._push(update.params)
        v = self._scratch(server.shape)
        np.copyto(v, server)
        diff = self._scratch(server.shape, slot=1)
        acc = self._scratch(server.shape, slot=2)
        inv_k = 1.0 / rows.shape[0]
        for _ in range(self.iters):
            acc.fill(0.0)
            for row in rows:
                np.subtract(row, v, out=diff)
                norm = float(np.linalg.norm(diff))
                if norm > self.tau:
                    np.multiply(diff, self.tau / norm, out=diff)
                np.add(acc, diff, out=acc)
            np.multiply(acc, inv_k, out=acc)
            np.add(v, acc, out=v)
        return vcasgd_merge(
            server,
            v,
            self.schedule.alpha_at(epoch),
            out=out,
            scratch=diff,
        )

    def describe(self) -> str:
        return (
            f"CenteredClip(tau={self.tau:g}, iters={self.iters}, "
            f"w={self.window}, {self.schedule.describe()})"
        )

    def merge_weight(self, epoch: int) -> float | None:
        return float(self.schedule.alpha_at(epoch))


# -- factory (CLI / sweep surface) ------------------------------------------

RULE_NAMES = (
    "vcasgd",
    "downpour",
    "easgd",
    "dcasgd",
    "rescaled",
    "allreduce",
    "median",
    "centeredclip",
)


def make_rule(
    name: str, alpha_schedule: AlphaSchedule | None = None, **kwargs
) -> UpdateRule:
    """Build an update rule from its CLI name.

    ``alpha_schedule`` is consumed by ``vcasgd`` only (defaulting to the
    paper's Var schedule); ``kwargs`` pass through to the rule constructor.
    """
    key = name.strip().lower().replace("-", "").replace("_", "")
    if key == "vcasgd":
        return VCASGDRule(alpha_schedule or VarAlpha(), **kwargs)
    if key in ("median", "coordmedian"):
        return CoordMedianRule(alpha_schedule or VarAlpha(), **kwargs)
    if key in ("centeredclip", "cclip"):
        return CenteredClipRule(alpha_schedule or VarAlpha(), **kwargs)
    if key == "easgd" and alpha_schedule is not None and not kwargs:
        # The paper reads alpha=0.999 as EASGD beta=0.001; honour a constant
        # alpha by translating it to the moving rate.
        if isinstance(alpha_schedule, ConstantAlpha) and alpha_schedule.alpha < 1.0:
            return EASGDRule(moving_rate=1.0 - alpha_schedule.alpha)
    builders = {
        "downpour": DownpourRule,
        "easgd": EASGDRule,
        "dcasgd": DCASGDRule,
        "rescaled": RescaledASGDRule,
        "rescaledasgd": RescaledASGDRule,
        "allreduce": SyncAllReduceRule,
        "syncallreduce": SyncAllReduceRule,
    }
    try:
        return builders[key](**kwargs)
    except KeyError:
        raise ConfigurationError(
            f"unknown update rule {name!r}; expected one of {', '.join(RULE_NAMES)}"
        ) from None
