"""Training-job configuration: everything that defines one experiment.

The paper's experiment identifiers — ``PnCnTn`` plus the α setting — map
directly onto fields here (``num_param_servers``, ``num_clients``,
``max_concurrent_subtasks``, ``alpha_schedule``).  The remaining fields
pin down the substrate: model, data, client-side optimizer, store choice,
fault model, and the timing calibration anchors from §IV.

A scalar field settable from the command line declares its flag in its
``metadata`` (see :func:`_flag`); :mod:`repro.cli` builds its job commands
from these, taking each flag's type and default from the field itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..data.synthetic import SyntheticImageConfig
from ..errors import ConfigurationError
from ..nn.codecs import CODEC_NAMES, VALUE_QUANTS
from ..nn.models import ModelSpec
from ..simulation.adversary import AdversaryPlan
from ..simulation.chaos import ChaosPlan
from ..simulation.congestion import CongestionSchedule
from ..simulation.resources import TABLE1_CLIENTS, TABLE1_SERVER, InstanceSpec
from .autoscale import AutoscalePolicy
from .rules import UpdateRule, VCASGDRule
from .vcasgd import AlphaSchedule, ConstantAlpha

__all__ = ["LocalTrainingConfig", "FaultConfig", "TrainingJobConfig"]

STORE_KINDS = ("eventual", "strong")
WORK_FETCH_MODES = ("poke", "ping")
_CODECS = "parameter transfer codecs"
_DEFENSES = "byzantine defenses"


def _flag(default, *flags: str, **options):
    """A field set by the command-line ``flags`` (long name first).

    ``options`` go to argparse as they are (``help``, ``metavar``,
    ``choices``), except ``group``, the title of the flag's help section.
    """
    return field(default=default, metadata={"flags": flags, **options})


@dataclass(frozen=True)
class LocalTrainingConfig:
    """Client-side subtask training.

    The paper uses Adam at lr=0.001 on CIFAR10/ResNetV2; the defaults here
    are the recalibrated equivalents for the synthetic task (see
    EXPERIMENTS.md "calibration"): the same optimizer family, with the
    local pass sized so client copies visibly specialize to their shard —
    the dynamic §IV-C's α analysis depends on.
    """

    optimizer: str = "adam"  # "adam" | "sgd"
    learning_rate: float = 0.003
    local_epochs: int = 10
    batch_size: int = 20

    def __post_init__(self) -> None:
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate <= 0 or self.local_epochs <= 0 or self.batch_size <= 0:
            raise ConfigurationError("invalid local training parameters")


@dataclass(frozen=True)
class FaultConfig:
    """Failure injection for the client fleet.

    ``preemption_hourly_p`` is the per-instance hourly interruption
    probability (0 disables preemption).  ``relaunch_delay_s`` models the
    fleet replacing a reclaimed instance (AWS spot fleet behaviour); set to
    None to let terminated clients stay dead.

    ``corrupt_clients`` marks the first N launched clients as *faulty or
    malicious*: their uploads are perturbed by noise of relative magnitude
    ``corruption_scale``.  Traditional VC systems cannot trust volunteer
    hosts (§II-A); the defences are the validator's sanity checks and — for
    subtle corruption — §II-C replication with quorum.
    """

    preemption_hourly_p: float = _flag(0.0, "--preempt-p", help="hourly interruption probability")
    relaunch_delay_s: float | None = 120.0
    corrupt_clients: int = _flag(
        0, "--corrupt-clients", metavar="N", help="first N clients upload subtly corrupted parameters"
    )
    corruption_scale: float = _flag(
        1.0, "--corruption-scale", help="relative magnitude of the corruption noise"
    )
    # Volunteer churn (§II-A: "volunteers join and leave projects at
    # will"): Poisson arrivals of *additional* volunteer hosts, capped so
    # the fleet cannot grow without bound.
    volunteer_arrivals_per_hour: float = _flag(
        0.0, "--churn-per-hour", metavar="RATE", help="Poisson arrival rate of extra volunteer hosts"
    )
    max_volunteers: int = _flag(
        0, "--max-volunteers", metavar="N", help="cap on extra volunteer hosts (0 = no volunteers)"
    )
    # Layered chaos plan (see repro.simulation.chaos): per-transfer
    # failures/stalls, timed network partitions, parameter-server
    # crash/restart schedules, and KV-store outage windows.  None (or an
    # all-empty plan) leaves every layer healthy.
    chaos: ChaosPlan | None = None
    # Byzantine adversary plan (see repro.simulation.adversary): per-client
    # malicious behaviours — falsified uploads, gradient poisoning, claim
    # inflation, sybil fleets, colluding replicas.  None (or an empty plan)
    # keeps every client honest and the run bit-identical to a fabric-free
    # build.
    adversary: AdversaryPlan | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.preemption_hourly_p < 1.0:
            raise ConfigurationError("preemption_hourly_p must be in [0, 1)")
        if self.relaunch_delay_s is not None and self.relaunch_delay_s < 0:
            raise ConfigurationError("relaunch_delay_s must be non-negative")
        if self.corrupt_clients < 0 or self.corruption_scale < 0:
            raise ConfigurationError("invalid corruption parameters")
        if self.volunteer_arrivals_per_hour < 0 or self.max_volunteers < 0:
            raise ConfigurationError("invalid volunteer churn parameters")
        if self.chaos is not None and not isinstance(self.chaos, ChaosPlan):
            raise ConfigurationError(
                f"chaos must be a ChaosPlan or None, got {type(self.chaos).__name__}"
            )
        if self.adversary is not None and not isinstance(self.adversary, AdversaryPlan):
            raise ConfigurationError(
                f"adversary must be an AdversaryPlan or None, "
                f"got {type(self.adversary).__name__}"
            )


@dataclass(frozen=True)
class TrainingJobConfig:
    """Full specification of a distributed training experiment."""

    # -- the paper's headline knobs (Pn, Cn, Tn, alpha) --------------------
    num_param_servers: int = _flag(1, "--servers", "-p", help="Pn")
    num_clients: int = _flag(3, "--clients", "-c", help="Cn")
    max_concurrent_subtasks: int = _flag(2, "--concurrency", "-t", help="Tn")
    alpha_schedule: AlphaSchedule = field(default_factory=lambda: ConstantAlpha(0.95))
    # Server-side merge rule.  None selects the paper's VC-ASGD (Eq. 1)
    # driven by ``alpha_schedule``; any other member of the ASGD family
    # (Downpour, EASGD, DC-ASGD, Rescaled ASGD, SyncAllReduce — see
    # repro.core.rules) runs on the identical BOINC substrate.  The runner
    # deep-copies the rule so stateful rules never leak across runs.
    update_rule: UpdateRule | None = None

    # -- workload -----------------------------------------------------------
    model: ModelSpec = field(
        default_factory=lambda: ModelSpec("mlp", {"in_features": 192, "hidden": [64], "num_classes": 10})
    )
    data: SyntheticImageConfig = field(default_factory=SyntheticImageConfig)
    num_train: int = 2000
    num_val: int = 400
    num_test: int = 400
    num_shards: int = _flag(50, "--shards", help="training-set shards per epoch")
    max_epochs: int = _flag(40, "--epochs", help="epochs to train")
    target_accuracy: float | None = _flag(
        None, "--target", help="stop accuracy: stop early once mean val acc >= this"
    )
    local_training: LocalTrainingConfig = field(default_factory=LocalTrainingConfig)
    # Downpour-style warm starting (§II-B): serial synchronous passes over
    # the full training set on the server before distribution begins; the
    # time they take is charged to the simulated clock.
    warm_start_passes: int = _flag(0, "--warm-start", metavar="PASSES", help="warm-start passes")

    # -- infrastructure ------------------------------------------------------
    server_spec: InstanceSpec = TABLE1_SERVER
    client_specs: tuple[InstanceSpec, ...] = TABLE1_CLIENTS
    store_kind: str = _flag(
        "eventual", "--store", choices=STORE_KINDS, help="Redis-like eventual or MySQL-like strong"
    )
    compression_enabled: bool = True
    sticky_files_enabled: bool = True
    # -- transfer codec plane (repro.nn.codecs / repro.core.codec_plane) ----
    # None keeps the historical fixed-ratio wire accounting, byte-identical
    # to pre-codec runs (golden-pinned).  A codec name turns on measured
    # wire sizes and — for lossy codecs — simulation-honest quantized
    # training: "zlib" (measured baseline), "fp16"/"int8" (quantization,
    # per-tensor scales), "topk" (upload sparsification with client-side
    # error feedback), "delta" (XOR chains against the client's cached
    # parameter version).
    codec: str | None = _flag(
        None,
        "--codec",
        choices=CODEC_NAMES,
        group=_CODECS,
        help="wire codec for parameter transfers (default: the flat "
        "compressed-size model; lossy codecs train on decoded values)",
    )
    codec_topk: float = _flag(
        0.01,
        "--topk",
        metavar="FRACTION",
        group=_CODECS,
        help="fraction of coordinates the topk codec keeps per upload",
    )
    codec_quant: str = _flag(
        "fp32",
        "--quant",
        choices=VALUE_QUANTS,
        group=_CODECS,
        help="value quantization for the topk codec's kept coordinates",
    )
    heartbeats_enabled: bool = False  # trickle progress reports
    # Time-varying WAN conditions (§II-A "variable network latency"): a
    # CongestionSchedule applied to every client link, or None for
    # stationary links.  See repro.simulation.congestion.
    congestion: CongestionSchedule | None = None

    # -- timing calibration (§IV anchors) ---------------------------------------
    work_units_per_subtask: float = 144.0  # t_e ≈ 2.4 min on a reference core
    validation_work_units: float = 8.0  # server-side accuracy pass per update
    subtask_timeout_s: float = 300.0  # t_o = 5 min
    max_attempts: int = 5
    ps_effective_cores: int = 5  # §IV-B: server throughput flattens past P5

    # -- fleet-scale scheduling core --------------------------------------------
    # Work-fetch protocol: "poke" is the legacy server broadcast on every
    # publish/timeout (bit-identical to pre-refactor runs); "ping" is the
    # fleet-scale ping + server-suggested-sleep contract, where idle
    # clients park on scheduler sleep hints and new work wakes O(work)
    # hosts instead of O(fleet).
    work_fetch: str = _flag(
        "poke",
        "--work-fetch",
        choices=WORK_FETCH_MODES,
        help="work-fetch protocol: legacy poke broadcast or fleet-scale "
        "ping + server-suggested-sleep",
    )
    # Sharded server planes (§III-B scale-out): N work-generator/validator
    # shards partitioned by logical-workunit hash, with epoch cut-over
    # coordinated through the KV store.
    server_planes: int = _flag(
        1, "--server-planes", help="sharded work-generator/validator planes (1 = single plane)"
    )

    # -- multi-core execution plane (DESIGN.md §8.5) ----------------------------
    # Vectorized client cohorts: deferred client steps that share a base
    # parameter version train in one stacked-NumPy pass (repro.nn.cohort).
    cohort_size: int = _flag(
        1,
        "--cohort-size",
        metavar="N",
        help="fuse up to N clients' training steps into one vectorized "
        "cohort pass (bit-identical to serial; 1 = inline legacy path)",
    )
    # Process fan-out: deferred step groups run on a fork pool, each group
    # shipped with its base parameter vector by value.  0 = auto, resolved
    # per process by repro.core.parallel.step_jobs_for.
    step_jobs: int = _flag(
        0,
        "--step-jobs",
        metavar="N",
        help="fan one run's client steps out over N worker processes "
        "(bit-identical to serial; 1 = in-process; 0 = auto: one per "
        "usable CPU, but 1 with a codec, in a sweep or on one CPU)",
    )

    # -- dynamic parameter-server scaling (§III-D future design) ---------------
    # When True, num_param_servers is the *initial* worker count and the
    # pool grows/shrinks with queue pressure per `autoscale_policy`
    # (see repro.core.autoscale; None means the policy defaults).
    ps_autoscale: bool = _flag(
        False, "--autoscale", help="grow and shrink the parameter-server pool with queue pressure"
    )
    autoscale_policy: AutoscalePolicy | None = None

    # -- redundancy (§II-C: replication for verification) -----------------------
    # 1 disables replication; k>1 sends each subtask to k distinct hosts
    # and assimilates once `quorum` of them agree.
    replicas: int = _flag(1, "--replicas", help="send each subtask to this many distinct hosts")
    quorum: int = 1

    # -- Byzantine defenses ------------------------------------------------------
    # Collusion-aware canonical selection: the quorum assimilator weighs
    # agreement cliques by the per-host scheduler reliability instead of
    # raw clique size, so a cartel of unreliable hosts submitting
    # bit-identical wrong answers cannot out-vote honest replicas.  Off by
    # default (bit-identical to the size-based selection).
    collusion_guard: bool = _flag(
        False,
        "--collusion-guard",
        group=_DEFENSES,
        help="reliability-weighted canonical selection in the replica quorum",
    )
    # Quarantine loop: a host whose results are invalidated this many
    # times is barred from further work assignment (0 disables — the
    # pre-fabric behaviour, where validator rejects never touched
    # scheduler reliability).
    quarantine_after: int = _flag(
        0,
        "--quarantine-after",
        metavar="N",
        group=_DEFENSES,
        help="bar a host from work after N invalidated results (0 = never)",
    )
    # Validator parameter-norm bound: reject uploads whose parameter L2
    # norm exceeds this (None disables; the finite/peak checks always run).
    max_param_norm: float | None = _flag(
        None,
        "--max-param-norm",
        metavar="NORM",
        group=_DEFENSES,
        help="validator rejects uploads whose parameter L2 norm exceeds NORM",
    )

    # -- fault model & reproducibility ----------------------------------------
    faults: FaultConfig = field(default_factory=FaultConfig)
    seed: int = _flag(1234, "--seed", help="master RNG seed")

    def __post_init__(self) -> None:
        if self.num_param_servers <= 0 or self.num_clients <= 0:
            raise ConfigurationError("Pn and Cn must be positive")
        if self.max_concurrent_subtasks <= 0:
            raise ConfigurationError("Tn must be positive")
        if self.num_shards <= 0 or self.max_epochs <= 0:
            raise ConfigurationError("num_shards and max_epochs must be positive")
        if self.store_kind not in STORE_KINDS:
            raise ConfigurationError(f"unknown store_kind {self.store_kind!r}")
        if self.target_accuracy is not None and not 0.0 < self.target_accuracy <= 1.0:
            raise ConfigurationError("target_accuracy must be in (0, 1]")
        if not self.client_specs:
            raise ConfigurationError("need at least one client spec")
        if self.warm_start_passes < 0:
            raise ConfigurationError("warm_start_passes must be non-negative")
        if self.work_fetch not in WORK_FETCH_MODES:
            raise ConfigurationError(f"unknown work_fetch {self.work_fetch!r}")
        if self.server_planes < 1:
            raise ConfigurationError("server_planes must be >= 1")
        if self.cohort_size < 1:
            raise ConfigurationError("cohort_size must be >= 1")
        if self.step_jobs < 0:
            raise ConfigurationError("step_jobs must be >= 0 (0 = auto)")
        for name, kind in (
            ("update_rule", UpdateRule),
            ("congestion", CongestionSchedule),
            ("autoscale_policy", AutoscalePolicy),
        ):
            value = getattr(self, name)
            if value is not None and not isinstance(value, kind):
                raise ConfigurationError(
                    f"{name} must be a {kind.__name__} or None, "
                    f"got {type(value).__name__}"
                )
        if self.replicas < 1 or not 1 <= self.quorum <= self.replicas:
            raise ConfigurationError(
                f"invalid replication: replicas={self.replicas}, quorum={self.quorum}"
            )
        if self.replicas > self.num_clients:
            raise ConfigurationError(
                "replicas cannot exceed num_clients: replicas must land on "
                "distinct hosts (BOINC's one-result-per-host rule)"
            )
        if self.quarantine_after < 0:
            raise ConfigurationError("quarantine_after must be non-negative")
        if self.max_param_norm is not None and self.max_param_norm <= 0:
            raise ConfigurationError("max_param_norm must be positive or None")
        if self.codec is not None:
            if self.codec not in CODEC_NAMES:
                raise ConfigurationError(
                    f"unknown codec {self.codec!r} "
                    f"(choices: {', '.join(CODEC_NAMES)})"
                )
            if not 0.0 < self.codec_topk <= 1.0:
                raise ConfigurationError("codec_topk must be in (0, 1]")
            if self.codec_quant not in VALUE_QUANTS:
                raise ConfigurationError(
                    f"unknown codec_quant {self.codec_quant!r} "
                    f"(choices: {', '.join(VALUE_QUANTS)})"
                )
            if not self.compression_enabled:
                raise ConfigurationError(
                    "codecs require compression_enabled=True (the codec "
                    "plane replaces the wire-size model)"
                )
            if self.cohort_size > 1 or self.step_jobs > 1:
                raise ConfigurationError(
                    "codecs are incompatible with the deferred execution "
                    "plane (cohort_size/step_jobs > 1): uploads must encode "
                    "inline at compute end"
                )

    # -- conveniences -----------------------------------------------------------
    @property
    def label(self) -> str:
        """The paper's experiment shorthand, e.g. ``P3C3T4``."""
        return (
            f"P{self.num_param_servers}C{self.num_clients}"
            f"T{self.max_concurrent_subtasks}"
        )

    @property
    def flat_features(self) -> bool:
        """Whether samples are flat vectors (the MLP's) or NCHW images."""
        return self.model.kind == "mlp"

    def spec_for_client(self, index: int) -> InstanceSpec:
        """Round-robin over the configured heterogeneous client types."""
        return self.client_specs[index % len(self.client_specs)]

    def with_pct(self, p: int, c: int, t: int) -> "TrainingJobConfig":
        """Copy with different Pn/Cn/Tn (the Fig. 2/3 sweep helper)."""
        return replace(
            self,
            num_param_servers=p,
            num_clients=c,
            max_concurrent_subtasks=t,
        )

    def with_alpha(self, schedule: AlphaSchedule) -> "TrainingJobConfig":
        """Copy with a different α schedule (the Fig. 4 sweep helper)."""
        return replace(self, alpha_schedule=schedule)

    def resolved_update_rule(self) -> UpdateRule:
        """The configured rule, or the default VC-ASGD over ``alpha_schedule``."""
        if self.update_rule is not None:
            return self.update_rule
        return VCASGDRule(self.alpha_schedule)
