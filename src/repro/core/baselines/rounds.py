"""Round harness: race update rules under volunteer-computing conditions.

A deliberately compact comparator (separate from the full BOINC pipeline)
that isolates the *update rule* variable: N clients each own a data shard;
every round each client locally trains from the current server copy and
reports either a weight copy or an accumulated gradient; the server applies
the rule per arriving update.

Volunteer conditions are injected as per-round client dropouts.  Rules with
``fault_tolerant=False`` (EASGD's round form) cannot advance until every
client reports, so a dropout stalls the round and costs a full extra round
time — which is precisely the §III-C argument for why such schemes do not
fit VC systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...data.dataset import Dataset
from ...data.sharding import split_dataset
from ...data.synthetic import SyntheticImageConfig, make_classification_splits
from ...errors import ConfigurationError
from ...nn.cohort import CohortTrainer, compile_program
from ...nn.metrics import evaluate_classifier
from ...nn.models import ModelSpec, build_model
from ...simulation.rng import RngRegistry
from ..rules import ClientUpdate, UpdateRule
from ..steps import draw_batch_orders, run_local_step

__all__ = ["RoundConfig", "RoundRecord", "RoundResult", "RoundHarness"]

# Client SGD learning rate, and the simulated seconds one round takes
# (≈ t_e: one wave of subtasks).
LOCAL_LR = 0.05
ROUND_SECONDS = 150.0


@dataclass(frozen=True)
class RoundConfig:
    """Shape of one comparator experiment."""

    num_clients: int = 5
    num_rounds: int = 30
    dropout_p: float = 0.0  # P(a given client fails to report in a round)
    local_steps: int = 8
    batch_size: int = 20
    model: ModelSpec = field(
        default_factory=lambda: ModelSpec(
            "mlp", {"in_features": 192, "hidden": [32], "num_classes": 10}
        )
    )
    data: SyntheticImageConfig = field(default_factory=SyntheticImageConfig)
    num_train: int = 2000
    num_val: int = 400
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_clients <= 0 or self.num_rounds <= 0:
            raise ConfigurationError("num_clients and num_rounds must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigurationError("dropout_p must be in [0, 1)")


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    end_time_s: float
    val_accuracy: float
    reported: int
    stalled_retries: int


@dataclass
class RoundResult:
    label: str
    records: list[RoundRecord] = field(default_factory=list)
    total_stalls: int = 0

    @property
    def final_accuracy(self) -> float:
        return self.records[-1].val_accuracy

    @property
    def total_time_s(self) -> float:
        return self.records[-1].end_time_s

    def accuracy_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, accuracies) arrays for curve analysis."""
        t = np.asarray([r.end_time_s for r in self.records])
        a = np.asarray([r.val_accuracy for r in self.records])
        return t, a


class RoundHarness:
    """Runs any :class:`UpdateRule` on a shared data/model substrate."""

    def __init__(self, config: RoundConfig) -> None:
        self.config = config
        self.rngs = RngRegistry(config.seed)
        train, val, _ = make_classification_splits(
            config.data,
            self.rngs.stream("data"),
            num_train=config.num_train,
            num_val=config.num_val,
            num_test=1,
            flat=True,
        )
        self.val_set = val
        self.shards: list[Dataset] = split_dataset(
            train, config.num_clients, rng=self.rngs.stream("shards")
        )
        # The evaluated model lives in one arena, as the runner's does.
        self.model = build_model(config.model, self.rngs.stream("init"))
        self._arena = self.model.to_arena()
        self.initial_vec = self._arena.layout.pack(self._arena)
        self.trainer = CohortTrainer(
            compile_program(build_model(config.model, np.random.default_rng(0))),
            "sgd",
            LOCAL_LR,
        )

    # -- client-side local training ------------------------------------------
    def _local_train(
        self,
        start_vec: np.ndarray,
        shard: Dataset,
        rng: np.random.Generator,
        collect_gradient: bool,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Return (new weights, accumulated gradient or None) from
        ``local_steps`` mini-batch steps: whole passes, each a fresh
        permutation, the last one cut short at the step cap."""
        cfg = self.config
        n = len(shard)
        per_pass = -(-n // cfg.batch_size)
        passes = -(-cfg.local_steps // per_pass)
        orders = draw_batch_orders(rng, n, passes)
        last_steps = cfg.local_steps - (passes - 1) * per_pass
        orders[-1] = orders[-1][: last_steps * cfg.batch_size]
        return run_local_step(
            self.trainer,
            start_vec,
            shard,
            orders,
            batch_size=cfg.batch_size,
            collect_gradient=collect_gradient,
        )

    def _evaluate(self, vec: np.ndarray) -> float:
        self._arena.layout.unpack_into(vec, self._arena)
        _, acc = evaluate_classifier(self.model, self.val_set.x, self.val_set.y)
        return acc

    # -- the race ---------------------------------------------------------------
    def run(self, rule: UpdateRule) -> RoundResult:
        """Race ``rule`` over the configured rounds; returns its trajectory."""
        cfg = self.config
        rng = self.rngs.fresh(f"rounds:{rule.describe()}")
        server = self.initial_vec.copy()
        result = RoundResult(label=rule.describe())
        clock = 0.0
        version = 0
        for round_index in range(1, cfg.num_rounds + 1):
            rule.snapshot_sent(version, server)
            reporting = [
                c for c in range(cfg.num_clients) if rng.random() >= cfg.dropout_p
            ]
            retries = 0
            if not rule.fault_tolerant:
                # Barrier semantics: wait (and redraw) until everyone reports.
                while len(reporting) < cfg.num_clients:
                    retries += 1
                    clock += ROUND_SECONDS
                    reporting = [
                        c
                        for c in range(cfg.num_clients)
                        if rng.random() >= cfg.dropout_p
                    ]
                result.total_stalls += retries
            updates: list[ClientUpdate] = []
            for client in reporting:
                new_vec, grad = self._local_train(
                    server, self.shards[client], rng, rule.uses_gradient
                )
                updates.append(
                    ClientUpdate(
                        client_id=client,
                        params=new_vec,
                        gradient=grad,
                        base_version=version,
                    )
                )
            # Asynchronous arrival: apply in a random order.
            order = rng.permutation(len(updates))
            for idx in order:
                server = rule.apply(server, updates[idx], round_index)
            version += 1
            clock += ROUND_SECONDS
            result.records.append(
                RoundRecord(
                    round_index=round_index,
                    end_time_s=clock,
                    val_accuracy=self._evaluate(server),
                    reported=len(reporting),
                    stalled_retries=retries,
                )
            )
        return result
