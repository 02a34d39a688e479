"""Single-instance serial synchronous training — the Fig. 6 baseline.

"To benchmark the performance of our distributed training approach against
the best possible performance baseline, we run the CIFAR10 training job as
a serial single-instance synchronous training" on the server-class
instance.  Same model, same data, same optimizer; one machine, no
parameter server, no staleness.

Simulated time: one epoch costs the full job's work (``num_shards`` ×
``SUBTASK_WORK_UNITS``) executed on the instance's aggregate rate
(batch-level parallelism uses all cores), plus a per-epoch validation pass.
"""

from __future__ import annotations

import numpy as np

from ...data.synthetic import make_classification_splits
from ...errors import ConfigurationError
from ...nn.cohort import CohortTrainer, compile_program, train_steps
from ...nn.metrics import evaluate_classifier
from ...nn.models import build_model
from ...simulation.resources import SUBTASK_WORK_UNITS, TABLE1_SERVER, VALIDATION_WORK_UNITS
from ...simulation.rng import RngRegistry
from ..job import TrainingJobConfig
from ..results import EpochRecord, RunResult
from ..steps import draw_batch_orders

__all__ = ["SingleInstanceTrainer", "run_single_instance"]


class SingleInstanceTrainer:
    """Serial synchronous trainer with a simulated wall clock.

    ``passes_per_epoch`` controls how many passes over the full training
    set constitute one recorded epoch.  The default (None) matches the
    distributed system's aggregate optimization work per epoch — clients
    collectively perform ``local_training.local_epochs`` passes over the
    data each epoch — making the Fig. 6 comparison work-fair.  Pass 1 for
    the textbook one-pass epoch.
    """

    def __init__(
        self, config: TrainingJobConfig, passes_per_epoch: int | None = None
    ) -> None:
        self.config = config
        if passes_per_epoch is None:
            passes_per_epoch = config.local_training.local_epochs
        if passes_per_epoch <= 0:
            raise ConfigurationError("passes_per_epoch must be positive")
        self.passes_per_epoch = passes_per_epoch
        self.rngs = RngRegistry(config.seed)
        data_rng = self.rngs.stream("data")
        self.train_set, self.val_set, self.test_set = make_classification_splits(
            config.data,
            data_rng,
            num_train=config.num_train,
            num_val=config.num_val,
            num_test=config.num_test,
            flat=config.flat_features,
        )
        # The evaluated model lives in one arena, as the runner's does; the
        # training program starts from its initial weights and hands its
        # trained state back after every epoch.
        self.model = build_model(config.model, self.rngs.stream("init"))
        self._arena = self.model.to_arena()
        cfg = config.local_training
        self.trainer = CohortTrainer(
            compile_program(build_model(config.model, np.random.default_rng(0))),
            cfg.optimizer,
            cfg.learning_rate,
        )
        np.copyto(self.trainer.program.arena.data, self._arena.data)
        # One epoch of serial work = the whole job's subtask work; all the
        # instance's cores contribute (data-parallel batches on one node).
        total_work = config.num_shards * SUBTASK_WORK_UNITS
        rate = TABLE1_SERVER.total_rate
        self.epoch_seconds = total_work / rate + VALIDATION_WORK_UNITS / rate

    def run(self) -> RunResult:
        """Train serially for up to ``max_epochs``; returns epoch records."""
        config = self.config
        result = RunResult(label="single-instance")
        rng = self.rngs.stream("batches")
        program = self.trainer.program
        clock = 0.0
        for epoch in range(1, config.max_epochs + 1):
            # One optimizer across the whole run: its state carries over.
            orders = draw_batch_orders(
                rng, len(self.train_set), self.passes_per_epoch
            )
            train_steps(
                program,
                self.trainer.optimizer,
                [self.train_set],
                [orders],
                config.local_training.batch_size,
            )
            np.copyto(self._arena.data, program.arena.data)
            clock += self.epoch_seconds
            _, val_acc = evaluate_classifier(self.model, self.val_set.x, self.val_set.y)
            _, test_acc = evaluate_classifier(self.model, self.test_set.x, self.test_set.y)
            result.append(
                EpochRecord(
                    epoch=epoch,
                    end_time_s=clock,
                    val_accuracy_mean=val_acc,
                    val_accuracy_min=val_acc,
                    val_accuracy_max=val_acc,
                    test_accuracy=test_acc,
                    alpha=float("nan"),
                    assimilations=0,
                    timeouts_so_far=0,
                    lost_updates_so_far=0,
                )
            )
            if (
                config.target_accuracy is not None
                and val_acc >= config.target_accuracy
            ):
                result.stopped_reason = "target_accuracy"
                break
        if not result.stopped_reason:
            result.stopped_reason = "max_epochs"
        return result


def run_single_instance(
    config: TrainingJobConfig, passes_per_epoch: int | None = None
) -> RunResult:
    """Convenience wrapper mirroring :func:`repro.core.runner.run_experiment`."""
    return SingleInstanceTrainer(config, passes_per_epoch).run()
