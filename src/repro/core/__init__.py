"""The paper's contribution: VC-ASGD and the distributed training pipeline."""

from . import baselines
from .autoscale import AutoscalePolicy, AutoscalingPool
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .codec_plane import VersionedParams
from .job import FaultConfig, LocalTrainingConfig, TrainingJobConfig
from .parallel import default_jobs, run_configs
from .param_server import PARAM_KEY, AssimilationStats, ParameterServerPool
from .results import EpochRecord, RunResult
from .rules import (
    RULE_NAMES,
    ClientUpdate,
    DCASGDRule,
    DownpourRule,
    EASGDRule,
    RescaledASGDRule,
    SyncAllReduceRule,
    UpdateRule,
    VCASGDRule,
    make_rule,
)
from .runner import DistributedRunner, run_experiment
from .sweep import Sweep, SweepPoint
from .vcasgd import (
    AlphaSchedule,
    CallableAlpha,
    ConstantAlpha,
    VarAlpha,
    epoch_recursion,
    vcasgd_merge,
)

__all__ = [
    "AutoscalePolicy",
    "AutoscalingPool",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "TrainingJobConfig",
    "LocalTrainingConfig",
    "FaultConfig",
    "ParameterServerPool",
    "AssimilationStats",
    "PARAM_KEY",
    "EpochRecord",
    "RunResult",
    "DistributedRunner",
    "VersionedParams",
    "run_experiment",
    "Sweep",
    "SweepPoint",
    "run_configs",
    "default_jobs",
    "ClientUpdate",
    "UpdateRule",
    "VCASGDRule",
    "DownpourRule",
    "EASGDRule",
    "DCASGDRule",
    "RescaledASGDRule",
    "SyncAllReduceRule",
    "RULE_NAMES",
    "make_rule",
    "AlphaSchedule",
    "ConstantAlpha",
    "VarAlpha",
    "CallableAlpha",
    "vcasgd_merge",
    "epoch_recursion",
    "baselines",
]
