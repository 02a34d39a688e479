"""Discrete-event simulation substrate: clock, resources, network, preemption."""

from .adversary import (
    ATTACK_KINDS,
    AdversaryBehavior,
    AdversaryFabric,
    AdversaryPlan,
    SybilFleet,
    TamperedUpdate,
)
from .chaos import (
    ChaosPlan,
    PartitionSchedule,
    PartitionWindow,
    ServerCrash,
    StoreFaultWindow,
    TransferFaultPlan,
)
from .engine import Simulator
from .events import EventHandle, EventQueue
from .network import NetworkLink, lan_link, wan_link
from .preemption import (
    BernoulliSubtaskModel,
    ExponentialLifetime,
    interruption_rate_per_hour,
)
from .resources import (
    TABLE1_CLIENTS,
    TABLE1_SERVER,
    ComputeResource,
    ComputeTask,
    InstanceSpec,
)
from .rng import RngRegistry, stable_name_hash
from .tracing import Trace, TraceRecord

__all__ = [
    "ATTACK_KINDS",
    "AdversaryBehavior",
    "AdversaryFabric",
    "AdversaryPlan",
    "SybilFleet",
    "TamperedUpdate",
    "ChaosPlan",
    "TransferFaultPlan",
    "PartitionWindow",
    "PartitionSchedule",
    "StoreFaultWindow",
    "ServerCrash",
    "Simulator",
    "EventHandle",
    "EventQueue",
    "NetworkLink",
    "lan_link",
    "wan_link",
    "InstanceSpec",
    "ComputeResource",
    "ComputeTask",
    "TABLE1_SERVER",
    "TABLE1_CLIENTS",
    "ExponentialLifetime",
    "BernoulliSubtaskModel",
    "interruption_rate_per_hour",
    "RngRegistry",
    "stable_name_hash",
    "Trace",
    "TraceRecord",
]
