"""BOINC-like middleware: workunits, scheduler, file services, client daemon."""

from .assimilator import Assimilator, CallbackAssimilator
from .credit import CreditClaim, CreditLedger, HostCredit
from .client import ClientDaemon, TaskExecutor
from .files import FileCatalog, ServerFile, StickyCache, WebServer
from .ready_queue import IndexedReadyQueue
from .scheduler import ClientRecord, Scheduler, SchedulerConfig
from .server import BoincServer
from .replication import QuorumAssimilator, QuorumConfig, logical_id, replica_id
from .validator import ParameterValidator, ValidationResult
from .work_generator import WorkGenerator
from .workunit import Attempt, Workunit, WorkunitState

__all__ = [
    "CreditClaim",
    "CreditLedger",
    "HostCredit",
    "QuorumAssimilator",
    "QuorumConfig",
    "logical_id",
    "replica_id",
    "Workunit",
    "WorkunitState",
    "Attempt",
    "Scheduler",
    "SchedulerConfig",
    "ClientRecord",
    "FileCatalog",
    "ServerFile",
    "StickyCache",
    "WebServer",
    "ParameterValidator",
    "ValidationResult",
    "Assimilator",
    "CallbackAssimilator",
    "ClientDaemon",
    "TaskExecutor",
    "WorkGenerator",
    "BoincServer",
    "IndexedReadyQueue",
]
