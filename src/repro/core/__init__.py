"""Core ESR theory: operations, ETs, histories, checkers, divergence.

This subpackage is self-contained (no simulator dependencies) so the
correctness machinery can be tested and reused independently of the
distributed-system substrate.
"""

from .operations import (
    AppendOp,
    DecrementOp,
    DivideOp,
    IncrementOp,
    MultiplyOp,
    Operation,
    OperationError,
    ReadOp,
    TimestampedWriteOp,
    WriteOp,
    commutes,
    conflicts,
    is_write,
)
from .transactions import (
    ETResult,
    ETStatus,
    EpsilonSpec,
    EpsilonTransaction,
    QueryET,
    TransactionID,
    UNLIMITED,
    UpdateET,
    make_et,
)
from .history import Event, History, SerializationGraph
from .serializability import (
    is_epsilon_serial,
    is_one_copy_serializable,
    is_serial,
    is_serializable,
    is_serializable_bruteforce,
    replicas_converged,
)
from .overlap import OverlapRecord, OverlapTracker
from .inconsistency import (
    EpsilonExceeded,
    InconsistencyCounter,
)
from .locks import (
    CLASSIC_2PL,
    COMMU_TABLE,
    Compatibility,
    CompatibilityTable,
    LockGrant,
    LockManager,
    LockMode,
    ORDUP_TABLE,
)
from .divergence import (
    Admission,
    BasicTimestampDC,
    Decision,
    DivergenceControl,
    OptimisticDC,
    TwoPhaseLockingDC,
)
from .scheduler import LocalScheduler, ScheduledET

__all__ = [
    # operations
    "AppendOp", "DecrementOp", "DivideOp", "IncrementOp", "MultiplyOp",
    "Operation", "OperationError", "ReadOp", "TimestampedWriteOp",
    "WriteOp", "commutes", "conflicts", "is_write",
    # transactions
    "ETResult", "ETStatus", "EpsilonSpec", "EpsilonTransaction",
    "QueryET", "TransactionID", "UNLIMITED", "UpdateET", "make_et",
    # histories and checkers
    "Event", "History", "SerializationGraph", "is_epsilon_serial",
    "is_one_copy_serializable", "is_serial", "is_serializable",
    "is_serializable_bruteforce", "replicas_converged",
    # overlap and inconsistency
    "OverlapRecord", "OverlapTracker",
    "EpsilonExceeded", "InconsistencyCounter",
    # locks
    "CLASSIC_2PL", "COMMU_TABLE", "Compatibility", "CompatibilityTable",
    "LockGrant", "LockManager", "LockMode", "ORDUP_TABLE",
    # divergence control
    "Admission", "BasicTimestampDC", "Decision", "DivergenceControl",
    "OptimisticDC", "TwoPhaseLockingDC",
    # local scheduling
    "LocalScheduler", "ScheduledET",
]
