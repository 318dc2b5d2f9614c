"""Replica control methods: the paper's four plus synchronous baselines."""

from .mset import MSet, MSetKind
from .base import (
    MethodTraits,
    QueryRunner,
    ReplicaControlMethod,
    ReplicatedSystem,
    SiteExecutor,
    SystemConfig,
)
from .common import MethodRuntime
from .host import (
    CommutativeOperations,
    CompensationBased,
    CompensationStats,
    EngineHost,
    NonCommutativeError,
    NotReadIndependentError,
    OrderedUpdates,
    ReadIndependentUpdates,
)
from .coherency import PrimaryCopy, QuorumConsensus, ReadOneWriteAll2PC
from .quasicopy import ClosenessSpec, QuasiCopies
from .merge import LoggedOp, MergeResult, apply_merged, merge_partition_logs
from .temporal import DeadlineRecord, DeadlineTracker

__all__ = [
    "MSet",
    "MSetKind",
    "MethodTraits",
    "QueryRunner",
    "ReplicaControlMethod",
    "ReplicatedSystem",
    "SiteExecutor",
    "SystemConfig",
    "MethodRuntime",
    "OrderedUpdates",
    "CommutativeOperations",
    "EngineHost",
    "NonCommutativeError",
    "NotReadIndependentError",
    "ReadIndependentUpdates",
    "CompensationBased",
    "CompensationStats",
    "PrimaryCopy",
    "QuorumConsensus",
    "ReadOneWriteAll2PC",
    "ClosenessSpec",
    "QuasiCopies",
    "LoggedOp",
    "MergeResult",
    "apply_merged",
    "merge_partition_logs",
    "DeadlineRecord",
    "DeadlineTracker",
]
