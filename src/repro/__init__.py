"""repro — Asynchronous replica control under epsilon-serializability.

A from-scratch reproduction of Pu & Leff, "Replica Control in
Distributed Systems: An Asynchronous Approach" (SIGMOD 1991 / Columbia
TR CUCS-053-90).

Public API layers:

* :mod:`repro.core` — ESR theory: operations, epsilon-transactions,
  histories, serializability checkers, divergence control.
* :mod:`repro.replica` — the paper's four replica control methods
  (ORDUP, COMMU, RITU, COMPE) plus synchronous 1SR baselines, all
  running on a deterministic simulated distributed system.
* :mod:`repro.sim` — the substrate: event loop, network, stable
  queues, sites, failure injection.
* :mod:`repro.storage` — versioned stores and the compensation log.
* :mod:`repro.workload` / :mod:`repro.harness`
  — experiment machinery reproducing the paper's tables and claims.

Quickstart::

    from repro import (
        CommutativeOperations, ReplicatedSystem, SystemConfig,
        UpdateET, QueryET, IncrementOp, ReadOp, EpsilonSpec,
    )

    system = ReplicatedSystem(CommutativeOperations(),
                              SystemConfig(n_sites=3, seed=7))
    system.submit(UpdateET([IncrementOp("balance", 100)]), "site0")
    system.submit(QueryET([ReadOp("balance")],
                          EpsilonSpec(import_limit=2)), "site1")
    system.run_to_quiescence()
    assert system.converged()
"""

from .core import (
    AppendOp,
    CLASSIC_2PL,
    COMMU_TABLE,
    DecrementOp,
    DivideOp,
    EpsilonSpec,
    EpsilonTransaction,
    ETResult,
    ETStatus,
    Event,
    History,
    IncrementOp,
    MultiplyOp,
    Operation,
    ORDUP_TABLE,
    QueryET,
    ReadOp,
    TimestampedWriteOp,
    UNLIMITED,
    UpdateET,
    WriteOp,
    commutes,
    conflicts,
    is_epsilon_serial,
    is_one_copy_serializable,
    is_serializable,
    make_et,
    replicas_converged,
)
from .replica import (
    CommutativeOperations,
    CompensationBased,
    OrderedUpdates,
    PrimaryCopy,
    QuorumConsensus,
    ReadIndependentUpdates,
    ReadOneWriteAll2PC,
    ReplicatedSystem,
    SystemConfig,
)
from .sim import (
    ConstantLatency,
    Simulator,
    UniformLatency,
)
from .workload import WorkloadGenerator, WorkloadSpec, drive
from .harness.runner import RunMetrics, divergence_of, summarize
from .harness import AuditReport, audit
from .client import Client, ClientSession, ETFailed
from .consistency import (
    Consistency,
    ReadOptions,
    SessionToken,
    resolve_read_options,
)
from .errors import (
    ABORTED,
    COMPENSATED,
    EPSILON_EXCEEDED,
    ETError,
    OVERLOADED,
    SESSION_STALE,
    UNAVAILABLE,
)

def _detect_version() -> str:
    """Single-source the version from package metadata (pyproject)."""
    from importlib import metadata

    try:
        return metadata.version("repro")
    except metadata.PackageNotFoundError:
        pass
    # Uninstalled source tree: fall back to parsing pyproject.toml.
    import pathlib
    import re

    pyproject = pathlib.Path(__file__).resolve().parents[2] / "pyproject.toml"
    if pyproject.exists():
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        )
        if match:
            return match.group(1)
    return "0.0.0+unknown"


__version__ = _detect_version()

__all__ = [
    # core
    "AppendOp", "CLASSIC_2PL", "COMMU_TABLE", "DecrementOp", "DivideOp",
    "EpsilonSpec", "EpsilonTransaction", "ETResult", "ETStatus", "Event",
    "History", "IncrementOp", "MultiplyOp", "Operation", "ORDUP_TABLE",
    "QueryET", "ReadOp", "TimestampedWriteOp", "UNLIMITED", "UpdateET",
    "WriteOp", "commutes", "conflicts", "is_epsilon_serial",
    "is_one_copy_serializable", "is_serializable", "make_et",
    "replicas_converged",
    # replica
    "CommutativeOperations", "CompensationBased", "OrderedUpdates",
    "PrimaryCopy", "QuorumConsensus", "ReadIndependentUpdates",
    "ReadOneWriteAll2PC", "ReplicatedSystem", "SystemConfig",
    # sim
    "ConstantLatency", "Simulator", "UniformLatency",
    # workload / metrics / audit
    "WorkloadGenerator", "WorkloadSpec", "drive",
    "RunMetrics", "divergence_of", "summarize",
    "AuditReport", "audit",
    "Client", "ClientSession", "ETFailed",
    # typed consistency surface
    "Consistency", "ReadOptions", "SessionToken", "resolve_read_options",
    # shared failure taxonomy (sim + live)
    "ABORTED", "COMPENSATED", "EPSILON_EXCEEDED", "ETError", "OVERLOADED",
    "SESSION_STALE", "UNAVAILABLE",
    "__version__",
]
