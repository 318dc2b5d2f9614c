"""Live replica runtime: the paper's ESR protocols over real sockets.

The deterministic simulator (:mod:`repro.sim`) validates the replica
control methods' logic; this package runs the *same* MSet-processing
state machines (shared via :mod:`repro.replica.base`) under real
concurrency — asyncio TCP transport, file-backed durable stable
queues, wall-clock time, and genuinely parallel client load.

Its modules, one line each, are listed in ``docs/LIVE.md`` ("Layers"),
which a test keeps equal to this package.
"""

from .chaos import (
    SCENARIOS,
    ChaosConfig,
    ChaosReport,
    ElectConfig,
    ElectReport,
    MigrateConfig,
    MigrateReport,
    RejoinConfig,
    RejoinReport,
    Report,
    Run,
    SagaConfig,
    SagaReport,
    WanConfig,
    WanReport,
    persist_cluster_artifacts,
    run_scenario,
    run_scenario_sync,
)
from .client import (
    LiveClient,
    LiveETFailed,
    LiveETResult,
    LiveSession,
    RequestTimeout,
)
from .cluster import LiveCluster, ShardedCluster
from .durable_queue import DurableInbox, DurableOutbox
from .faults import FaultPlan, LinkFaults, WAN_INTER, WAN_INTRA
from .gossip import FailureDetector, MembershipTable, NodeRecord
from .engine import (
    CommuLiveEngine,
    CompeLiveEngine,
    ENGINES,
    LiveEngine,
    OrdupLiveEngine,
    QueryOutcome,
    QueryTimeout,
    RituLiveEngine,
    RituMvLiveEngine,
    RowaLiveEngine,
    make_engine,
)
from .read_cache import CachedRead, EpsilonReadCache
from .router import ShardRouter
from .server import (
    Compensated,
    Overloaded,
    ReplicaServer,
    SessionStale,
    Unavailable,
)
from .shard import ShardMap, WrongShard, key_shard, migrate_shard
from .snapshot import (
    LOCAL_CHANNEL,
    SnapshotError,
    SnapshotStore,
    open_snapshot,
    seal_snapshot,
)

__all__ = [
    "SCENARIOS",
    "ChaosConfig",
    "ChaosReport",
    "ElectConfig",
    "ElectReport",
    "MigrateConfig",
    "MigrateReport",
    "RejoinConfig",
    "RejoinReport",
    "Report",
    "Run",
    "SagaConfig",
    "SagaReport",
    "WanConfig",
    "WanReport",
    "persist_cluster_artifacts",
    "run_scenario",
    "run_scenario_sync",
    "LiveClient",
    "LiveETFailed",
    "LiveETResult",
    "LiveSession",
    "RequestTimeout",
    "CachedRead",
    "EpsilonReadCache",
    "LiveCluster",
    "ShardedCluster",
    "ShardMap",
    "ShardRouter",
    "WrongShard",
    "key_shard",
    "migrate_shard",
    "FaultPlan",
    "LinkFaults",
    "WAN_INTER",
    "WAN_INTRA",
    "DurableInbox",
    "DurableOutbox",
    "FailureDetector",
    "MembershipTable",
    "NodeRecord",
    "CommuLiveEngine",
    "CompeLiveEngine",
    "ENGINES",
    "LiveEngine",
    "OrdupLiveEngine",
    "QueryOutcome",
    "QueryTimeout",
    "RituLiveEngine",
    "RituMvLiveEngine",
    "RowaLiveEngine",
    "make_engine",
    "Compensated",
    "ReplicaServer",
    "Unavailable",
    "Overloaded",
    "SessionStale",
    "LOCAL_CHANNEL",
    "SnapshotError",
    "SnapshotStore",
    "open_snapshot",
    "seal_snapshot",
]
