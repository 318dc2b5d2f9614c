"""Live replica runtime: the paper's ESR protocols over real sockets.

The deterministic simulator (:mod:`repro.sim`) validates the replica
control methods' logic; this package runs the *same* MSet-processing
state machines (shared via :mod:`repro.replica.base`) under real
concurrency — asyncio TCP transport, file-backed durable stable
queues, wall-clock time, and genuinely parallel client load.

Layers:

* :mod:`repro.live.protocol` — length-prefixed wire protocol reusing
  the operation algebra: JSON control and client frames, binary
  propagation frames.
* :mod:`repro.live.durable_queue` — at-least-once, FIFO-per-channel
  durable queues that survive process restarts.
* :mod:`repro.live.engine` — transport-agnostic COMMU / ORDUP engines,
  the synchronous write-all (ROWA) baseline, the timestamped RITU /
  RITU-MV engines, and the COMPE saga/compensation engine.
* :mod:`repro.live.server` — a per-replica asyncio TCP server with
  adaptive heartbeat failure detection, gossip-driven membership, and
  degraded-mode query handling.
* :mod:`repro.live.gossip` — versioned membership table (incarnation-
  numbered node records) and the phi-style adaptive failure detector.
* :mod:`repro.live.election` — durable epoch/promise/leader state for
  the ORDUP sequencer's epoch-fenced leader election.
* :mod:`repro.live.client` — pipelined async client facade with
  per-request timeouts, reconnect, and failover.
* :mod:`repro.live.cluster` — in-process N-replica bootstrapper.
* :mod:`repro.live.faults` — seeded fault injection on the connections
  a replica dials (drop / delay / duplicate / reorder / partition).
* :mod:`repro.live.chaos` — seeded chaos harness: one ``Run`` (cluster,
  ledger, fault actions) and six scenarios asserting the paper's
  invariants under faults, rejoin, migration, failover, WAN partition
  and compensation storms.
* :mod:`repro.live.snapshot` — versioned, checksummed site snapshots
  backing log compaction and anti-entropy rejoin.
* :mod:`repro.live.shard` — epoch-versioned shard map plus the
  epoch-fenced live shard migration orchestrator.
* :mod:`repro.live.router` — client-side shard router: the
  ``LiveClient`` verb surface over N replica groups.
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
from .election import ElectionState
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
    LOCAL_CHANNEL,
    Overloaded,
    ReplicaServer,
    SessionStale,
    Unavailable,
)
from .shard import ShardMap, WrongShard, key_shard, migrate_shard
from .snapshot import (
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
    "ElectionState",
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
