"""Asyncio TCP replica server: one site of a live replicated system.

A :class:`ReplicaServer` hosts a site's store and divergence-control
engine (:mod:`repro.live.engine`) and speaks the length-prefixed
protocol (:mod:`repro.live.protocol`) on a single listening socket,
serving two kinds of connections:

* **clients** submit epsilon-transactions — ``update`` and ``query``
  verbs plus introspection (``values``, ``stats``, ``ping``);
* **peers** deliver update MSets over durable queues and receive
  acknowledgements.

Durability contract (the paper's stable queues, live): an update ET is
acknowledged to its client only after its MSet has been appended to the
site's replication log — once; every peer channel is a cursor into that
log.  A replica killed and restarted replays its logs through the
engine and resumes its outbound channels from their cursors, so
acknowledged updates are never lost and peers' retries are deduplicated
by channel sequence number.

Commit hot path (batched at the loop turn, no knob): the updates one
event-loop turn delivers commit as one *group* — one log append, one
fsync, one engine step (:meth:`ReplicaServer._commit_groups`), led by
one callback, with no task per update; a burst of plain updates is
checked, numbered, logged, applied and answered once per run — and
everything a turn writes back on a connection leaves in one socket
write (:class:`~repro.live.protocol.FrameWriter`).

Propagation hot path (batched + pipelined, no knob): each peer channel
(:class:`~repro.live.channel.PeerChannel`) keeps a window of batch
frames in flight, retired by cumulative acks.  Every connection is one
:class:`~repro.live.protocol.FrameProtocol`, and every frame is
handled in the step its socket delivered it: the receive side records
a batch with one group-commit append (single write, one fsync before
its ack), applies it in one engine step and acks it, all inside
``data_received``, then parses that connection's next frame a turn
later; a cumulative ack retires its window where it is parsed.
Backpressure is structural: a connection buffers little while it is
held, and a replica stops reading a connection whose answers back up,
so a fast sender fills TCP flow control (bounded by the frames in
flight) instead of the receiver's memory.

One peer wire: a channel opens with a JSON ``peer-hello`` naming the
sender and streams binary frames from the next byte on — nothing is
negotiated and there is no option.  A batch frame is a struct-packed
envelope carrying each MSet's canonical payload bytes exactly as they
were encoded when the update was first accepted (zero re-encode relay:
the log caches the blob, re-sends forward it verbatim, and the
receiver splices the same bytes into its inbox log); a cumulative ack
is a 13-byte struct.  Control frames (``hb``, ``hb-ack``,
``peer-reset``) and everything a client exchanges stay JSON.  A frame
kind this server does not know — a mis-versioned peer — is answered
with an ``error`` frame and counted, never applied.

Failure detection and graceful degradation: channel loops double as a
heartbeat path — any frame from a peer marks it *alive*; a peer silent
past its adaptive bound (:class:`~repro.live.gossip.Membership`) is
*suspected*, the server enters **degraded mode**, and ``epsilon = 0``
queries fail fast with a typed :class:`Unavailable` error instead of
blocking until their timeout.  Epsilon-bounded queries keep answering
throughout (the paper's availability claim), with their inconsistency
accounting intact.  Peer health, per-peer staleness, and outbound
backlog are exposed via the ``stats`` verb.

Fault injection lives on the connection, not here: with a
``FaultPlan`` installed, every connection this replica dials to a peer
— its channel, and the one it sends every request to that peer over —
carries the plan's link to that peer, whose writer drops, delays,
duplicates or reorders the frames it writes, and a severed link
refuses the dial or aborts the connection.  The replica decides no
frame's fate; it only recovers, as over any lossy network.

Snapshots, compaction, and anti-entropy rejoin: the server
periodically (``snapshot_interval``) — or on demand (``snapshot``
verb) — persists a versioned, checksummed image of its applied state
(:mod:`repro.live.snapshot`) capturing the engine checkpoint and
every channel's applied frontier in one atomic cut, then compacts the
durable logs below those frontiers; the rules of that rebuild are
:class:`~repro.live.snapshot.Recovery`'s, and the server runs the
waits around them.  A replica that lost state
recovers along one path, by *anti-entropy*: it surveys its peers,
fetches a peer's snapshot in chunks (``snapshot-fetch`` verb),
installs it when the snapshot dominates its own frontiers, and drains
only the log tail above the snapshot from the normal channels.  Four
things start that recovery: an empty boot (whose survey concludes
"fresh" only once every peer has answered without evidence of a
former life), a ``peer-reset`` frame, a regressed ack, and a
``fetch-install``.  Senders repair regressed receivers symmetrically
— a cumulative ack (or heartbeat reply) below the peer's cursor
rewinds the channel from the log when the records survive, or sends
a ``peer-reset`` frame when they were compacted away.  While a
recovery runs, one admission check refuses every append, every
``epsilon = 0`` query and the snapshot verbs with ``UNAVAILABLE``;
epsilon-bounded queries keep answering from the (stale but bounded)
local state.

Backpressure: when any peer channel's backlog exceeds
``backlog_limit``, new client updates are refused with a typed
``OVERLOADED`` error instead of growing the durable queue without
bound.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import itertools
import logging
import pathlib
import random
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.transactions import EpsilonSpec
from ..obs.registry import DEFAULT_LATENCY_BUCKETS, NULL_REGISTRY, Registry
from ..obs.trace import TraceRecorder
from ..replica.mset import MSet, MSetKind, check_ops, check_ops_many
from ..replica.sequencer import Sequencer
from . import protocol
from .channel import ChannelFamilies, PeerChannel, _resolve
from .client import LiveETFailed, request_once
from .durable_queue import ControlLog, DurableInbox, DurableOutbox
from .engine import LiveEngine, QueryOutcome, QueryTimeout, make_engine
from .faults import FaultPlan, Link
from .gossip import SUSPECT, Membership
from .protocol import (
    FrameProtocol,
    FrameWriter,
    ProtocolError,
    connect_frames,
    decode_gossip,
    decode_ops,
    decode_batch_msets,
    decode_spec,
    encode_bin_ack_frame,
    encode_bin_batch_frame,
    encode_mset,
    payload_blob,
    check_request_id,
    plain_reply_frame,
    plain_update_blob,
)
from .shard import WrongShard, key_shard
from .snapshot import (
    CURRENT,
    INSTALL,
    SURVEY,
    Recovery,
)

__all__ = [
    "ReplicaServer",
    "Unavailable",
    "Overloaded",
    "SessionStale",
    "Compensated",
    "WrongShard",
]

logger = logging.getLogger(__name__)


class Unavailable(RuntimeError):
    """A request that needs full replica agreement cannot be served
    because one or more peers are unreachable (degraded mode).

    Carried to clients as error code ``UNAVAILABLE`` so they can
    distinguish honest refusal from transient failures and retry
    elsewhere or relax their epsilon budget.
    """

    code = "UNAVAILABLE"


class Overloaded(RuntimeError):
    """A client update was refused because a peer channel's durable
    backlog exceeds the configured high-water mark.

    Carried to clients as error code ``OVERLOADED``: the replica is
    alive but shedding write load instead of growing its durable
    queues without bound; retry later or at a less loaded replica.
    """

    code = "OVERLOADED"


class SessionStale(RuntimeError):
    """A session-token read was refused because this replica's applied
    frontiers lag the token — serving it would violate the session's
    read-your-writes / monotonic-reads guarantee.

    Carried to clients as error code ``SESSION_STALE``; the response
    ships this replica's current frontier vector (``frontiers``) so
    the client can pick a fresher replica instead of guessing.
    """

    code = "SESSION_STALE"

    def __init__(self, message: str, frontiers: Dict[str, int]) -> None:
        super().__init__(message)
        self.extra = {"frontiers": frontiers}


class Compensated(RuntimeError):
    """An optimistically applied update was undone by COMPE's backward
    recovery (an ABORT decision compensated its effects).

    Carried to clients as error code ``COMPENSATED``; the response
    ships the undone tids (``compensated``) so the caller knows
    exactly which updates were reverted — an honest "briefly visible,
    then removed", never a silent drop.
    """

    code = "COMPENSATED"

    def __init__(self, message: str, compensated: Sequence[Any]) -> None:
        super().__init__(message)
        self.extra = {"compensated": list(compensated)}


#: bytes of snapshot data served per ``snapshot-fetch`` chunk — held
#: well under MAX_FRAME so the response frame (chunk + JSON envelope)
#: always fits the existing framing.
SNAPSHOT_CHUNK = 1 << 20

#: seconds a query may wait on divergence control, and an update on its
#: commit (ORDUP's in-order apply, a synchronous method's peer acks).
QUERY_TIMEOUT = 30.0
COMMIT_TIMEOUT = 30.0
#: seconds a channel's oldest frame may go unacknowledged before the
#: sender re-sends from the cumulative-ack frontier; also how long an
#: election round, and the leader check before it, waits for answers.
ACK_TIMEOUT = 2.0
#: seconds an order request waits for its token before it is re-sent.
ORDER_RESEND = 0.25

#: what a failed exchange with a peer raises: a refused, cut, lost or
#: silent request (OSError, asyncio.TimeoutError), a refusal reply, a
#: garbled frame or snapshot, a snapshot that does not dominate
#: (RuntimeError and its ProtocolError/SnapshotError), a malformed
#: field (ValueError).  Every caller retries past each of them.
PEER_FAILURES = (OSError, RuntimeError, ValueError, asyncio.TimeoutError)


def _dialed(dial: "asyncio.Future[FrameProtocol]") -> Optional[FrameProtocol]:
    """The open connection a finished dial made, else None."""
    if dial.done() and not dial.cancelled() and dial.exception() is None:
        conn = dial.result()
        if not conn.closing:
            return conn
    return None


def _full_ack_release(payload: Dict[str, Any]) -> Tuple[str, Tuple[str, ...]]:
    """What a replication-log record releases once every peer holds
    it: its MSet's ``(tid, keys)``, the keys as ``MSet.keys`` —
    distinct, in first-write order.  Read from the encoded payload
    once, when a record is read back into the log's window (reload,
    rewind), so an ack decodes nothing; the commit group passes the
    pairs it holds instead."""
    mset = payload["mset"]
    ops = mset["ops"]
    if len(ops) == 1:
        return mset["tid"], (ops[0][1],)
    return mset["tid"], tuple({op[1]: None for op in ops})


async def _dial_peer(
    addr: Tuple[str, int], link: Any, replies: Dict[int, asyncio.Future]
) -> FrameProtocol:
    """Dial a peer to ask it things.  An answer resolves the future in
    ``replies`` waiting on its id, if one still is; losing the
    connection resolves every one left with None."""

    def answer(conn: FrameProtocol, frame: Dict[str, Any]) -> None:
        reply = replies.pop(frame.get("id"), None)
        if reply is not None and not reply.done():
            reply.set_result(frame)

    def hung_up(lost: asyncio.Future) -> None:
        for reply in replies.values():
            _resolve(reply)

    conn = await connect_frames(addr, answer, link)
    conn.lost.add_done_callback(hung_up)
    return conn


class _Member:
    """An awaited member of a group commit — an update that waits
    beyond its group, or a COMPE decision: what it logs (a plain
    update's ``(arrays, keys)`` or the maker of its MSet), its order
    token, and the future its caller awaits.  An update request its
    group answers joins the queue as it was read, with no member."""

    __slots__ = ("form", "order", "fut")

    def __init__(self, form: Any, order: Any, fut: asyncio.Future) -> None:
        self.form, self.order, self.fut = form, order, fut


class ReplicaServer:
    """One live replica site serving ESR protocols over TCP."""

    def __init__(
        self,
        name: str,
        peers: Sequence[str],
        data_dir: pathlib.Path,
        method: str = "commu",
        fsync: bool = False,
        retry_base: float = 0.05,
        retry_max: float = 1.0,
        heartbeat_interval: float = 0.25,
        suspect_after: float = 0.75,
        snapshot_interval: float = 0.0,
        backlog_limit: int = 0,
        faults: Optional[FaultPlan] = None,
        observability: bool = True,
        shard: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        #: shard ownership, when this replica serves one partition of a
        #: sharded keyspace: ``{"index": i, "count": n, "epoch": e,
        #: "accepting": bool}``.  ``None`` means the replica owns the
        #: whole keyspace (the unsharded deployment) and no ownership
        #: checks run.  A booting migration target sets
        #: ``accepting=False`` and refuses traffic until ``shard-adopt``.
        if shard is not None:
            self.shard_index = int(shard["index"])
            self.shard_count = int(shard["count"])
            self.shard_epoch = int(shard.get("epoch", 0))
            self._shard_accepting = bool(shard.get("accepting", True))
        else:
            self.shard_index = None
            self.shard_count = None
            self.shard_epoch = 0
            self._shard_accepting = True
        #: the peer set, where each peer listens and who is alive
        #: (its table is opened by :meth:`bind`).
        self.membership = Membership(name, peers, suspect_after, self.shard_index)
        #: True once this group was fenced out of its shard: every
        #: update/query is answered WRONG_SHARD with the newest map.
        self._shard_retired = False
        #: newest shard map this replica has been told about (the
        #: hint carried on WRONG_SHARD refusals).
        self._shard_map: Optional[Dict[str, Any]] = None
        self.data_dir = pathlib.Path(data_dir)
        self.method = method
        self.fsync = fsync
        #: seconds between automatic snapshots (0 = manual only).
        self.snapshot_interval = float(snapshot_interval)
        #: per-channel durable backlog above which client updates are
        #: refused with OVERLOADED (0 = unlimited).
        self.backlog_limit = max(0, int(backlog_limit))
        self.retry_base = retry_base
        self.retry_max = retry_max
        self.heartbeat_interval = heartbeat_interval
        self.suspect_after = suspect_after
        self.faults = faults
        #: one metrics registry + trace recorder per replica, touched
        #: only from the replica's event loop; ``site`` is stamped on
        #: every sample so scrapes across a cluster merge cleanly.
        #: ``observability=False`` swaps in no-op instruments (the
        #: benchmark's metrics-off baseline).
        if observability:
            # ``shard`` joins ``site`` as a constant label so scrapes
            # across a sharded cluster split per-shard health (epsilon
            # gauges, channel backlog, ack latency) without relabeling.
            const_labels = {"site": name}
            if self.shard_index is not None:
                const_labels["shard"] = str(self.shard_index)
            self.registry = Registry(const_labels=const_labels)
        else:
            self.registry = NULL_REGISTRY
        self.trace = TraceRecorder(site=name, enabled=observability)
        self.engine: LiveEngine = make_engine(method, name)
        self.engine.bind_observability(self.registry, self.trace)
        #: the engine decides its updates (COMPE): sagas, ``decide``.
        self._is_compe = hasattr(self.engine, "decision_of")
        self._init_instruments()
        #: the site hosting the central order server (ORDUP).
        self.order_site = sorted((name,) + self.peer_names)[0]
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        #: the loop :meth:`bind` ran on.
        self._loop: asyncio.AbstractEventLoop
        self._running = False
        #: the replication log: every MSet this site originates, once,
        #: with one cursor per peer (opened by :meth:`bind`).
        self.log: DurableOutbox
        #: peer -> what this site durably holds from it.
        self.inboxes: Dict[str, DurableInbox] = {}
        #: peer -> its outbound channel (opened with the inbox).
        self.channels: Dict[str, PeerChannel] = {}
        #: long-lived background tasks (:meth:`_spawn`), cancelled by
        #: :meth:`stop`.
        self._tasks: Set[asyncio.Task] = set()
        #: the tasks of requests whose handler returned a coroutine.
        self._conn_tasks: Set[asyncio.Task] = set()
        #: the listener's open connections, aborted by :meth:`stop`.
        self._conns: Set[FrameProtocol] = set()
        #: the parked ``settle`` requests, resolved whenever the drain
        #: condition may have changed (:meth:`_notify_drain`) instead of
        #: clients busy-polling.
        self._settle_waiters: Set[asyncio.Future] = set()
        #: tid -> future resolved when the MSet applies locally (ORDUP).
        self._apply_futures: Dict[Any, asyncio.Future] = {}
        #: tid -> future resolved when all peers acked (sync commit).
        self._full_ack_futures: Dict[Any, asyncio.Future] = {}
        #: peer -> (address, dial, replies by id) of the connection
        #: this replica asks it over (:meth:`_peer_request`).
        self._peer_conns: Dict[str, Tuple[
            Tuple[str, int], asyncio.Future, Dict[int, asyncio.Future]
        ]] = {}
        #: ids of this replica's requests to peers; random, so a
        #: restart reuses none.
        self._request_ids = itertools.count(
            random.SystemRandom().getrandbits(48)
        )
        #: one order request outstanding at a time, under one id — the
        #: same on each re-send of it — that moves on once answered.
        self._order_lock = asyncio.Lock()
        self._order_id = next(self._request_ids)
        #: the sequencer's and the membership's records
        #: (opened by :meth:`bind`, with the two views over it).
        self._control: ControlLog
        #: the ORDUP sequencer: election state, grants and the lease.
        self.election: Sequencer
        #: ORDUP with peers: True once the boot epoch probe confirmed
        #: we are not resurrecting with a stale epoch.  Grants are
        #: refused until then.
        self._epoch_synced = not (self.engine.needs_order and self.peer_names)
        #: serializes campaigns (one at a time per replica).
        self._campaign_lock = asyncio.Lock()
        #: deterministic per-server jitter stream (heartbeat spread).
        self._rng = random.Random(name)
        #: True once start_channels ran (gossip joins then spawn their
        #: channel loops immediately instead of waiting for it).
        self._channels_started = False
        #: last degraded() value the monitor observed (gauge flips).
        self._last_degraded = False
        #: the group commit's waiting members — an update request its
        #: group answers as ``(id, frame, writer)``, anything else a
        #: :class:`_Member` — and whether a group is scheduled to lead
        #: them.
        self._commit_queue: List[Any] = []
        self._commit_leader = False
        #: serializes snapshot capture/compaction/install.
        self._snapshot_lock = asyncio.Lock()
        #: the snapshot image, the recovery state and every rule of the
        #: rebuild (made by :meth:`bind`, over the logs it opens).
        self.recovery: Recovery
        #: precomputed verb dispatch: built once instead of a dict
        #: literal per request.  Values are attribute names (resolved
        #: with ``getattr`` at call time) so per-instance handler
        #: overrides still take effect.
        self._verb_handlers = {
            "update": "_handle_update",
            "decide": "_handle_decide",
            "query": "_handle_query",
            "values": "_handle_values",
            "stats": "_handle_stats",
            "settle": "_handle_settle",
            "order": "_handle_order",
            "elect": "_handle_elect",
            "ping": "_handle_ping",
            "metrics": "_handle_metrics",
            "snapshot": "_handle_snapshot",
            "snapshot-fetch": "_handle_snapshot_fetch",
            "shard-retire": "_handle_shard_retire",
            "shard-adopt": "_handle_shard_adopt",
            "fetch-install": "_handle_fetch_install",
        }

    def _init_instruments(self) -> None:
        """Register this replica's metric families (see OBSERVABILITY.md)."""
        reg = self.registry
        self.m_channel_backlog = reg.gauge(
            "channel_backlog",
            "unacknowledged MSets queued on one outbound peer channel",
            labels=("peer",),
        )
        self.m_peer_staleness = reg.gauge(
            "peer_staleness_seconds",
            "seconds since the last evidence a peer is alive",
            labels=("peer",),
        )
        self.m_peer_alive = reg.gauge(
            "peer_alive",
            "1 while the peer passes the heartbeat deadline, else 0",
            labels=("peer",),
        )
        self.channel_families = ChannelFamilies(reg)
        self.m_commit_group = reg.histogram(
            "commit_group_msets",
            "locally originated MSets committed by each group commit "
            "(one log append and one fsync per group)",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        self.m_frames_dropped = reg.counter(
            "frames_dropped_total",
            "inbound frames dropped instead of processed",
            labels=("reason",),
        )
        self.m_degraded = reg.gauge(
            "degraded",
            "1 while any peer is suspected (degraded mode), else 0",
        )
        self.m_degraded_transitions = reg.counter(
            "degraded_transitions_total",
            "times this replica entered or left degraded mode",
        )
        self.m_updates_owed = reg.gauge(
            "unacked_updates",
            "local updates whose peer acknowledgements are outstanding",
        )
        self.m_log_fsync = reg.counter(
            "log_fsync_total",
            "fsyncs performed on one durable channel log",
            labels=("log",),
        )
        self.m_log_fsync_seconds = reg.counter(
            "log_fsync_seconds_total",
            "cumulative fsync latency on one durable channel log",
            labels=("log",),
        )
        self.m_log_bytes = reg.counter(
            "log_bytes_total",
            "bytes appended to one durable channel log",
            labels=("log",),
        )
        self.m_requests = reg.counter(
            "requests_total",
            "client requests served, by verb and outcome",
            labels=("verb", "outcome"),
        )
        #: verb -> its ``outcome="ok"`` child, resolved once per verb.
        self._m_requests_ok: Dict[str, Any] = {}
        self.m_snapshots = reg.counter(
            "snapshots_total",
            "site snapshots persisted (periodic, manual, or install)",
            labels=("kind",),
        )
        self.m_snapshot_bytes = reg.histogram(
            "snapshot_size_bytes",
            "serialized size of each persisted snapshot",
            buckets=(
                256, 1024, 4096, 16384, 65536,
                262144, 1048576, 4194304, 16777216,
            ),
        )
        self.m_snapshot_seconds = reg.histogram(
            "snapshot_duration_seconds",
            "wall time to capture, persist, and compact one snapshot",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.m_log_compactions = reg.counter(
            "log_compactions_total",
            "compaction rewrites performed on one durable channel log",
            labels=("log",),
        )
        self.m_log_compacted = reg.counter(
            "log_compacted_records_total",
            "records dropped from one durable channel log by compaction",
            labels=("log",),
        )
        self.m_updates_rejected = reg.counter(
            "updates_rejected_total",
            "client updates refused before durability, by reason",
            labels=("reason",),
        )
        self.m_session_stale = reg.counter(
            "session_stale_total",
            "session reads refused because applied frontiers lag the token",
        )
        self.m_catchup = reg.counter(
            "catchup_total",
            "anti-entropy catch-up attempts, by outcome",
            labels=("outcome",),
        )
        self.m_channel_rewinds = reg.counter(
            "channel_rewinds_total",
            "outbound channels rewound for a regressed receiver",
            labels=("peer",),
        )
        self.m_elections = reg.counter(
            "elections_total",
            "sequencer election campaigns started here, by outcome",
            labels=("outcome",),
        )
        self.m_leader_epoch = reg.gauge(
            "leader_epoch",
            "highest sequencer leadership epoch adopted at this replica",
        )
        self.m_membership_size = reg.gauge(
            "membership_size",
            "member records in the gossiped table (left excluded)",
        )
        self.m_suspicions = reg.counter(
            "suspicions_total",
            "times the adaptive detector newly suspected one peer",
            labels=("peer",),
        )
        self.m_record_load_errors = reg.counter(
            "record_load_errors_total",
            "control-log records found present but unusable at boot "
            "(state restarted without them)",
            labels=("record",),
        )

    # -- lifecycle -----------------------------------------------------------

    async def bind(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Open the site's durable logs, recover state, and start
        listening.

        Recovery (:meth:`Recovery.recover`) adopts the last snapshot and
        replays the log tails above it; the engine owns no file, so
        every durable byte of the site is opened here.  Returns the
        bound port (useful with ``port=0``).  Channels to
        peers start separately (:meth:`start_channels`) once peer
        addresses are known.
        """
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.log = DurableOutbox(
            self.data_dir / "replication.log",
            self.fsync,
            release=_full_ack_release,
        )
        for peer in self.peer_names:
            self._open_channel(peer)
        self._control = ControlLog(self.data_dir / "control.log", self.fsync)
        self.membership.open(self._control)
        self.election = Sequencer(self._control)
        self.m_record_load_errors.labels(record="control").set_to(
            self._control.load_errors
        )
        self.m_leader_epoch.set(self.election.epoch)
        self.recovery = Recovery(
            self.name, self.method, self.data_dir / "snapshot.json",
            self.engine, self.log, self.inboxes, self.election,
        )
        self.recovery.recover(self.engine.clock())
        self._running = True
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            self._accept_conn, host, port
        )
        self.host = host
        self.port = self._server.sockets[0].getsockname()[1]
        self.membership.table.update_self(
            host=host, port=self.port, shard=self.shard_index,
        )
        return self.port

    @property
    def peer_names(self) -> Tuple[str, ...]:
        """The peers this replica replicates with, sorted."""
        return self.membership.peers

    def _open_channel(self, peer: str) -> None:
        """Open one peer channel's durable state: the inbox for what
        the peer sends us and its cursor into our log.  A cursor that
        is new while the log already has history starts at the log's
        end and owes the peer a ``peer-reset``: it snapshot-installs
        that history instead of replaying it through the channel."""
        self.inboxes[peer] = DurableInbox(
            self.data_dir / "inbox" / ("%s.log" % peer), self.fsync
        )
        self.channels[peer] = PeerChannel(
            peer,
            self.log.add_cursor(peer) and self.log.assigned > 0,
            self.channel_families,
        )

    def set_peers(self, addrs: Dict[str, Tuple[str, int]]) -> None:
        """Install (or update) peer addresses for the channel loops."""
        self.membership.configure(addrs)

    def start_channels(self) -> None:
        """Launch one durable sender loop per peer channel, plus the
        degraded monitor and whatever else this replica runs in the
        background."""
        if self._channels_started:
            return
        self._channels_started = True
        for peer in self.peer_names:
            self._start_channel(peer)
        self._spawn(self._degraded_monitor())
        if self.snapshot_interval > 0:
            self._spawn(self._snapshot_loop())
        if self.engine.needs_order and self.peer_names:
            self._spawn(self._election_loop())
            if not self._epoch_synced:
                self._spawn(self._epoch_probe())
        if self.peer_names and self.recovery.blank():
            self._trigger_catchup("boot")

    async def recovered(self) -> None:
        """Return once no recovery is running (one absorbs every
        trigger that arrives while it runs)."""
        while self.recovery.state is not None:
            await self._drain_changed(0.25)

    def _admit(self, what: str, n: int = 1) -> None:
        """Refuse ``what`` while a recovery runs — every append
        (``update``, ``decide``), strict read and snapshot verb: served
        from a store an install is about to replace, it would answer
        from lost state, or reuse tids that peers drop as duplicates of
        this site's former life.  ``n``: how many are refused."""
        if self.recovery.state is not None:
            self.m_updates_rejected.labels(reason="catchup").inc(n)
            raise Unavailable(
                "%s refused: replica is recovering its state from its"
                " peers" % what
            )

    async def stop(self) -> None:
        """Stop serving.  Durable state is already on disk (the
        stable queues write through), so stop doubles as a crash."""
        self._running = False
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for conn in list(self._conns):
            conn.abort()
        for peer, (_, dial, _) in list(self._peer_conns.items()):
            dial.cancel()
            self._hang_up(peer)
        tasks = list(self._tasks | self._conn_tasks)
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
            except Exception as exc:
                # A task that died with a real error before the cancel
                # landed: teardown proceeds, but the error is counted
                # and logged instead of silently eaten.
                self.m_frames_dropped.labels(reason="stop_error").inc()
                logger.debug(
                    "%s: task %r raised during stop: %r",
                    self.name, task, exc,
                )
        self._tasks.clear()
        self._conn_tasks.clear()
        if server is not None:
            try:
                await server.wait_closed()
            except (OSError, ConnectionError) as exc:
                logger.debug(
                    "%s: listener close raised %r", self.name, exc
                )
        for box in (self.log, self._control, *self.inboxes.values()):
            box.close()
        self._cancel_commit_waiters()

    def _cancel_commit_waiters(self) -> None:
        """Cancel every update still waiting on a local apply or on
        every peer's ack, and forget them."""
        for futures in (self._apply_futures, self._full_ack_futures):
            for fut in futures.values():
                if not fut.done():
                    fut.cancel()
            futures.clear()

    def _spawn(self, coro: Any) -> asyncio.Task:
        """Run ``coro`` as a long-lived background task: :meth:`stop`
        cancels it, and an unexpected error in it is counted."""
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        task.add_done_callback(self._note_task_crash)
        return task

    def _note_task_crash(self, task: asyncio.Task) -> None:
        """A long-lived task died of an *unexpected* error: make it
        loud (counted + warned) instead of silently unretrieved."""
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self.m_frames_dropped.labels(reason="task_crash").inc()
            logger.warning(
                "%s: background task crashed: %r", self.name, exc
            )

    # -- peer health ---------------------------------------------------------

    def _note_peer_alive(self, peer: str) -> None:
        channel = self.channels.get(peer)
        if channel is not None:
            channel.failures = 0
            self.membership.detector.heartbeat(peer, self.engine.clock())

    def degraded(self) -> bool:
        """True when any peer is suspected — or this replica is
        installing a peer snapshot: full agreement is off the table,
        only epsilon-bounded service remains.  A fresh boot's survey is
        not degraded."""
        suspected = self.membership.suspected(self.engine.clock())
        return bool(suspected) or self.recovery.state == INSTALL

    async def _degraded_monitor(self) -> None:
        """Watch the degraded predicate and publish its transitions as
        gauge flips plus trace events — an operator watching the
        ``degraded`` gauge sees exactly when partial service began and
        ended, not just the current instant."""
        while self._running:
            self._check_degraded_transition()
            await asyncio.sleep(self.heartbeat_interval / 2)

    def _check_degraded_transition(self) -> None:
        now = self.engine.clock()
        for peer, status in self.membership.check(now):
            if status == SUSPECT:
                self.m_suspicions.labels(peer=peer).inc()
            self.trace.event("membership", peer=peer, status=status)
        suspected = self.membership.suspected(now)
        now_degraded = self.degraded()
        if now_degraded != self._last_degraded:
            self._last_degraded = now_degraded
            self.m_degraded.set(1 if now_degraded else 0)
            self.m_degraded_transitions.inc()
            self.trace.event(
                "degraded",
                value=1 if now_degraded else 0,
                suspected=list(suspected),
            )
            logger.debug(
                "%s: degraded -> %s (suspected: %s)",
                self.name, now_degraded,
                ",".join(suspected) or "-",
            )
        if now_degraded:
            # Full agreement is off the table: a strict read parked on
            # divergence control could only time out.
            self.engine.fail_parked_strict(
                lambda: Unavailable(
                    "epsilon=0 query aborted: peers %s became unreachable"
                    % ",".join(suspected)
                )
            )

    # -- gossip membership ---------------------------------------------------

    def _merge_gossip(self, src: str, digest: Tuple[list, Any]) -> None:
        """Merge a heartbeat's decoded membership + leadership digest
        (:func:`~repro.live.protocol.decode_gossip`).  Membership
        changes may wire in newly discovered members or re-learn moved
        addresses.  The leadership counts only from a mesh peer (after
        the merge) naming this replica or a peer as leader: it is then
        lease evidence, and a higher epoch is adopted (fencing the
        engine) in the same step."""
        nodes, leader = digest
        membership = self.membership
        joined, moved = membership.merge(nodes)
        for name in joined:
            # A gossip-discovered member: its durable channel state and,
            # once running, its channel loop.
            self._open_channel(name)
            self.trace.event("membership", peer=name, status="join")
            logger.info(
                "%s: discovered member %s at %s:%d",
                self.name, name, *membership.configured[name],
            )
            if self._running and self._channels_started:
                self._start_channel(name)
        for name in moved:
            host, port = membership.configured[name]
            self.trace.event(
                "membership", peer=name, status="moved", host=host, port=port,
            )
        if leader is None or src not in self.peer_names:
            return
        epoch, who, base = leader
        if who is not None and who not in self.peer_names + (self.name,):
            return
        self.election.heard(src, epoch, self.engine.clock())
        if who and epoch > self.election.epoch:
            self._adopt_leader(epoch, who, base)

    # -- sequencer election --------------------------------------------------

    def current_leader(self) -> str:
        """The site authorized to grant order tokens: the elected
        leader once any election has happened, else the static
        lexicographic default (backward compatible)."""
        if self.election.epoch > 0 and self.election.leader:
            return self.election.leader
        return self.order_site

    def _grant_allowed(self) -> bool:
        """May this replica grant order tokens *right now*?  Once the
        boot epoch probe confirmed its epoch is current (a resurrected
        deposed leader cannot self-grant at its stale epoch before
        learning the new one), while it holds the lease."""
        if not self._epoch_synced:
            return False
        return not self.peer_names or self.election.lease_held(
            self.engine.clock(), self.membership.quorum(), self.suspect_after
        )

    def _grant(self, src: Any = None, rid: Any = None) -> Tuple[int, int]:
        """The next order token, if this replica is the order authority
        now: the leader, holding its lease."""
        return self.election.grant(
            self.name, self.current_leader(), self._grant_allowed(), src, rid
        )

    def _adopt_leader(self, epoch: int, leader: str, base: int) -> None:
        """Adopt a leadership announcement (ours or gossiped) and
        fence the engine, in one step: no apply runs in between."""
        if not self.election.adopt(epoch, leader, base):
            return
        self.engine.adopt_epoch(epoch, base)
        self._epoch_synced = True
        self.m_leader_epoch.set(epoch)
        self.trace.event(
            "election", phase="adopt", epoch=epoch, leader=leader,
            base=base,
        )
        logger.info(
            "%s: adopted leader %s for epoch %d (base %d)",
            self.name, leader, epoch, base,
        )

    async def _epoch_probe(self) -> None:
        """Boot-time epoch sync (ORDUP with peers): learn the cluster's
        current epoch from a majority before any grant is allowed, so
        a deposed leader resurrected with stale durable state cannot
        resume sequencing at its old epoch."""
        backoff = self.retry_base
        while self._running and not self._epoch_synced:
            replies = await self._ask_peers(
                "elect", ACK_TIMEOUT, epoch=0, candidate=self.name
            )
            if len(replies) + 1 >= self.membership.quorum():
                newer = self.election.newest(replies.values())
                if newer is not None:
                    self._adopt_leader(*newer)
                self._epoch_synced = True
                self.trace.event(
                    "election", phase="epoch-sync",
                    epoch=self.election.epoch,
                )
                return
            await asyncio.sleep(backoff)
            backoff = min(backoff * 2, self.retry_max)

    async def _election_loop(self) -> None:
        """Watch the order authority; campaign when it is dead and does
        not answer a ping either: a leader that answers is alive, and it
        was this replica that was cut off (a healed partition)."""
        while self._running:
            await asyncio.sleep(self._heartbeat_jitter())
            if not self._epoch_synced or self.recovery.state is not None:
                continue
            leader = self.current_leader()
            now = self.engine.clock()
            if leader == self.name or not self.membership.dead(leader, now):
                continue
            if self.membership.best_candidate(now, (leader,)) != self.name:
                continue
            try:
                await self._peer_request(leader, "ping", timeout=ACK_TIMEOUT)
            except PEER_FAILURES:
                await self._campaign()

    async def _campaign(self) -> None:
        """Run one election round: self-promise a fresh epoch, gather
        promises (carrying durable order frontiers), and on majority
        adopt leadership resuming from the max frontier seen."""
        async with self._campaign_lock:
            epoch = self.election.campaign()
            self.m_elections.labels(outcome="started").inc()
            self.trace.event("election", phase="campaign", epoch=epoch)
            replies = await self._ask_peers(
                "elect", ACK_TIMEOUT, epoch=epoch, candidate=self.name
            )
            votes, base = self.election.win(
                epoch, self.engine.max_order_seen(), replies.values(),
                self.membership.quorum(),
            )
            if base is None:
                self.m_elections.labels(outcome="lost").inc()
                self.trace.event(
                    "election", phase="lost", epoch=epoch, votes=votes,
                )
                # Jittered backoff before the loop re-evaluates, so
                # duelling candidates desynchronize.
                await asyncio.sleep(
                    self.retry_base
                    + self._rng.random() * self.heartbeat_interval
                )
                return
            self._adopt_leader(epoch, self.name, base)
            self.m_elections.labels(outcome="won").inc()
            self.trace.event(
                "election", phase="won", epoch=epoch, base=base,
                votes=votes,
            )
            logger.info(
                "%s: won election for epoch %d (base %d, votes %d)",
                self.name, epoch, base, votes,
            )

    # -- channel sender loops ------------------------------------------------

    def _start_channel(self, peer: str) -> None:
        """Watch ``peer`` from now on and run its channel loop."""
        self.membership.detector.watch(peer, self.engine.clock())
        self._spawn(self._channel_loop(self.channels[peer]))

    def _kick_channels(self) -> None:
        for channel in self.channels.values():
            channel.wakeup.set()

    def _link(self, peer: str) -> Optional[Link]:
        """What a dial to ``peer`` carries: the plan's link, if any."""
        return self.faults and self.faults.link(self.name, peer)

    async def _channel_loop(self, channel: PeerChannel) -> None:
        """Persistently (re)connect one peer channel and run a
        pipelined delivery session over each connection."""
        peer = channel.peer
        backoff = self.retry_base
        while self._running:
            addr = self.membership.address(peer)
            if addr is None:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, self.retry_max)
                continue
            conn = None
            try:
                # The sender fills the channel's window, the acks
                # parsed off the same connection retire it.
                conn = await connect_frames(
                    addr,
                    functools.partial(self._on_channel_frame, channel),
                    self._link(peer),
                )
                conn.lost.add_done_callback(lambda _: channel.wakeup.set())
                conn.frames.send({"type": "peer-hello", "src": self.name})
                backoff = self.retry_base
                channel.connect(self.log.frontier(peer))
                await self._channel_sender(channel, conn)
            except (
                OSError,
                ConnectionError,
                asyncio.TimeoutError,
                ProtocolError,
            ) as exc:
                channel.failed()
                logger.debug(
                    "%s: channel to %s failed (%s), retrying in %.3fs",
                    self.name, peer, exc, backoff,
                )
                link = self._link(peer)
                if link is None:
                    await asyncio.sleep(backoff)
                else:
                    await link.backoff(backoff)
                backoff = min(backoff * 2, self.retry_max)
            finally:
                if conn is not None:
                    conn.abort()

    async def _channel_sender(
        self, channel: PeerChannel, conn: FrameProtocol
    ) -> None:
        """Drain what the log owes the peer as batch frames, keeping up
        to ``FRAMES_IN_FLIGHT`` unacknowledged; heartbeat while idle.
        Returns only by raising: the connection is lost.

        The sender decides no frame's fate: on a lossy link the
        connection's writer drops, delays, duplicates or reorders what
        it writes, and whatever stays unacknowledged past
        ``ACK_TIMEOUT`` is simply re-sent from the cumulative-ack
        frontier — the durable queue's at-least-once discipline does
        the recovery, no special cases."""
        log = self.log
        peer = channel.peer
        while self._running:
            if conn.closing:
                raise ConnectionResetError("peer %s closed" % peer)
            if channel.reset_owed:
                channel.reset_owed = False
                conn.frames.send(
                    {
                        "type": "peer-reset",
                        "src": self.name,
                        "base": log.base,
                        "frontier": log.assigned,
                    },
                )
            # Clear-before-check: an ack or new append landing during
            # the scan re-sets the event, so the wait below returns
            # immediately instead of stalling a heartbeat interval.
            channel.wakeup.clear()
            now = self.engine.clock()
            if channel.stalled(now, ACK_TIMEOUT, log.frontier(peer)):
                await asyncio.sleep(self.retry_base)
                continue
            if now >= channel.hb_next:
                # Time-based, not idle-only: gossip and the leader's
                # epoch lease ride heartbeats, so they must keep
                # flowing under load.  Jittered per link so a large
                # cluster's probes don't synchronize into bursts (and
                # a synchronized stall into a false-suspicion storm).
                # The reply is parsed off this connection
                # (:meth:`_on_channel_frame`); a lost probe is not an
                # error — the peer just ages toward suspicion.
                conn.frames.send(
                    {"type": "hb", "src": self.name,
                     "gossip": self._gossip_payload()}
                )
                channel.hb_next = (
                    self.engine.clock() + self._heartbeat_jitter()
                )
            if self._send_batches(channel, conn.frames):
                await conn.frames.drain()
                continue
            await channel.wakeup.wait(
                channel.wait_timeout(
                    self.engine.clock(), self.retry_base, ACK_TIMEOUT
                )
            )

    def _send_batches(
        self, channel: PeerChannel, frames: FrameWriter
    ) -> bool:
        """Fetch what the log owes the channel's peer past ``sent_hi``,
        as much as the free window takes, and write the frames the
        channel cuts it into, pre-encoded, into this turn's buffered
        write.  False when nothing was owed.

        Each MSet's payload bytes are forwarded exactly as the log's
        window holds them since the update entered it — the zero
        re-encode relay; re-sends from the log reuse the same bytes.
        """
        first, owed = self.log.pending_after(
            channel.peer, channel.sent_hi, channel.want()
        )
        if not owed:
            return False
        for first, blobs in channel.cut(first, owed, self.engine.clock()):
            frames.write(encode_bin_batch_frame(self.name, first, blobs))
        return True

    def _heartbeat_jitter(self) -> float:
        """Next heartbeat delay: the configured interval +/- 25%,
        drawn from this server's deterministic jitter stream."""
        return self.heartbeat_interval * (0.75 + 0.5 * self._rng.random())

    def _gossip_payload(self) -> Dict[str, Any]:
        """The membership + leadership digest piggybacked on every
        heartbeat and heartbeat reply."""
        table = self.membership.table
        table.update_self(
            frontier=self.log.assigned, applied=self.engine.applied_count,
        )
        return {"nodes": table.wire(), "leader": self.election.wire()}

    def _on_channel_frame(
        self,
        channel: PeerChannel,
        conn: FrameProtocol,
        frame: Dict[str, Any],
    ) -> None:
        """One frame a peer sent back on our channel to it: a
        cumulative ack retires in-flight batches and frees the send
        window, a heartbeat reply refreshes liveness and gossip — in
        the step that parsed it, never blocking the sender."""
        peer = channel.peer
        kind = frame.get("type")
        if kind == "ack":
            self._note_peer_alive(peer)
            seq = int(frame["seq"])
            self._reconcile_ack(channel, seq)
            channel.retire(seq, self.engine.clock())
            self._on_peer_ack(peer, seq)
            channel.wakeup.set()  # window freed: wake the sender
        elif kind == "hb-ack":
            seq = frame.get("seq")
            try:
                if seq is not None and type(seq) is not int:
                    raise ProtocolError("hb-ack seq %r" % (seq,))
                digest = decode_gossip(frame.get("gossip"))
            except ProtocolError:
                self.m_frames_dropped.labels(
                    reason="malformed_heartbeat"
                ).inc()
                conn.close()
                return
            self._note_peer_alive(peer)
            if seq is not None:
                self._reconcile_ack(channel, seq)
            if digest is not None:
                self._merge_gossip(peer, digest)

    def _reconcile_ack(self, channel: PeerChannel, seq: int) -> None:
        """Compare a receiver's durability claim against its cursor.

        Normal operation only ever moves ``seq`` forward.  Two
        anomalies mean one side lost durable state:

        * ``seq`` *above* everything this log ever assigned — the
          receiver durably holds records this replica no longer knows
          it sent, so *this* side regressed (wiped or restored from an
          older image): trigger our own snapshot catch-up.
        * ``seq`` *below* the cumulative ack frontier — the receiver
          regressed.  Rewind the channel to re-send from its log when
          the records survive; when compaction already dropped them,
          flag the sender to emit a ``peer-reset`` frame directing the
          receiver to snapshot catch-up instead.
        """
        log = self.log
        peer = channel.peer
        if seq > log.assigned:
            self._trigger_catchup("regressed-ack", preferred=peer)
            return
        if channel.reset_owed or seq >= log.frontier(peer):
            # Already directed to snapshot catch-up, or not regressed.
            return
        rewound = log.rewind_to(peer, seq)
        self.m_channel_rewinds.labels(peer=peer).inc()
        if rewound:
            # Force the session to restart sending from the rewound
            # frontier instead of waiting out the stall deadline.
            channel.restart(log.frontier(peer))
        else:
            channel.reset_owed = True
        self.trace.event(
            "channel-rewind", peer=peer, seq=seq, resend=rewound
        )
        logger.info(
            "%s: peer %s regressed to seq %d (rewind=%s, lag=%d)",
            self.name, peer, seq, rewound, log.assigned - seq,
        )
        channel.wakeup.set()

    def _on_peer_ack(self, peer: str, seq: int) -> None:
        """A peer durably holds every channel message ``<= seq``
        (cumulative acknowledgement)."""
        released = self.log.ack_through(peer, seq)
        if released:
            # The slowest cursor moved: every peer now holds these
            # local updates.  One cumulative ack can retire a whole
            # send window of them: release their obligations in one
            # engine step, record them at one instant.
            tids = self.engine.fully_acked_many(released)
            self.trace.event_each("update-ack", "tid", tids)
            futures = self._full_ack_futures
            if futures:
                for tid in tids:
                    fut = futures.pop(tid, None)
                    if fut is not None and not fut.done():
                        fut.set_result(True)
            self._notify_drain()

    # -- connection handling ---------------------------------------------------

    def _accept_conn(self) -> FrameProtocol:
        """The listener's protocol factory: one connection, read by
        :meth:`_on_frame`.  Every frame *we* send back on it — JSON
        replies, raw binary acks — goes into one ordered per-turn
        buffer, and a connection whose answers back up is not read
        further: a peer that stopped reading its acks fills TCP flow
        control, not this process."""
        conn = FrameProtocol(
            self._on_frame, self._on_frame_error, throttle_reads=True
        )
        self._conns.add(conn)
        conn.lost.add_done_callback(lambda _: self._conns.discard(conn))
        return conn

    def _on_frame_error(self, exc: ProtocolError) -> None:
        self.m_frames_dropped.labels(reason="protocol_error").inc()

    def _on_frame(self, conn: FrameProtocol, frame: Dict[str, Any]) -> None:
        """One frame a client or peer sent this replica, handled in the
        step that parsed it."""
        kind = frame.get("type")
        if kind == "request":
            rid, verb = frame.get("id"), frame.get("verb")
            try:
                check_request_id(rid)
            except ProtocolError as exc:
                self._reply(None, verb, exc, conn.frames)
                return
            if verb == "update" and not self._waits_beyond_group():
                # Checked, committed and answered by its group, with
                # the rest of the run (:meth:`_commit_group`).
                self._enqueue((rid, frame, conn.frames))
            else:
                self._serve_request(frame, conn.frames)
            return
        # Only ``decode_bin_frame`` yields a tuple of blobs (a JSON
        # array is a list): no JSON frame reaches the inbox.
        blobs = frame.get("blobs")
        if kind == "mset-batch" and isinstance(blobs, tuple):
            try:
                self._on_mset_batch_frame(frame, conn.frames)
            except ProtocolError:
                self.m_frames_dropped.labels(reason="malformed_mset").inc()
                conn.close()
                return
            # A batch is a whole engine step: the connection's next
            # frame waits for the next turn, behind everyone else's.
            conn.hold()
        elif kind == "hb":
            src = str(frame.get("src", ""))
            try:
                digest = decode_gossip(frame.get("gossip"))
            except ProtocolError:
                self.m_frames_dropped.labels(
                    reason="malformed_heartbeat"
                ).inc()
                conn.close()
                return
            self._note_peer_alive(src)
            if digest is not None:
                self._merge_gossip(src, digest)
            reply: Dict[str, Any] = {"type": "hb-ack", "src": self.name}
            inbox = self.inboxes.get(src)
            if inbox is not None and self.recovery.state != SURVEY:
                # Heartbeat replies carry the receiver's inbox frontier
                # so an idle channel still detects a regressed (wiped)
                # receiver — but not during a boot survey: a sender
                # would rewind on it the evidence the survey looks for.
                reply["seq"] = inbox.frontier
            if digest is not None:
                reply["gossip"] = self._gossip_payload()
            conn.frames.send(reply)
        elif kind == "peer-reset":
            # A sender compacted away records we never saw (or holds
            # history from before our cursor existed): the channel
            # alone cannot repair us — snapshot catch-up can.
            src = str(frame.get("src", ""))
            self._note_peer_alive(src)
            self._trigger_catchup("peer-reset", preferred=src)
        elif kind == "peer-hello":
            src = frame.get("src")
            if src:
                self._note_peer_alive(str(src))
        else:
            # Includes the JSON ``mset`` / ``mset-batch`` frames of a
            # mis-versioned peer: refused where it can be seen, nothing
            # recorded, nothing applied.
            self.m_frames_dropped.labels(reason="unknown_frame").inc()
            conn.frames.send(
                {"type": "error", "error": "unknown frame %r" % kind}
            )

    def _on_mset_batch_frame(
        self, frame: Dict[str, Any], frames: FrameWriter
    ) -> None:
        """Receive one (binary) ``mset-batch`` frame from a peer.

        The frame's run of seqs past the inbox frontier is durably
        recorded with one group-commit append and applied in one engine
        step, then acknowledged *cumulatively* with the inbox frontier
        — covering this batch, its duplicate prefix, and anything
        earlier the sender may not know was acked — all in the step
        that parsed the frame.  A run starting past ``frontier + 1``
        (an earlier frame was lost or reordered) records nothing.
        Record and apply are one step, so no snapshot can capture the
        inbox frontier without the batch's engine effects; and the
        connection parses no further frame before the next turn, so a
        fast sender fills TCP flow control rather than the receiver's
        memory.

        Every entry is fully checked *before* anything is durably
        recorded, in the form the engine applies it in
        (:meth:`LiveEngine.decode_remote`: COMMU's checked operation
        arrays, every other method's MSets): a malformed MSet, or a
        blob whose log line would not read back
        (:func:`~repro.live.protocol.decode_batch_msets`, one step
        over the run), must raise ``ProtocolError`` here (dropping the
        connection)
        rather than poison the inbox log, where replay would crash on
        it or cut it, with every acked record after it, as a torn tail.

        The frame arrives with pre-encoded payload ``blobs``; those
        exact bytes are spliced into the inbox log, so the durable
        record is the JSON line the sender's log holds.
        """
        src = frame.get("src", "")
        inbox = self.inboxes.get(src)
        if inbox is None:
            # Unknown peer: the drop is counted and logged, not silent.
            self.m_frames_dropped.labels(reason="unknown_peer").inc()
            logger.debug(
                "%s: dropped mset frame from unknown peer %r",
                self.name, src,
            )
            return
        self._note_peer_alive(src)
        skip = inbox.frontier + 1 - frame["first"]
        if skip >= 0:
            fresh = frame["blobs"][skip:]
        else:
            # The sender's cursor is past what we hold: to a boot
            # survey, evidence of a former life.
            fresh = ()
            self.recovery.evidence(src)
        if fresh:
            batch = self.engine.decode_remote(decode_batch_msets(fresh))
            # Every entry checked (see docstring): now record + apply.
            # The blobs are the receipts frontier + 1 onwards.
            inbox.record_many(blobs=fresh)
            self._resolve_applied(
                self.engine.accept_batch(batch, local=False)
            )
            self._notify_drain()
        # The cumulative ack is a durability claim over everything
        # <= frontier: the sender will move our cursor on receipt.
        # The batch is written but not yet fsynced; it must be before
        # that claim leaves this process, or a crash here would lose
        # it from both ends of the channel.
        inbox.sync()
        frames.write(encode_bin_ack_frame(inbox.frontier))

    def _resolve_applied(self, applied: List[MSet]) -> None:
        """Applying remote MSets can release held-back local ones
        (only ORDUP registers apply futures)."""
        if not self._apply_futures:
            return
        for mset in applied:
            fut = self._apply_futures.pop(mset.tid, None)
            if fut is not None and not fut.done():
                fut.set_result(True)

    # -- drain / settle --------------------------------------------------------

    def _drained(self) -> bool:
        """True when this site has nothing left to propagate or apply:
        every peer has acknowledged every local update, and the engine
        holds no buffered or locked work."""
        return self.log.drained() and self.engine.quiescent()

    def _notify_drain(self) -> None:
        """Wake any ``settle`` waiters; called whenever acks, applies,
        or local commits may have changed the drain condition."""
        if self._settle_waiters:
            for waiter in self._settle_waiters:
                _resolve(waiter)

    async def _drain_changed(self, timeout: float) -> None:
        """Park until :meth:`_notify_drain` runs — the drain condition,
        or the recovery state, may have changed — or ``timeout``
        seconds pass, whichever is first."""
        waiter = self._loop.create_future()
        timer = self._loop.call_later(timeout, _resolve, waiter)
        self._settle_waiters.add(waiter)
        try:
            await waiter
        finally:
            timer.cancel()
            self._settle_waiters.discard(waiter)

    # -- snapshots + compaction ------------------------------------------------

    async def take_snapshot(
        self, kind: str = "manual", compact: bool = True
    ) -> Dict[str, Any]:
        """Persist a checkpoint of the applied state
        (:meth:`Recovery.capture`), then compact the durable logs below
        its frontiers.

        The snapshot file is the commit point: compaction afterwards
        only ever drops records the snapshot provably contains, and a
        crash between the two replays the not-yet-compacted records
        but skips everything at or below the snapshot frontier.
        """
        async with self._snapshot_lock:
            started = self.engine.clock()
            frontiers, size = self.recovery.capture(started)
            dropped = 0
            if compact:
                for label, through, n in self.recovery.compact(frontiers):
                    dropped += n
                    self.trace.event(
                        "compaction", log=label, through=through, dropped=n,
                    )
                self._control.compact()
            duration = self.engine.clock() - started
            self.m_snapshots.labels(kind=kind).inc()
            self.m_snapshot_bytes.observe(size)
            self.m_snapshot_seconds.observe(duration)
            self.trace.event(
                "snapshot",
                trigger=kind,
                bytes=size,
                compacted=dropped,
                duration=round(duration, 6),
            )
            return {
                "bytes": size,
                "frontiers": frontiers,
                "compacted": dropped,
                "duration": duration,
            }

    async def _snapshot_loop(self) -> None:
        """Periodic snapshot + compaction driver."""
        while self._running:
            await asyncio.sleep(self.snapshot_interval)
            if not self._running or self.recovery.state is not None:
                continue
            try:
                await self.take_snapshot(kind="periodic")
            except (OSError, RuntimeError) as exc:
                # A failed snapshot never corrupts state (atomic
                # rename); log compaction just waits for the next one.
                self.m_frames_dropped.labels(reason="snapshot_error").inc()
                logger.warning(
                    "%s: periodic snapshot failed: %r", self.name, exc
                )

    # -- asking peers ---------------------------------------------------------

    async def _peer_request(
        self, peer: str, verb: str, timeout: float = 5.0,
        rid: Optional[int] = None, **params: Any
    ) -> Dict[str, Any]:
        """One request/response exchange with a peer — the one way this
        replica asks a peer anything (order tokens, election votes,
        surveys, snapshot pulls).  Every request to ``peer`` goes over
        one kept-open connection, dialed on first use at the peer's
        configured address, else its gossiped one, and dialed again once
        it closed or the address moved; the reply is matched by frame
        id on that connection only, so a late answer over a connection
        since replaced resolves nothing.  ``rid`` re-sends an earlier
        request under its id.  The reply needs the link back, so a cut
        in either direction refuses the dial and aborts the connection.
        A refusal raises :class:`LiveETFailed`, a lost connection
        ``ConnectionError``, silence ``asyncio.TimeoutError``."""
        addr = self.membership.address(peer)
        if addr is None:
            raise ConnectionError("no route to peer %s" % peer)
        held = self._peer_conns.get(peer)
        if held is None or held[0] != addr or (
            held[1].done() and _dialed(held[1]) is None
        ):
            if held is not None:
                self._hang_up(peer)
            replies: Dict[int, asyncio.Future] = {}
            held = self._peer_conns[peer] = (addr, asyncio.ensure_future(
                _dial_peer(addr, self._link(peer), replies)
            ), replies)
        _, dial, replies = held
        conn = await asyncio.shield(dial)
        frame = None
        if not conn.closing:
            rid = next(self._request_ids) if rid is None else rid
            reply = replies[rid] = self._loop.create_future()
            timer = self._loop.call_later(timeout, _resolve, reply)
            try:
                conn.frames.send(
                    {"type": "request", "id": rid, "verb": verb, **params}
                )
                frame = await reply
            finally:
                timer.cancel()
                replies.pop(rid, None)
        if frame is None:
            if conn.closing:
                raise ConnectionError(
                    "peer %s closed during %s" % (peer, verb)
                )
            raise asyncio.TimeoutError("%s to %s unanswered" % (verb, peer))
        if not frame.get("ok"):
            raise LiveETFailed(
                frame.get("error", "%s failed" % verb), frame.get("code", "")
            )
        self._note_peer_alive(peer)
        return frame

    def _hang_up(self, peer: str) -> None:
        """Forget the connection to ``peer``; abort it once dialed."""
        self._peer_conns.pop(peer)[1].add_done_callback(
            lambda dial: _dialed(dial) and dial.result().abort()
        )

    async def _ask_peers(
        self, verb: str, timeout: float, **params: Any
    ) -> Dict[str, Dict[str, Any]]:
        """Ask every peer at once; return, by peer, the replies of those
        that answered within ``timeout`` — a peer that refused, failed
        or stayed silent is left out."""
        peers = self.peer_names
        replies = await asyncio.gather(
            *(
                self._peer_request(peer, verb, timeout=timeout, **params)
                for peer in peers
            ),
            return_exceptions=True,
        )
        answered: Dict[str, Dict[str, Any]] = {}
        for peer, reply in zip(peers, replies):
            if not isinstance(reply, PEER_FAILURES):
                if isinstance(reply, BaseException):
                    raise reply
                answered[peer] = reply
        return answered

    # -- anti-entropy catch-up -------------------------------------------------

    def _trigger_catchup(
        self, reason: str, preferred: Optional[str] = None
    ) -> None:
        """Enter recovery (:meth:`Recovery.enter`: a trigger while one
        runs is absorbed by it) and start its task."""
        if not self._running or not self.recovery.enter(reason, preferred):
            return
        self.trace.event("catchup", phase="start", reason=reason)
        logger.info("%s: recovery started (%s)", self.name, reason)
        self._spawn(self._catchup(reason))

    def _leave_recovery(self, reason: str) -> None:
        """The running recovery ended, installed or not: admit requests
        again and let the channels, settle waiters and
        :meth:`recovered` go on."""
        self.recovery.leave()
        self.trace.event("catchup", phase="done", reason=reason)
        self._kick_channels()
        self._notify_drain()

    async def _catchup(self, reason: str) -> None:
        """Recover, with retry and backoff: survey the peers until
        :meth:`Recovery.survey` decides, then install the first
        candidate's snapshot :meth:`Recovery.judge` accepts.
        Epsilon-bounded queries keep answering throughout."""
        backoff = self.retry_base
        try:
            while self._running:
                try:
                    source = await self._catchup_round()
                except PEER_FAILURES as exc:
                    self.m_catchup.labels(outcome="retry").inc()
                    logger.debug(
                        "%s: catch-up round failed (%r), retrying",
                        self.name, exc,
                    )
                    await asyncio.sleep(backoff)
                    backoff = min(backoff * 2, self.retry_max)
                    continue
                if source is None:
                    logger.debug(
                        "%s: no peer remembers this site: fresh boot",
                        self.name,
                    )
                    return
                self.m_catchup.labels(outcome="installed").inc()
                self.trace.event(
                    "catchup", phase="installed", source=source,
                )
                logger.info(
                    "%s: catch-up complete (installed snapshot from %s)",
                    self.name, source,
                )
                return
        finally:
            self._leave_recovery(reason)

    async def _catchup_round(self) -> Optional[str]:
        """One attempt: survey the peers, then try the candidates in
        turn.  Returns the source installed from, or None once a boot
        survey has found nothing to recover."""
        plan = self.recovery.survey(await self._ask_peers("stats", 2.0))
        if plan is None:
            return None
        candidates, required = plan
        error: BaseException = ConnectionError("no candidate")
        for source in candidates:
            try:
                verdict = await self._fetch_snapshot(source, required)
            except PEER_FAILURES as exc:
                error = exc
                continue
            if verdict == INSTALL:
                return source
            error = RuntimeError("%s's snapshot is %s" % (source, verdict))
        raise error

    async def _fetch_snapshot(
        self, site: str, required: int = 0,
        addr: Optional[Tuple[str, int]] = None,
    ) -> str:
        """Pull ``site``'s snapshot in chunks, judge it
        (:meth:`Recovery.receive`, :meth:`Recovery.judge`) and install
        it if the verdict is :data:`INSTALL`; return the verdict.

        A mesh peer (rejoin) is asked through :meth:`_peer_request`; a
        shard-migration counterpart — the same-named site of the retired
        owner group, *not* in this replica's peer set — at ``addr``.
        ``fresh=True`` on the first chunk makes the source take a new
        snapshot before serving, so the image reflects its *current*
        frontiers.  An install cancels the in-flight local commit
        futures: their updates are either inside the snapshot (a former
        life this site no longer remembers acking) or refused."""
        ask = (
            functools.partial(self._peer_request, site)
            if addr is None
            else functools.partial(request_once, addr)
        )
        chunks: List[str] = []
        offset = total = 0
        while True:
            reply = await ask(
                "snapshot-fetch",
                timeout=15.0,
                offset=offset,
                fresh=(offset == 0),
            )
            data = str(reply.get("data", ""))
            chunks.append(data)
            offset += len(data)
            total = int(reply.get("total", 0))
            if reply.get("eof") or not data:
                break
        image, frontiers = self.recovery.receive(
            site, "".join(chunks), total
        )
        verdict = self.recovery.judge(frontiers, required)
        if verdict != INSTALL:
            return verdict
        async with self._snapshot_lock:
            size = self.recovery.install(
                frontiers, image, self.engine.clock()
            )
            self.m_snapshots.labels(kind="install").inc()
            self.m_snapshot_bytes.observe(size)
            self._cancel_commit_waiters()
            self.trace.event(
                "catchup",
                phase="install",
                source=site,
                frontiers=dict(frontiers),
            )
        return verdict

    # -- request serving -------------------------------------------------------

    def _serve_request(
        self, frame: Dict[str, Any], frames: FrameWriter
    ) -> None:
        """Answer one request frame :meth:`_on_frame` did not queue for
        the group commit.  A verb handler returns its reply body or a
        coroutine: a body — or a refusal — is answered in the step that
        read the frame, and only a coroutine (a verb that awaits: a
        parked query, an order token, peer acks, a snapshot) is served
        by its own task."""
        rid = frame.get("id")
        verb = frame.get("verb")
        try:
            attr = self._verb_handlers.get(verb)
            handler = getattr(self, attr) if attr is not None else None
            if handler is None:
                raise ValueError("unknown verb %r" % verb)
            body = handler(frame)
        except Exception as exc:  # surfaced to the client, not fatal
            body = exc
        if asyncio.iscoroutine(body):
            task = asyncio.ensure_future(body)
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
            task.add_done_callback(
                functools.partial(self._reply_done, rid, verb, frames)
            )
        else:
            self._reply(rid, verb, body, frames)

    def _reply_done(
        self, rid: Any, verb: Any, frames: FrameWriter, done: asyncio.Future
    ) -> None:
        if done.cancelled():
            return  # the replica is stopping: nobody is answered
        self._reply(rid, verb, done.exception() or done.result(), frames)

    def _count_ok(self, verb: Any, n: int = 1) -> None:
        """Count ``n`` ``verb`` requests answered ok."""
        served = self._m_requests_ok.get(verb)
        if served is None:
            served = self._m_requests_ok[verb] = (
                self.m_requests.labels(verb=verb, outcome="ok")
            )
        served.inc(n)

    def _reply(
        self, rid: Any, verb: Any, body: Any, frames: FrameWriter
    ) -> None:
        """Send one request's response (:meth:`_response`)."""
        frames.write(self._response(rid, verb, body))

    def _response(self, rid: Any, verb: Any, body: Any) -> bytes:
        """One request's response frame, counted: ``body`` is the ok
        reply's fields, or the exception that refused the request."""
        if not isinstance(body, Exception):
            try:
                reply = protocol.encode_frame(
                    {"type": "response", "id": rid, "ok": True, **body}
                )
            except Exception as exc:  # an unencodable body is refused
                body = exc
            else:
                self._count_ok(verb)
                return reply
        self.m_requests.labels(verb=str(verb), outcome="error").inc()
        response = {
            "type": "response",
            "id": rid,
            "ok": False,
            "error": str(body),
            "code": getattr(body, "code", None) or type(body).__name__,
        }
        # Typed errors may carry structured context (WRONG_SHARD ships
        # the newest shard map so the refusal itself is the
        # routing-table refresh).
        extra = getattr(body, "extra", None)
        if isinstance(extra, dict):
            response.update(extra)
        return protocol.encode_frame(response)

    async def _handle_ping(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return {"site": self.name, "method": self.engine.method_name}

    async def _handle_snapshot(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """On-demand snapshot + compaction (operator / CLI verb)."""
        self._admit("snapshot")
        result = await self.take_snapshot(kind="manual")
        del result["duration"]
        return {"snapshot": result}

    async def _handle_snapshot_fetch(
        self, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Serve one chunk of this site's snapshot to a catching-up
        peer.  ``fresh`` forces a new capture first; chunks are byte
        slices of the verified image file as it is (pure ASCII)."""
        self._admit("snapshot-fetch")
        if bool(frame.get("fresh")) or not self.recovery.store.exists():
            await self.take_snapshot(kind="serve")
        data = self.recovery.store.served_bytes()
        if data is None:
            raise Unavailable("no valid snapshot available")
        offset = max(0, int(frame.get("offset", 0)))
        chunk = data[offset:offset + SNAPSHOT_CHUNK]
        return {
            "total": len(data),
            "offset": offset,
            "data": chunk.decode("ascii"),
            "eof": offset + len(chunk) >= len(data),
        }

    # -- sharding --------------------------------------------------------------

    def _adopt_map(self, new_map: Dict[str, Any]) -> None:
        """Remember the newest shard map this replica has been shown.

        Epoch-monotonic: an older map never overwrites a newer one, so
        a straggling orchestration message cannot roll the fence back.
        """
        epoch = int(new_map.get("epoch", 0))
        if self._shard_map is not None and epoch < int(
            self._shard_map.get("epoch", 0)
        ):
            return
        self._shard_map = new_map
        self.shard_epoch = epoch

    async def _handle_shard_retire(
        self, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Fence this replica out of its shard (migration step 1).

        From this response on, every update/query is refused with
        ``WRONG_SHARD`` carrying the epoch-bumped map — no acknowledged
        update can land behind the migration's back.  Idempotent.
        """
        if self.shard_index is None:
            raise ValueError("shard-retire on an unsharded replica")
        new_map = frame.get("map")
        if isinstance(new_map, dict):
            self._adopt_map(new_map)
        self._shard_retired = True
        self.trace.event(
            "shard",
            phase="retire",
            shard=self.shard_index,
            epoch=self.shard_epoch,
        )
        return {"retired": True, "shard": self.shard_index}

    async def _handle_shard_adopt(
        self, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Start accepting the shard at the new epoch (final step)."""
        if self.shard_index is None:
            raise ValueError("shard-adopt on an unsharded replica")
        new_map = frame.get("map")
        if isinstance(new_map, dict):
            self._adopt_map(new_map)
        self._shard_accepting = True
        self.trace.event(
            "shard",
            phase="adopt",
            shard=self.shard_index,
            epoch=self.shard_epoch,
        )
        return {
            "accepting": True,
            "shard": self.shard_index,
            "epoch": self.shard_epoch,
        }

    async def _handle_fetch_install(
        self, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Migration state transfer: pull a fresh snapshot from the
        named counterpart (same site name, old owner group) at
        ``host:port`` and install it.

        Frontier translation is the *identity* because a replacement
        group reuses the source group's site names — the counterpart's
        channel namespace is exactly ours, unlike the rejoin path where
        the source is a different site.  The dominance rule is the
        rejoin's, with no tid floor: the drained source is at or ahead
        of a cold replacement on every channel.  A snapshot at or behind
        local state everywhere is a retry after a completed install and
        is answered as already current.  The transfer is a recovery:
        it runs inside the same state as snapshot catch-up.
        """
        self._admit("fetch-install")
        if (
            self.shard_index is not None
            and self._shard_accepting
            and not self._shard_retired
        ):
            raise ValueError(
                "fetch-install refused: this replica is actively "
                "serving shard %d" % self.shard_index
            )
        host = str(frame.get("host", ""))
        port = int(frame.get("port", 0))
        site = str(frame.get("site", ""))
        if not host or not port or not site:
            raise ValueError("fetch-install needs the source site/host/port")
        # A recovery too, run in this request: no task, no retry.
        self.recovery.enter("fetch-install")
        self.trace.event("catchup", phase="start", reason="fetch-install")
        try:
            verdict = await self._fetch_snapshot(site, addr=(host, port))
            if verdict == CURRENT:
                # Retried after a completed install: local state
                # already covers the snapshot.  Never roll back.
                return {"installed": False, "current": True}
            if verdict != INSTALL:
                raise RuntimeError(
                    "counterpart snapshot and local state diverged; "
                    "refusing install"
                )
            frontiers = dict(self.recovery.image_frontiers)
            return {"installed": True, "frontiers": frontiers}
        finally:
            self._leave_recovery("fetch-install")

    def _refresh_gauges(self) -> None:
        """Bring sampled (pull-model) series up to date for a scrape:
        backlog/staleness/liveness per peer, degraded state, unacked
        updates, and the durable logs' fsync/byte counters."""
        now = self.engine.clock()
        for peer in self.peer_names:
            self.m_channel_backlog.labels(peer=peer).set(
                self.log.backlog(peer)
            )
            seen = self.membership.detector.last_seen(peer)
            if seen is not None:
                self.m_peer_staleness.labels(peer=peer).set(now - seen)
            self.m_peer_alive.labels(peer=peer).set(
                1 if self.membership.alive(peer, now) else 0
            )
        self._check_degraded_transition()
        self.m_membership_size.set(self.membership.table.active_count())
        self.m_updates_owed.set(self.log.assigned - self.log.released_hi)
        self.engine.refresh_gauges()
        for _, label, box in self.recovery.logs() + [
            ("", "control", self._control)
        ]:
            self.m_log_fsync.labels(log=label).set_to(box.fsync_count)
            self.m_log_fsync_seconds.labels(log=label).set_to(
                box.fsync_seconds
            )
            self.m_log_bytes.labels(log=label).set_to(box.bytes_written)
            self.m_log_compactions.labels(log=label).set_to(
                box.compaction_count
            )
            self.m_log_compacted.labels(log=label).set_to(
                box.compacted_records
            )

    async def _handle_metrics(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Expose the registry: Prometheus text plus a JSON mirror.

        One verb serves both formats so a scrape is a single request;
        sampled gauges are refreshed first, so every scrape is a
        consistent point-in-time snapshot.
        """
        self._refresh_gauges()
        return {
            "site": self.name,
            "prometheus": self.registry.render_prometheus(),
            "metrics": self.registry.to_dict(),
            "trace_recorded": self.trace.recorded,
            "trace_dropped": self.trace.dropped,
        }

    async def _handle_values(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return {"values": self.engine.snapshot()}

    async def _handle_stats(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        now = self.engine.clock()
        peers: Dict[str, Dict[str, Any]] = {}
        for peer in self.peer_names:
            seen = self.membership.detector.last_seen(peer)
            channel = self.channels[peer]
            peers[peer] = {
                "alive": self.membership.alive(peer, now),
                "staleness": (
                    None if seen is None else round(now - seen, 4)
                ),
                "backlog": self.log.backlog(peer),
                "failures": channel.failures,
                "ack_high_water": self.log.frontier(peer),
                "acked_msets": channel.acked_msets,
                "ack_ms": channel.ack_ms,
            }
        stats = self.engine.stats()
        stats.update(
            site=self.name,
            peers=peers,
            degraded=self.degraded(),
            outbound_backlog={
                p: peers[p]["backlog"] for p in self.peer_names
            },
            ack_high_water={
                p: peers[p]["ack_high_water"] for p in self.peer_names
            },
            unacked_updates=self.log.assigned - self.log.released_hi,
            drained=self._drained(),
            backlog_limit=self.backlog_limit,
            **self.recovery.stats(now),
        )
        if self.shard_index is not None:
            stats["shard"] = {
                "index": self.shard_index,
                "count": self.shard_count,
                "epoch": self.shard_epoch,
                "accepting": self._shard_accepting,
                "retired": self._shard_retired,
            }
        election = dict(self.election.wire())
        election["order_site"] = self.current_leader()
        election["synced"] = self._epoch_synced
        stats["election"] = election
        stats["membership"] = self.membership.table.wire()
        return {"stats": stats}

    async def _handle_settle(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Block until this site is drained (or ``wait`` seconds pass).

        This is the poll-free replacement for clients hammering the
        ``stats`` verb: a waiter parks one future, resolved by the
        ack/apply/commit paths (:meth:`_notify_drain`), with a short
        safety re-check deadline in case a wake-up is missed across a
        restart.
        """
        timeout = float(frame.get("wait", 30.0))
        deadline = self.engine.clock() + timeout
        waited = False
        while not self._drained():
            waited = True
            remaining = deadline - self.engine.clock()
            if remaining <= 0:
                raise TimeoutError(
                    "settle timed out after %.1fs: backlog %r"
                    % (
                        timeout,
                        {p: self.log.backlog(p) for p in self.peer_names},
                    )
                )
            await self._drain_changed(min(remaining, 0.25))
        self.trace.event("drain", waited=waited)
        return {
            "drained": True,
            "waited": waited,
            "ack_high_water": {
                p: self.log.frontier(p) for p in self.peer_names
            },
        }

    def _handle_order(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Grant the next order token (:meth:`Sequencer.next_order`)."""
        return {"order": list(self._grant(frame.get("src"), frame.get("id")))}

    def _handle_elect(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Vote request (or pure epoch read at ``epoch=0``) from a
        candidate (:meth:`Sequencer.vote`)."""
        epoch = int(frame.get("epoch", 0))
        reply = self.election.vote(epoch, self.engine.max_order_seen())
        if reply["promised"]:
            self.trace.event(
                "election", phase="promise", epoch=epoch,
                candidate=str(frame.get("candidate", "")),
            )
        return reply

    async def _acquire_order(self) -> Tuple[int, int]:
        """Get a token from the cluster's order authority, with retry.

        Re-resolves the current leader on every attempt, so an
        election mid-retry redirects the request instead of hammering
        the dead sequencer; a local lease refusal (leader fenced or
        not yet synced) or a refused or failed request backs off.  An
        unanswered request is re-sent as it is: the order site answers
        a repeated id with the token it already granted."""
        backoff = self.retry_base
        while self._running:
            leader = self.current_leader()
            try:
                if leader == self.name:
                    return self._grant()
                async with self._order_lock:
                    reply = await self._peer_request(
                        leader, "order", timeout=ORDER_RESEND,
                        rid=self._order_id, src=self.name,
                    )
                    self._order_id = next(self._request_ids)
                seq, epoch = reply["order"]
                return (int(seq), int(epoch))
            except asyncio.TimeoutError:
                continue
            except PEER_FAILURES:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, self.retry_max)
        raise ConnectionError("server stopping")

    def _check_shard(self, keys: Sequence[str]) -> None:
        """Refuse work this replica's group does not own.

        A retired group (fenced out by a migration) refuses everything;
        an owning group refuses keys that hash elsewhere; a migration
        target that has not adopted the shard yet refuses with
        ``UNAVAILABLE`` so routers hold their (safe-to-retry) requests
        until the cutover completes.  Unsharded replicas skip all of
        this — ``shard=None`` means the whole keyspace is local.
        """
        if self.shard_index is None:
            return
        if self._shard_retired:
            raise WrongShard(
                "shard %d was migrated away from this group (epoch %d)"
                % (self.shard_index, self.shard_epoch),
                self._shard_map,
            )
        if not self._shard_accepting:
            raise Unavailable(
                "shard %d is migrating onto this group; retry shortly"
                % self.shard_index
            )
        for key in keys:
            owner = key_shard(key, self.shard_count)
            if owner != self.shard_index:
                raise WrongShard(
                    "key %r belongs to shard %d, not %d"
                    % (key, owner, self.shard_index),
                    self._shard_map,
                )

    def _waits_beyond_group(self) -> bool:
        """True when an update request waits beyond its commit group —
        for ORDUP's order token, COMPE's decision or ROWA's peer acks —
        and is served by its own task (:meth:`_handle_update`); else its
        group checks, commits and answers it (:meth:`_commit_group`)."""
        engine = self.engine
        return (
            engine.needs_order
            or self._is_compe
            or engine.sync_commit and bool(self.peer_names)
        )

    def _handle_update(
        self, frame: Dict[str, Any]
    ) -> Awaitable[Dict[str, Any]]:
        """Check an update ET that waits beyond its commit group
        (:meth:`_waits_beyond_group`) in the step that read it; its own
        task then commits it and waits (:meth:`_update_waits`)."""
        saga, abort = frame.get("saga"), bool(frame.get("abort"))
        form = self._update_form(frame.get("ops", ()), saga, abort)
        return self._update_waits(form, saga, abort, self._is_compe)

    def _update_form(self, requested: Any, saga: Any, abort: bool) -> Any:
        """Every check of one update, in the order they refuse — the
        codec's, the request's shape, the shard's, recovery's and the
        backlog's (:meth:`_admit_updates`), the method restriction, the
        saga fields — and the form it commits in: a plain update's
        ``(arrays, keys)`` (:meth:`_plain_keys`) or the maker of its
        MSet.  The codec's pass runs once: an update taken as its MSet
        is decoded as it is checked."""
        plain = self.engine.plain_form and saga is None and not abort
        if plain:
            check_ops(requested)
        else:
            ops = decode_ops(requested)
        if not requested:
            raise ValueError("update without operations")
        if all([data[0] == "read" for data in requested]):
            raise ValueError("update ET must contain a write (use query)")
        if self.shard_index is not None:
            self._check_shard([data[1] for data in requested])
        self._admit_updates(1)
        if plain:
            keys = self._plain_keys(requested)
            if keys is not None:
                return requested, keys
            ops = decode_ops(requested)  # it reads: its MSet
        return self._update_maker(requested, ops, saga, abort)

    def _admit_updates(self, n: int) -> None:
        """Refuse ``n`` updates, each counted, while a recovery runs
        (:meth:`_admit`) or a peer channel's backlog is at its limit:
        refusals that hold for every update of the step."""
        self._admit("update", n)
        if self.backlog_limit:
            worst = max(map(self.log.backlog, self.peer_names), default=0)
            if worst >= self.backlog_limit:
                # Shed write load instead of growing the durable queues
                # without bound while a peer is slow or partitioned.
                self.m_updates_rejected.labels(reason="overloaded").inc(n)
                raise Overloaded(
                    "update refused: channel backlog %d >= limit %d"
                    % (worst, self.backlog_limit)
                )

    def _plain_keys(self, data: Sequence[list]) -> Optional[Tuple[str, ...]]:
        """The keys an update of the plain form
        (:attr:`LiveEngine.plain_form`) writes, in first-write order,
        given its request arrays (``check_ops`` passed them) — it then
        commits as ``(arrays, keys)`` — or None when it reads: it needs
        its MSet.  Writes to distinct keys pass the method restriction
        as they are; the writes of a key written twice are built, those
        alone, for ``validate_update``, which refuses them word for word
        as it would the whole update."""
        keys = {item[1]: None for item in data if item[0] != "read"}
        if len(keys) != len(data):
            if any([item[0] == "read" for item in data]):
                return None
            counts = collections.Counter([item[1] for item in data])
            self.engine.validate_update(
                decode_ops([item for item in data if counts[item[1]] > 1])
            )
        return tuple(keys)

    def _update_maker(
        self, requested: list, ops: Tuple[Any, ...], saga: Any, abort: bool
    ) -> Callable[..., Tuple[MSet, Optional[list]]]:
        """The maker of an update's MSet, from its request arrays and
        their operations, once the method restriction and the saga
        fields passed them."""
        engine = self.engine
        engine.validate_update(ops)
        writes = tuple([op for op in ops if op.is_write_op])
        # The writes' request arrays, validated by ``decode_ops``: the
        # payload carries them rather than a re-encoding of ``writes``.
        encoded_writes = [
            data for data, op in zip(requested, ops) if op.is_write_op
        ]
        read_keys = [op.key for op in ops if op.is_read_op]
        if (saga is not None or abort) and not self._is_compe:
            raise ValueError(
                "saga/abort updates need the COMPE method (got %s)"
                % engine.method_name
            )
        if saga is not None and (not isinstance(saga, str) or not saga):
            raise ValueError("saga id must be a non-empty string")

        info_items = []
        if read_keys:
            info_items.append(("reads", read_keys))
        if saga is not None:
            info_items.append(("saga", saga))
        info = tuple(info_items)

        def make(
            tid: str, order: Optional[Tuple[int, int]]
        ) -> Tuple[MSet, Optional[list]]:
            # The engine owns local MSet construction: RITU stamps the
            # writes with its Lamport clock here, RITU-MV additionally
            # turns the order token into the global transaction number.
            mset = engine.make_mset(tid, writes, order=order, info=info)
            # An engine that kept the operations passed ``writes``
            # through (``tuple`` of a tuple is that tuple); one that
            # rewrote them is encoded here, through the wire module's
            # ``encode_ops`` as it stands at call time (a test counts
            # those calls by swapping it).
            if mset.ops is writes:
                return mset, encoded_writes
            return mset, protocol.encode_ops(mset.ops)

        return make

    async def _update_waits(
        self, form: Any, saga: Optional[str], abort: bool, is_compe: bool
    ) -> Dict[str, Any]:
        """An update that waits beyond its commit group: for an order
        token before it, for its in-order apply, its peers' acks or its
        COMPE decision after it."""
        order = None
        if self.engine.needs_order:
            order = await self._acquire_order()
        tid, _ = await self._commit_local(form, order)

        if self.engine.needs_order:
            # Commit once the update executes at its origin in global
            # order (read-modify-report values are evaluated there).
            fut = self._apply_futures.get(tid)
            if fut is not None:
                await asyncio.wait_for(fut, timeout=COMMIT_TIMEOUT)
        if self.engine.sync_commit and self.peer_names:
            # Synchronous baseline: wait for every peer's durable ack.
            fut = self._full_ack_futures.get(tid)
            if fut is not None:
                await asyncio.wait_for(fut, timeout=COMMIT_TIMEOUT)
        decided: Optional[str] = None
        if is_compe:
            # COMPE commits optimistically; the *decision* is a separate
            # durable MSet.  Outside a saga the origin decides COMMIT
            # immediately; a saga step stays undecided until the saga's
            # ``decide`` verb; ``abort`` exercises backward recovery on
            # the spot (the validation-failure path of the paper).
            if abort:
                await self._emit_decision(tid, "abort")
                self.m_updates_rejected.labels(reason="compensated").inc()
                raise Compensated(
                    "update %s applied optimistically and undone by "
                    "backward recovery (abort requested)" % tid,
                    [tid],
                )
            if saga is None:
                await self._emit_decision(tid, "commit")
                decided = "commit"
        body = {"tid": tid, "values": self.engine.pop_read_results(tid)}
        if decided is not None:
            body["decided"] = decided
        if saga is not None:
            body["saga"] = saga
        return body

    def _commit_local(
        self, form: Any, order: Optional[Tuple[int, int]] = None
    ) -> asyncio.Future:
        """Put one locally originated MSet — an update that waits beyond
        its group, or a COMPE decision — in the stable queues and apply
        it at its origin, as one member of a *group commit*
        (:meth:`_enqueue`).  ``form`` is a plain update's ``(arrays,
        keys)``, logged and applied as they are, or ``make(tid,
        order)``, which builds the MSet from the tid the group gives it
        and returns it with its operations already encoded when it
        holds them (``None`` otherwise).  Returns the member's future,
        which resolves to ``(tid, held)`` — ``held`` says the engine
        held the MSet back instead of applying it now."""
        member = _Member(form, order, self._loop.create_future())
        self._enqueue(member)
        return member.fut

    def _enqueue(self, entry: Any) -> None:
        """Queue one member of the next group commit: an update request
        ``(id, frame, writer)`` as :meth:`_on_frame` cut it, or a
        :class:`_Member`.

        A group is whatever one loop turn delivered; nothing else
        bounds it.  Members join a queue; the first to find no group
        scheduled schedules one ``call_soon`` callback,
        :meth:`_commit_groups`, which leads the group: by the time it
        runs, the rest of the burst that arrived with the first member
        has joined.
        """
        self._commit_queue.append(entry)
        if not self._commit_leader:
            self._commit_leader = True
            self._loop.call_soon(self._commit_groups)

    def _commit_groups(self) -> None:
        """Commit the queued members, group after group
        (:meth:`_commit_group`), in one step."""
        try:
            while self._commit_queue:
                group, self._commit_queue = self._commit_queue, []
                self._commit_group(group)
        finally:
            self._commit_leader = False

    def _commit_group(self, group: List[Any]) -> None:
        """Commit one group.  Its update requests are checked first
        (:meth:`_group_forms`): a refused one is answered its own
        refusal and takes no tid.  A member whose ``order`` token a
        newer leadership epoch fenced is refused alone, *before* any
        append, so it is never client-acked and leaves no gap.  The
        rest are numbered ``log.assigned + 1 ...`` in queue order (the
        log position *is* the tid) and entered in their form — a plain
        update as its request arrays, logged as the blob spliced around
        them (:func:`plain_update_blob`), anything else as its MSet —
        serialised once — the same bytes are the log line and, on a
        binary channel, what every peer is sent — and get their commit
        futures before one :meth:`_commit_entries` logs, syncs and
        applies the group.  The group is one step, so a snapshot never
        captures a frontier whose engine effects it lacks.

        Durability before acknowledgement: a member hears its outcome
        only after its group's ``sync()`` returned, and an exception
        anywhere in the group reaches every member not refused before.
        A future resolves in this step; the requests are answered by
        one :meth:`_answer_requests` per group, scheduled after the
        kick so it runs after the woken senders: the batch frames are
        written first, and no reply leaves a turn ahead of them.

        Obligations before releases: ``append_many`` shows the records
        to a channel sender that is already awake, so a peer's ack for
        them can be on its way before the group has been applied.
        Nothing suspends between the append and the group's one
        ``accept_batch`` (every engine mutator is a plain method), so
        the group's obligations are raised before the loop can run
        any ``fully_acked_many`` those acks bring.  A suspension in
        between lets an ack release an obligation before it was
        raised; it is then held forever, and ``settle`` hangs.
        """
        engine, name = self.engine, self.name
        await_apply = engine.needs_order
        await_acks = engine.sync_commit and bool(self.peer_names)
        # Per entry: a request's form, then its outcome — its refusal,
        # a plain update's seq or another's reply fields — or a member.
        outcomes = self._group_forms(group)
        try:
            seq = self.log.assigned
            entries, blobs = [], []
            # (tid, keys) of every member, and of its updates.
            pairs, updates = [], []
            # (position, tid) of each request made into its MSet, and
            # (member, tid) of each awaited member.
            made, members = [], []
            for at, form in enumerate(outcomes):
                token = member = None
                if type(form) is tuple:
                    pass  # a plain update request
                elif type(form) is _Member:
                    member = form
                    fut, token, form = form.fut, form.order, form.form
                    if fut.done():
                        continue  # the replica stopped under it
                    if token is not None and self._fenced(token):
                        fut.set_exception(
                            Unavailable(
                                "order token %r fenced by a newer "
                                "leadership epoch" % (list(token),)
                            )
                        )
                        continue
                elif isinstance(form, Exception):
                    continue  # refused: answered its refusal
                seq += 1
                tid = "%s:%d" % (name, seq)
                if type(form) is tuple:
                    ops, keys = form
                    entries.append((tid, ops, keys))
                    blobs.append(plain_update_blob(name, seq, ops))
                    updates.append((tid, keys))
                    if member is None:
                        outcomes[at] = seq  # its reply, spliced
                else:
                    mset, encoded = form(tid, token)
                    keys = mset.keys
                    entries.append(mset)
                    blobs.append(
                        payload_blob({"mset": encode_mset(mset, encoded)})
                    )
                    if mset.kind == MSetKind.UPDATE:
                        updates.append((tid, keys))
                if await_apply:
                    self._apply_futures[tid] = self._loop.create_future()
                if await_acks:
                    self._full_ack_futures[tid] = self._loop.create_future()
                if member is not None:
                    members.append((member, tid))
                elif type(form) is not tuple:
                    made.append((at, tid))
                pairs.append((tid, keys))
            if entries:
                applied = self._commit_entries(entries, blobs, pairs, updates)
                # The members the engine held back instead of applying
                # now: none when it applied every entry (always under
                # COMMU and ROWA).
                held = frozenset() if applied == entries else {
                    tid for tid, _ in pairs
                }.difference(
                    e[0] if type(e) is tuple else e.tid for e in applied
                )
                self.trace.event_rows(
                    "update-apply", ("tid", "held"),
                    ((tid, tid in held) for tid, _ in updates),
                )
                for member, tid in members:
                    if not member.fut.done():
                        member.fut.set_result((tid, tid in held))
                for at, tid in made:
                    outcomes[at] = {
                        "tid": tid, "values": engine.pop_read_results(tid)
                    }
        except Exception as exc:
            # Whatever stopped the group stops every member of it not
            # refused before; the next group still runs.
            for at, entry in enumerate(group):
                if type(entry) is tuple:
                    if not isinstance(outcomes[at], Exception):
                        outcomes[at] = exc
                elif not entry.fut.done():
                    entry.fut.set_exception(exc)
        self._loop.call_soon(self._answer_requests, group, outcomes)

    def _group_forms(self, group: List[Any]) -> List[Any]:
        """Each queued entry's form, in queue order: a request's — its
        plain ``(arrays, keys)``, the maker of its MSet, or the
        exception that refused it — and a member as it is.

        A run of plain update requests (an engine of the plain form, no
        saga or abort field) is checked as one: one codec pass over its
        arrays, each one's keys (:meth:`_plain_keys`), then the shard's
        check over all their keys and :meth:`_admit_updates` once.  A
        request the run's check cannot pass as it is — its arrays fail
        the codec, it writes nothing, it reads, the method restriction
        refuses the writes of a key it writes twice, the shard refuses
        a key of the run — is checked alone (:meth:`_update_form`), so
        each refusal keeps its class and text; a refusal that holds for
        every update of the step refuses the whole run."""
        forms: List[Any] = []
        run: List[int] = []
        plain = self.engine.plain_form
        for entry in group:
            if type(entry) is tuple:
                frame = entry[1]
                if plain and "saga" not in frame and "abort" not in frame:
                    run.append(len(forms))
                    forms.append(frame.get("ops", ()))
                    continue
                entry = self._checked_form(frame)
            forms.append(entry)
        if not run:
            return forms
        try:
            check_ops_many([forms[at] for at in run])
        except ProtocolError:
            # A bad one among them: the rest stay the run.
            passed = []
            for at in run:
                try:
                    check_ops(forms[at])
                    passed.append(at)
                except ProtocolError:
                    forms[at] = self._checked_form(group[at][1])
            run = passed
        keyed = []
        plain_keys = self._plain_keys
        for at in run:
            ops = forms[at]
            try:
                keys = plain_keys(ops)
            except Exception:
                keys = None
            if keys:
                forms[at] = (ops, keys)
                keyed.append(at)
            else:
                forms[at] = self._checked_form(group[at][1])
        if not keyed:
            return forms
        if self.shard_index is not None:
            try:
                self._check_shard([k for at in keyed for k in forms[at][1]])
            except Exception:
                for at in keyed:
                    forms[at] = self._checked_form(group[at][1])
                return forms
        try:
            self._admit_updates(len(keyed))
        except Exception as exc:
            for at in keyed:
                forms[at] = exc
        return forms

    def _checked_form(self, frame: Dict[str, Any]) -> Any:
        """:meth:`_update_form` of one update request, or the exception
        that refused it — without its traceback, whose frames would
        hold the exception in a cycle only the collector frees."""
        try:
            ops, saga = frame.get("ops", ()), frame.get("saga")
            return self._update_form(ops, saga, bool(frame.get("abort")))
        except Exception as exc:
            return exc.with_traceback(None)

    def _commit_entries(
        self,
        entries: List[Any],
        blobs: List[bytes],
        pairs: List[Tuple[str, Tuple[str, ...]]],
        updates: List[Tuple[str, Tuple[str, ...]]],
    ) -> List[Any]:
        """The durable half of a group, numbered: one ``append_many`` of
        its blobs, handed each member's ``(tid, keys)`` in ``pairs`` as
        its record's release, one ``sync()``, one ``accept_batch`` of
        its ``entries``, one kick of the channel senders and one drain
        notification, in one step.  ``updates``: the pairs of its
        updates, for the ``update-submit`` rows.  Returns the entries
        the engine applied now."""
        engine = self.engine
        self.trace.event_rows("update-submit", ("tid", "keys"), updates)
        self.log.append_many(None, blobs=blobs, releases=pairs)
        self.log.sync()
        applied = engine.accept_batch(entries, local=True)
        self._resolve_applied(applied)
        self._kick_channels()
        if not self.peer_names:
            engine.fully_acked_many(pairs)
        self.m_commit_group.observe(len(entries))
        self._notify_drain()
        return applied

    def _answer_requests(self, group: List[Any], outcomes: List[Any]) -> None:
        """Answer a group's requests in queue order (after :meth:`stop`,
        no one): each connection with one write of its replies — a
        committed plain update's as the frame :func:`plain_reply_frame`
        splices — and the spliced ones with one count."""
        if not self._running:
            return
        name = self.name
        replies: Dict[FrameWriter, List[bytes]] = {}
        spliced = 0
        for entry, outcome in zip(group, outcomes):
            if type(entry) is not tuple:
                continue  # a member: its future is resolved
            rid, _, frames = entry
            if type(outcome) is int:
                try:
                    reply = plain_reply_frame(rid, name, outcome)
                except Exception:  # an id it does not splice
                    reply = self._response(rid, "update", {
                        "tid": "%s:%d" % (name, outcome), "values": {},
                    })
                else:
                    spliced += 1
            else:
                reply = self._response(rid, "update", outcome)
            held = replies.get(frames)
            if held is None:
                replies[frames] = [reply]
            else:
                held.append(reply)
        for frames, held in replies.items():
            frames.write(b"".join(held))
        if spliced:
            self._count_ok("update", spliced)

    def _fenced(self, order: Tuple[int, int]) -> bool:
        """True (and counted) when the leader that granted ``order``
        was deposed between the grant and our durable record."""
        if self.engine.order_admissible(order):
            return False
        self.m_updates_rejected.labels(reason="fenced").inc()
        return True

    async def _emit_decision(self, target: str, outcome: str) -> str:
        """Originate a durable decision MSet for ``target``.

        Decisions travel the same durable path as updates but under a
        *fresh* tid with ``info=(("decides", target),)``: the log
        position *is* the tid, and the update keeps its own.  The
        origin emits both the update and its decision through the same
        log — the decision is only submitted once its update's group
        has committed, so it is in a later one — and every replica
        sees update-before-decision: a decision can never arrive for
        an update it has not logged.
        """
        kind = MSetKind.ABORT if outcome == "abort" else MSetKind.COMMIT

        def make(tid: str, order: None) -> Tuple[MSet, Optional[list]]:
            self.trace.event(
                "decision-submit", tid=tid, decides=target, outcome=outcome
            )
            mset = MSet(
                tid, kind, (), origin=self.name, info=(("decides", target),)
            )
            return mset, None

        tid, _ = await self._commit_local(make)
        return tid

    async def _handle_decide(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Decide a saga (or an explicit tid list) commit or abort.

        ``{"saga": S}`` resolves to the saga's member tids in submission
        order; an abort decides them in *reverse* submission order — the
        saga pattern's backward recovery.  Already-decided tids are
        skipped (the first decision is final), which makes retrying a
        partially delivered decide idempotent.
        """
        if not self._is_compe:
            raise ValueError(
                "decide needs the COMPE method (got %s)"
                % self.engine.method_name
            )
        outcome = frame.get("outcome")
        if outcome not in ("commit", "abort"):
            raise ValueError("decide outcome must be 'commit' or 'abort'")
        self._admit("decide")
        saga = frame.get("saga")
        tids = frame.get("tids")
        if saga is not None:
            targets = self.engine.saga_members(saga)
            if not targets:
                raise ValueError(
                    "unknown saga %r (no recorded steps here)" % (saga,)
                )
        elif tids:
            targets = [str(t) for t in tids]
        else:
            raise ValueError("decide needs a 'saga' id or a 'tids' list")
        if outcome == "abort":
            targets = list(reversed(targets))
        decided: List[str] = []
        skipped: List[Dict[str, Any]] = []
        for target in targets:
            prior = self.engine.decision_of(target)
            if prior is not None:
                skipped.append({"tid": target, "outcome": prior})
                continue
            await self._emit_decision(target, outcome)
            decided.append(target)
        body: Dict[str, Any] = {
            "outcome": outcome,
            "decided": decided,
            "skipped": skipped,
        }
        if outcome == "abort":
            body["compensated"] = list(decided)
        if saga is not None:
            body["saga"] = saga
        return body

    def _check_session(self, token: Any) -> None:
        """Refuse a session read this replica cannot serve honestly.

        The token carries per-site frontiers; every site this replica
        replicates (itself or a peer channel) must have caught up to
        its entry.  Sites the replica does not know (another shard's
        group, under the router) are not its partition to check and
        are skipped — their owning group checks them.
        """
        if not isinstance(token, dict) or not token:
            return
        frontiers = self.recovery.frontiers(self.name)
        lagging: Dict[str, int] = {}
        for site, seq in token.items():
            try:
                need = int(seq)
            except (TypeError, ValueError):
                continue
            have = frontiers.get(str(site))
            if have is not None and have < need:
                lagging[str(site)] = need - have
        if lagging:
            self.m_session_stale.inc()
            self.trace.event("session-stale", lagging=lagging)
            raise SessionStale(
                "session read refused: applied frontiers lag the token by %r"
                % (lagging,),
                frontiers,
            )

    def _handle_query(
        self, frame: Dict[str, Any]
    ) -> Union[Dict[str, Any], Awaitable[Dict[str, Any]]]:
        """Serve one query ET: its reply body when the engine answers it
        in this step (:meth:`LiveEngine.read_now`), else an awaitable of
        the body — the query parks on its keys."""
        keys = frame.get("keys")
        if not keys or not all(isinstance(k, str) for k in keys):
            raise ValueError("query needs a list of string keys")
        self._check_shard(keys)
        spec = decode_spec(frame.get("spec"))
        self._check_session(frame.get("session"))
        self.trace.event(
            "read",
            ("keys", "strict", "session"),
            len(keys),
            spec.is_strict,
            bool(frame.get("session")),
        )
        if spec.is_strict and self.peer_names:
            self._check_strict()
        outcome = self.engine.read_now(keys, spec)
        if outcome is None:
            return self._await_query(keys, spec)
        return self._query_reply(outcome, spec)

    async def _await_query(
        self, keys: List[str], spec: EpsilonSpec
    ) -> Dict[str, Any]:
        try:
            outcome = await self.engine.query(
                keys, spec, timeout=QUERY_TIMEOUT
            )
        except QueryTimeout as exc:
            raise QueryTimeout(str(exc)) from None
        return self._query_reply(outcome, spec)

    def _query_reply(
        self, outcome: QueryOutcome, spec: EpsilonSpec
    ) -> Dict[str, Any]:
        self.engine.note_query_outcome(outcome, spec)
        frontiers = self.recovery.frontiers(self.name)
        return {
            "values": outcome.values,
            "inconsistency": outcome.inconsistency,
            "overlap": list(outcome.overlap),
            "waits": outcome.waits,
            "degraded": self.degraded(),
            "served_by": self.name,
            "frontiers": frontiers,
            # How far behind the group this replica can prove it is,
            # in update counts (gossiped own-update frontiers vs what
            # has actually been received here).
            "staleness": self.membership.table.frontier_lag(frontiers),
        }

    def _check_strict(self) -> None:
        """Refuse an ``epsilon = 0`` query while a recovery runs or in
        degraded mode.

        A strict query must reflect full replica agreement; while a
        peer is suspected that agreement cannot be reached (COMMU's
        lock counters stay raised, ORDUP's order stream may be ahead
        elsewhere), so the honest answer is a typed ``UNAVAILABLE``
        at once — not a silent hang until the query timeout.  A strict
        query already parked when the partition starts is failed by
        :meth:`_check_degraded_transition`.
        """
        self._admit("epsilon=0 query")
        if self.degraded():
            raise Unavailable(
                "epsilon=0 query refused: peers %s suspected"
                % ",".join(self.membership.suspected(self.engine.clock()))
            )
