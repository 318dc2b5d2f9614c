"""Async concurrent client for live replica servers.

Mirrors the simulator's :class:`repro.client.Client` facade — issue
epsilon-transactions with an inconsistency budget, get plain values
back — but over a real socket, with request pipelining: many
coroutines can share one :class:`LiveClient`, and responses are
matched to requests by id, so concurrent ETs genuinely overlap on the
wire.

Reads take the typed consistency surface from
:mod:`repro.consistency`::

    client = await LiveClient.connect("127.0.0.1", 7000)
    await client.increment("balance", 100)
    value = await client.read("balance", Consistency.BOUNDED(2))
    strict = await client.read("balance", Consistency.STRICT)
    await client.close()

Read scaling (see docs/LIVE.md "Read scaling & session guarantees"):

* ``cache=`` installs an :class:`~repro.live.read_cache.EpsilonReadCache`
  — non-strict reads are served client-side while their accumulated
  inconsistency-import estimate stays under the budget; own writes
  invalidate their keys.
* ``fan_out=True`` spreads non-strict reads across the replicas the
  client has learned from gossiped membership, weighted by
  applied-frontier lag (a lagging replica gets proportionally less
  read traffic, and is skipped entirely while its lag exceeds the
  read's budget).  Strict (``epsilon = 0``) reads always pin to the
  primary.  Per-read ``ReadOptions(prefer=...)`` overrides the policy.
* ``client.session()`` opens a :class:`LiveSession` enforcing
  read-your-writes + monotonic reads via a session token checked
  server-side; a ``SESSION_STALE`` refusal is retried at a fresher
  replica automatically.

Robustness: requests take a per-request ``timeout``; a broken
connection is redialed automatically with jittered exponential
backoff (``BACKOFF_BASE`` doubling up to ``BACKOFF_MAX``), optionally
failing over across a list of replica addresses.  Idempotent verbs
(``_IDEMPOTENT_VERBS``) are retried transparently after a reconnect;
updates are never retried — a timed-out update may still have
committed, and blind re-submission would double-apply it.

Primary preference: after failing over, the client does not stick to
the failover replica forever — every ``PRIMARY_RETRY_INTERVAL``
seconds an idle moment re-probes the primary address and rehomes the
connection when it answers, so a recovered replica wins its clients
back without manual intervention.

Failover::

    client = await LiveClient.connect(
        "127.0.0.1", 7000,
        failover=[("127.0.0.1", 7001), ("127.0.0.1", 7002)],
        request_timeout=5.0,
    )
"""

from __future__ import annotations

import asyncio
import itertools
import random
from collections.abc import Mapping
from dataclasses import replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..consistency import (
    AsyncVerbs,
    CACHED,
    Consistency,
    ReadOptions,
    SessionToken,
    query_keys,
    query_options,
)
from ..core.operations import Operation
from ..core.transactions import EpsilonSpec, UNLIMITED
from ..errors import ETError, SESSION_STALE
from ..obs.registry import NULL_REGISTRY, Registry
from .protocol import (
    FrameProtocol,
    connect_frames,
    encode_ops,
    encode_spec,
)
from .read_cache import EpsilonReadCache

__all__ = [
    "LiveClient",
    "LiveETFailed",
    "LiveETResult",
    "LiveSession",
    "RequestTimeout",
    "request_once",
]

#: verbs that are safe to re-issue after a reconnect.
_IDEMPOTENT_VERBS = frozenset(
    {
        "query", "values", "stats", "ping", "order", "settle",
        "metrics", "snapshot", "snapshot-fetch",
        # ``decide`` is safe to re-issue: the first decision a tid sees
        # is final, so a replayed decide skips already-decided tids.
        "decide",
    }
)

#: membership statuses a fan-out read may be routed to.
_ROUTABLE_STATUSES = frozenset({"alive"})

#: redial backoff: full jitter under ``BACKOFF_BASE * 2**attempt``,
#: capped at ``BACKOFF_MAX`` (seconds).
BACKOFF_BASE = 0.05
BACKOFF_MAX = 1.0
#: seconds between probes of the primary address while failed over
#: to a secondary.
PRIMARY_RETRY_INTERVAL = 5.0
#: seconds between membership refreshes while fanning out reads.
FAN_OUT_REFRESH = 1.0
#: how long a read with no timeout retries SESSION_STALE refusals (at
#: fresher replicas, then waiting out propagation) before surfacing.
SESSION_RETRY_WAIT = 5.0


class LiveETFailed(ETError):
    """Raised when the server reports an ET failure.

    Shares :class:`repro.errors.ETError` with the simulator's
    ``ETFailed``; ``code`` carries the server's typed error code —
    ``"UNAVAILABLE"`` means the replica honestly refused an
    ``epsilon = 0`` request while partitioned from its peers (retry
    with a relaxed budget or at another replica).

    ``frame`` is the raw error response, kept because typed refusals
    can carry structured context past the message — a ``WRONG_SHARD``
    refusal ships the newest shard map under ``frame["map"]``, a
    ``SESSION_STALE`` refusal ships the replica's current frontier
    vector under ``frame["frontiers"]``, and a ``COMPENSATED`` failure
    ships the tids COMPE's backward recovery undid under
    ``frame["compensated"]`` (also available as
    :attr:`compensated_tids`).
    """

    def __init__(
        self,
        message: str,
        code: str = "",
        frame: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message, code)
        self.frame: Dict[str, Any] = frame or {}

    @property
    def compensated_tids(self) -> Tuple[str, ...]:
        """Tids undone by backward recovery (COMPENSATED failures)."""
        return tuple(self.frame.get("compensated", ()))


class LiveETResult(Mapping):
    """Typed outcome of a live query ET.

    Attribute access mirrors the simulator's ``ETResult`` (``values``,
    ``inconsistency``, ``overlap``, ``waits``) plus the live-only
    fields: ``degraded``, ``staleness`` (the serving replica's — or
    cache entry's — provable lag behind the group, in update counts),
    ``served_by`` (which replica answered), ``from_cache``, and
    ``compensated`` (tids of COMPE updates whose effects were undone by
    backward recovery, when the serving backend reports them).
    ``Mapping`` access (``result["values"]``) keeps existing
    dict-style callers working unchanged; the raw per-site applied
    frontier vector stays available as the ``frontiers`` attribute.
    """

    __slots__ = (
        "values", "inconsistency", "overlap", "waits", "degraded",
        "staleness", "served_by", "from_cache", "frontiers",
        "compensated",
    )

    def __init__(self, frame: Dict[str, Any]) -> None:
        self.values: Dict[str, Any] = dict(frame.get("values", {}))
        self.inconsistency: float = frame.get("inconsistency", 0)
        self.overlap: Tuple[str, ...] = tuple(frame.get("overlap", ()))
        self.waits: int = frame.get("waits", 0)
        #: True when the serving replica suspected a peer at answer time.
        self.degraded: bool = bool(frame.get("degraded", False))
        #: provable lag of the answer behind the group, update counts.
        self.staleness: Optional[float] = frame.get("staleness")
        #: site name of the serving replica (None when unknown).
        self.served_by: Optional[str] = frame.get("served_by")
        #: True when the client cache served this read.
        self.from_cache: bool = bool(frame.get("from_cache", False))
        #: per-site applied frontier vector at serve time.
        self.frontiers: Dict[str, int] = dict(frame.get("frontiers", {}))
        #: tids undone by COMPE backward recovery (usually empty).
        self.compensated: Tuple[str, ...] = tuple(
            frame.get("compensated", ())
        )

    def _as_dict(self) -> Dict[str, Any]:
        return {
            "values": self.values,
            "inconsistency": self.inconsistency,
            "overlap": list(self.overlap),
            "waits": self.waits,
            "degraded": self.degraded,
            "staleness": self.staleness,
            "served_by": self.served_by,
            "from_cache": self.from_cache,
            "compensated": list(self.compensated),
        }

    def __getitem__(self, key: str) -> Any:
        return self._as_dict()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._as_dict())

    def __len__(self) -> int:
        return len(self._as_dict())

    def __repr__(self) -> str:
        return "LiveETResult(%r)" % (self._as_dict(),)


class RequestTimeout(ConnectionError):
    """A request exceeded its client-side deadline.  The request may
    or may not have executed at the server."""


def _expire(fut: asyncio.Future, verb: str, timeout: float) -> None:
    """A request's deadline passed: its waiter fails, unless answered."""
    if not fut.done():
        fut.set_exception(
            RequestTimeout("%s request exceeded %.3fs" % (verb, timeout))
        )


async def request_once(
    addr: Tuple[str, int], verb: str, timeout: float = 5.0,
    link: Any = None, **fields: Any,
) -> Dict[str, Any]:
    """One request/response exchange on a fresh connection to a replica.

    The out-of-band path — migration orchestration, a migration target
    pulling from its counterpart, an admin command — where pipelining,
    reconnects and failover buy nothing.  (A replica asks its mesh
    peers over kept-open connections instead.)  A refusal raises
    :class:`LiveETFailed` with the server's code; a connection closed
    before the reply raises ``ConnectionError``.  ``link`` is handed to
    :func:`connect_frames`.
    """
    answer: "asyncio.Future[Optional[Dict[str, Any]]]" = (
        asyncio.get_running_loop().create_future()
    )

    def on_frame(conn: FrameProtocol, frame: Optional[Dict[str, Any]]) -> None:
        if not answer.done():
            answer.set_result(frame)

    conn = await connect_frames(addr, on_frame, link)
    conn.lost.add_done_callback(lambda _: on_frame(conn, None))
    try:
        conn.frames.send({"type": "request", "id": 1, "verb": verb, **fields})
        reply = await asyncio.wait_for(answer, timeout=timeout)
    finally:
        conn.close()
        await conn.wait_closed()
    if reply is None:
        raise ConnectionError(
            "replica %s:%d closed during %s" % (addr[0], addr[1], verb)
        )
    if not reply.get("ok"):
        raise LiveETFailed(
            reply.get("error", "%s failed" % verb), reply.get("code", "")
        )
    return reply


class LiveClient(AsyncVerbs):
    """A pipelined client connection to one replica server.

    ``write``/``increment``/``decrement``/``append`` and
    ``read``/``read_many`` come from
    :class:`~repro.consistency.AsyncVerbs`, over :meth:`update` and
    :meth:`query`."""

    def __init__(
        self,
        addrs: Sequence[Tuple[str, int]],
        request_timeout: Optional[float] = None,
        reconnect: bool = True,
        max_attempts: int = 4,
        rng: Optional[random.Random] = None,
        cache: Union[EpsilonReadCache, bool, None] = None,
        fan_out: bool = False,
        registry: Optional[Registry] = None,
    ) -> None:
        if not addrs:
            raise ValueError("LiveClient needs at least one address")
        self._addrs: List[Tuple[str, int]] = [
            (host, int(port)) for host, port in addrs
        ]
        self._request_timeout = request_timeout
        self._reconnect = reconnect
        self._max_attempts = max(1, max_attempts)
        self._rng = rng if rng is not None else random.Random()
        #: the live connection; its responses resolve ``_waiting``.
        self._conn: Optional[FrameProtocol] = None
        self._ids = itertools.count(1)
        self._waiting: Dict[int, asyncio.Future] = {}
        self._dial_lock = asyncio.Lock()
        self._closed = False
        #: True once a connection was attached (the next is a redial).
        self._dialed = False
        #: observability: completed redials since construction.
        self.reconnects = 0
        #: index into the address list of the live connection (0 is
        #: the primary).
        self._active_index = 0
        self._last_primary_probe = 0.0
        #: observability: times the client moved back to the primary.
        self.rehomes = 0
        #: observability: failover-list refreshes from gossiped
        #: membership (stats replies carry the table).
        self.membership_refreshes = 0

        # -- read scaling -----------------------------------------------------
        self.registry = registry if registry is not None else NULL_REGISTRY
        if cache is True:
            cache = EpsilonReadCache(registry=self.registry)
        self.cache: Optional[EpsilonReadCache] = (
            cache if isinstance(cache, EpsilonReadCache) else None
        )
        #: spread non-strict reads across gossip-discovered replicas.
        self._fan_out = bool(fan_out)
        #: site name -> {"addr", "applied", "frontier", "status"},
        #: learned from gossiped membership on stats replies.
        self._replicas: Dict[str, Dict[str, Any]] = {}
        #: the fan-out draw over ``_replicas`` — (addresses, cumulative
        #: lag weights) — built on first use after a membership refresh.
        self._fan_out_draw: Optional[
            Tuple[List[Tuple[str, int]], List[float]]
        ] = None
        self._last_replica_refresh = 0.0
        #: per-address secondary connections used by read fan-out.
        self._pool: Dict[Tuple[str, int], LiveClient] = {}
        #: everything the client has *proved* exists: the max applied
        #: frontier vector over all responses received so far (the
        #: evidence base for cache import estimates).
        self.known_frontiers: Dict[str, int] = {}
        #: observability: reads that hit a SESSION_STALE refusal.
        self.session_stale_retries = 0
        self.m_reads_by_replica = self.registry.counter(
            "reads_by_replica_total",
            "query ETs issued by this client, by serving replica",
            labels=("replica",),
        )
        #: replica -> its ``reads_by_replica_total`` child, bound once.
        self._m_reads_by: Dict[str, Any] = {}
        self.m_session_stale = self.registry.counter(
            "session_stale_total",
            "SESSION_STALE refusals this client retried",
        )

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        failover: Sequence[Tuple[str, int]] = (),
        **options: Any,
    ) -> "LiveClient":
        """Dial the primary address (``failover`` addresses are used
        when redialing after a connection failure)."""
        client = cls([(host, port)] + list(failover), **options)
        await client._ensure_connected()
        return client

    @property
    def connected(self) -> bool:
        return self._conn is not None and not self._conn.closing

    # -- connection management -----------------------------------------------

    async def _ensure_connected(self) -> None:
        if self._closed:
            raise ConnectionError("client is closed")
        if self.connected:
            await self._maybe_rehome()
            return
        async with self._dial_lock:
            if self._closed:
                raise ConnectionError("client is closed")
            if self.connected:
                return
            await self._dial()

    async def _maybe_rehome(self) -> None:
        """While failed over, periodically probe the primary address
        and move the connection back when it answers.

        The swap happens only while no responses are outstanding (a
        request still in the turn's write buffer is outstanding too),
        so no in-flight request can be failed by it — at worst the
        probe is skipped and retried on a later idle moment.
        """
        if self._active_index == 0 or len(self._addrs) < 2:
            return
        now = asyncio.get_event_loop().time()
        if now - self._last_primary_probe < PRIMARY_RETRY_INTERVAL:
            return
        self._last_primary_probe = now
        try:
            conn = await connect_frames(self._addrs[0], self._on_response)
        except (OSError, ConnectionError):
            return  # primary still down: stay failed over
        if self._waiting or not self.connected or self._closed:
            conn.close()  # a bad moment to swap; try again later
            return
        self._teardown_connection()
        self._attach(conn, 0)
        self.rehomes += 1

    async def _dial(self) -> None:
        """Try each address with jittered exponential backoff."""
        redial = self._dialed
        self._teardown_connection()
        last_error: Optional[BaseException] = None
        for attempt in range(self._max_attempts):
            for index, addr in enumerate(self._addrs):
                if self._closed:
                    raise ConnectionError("client is closed")
                try:
                    conn = await connect_frames(addr, self._on_response)
                except (OSError, ConnectionError) as exc:
                    last_error = exc
                    continue
                self._attach(conn, index)
                if redial:
                    self.reconnects += 1
                return
            if attempt < self._max_attempts - 1:
                await asyncio.sleep(self._backoff(attempt))
        raise ConnectionError(
            "could not reach any of %r: %s" % (self._addrs, last_error)
        )

    def _attach(self, conn: FrameProtocol, index: int) -> None:
        """Make an open connection to ``_addrs[index]`` the live one."""
        self._conn = conn
        self._active_index = index
        self._dialed = True
        conn.lost.add_done_callback(lambda _: self._on_lost(conn))

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with full jitter (decorrelates a herd
        of clients redialing a recovering replica)."""
        ceiling = min(BACKOFF_BASE * (2 ** attempt), BACKOFF_MAX)
        return self._rng.uniform(0, ceiling)

    def _teardown_connection(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()
        self._fail_waiting(ConnectionError("connection lost"))

    def _fail_waiting(self, error: Exception) -> None:
        for fut in self._waiting.values():
            if not fut.done():
                fut.set_exception(error)
        self._waiting.clear()

    def _on_response(self, conn: FrameProtocol, frame: Dict[str, Any]) -> None:
        """A response, in the step that parsed it: its request's future
        resolves."""
        fut = self._waiting.pop(frame.get("id"), None)
        if fut is not None and not fut.done():
            fut.set_result(frame)

    def _on_lost(self, conn: FrameProtocol) -> None:
        if self._conn is conn:
            # Mark the connection dead so the next request redials
            # instead of writing into a half-closed socket.
            self._conn = None
            self._fail_waiting(ConnectionError("server connection closed"))

    # -- requests ------------------------------------------------------------

    async def request(
        self,
        verb: str,
        timeout: Optional[float] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Send one request; await and unwrap its response.

        ``timeout`` (or the client-wide ``request_timeout``) bounds the
        whole round trip.  Connection failures are retried with
        reconnect/failover for idempotent verbs; any other verb (an
        update) surfaces the error to the caller.
        """
        if timeout is None:
            timeout = self._request_timeout
        retryable = self._reconnect and verb in _IDEMPOTENT_VERBS
        attempts = self._max_attempts if retryable else 1
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            if attempt:
                await asyncio.sleep(self._backoff(attempt - 1))
            try:
                return await self._request_once(verb, timeout, fields)
            except RequestTimeout:
                raise  # the deadline is global, never re-spent
            except (ConnectionError, OSError) as exc:
                last_error = exc
                continue
        assert last_error is not None
        raise last_error

    async def _request_once(
        self,
        verb: str,
        timeout: Optional[float],
        fields: Dict[str, Any],
    ) -> Dict[str, Any]:
        if self._closed:
            raise ConnectionError("client is closed")
        conn = self._conn
        if conn is None or conn.closing or self._active_index:
            # Not connected, or failed over: a rehome may be due.
            if self._reconnect:
                await self._ensure_connected()
            elif not self.connected:
                raise ConnectionError("client is not connected")
            conn = self._conn
            if conn is None:  # lost while a rehome probe was dialing
                raise ConnectionError("connection lost")
        rid = next(self._ids)
        loop = conn.loop
        fut: asyncio.Future = loop.create_future()
        self._waiting[rid] = fut
        # The deadline is one timer that fails ``fut`` (no
        # ``asyncio.wait_for``: no second future, no extra coroutine);
        # the reply cancels it.
        timer = None if timeout is None else loop.call_later(
            timeout, _expire, fut, verb, timeout
        )
        frames = conn.frames
        try:
            # Buffered with whatever else this turn sends; ``fut`` fails
            # if the buffer never reaches the socket.
            frames.send(
                {"type": "request", "id": rid, "verb": verb, **fields}, fut
            )
            if frames.paused is not None:
                await frames.drain()
            frame = await fut
        finally:
            # However the wait ended, no orphan future is left behind
            # (to leak, or to be resolved by a later response reusing
            # the id after a reconnect), and no live timer.
            self._waiting.pop(rid, None)
            if timer is not None:
                timer.cancel()
        if not frame.get("ok"):
            raise LiveETFailed(
                frame.get("error", "ET failed"),
                frame.get("code", ""),
                frame,
            )
        return frame

    # -- updates -------------------------------------------------------------

    async def update(
        self,
        operations: Sequence[Operation],
        spec: Optional[EpsilonSpec] = None,
        timeout: Optional[float] = None,
        saga: Optional[str] = None,
        abort: bool = False,
    ) -> Dict[str, Any]:
        """Submit a (possibly multi-operation) update ET.

        COMPE only: ``saga`` tags the update as a step of a named saga
        — it applies optimistically but stays *undecided* until
        :meth:`decide` commits or aborts the saga.  ``abort=True``
        applies the update and immediately compensates it (the
        validation-failure path), raising a ``COMPENSATED``
        :class:`LiveETFailed`.
        """
        operations = list(operations)
        if not operations:
            raise ValueError("update needs at least one operation")
        fields: Dict[str, Any] = {"ops": encode_ops(operations)}
        if spec is not None:
            fields["spec"] = encode_spec(spec)
        if saga is not None:
            fields["saga"] = saga
        if abort:
            fields["abort"] = True
        # An update is never retried (:meth:`request` would try it
        # once): one round trip, awaited directly.
        frame = await self._request_once(
            "update",
            self._request_timeout if timeout is None else timeout,
            fields,
        )
        # A committed write is evidence its origin's frontier reached
        # the tid's sequence — fold it into what the cache accounting
        # knows, and drop any cached copy of the written keys so the
        # client reads its own writes even through the cache.
        tid = frame.get("tid")
        if isinstance(tid, str):
            site, sep, seq = tid.rpartition(":")
            if sep and seq.isdigit():
                frontier = int(seq)
                known = self.known_frontiers
                if frontier > known.get(site, 0):
                    known[site] = frontier
        if self.cache is not None:
            self.cache.invalidate(op.key for op in operations)
        return frame

    async def decide(
        self,
        outcome: str,
        saga: Optional[str] = None,
        tids: Optional[Sequence[str]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Decide a COMPE saga (or explicit tids) ``"commit"``/``"abort"``.

        Aborting runs backward recovery: the named steps' durable
        compensations apply in reverse submission order.  The reply
        carries ``decided`` (tids decided now), ``skipped`` (tids
        already decided — retries are idempotent) and, on abort,
        ``compensated``.
        """
        fields: Dict[str, Any] = {"outcome": outcome}
        if saga is not None:
            fields["saga"] = saga
        if tids is not None:
            fields["tids"] = list(tids)
        frame = await self.request("decide", timeout=timeout, **fields)
        if self.cache is not None and frame.get("compensated"):
            # Compensated writes changed the store again; cached copies
            # of any key are suspect only for the undone keys, which
            # the reply does not enumerate — drop conservatively.
            self.cache.clear()
        return frame

    # -- queries -------------------------------------------------------------

    async def query(
        self,
        keys: Sequence[str],
        spec: Union[EpsilonSpec, ReadOptions, Consistency, None] = None,
        timeout: Optional[float] = None,
    ) -> LiveETResult:
        """Full-fidelity query: values plus error accounting, as a
        typed :class:`LiveETResult` (dict-style access still works).

        ``spec`` accepts the typed surface (:class:`ReadOptions` or a
        :class:`Consistency` level) or a raw :class:`EpsilonSpec`.
        """
        opts = query_options(spec, timeout)
        return await self._query(query_keys(keys), opts.spec(), opts)

    def session(self, token: Optional[SessionToken] = None) -> "LiveSession":
        """Open a session enforcing read-your-writes + monotonic reads.

        Usable as an async context manager::

            async with client.session() as s:
                await s.increment("balance", 10)
                value = await s.read("balance")   # sees the increment
                handoff = s.token.encode()        # cross-process token
        """
        return LiveSession(self, token)

    # -- read path (cache, fan-out, session) ---------------------------------

    def _merge_known(self, frontiers: Optional[Mapping]) -> None:
        if not frontiers:
            return
        known = self.known_frontiers
        for site, seq in frontiers.items():
            try:
                seq = int(seq)
            except (TypeError, ValueError):
                continue
            if seq > known.get(site, 0):
                known[site] = seq

    async def _query(
        self,
        keys: List[str],
        espec: EpsilonSpec,
        opts: ReadOptions,
    ) -> LiveETResult:
        token = opts.session
        strict = espec.is_strict
        if not strict:
            hit = self._cache_lookup(keys, espec, opts)
            if hit is not None:
                return hit
        frame = await self._issue_query(keys, espec, opts)
        self._merge_known(frame.get("frontiers"))
        if token is not None:
            token.merge(frame.get("frontiers"))
        served = frame.get("served_by")
        self._count_read(served or "unknown")
        if self.cache is not None:
            now = asyncio.get_event_loop().time()
            for key in keys:
                if key in frame.get("values", {}):
                    self.cache.store(
                        key,
                        frame["values"][key],
                        frame.get("inconsistency", 0),
                        frame.get("frontiers"),
                        now,
                        served,
                    )
        return LiveETResult(frame)

    def _cache_lookup(
        self, keys: List[str], espec: EpsilonSpec, opts: ReadOptions
    ) -> Optional[LiveETResult]:
        """Serve the whole query from the cache, or None to fetch.

        Multi-key queries split the budget evenly across keys, so the
        summed per-key estimates can never exceed the query's budget.
        """
        if self.cache is None:
            return None
        ttl_only = opts.consistency.level == CACHED
        budget = espec.import_limit
        if budget != UNLIMITED and len(keys) > 1:
            budget = budget / len(keys)
        now = asyncio.get_event_loop().time()
        values: Dict[str, Any] = {}
        estimate = 0.0
        served: set = set()
        observed = []
        for key in keys:
            hit = self.cache.lookup(
                key,
                budget=budget,
                known_frontiers=self.known_frontiers,
                now=now,
                token=opts.session,
                ttl_only=ttl_only,
            )
            if hit is None:
                return None
            values[key] = hit.value
            estimate += hit.estimate
            served.add(hit.served_by)
            observed.append(hit.frontiers)
        if opts.session is not None:
            # Only once every key hit: a miss goes to a replica with the
            # token as it was, not with frontiers it never observed.
            for frontiers in observed:
                opts.session.merge(frontiers)
        self._count_read("cache")
        return LiveETResult(
            {
                "values": values,
                "inconsistency": estimate,
                "overlap": [],
                "waits": 0,
                "degraded": False,
                "staleness": estimate,
                "served_by": served.pop() if len(served) == 1 else None,
                "from_cache": True,
            }
        )

    def _count_read(self, replica: str) -> None:
        child = self._m_reads_by.get(replica)
        if child is None:
            child = self._m_reads_by[replica] = (
                self.m_reads_by_replica.labels(replica=replica)
            )
        child.inc()

    async def _issue_query(
        self, keys: List[str], espec: EpsilonSpec, opts: ReadOptions
    ) -> Dict[str, Any]:
        """Send the query to the chosen replica, retrying typed
        ``SESSION_STALE`` refusals at fresher replicas."""
        fields: Dict[str, Any] = {
            "keys": keys, "spec": encode_spec(espec),
        }
        token = opts.session
        if token is not None and token.frontiers:
            fields["session"] = dict(token.frontiers)
        timeout = opts.timeout
        strict = espec.is_strict
        client = await self._route(keys, espec, opts)
        loop = asyncio.get_event_loop()
        deadline = loop.time() + (
            timeout if timeout is not None else SESSION_RETRY_WAIT
        )
        tried: set = set()
        while True:
            try:
                return await client.request("query", timeout=timeout, **fields)
            except LiveETFailed as exc:
                if exc.code != SESSION_STALE:
                    raise
                self.session_stale_retries += 1
                self.m_session_stale.inc()
                self._merge_known(exc.frame.get("frontiers"))
                tried.add(self._client_addr(client))
                client = await self._fresher_client(token, tried)
                if client is None:
                    if loop.time() >= deadline:
                        raise
                    # Every known replica refused: the token is ahead
                    # of the whole group's propagation (e.g. mid
                    # failover).  Wait it out at the primary.
                    await asyncio.sleep(0.05)
                    tried.clear()
                    client = self
            except (ConnectionError, OSError):
                if client is self:
                    raise
                # A fanned-out secondary died; the read is idempotent,
                # so fall back to the primary connection.
                tried.add(self._client_addr(client))
                client = self

    def _client_addr(self, client: "LiveClient") -> Tuple[str, int]:
        return client._addrs[client._active_index]

    async def _fresher_client(
        self, token: Optional[SessionToken], tried: set
    ) -> Optional["LiveClient"]:
        """The untried replica most likely to satisfy the token:
        highest gossiped applied count first, primary included."""
        candidates: List[Tuple[int, Tuple[str, int]]] = []
        primary = self._addrs[0]
        if primary not in tried and self._client_addr(self) != primary:
            candidates.append((1 << 60, primary))
        if self._client_addr(self) not in tried:
            candidates.append((1 << 60, self._client_addr(self)))
        for info in self._replicas.values():
            addr = info.get("addr")
            if not addr or addr in tried:
                continue
            if info.get("status") not in _ROUTABLE_STATUSES:
                continue
            candidates.append((int(info.get("applied", 0)), tuple(addr)))
        candidates.sort(key=lambda item: -item[0])
        for _, addr in candidates:
            try:
                return await self._pool_client(addr)
            except (ConnectionError, OSError):
                tried.add(addr)
        return None

    async def _route(
        self, keys: List[str], espec: EpsilonSpec, opts: ReadOptions
    ) -> "LiveClient":
        """Pick the connection a read goes out on.

        Strict reads and ``prefer="primary"`` pin to the main
        connection (primary + failover).  Otherwise, with fan-out on
        (client-wide flag, or ``prefer="any"`` per read) the read is
        spread across the gossip-learned replicas, weighted by
        applied-frontier lag; replicas lagging by more than the read's
        budget are skipped while a within-budget candidate exists.  A
        site name in ``prefer`` targets that replica directly.
        """
        prefer = opts.prefer
        strict = espec.is_strict
        if strict or prefer == "primary":
            return self
        if prefer not in (None, "auto", "any"):
            info = self._replicas.get(prefer)
            if info and info.get("addr"):
                try:
                    return await self._pool_client(tuple(info["addr"]))
                except (ConnectionError, OSError):
                    return self
            return self
        if not (self._fan_out or prefer == "any"):
            return self
        await self._refresh_replicas()
        if self._fan_out_draw is None:
            self._fan_out_draw = self._plan_fan_out()
        addrs, cum_weights = self._fan_out_draw
        if not addrs:
            return self
        choice = self._rng.choices(addrs, cum_weights=cum_weights, k=1)[0]
        if choice == self._client_addr(self):
            return self
        try:
            return await self._pool_client(choice)
        except (ConnectionError, OSError):
            return self

    def _plan_fan_out(self) -> Tuple[List[Tuple[str, int]], List[float]]:
        """The routable replicas and their cumulative draw weights — a
        function of ``_replicas`` alone, so computed once per
        membership refresh, not per read."""
        infos = [
            info
            for info in self._replicas.values()
            if info.get("addr") and info.get("status") in _ROUTABLE_STATUSES
        ]
        best_applied = max(
            (int(info.get("applied", 0)) for info in infos), default=0
        )
        # Weight by applied-frontier lag *relative to total progress*.
        # Gossiped applied counts are delayed estimates, so absolute
        # lag is dominated by gossip staleness under write load; the
        # lag fraction separates a genuinely wedged replica (fraction
        # near 1 -> strongly derated) from one merely a gossip round
        # behind (fraction near 0 -> full weight).  The epsilon budget
        # itself is enforced server-side on every read regardless of
        # where it lands.
        weights = []
        for info in infos:
            lag = best_applied - int(info.get("applied", 0))
            fraction = lag / max(best_applied, 1)
            weights.append(1.0 / (1.0 + 10.0 * fraction))
        return (
            [tuple(info["addr"]) for info in infos],
            list(itertools.accumulate(weights)),
        )

    async def _refresh_replicas(self) -> None:
        """Keep the fan-out view of the group reasonably fresh by
        piggybacking on the ``stats`` verb (which carries gossiped
        membership) at most every ``FAN_OUT_REFRESH`` seconds."""
        now = asyncio.get_event_loop().time()
        if (
            self._replicas
            and now - self._last_replica_refresh < FAN_OUT_REFRESH
        ):
            return
        self._last_replica_refresh = now
        try:
            await self.stats()
        except (ETError, ConnectionError, OSError):
            pass  # keep the stale view; reads still have the primary

    async def _pool_client(self, addr: Tuple[str, int]) -> "LiveClient":
        """A dedicated (cached) connection to one fan-out replica."""
        if addr == self._addrs[self._active_index]:
            return self
        client = self._pool.get(addr)
        if client is not None and not client._closed:
            return client
        client = LiveClient(
            [addr],
            request_timeout=self._request_timeout,
            reconnect=True,
            max_attempts=2,
            rng=self._rng,
        )
        await client._ensure_connected()
        # Two reads may race to dial the same replica; keep one
        # connection and close the loser, or its socket leaks.
        existing = self._pool.get(addr)
        if existing is not None and not existing._closed:
            await client.close()
            return existing
        self._pool[addr] = client
        return client

    # -- convenience ---------------------------------------------------------

    async def settle(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Block until the connected replica has drained: outbound
        channels empty, engine quiescent, every local update fully
        acknowledged.  Server-side condition wait — no stats polling.
        """
        return await self.request(
            "settle", timeout=timeout + 5.0, wait=timeout
        )

    # -- introspection -------------------------------------------------------

    async def values(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Full store contents at the connected replica."""
        return (await self.request("values", timeout=timeout))["values"]

    async def stats(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        stats = (await self.request("stats", timeout=timeout))["stats"]
        self._learn_membership(stats.get("membership"))
        self._merge_known(
            {
                (stats["site"] if src == "_local" else src): frontier
                for src, frontier in stats.get("inbox_frontier", {}).items()
            }
            if isinstance(stats.get("inbox_frontier"), dict)
            and stats.get("site")
            else None
        )
        return stats

    def _learn_membership(self, records: Any) -> None:
        """Refresh the failover address list — and the fan-out routing
        view — from a gossiped membership block (carried on ``stats``
        replies).

        The primary and currently active addresses are preserved in
        place; every other live member address replaces the static
        constructor tail, so failover targets stay current through
        joins, leaves, and address moves."""
        if not isinstance(records, list):
            return
        self._fan_out_draw = None
        learned: List[Tuple[str, int]] = []
        for rec in records:
            if not isinstance(rec, dict):
                continue
            name = rec.get("name")
            host, port = rec.get("host"), rec.get("port")
            if name:
                self._replicas[str(name)] = {
                    "addr": (str(host), int(port)) if host and port else None,
                    "applied": int(rec.get("applied", 0)),
                    "frontier": int(rec.get("frontier", 0)),
                    "status": rec.get("status", "alive"),
                }
            if rec.get("status") in ("dead", "left"):
                continue
            if host and port:
                learned.append((str(host), int(port)))
        if not learned:
            return
        keep = [self._addrs[0]]
        if self._active_index < len(self._addrs):
            active = self._addrs[self._active_index]
            if active not in keep:
                keep.append(active)
        fresh = keep + [addr for addr in learned if addr not in keep]
        if fresh != self._addrs:
            active = self._addrs[self._active_index]
            self._addrs = fresh
            self._active_index = fresh.index(active)
            self.membership_refreshes += 1

    async def refresh_membership(
        self, timeout: Optional[float] = None
    ) -> List[Tuple[str, int]]:
        """Explicitly re-learn replica addresses from the server's
        gossiped membership table; returns the refreshed list."""
        await self.stats(timeout=timeout)
        return list(self._addrs)

    async def metrics(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Scrape the replica's metrics registry.

        Returns a dict with ``prometheus`` (exposition text), ``metrics``
        (the same samples as JSON), and the trace buffer's
        ``trace_recorded``/``trace_dropped`` tallies.
        """
        frame = await self.request("metrics", timeout=timeout)
        return {
            "site": frame.get("site"),
            "prometheus": frame.get("prometheus", ""),
            "metrics": frame.get("metrics", {}),
            "trace_recorded": frame.get("trace_recorded", 0),
            "trace_dropped": frame.get("trace_dropped", 0),
        }

    async def ping(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return await self.request("ping", timeout=timeout)

    async def snapshot(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Ask the replica to persist a snapshot and compact its logs
        now; returns ``{"bytes", "frontiers", "compacted"}``."""
        frame = await self.request("snapshot", timeout=timeout)
        return frame["snapshot"]

    async def close(self) -> None:
        self._closed = True
        pool = list(self._pool.values())
        self._pool.clear()
        for client in pool:
            await client.close()
        self._fail_waiting(ConnectionError("client closed"))
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()
            await conn.wait_closed()


class LiveSession(AsyncVerbs):
    """Read-your-writes + monotonic-reads session over a
    :class:`LiveClient` or a :class:`~repro.live.router.ShardRouter`.

    Every update advances the session token past its committed tid (a
    routed update, past each shard's tid); every query attaches the
    token — each replica checks the token sites it replicates, so the
    per-shard checks compose to one guarantee — and folds the reply's
    frontier vector back in.  The token is portable:
    ``session.token.encode()`` hands the session off to another
    process, which resumes it with
    ``client.session(SessionToken.decode(text))``.
    """

    def __init__(
        self, target: Any, token: Optional[SessionToken] = None
    ) -> None:
        self._target = target
        self.token = token if token is not None else SessionToken()

    async def __aenter__(self) -> "LiveSession":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        return None

    async def query(
        self,
        keys: Sequence[str],
        spec: Union[EpsilonSpec, ReadOptions, Consistency, None] = None,
        timeout: Optional[float] = None,
    ) -> LiveETResult:
        opts = replace(query_options(spec, timeout), session=self.token)
        result = await self._target.query(keys, opts, timeout=opts.timeout)
        self.token.merge(result.frontiers)
        return result

    async def update(
        self,
        operations: Sequence[Operation],
        spec: Optional[EpsilonSpec] = None,
        timeout: Optional[float] = None,
        saga: Optional[str] = None,
        abort: bool = False,
    ) -> Dict[str, Any]:
        frame = await self._target.update(
            operations, spec, timeout, saga=saga, abort=abort
        )
        for reply in (frame, *frame.get("shards", {}).values()):
            tid = reply.get("tid")
            if isinstance(tid, str):
                self.token.observe_write(tid)
        return frame
