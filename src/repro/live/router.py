"""Client-side shard router: one client surface over N replica groups.

:class:`ShardRouter` exposes the same verb surface as
:class:`~repro.live.client.LiveClient` (the parity tests hold it to
that), but routes each key to its owning replica group through a
:class:`~repro.live.shard.ShardMap` and keeps one pipelined
``LiveClient`` (primary + failover across the group's replicas) per
shard, dialed lazily.

Cross-shard semantics
---------------------

* ``read_many`` / ``query`` spanning shards fan out one query ET per
  owning group **concurrently** and merge: values are unioned,
  ``inconsistency`` is summed (each shard's epsilon gauges bound that
  shard's partition of the object universe, so the merged result's
  observed error is at most the sum of the per-shard bounds — the
  paper's per-object-set accounting, applied per partition),
  ``overlap`` is the sorted union of imported update tids, ``waits``
  is summed, and ``degraded`` is true if any shard answered degraded.
* ``update`` spanning shards is split per group and submitted
  concurrently.  There is no cross-group atomic commit — each
  per-shard MSet keeps the usual per-group guarantees.  Single-shard
  updates (every ``write``/``increment``/... convenience verb) are
  unaffected.
* ``settle`` sweeps all shards **concurrently** with a per-shard
  timeout, so settling the cluster costs max-of-shards, not
  sum-of-shards.

Routing-table refresh is piggybacked on refusals: a replica fenced out
by a migration answers ``WRONG_SHARD`` carrying the epoch-bumped map,
the router adopts any newer map it is shown, re-dials the shard's new
owner group, and retries.  While a cutover is in flight the new owners
answer ``UNAVAILABLE`` until they adopt; the router retries those
*only* inside a bounded post-``WRONG_SHARD`` migration window, so a
genuinely degraded replica still fails fast with its honest refusal.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..consistency import (
    AsyncVerbs,
    Consistency,
    ReadOptions,
    SessionToken,
    query_keys,
)
from ..core.operations import Operation
from ..core.transactions import EpsilonSpec
from .client import LiveClient, LiveETFailed, LiveETResult, LiveSession
from .shard import GroupAddrs, ShardMap, group_keys_by_shard

__all__ = ["ShardRouter"]

Specish = Union[EpsilonSpec, ReadOptions, Consistency, None]


class ShardRouter(AsyncVerbs):
    """Routes the ``LiveClient`` verb surface across replica groups.

    ``write``/``increment``/``decrement``/``append`` and
    ``read``/``read_many`` come from
    :class:`~repro.consistency.AsyncVerbs`, over :meth:`update` and
    :meth:`query`."""

    def __init__(
        self,
        shard_map: ShardMap,
        migration_wait: float = 15.0,
        client_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._map = shard_map
        #: how long WRONG_SHARD / cutover UNAVAILABLE refusals are
        #: retried before surfacing — the bound on how long a live
        #: migration may stall a request.
        self._migration_wait = max(0.0, migration_wait)
        self._client_options = dict(client_options or {})
        #: shard -> (group addrs the client was dialed for, client).
        self._clients: Dict[int, Tuple[GroupAddrs, LiveClient]] = {}
        self._dial_locks: Dict[int, asyncio.Lock] = {}
        #: shard -> deadline until which UNAVAILABLE means "cutover in
        #: flight, hold on" rather than "degraded, fail fast".
        self._migrating_until: Dict[int, float] = {}
        self._closed = False
        #: observability: maps adopted from WRONG_SHARD refusals.
        self.map_refreshes = 0

    # -- routing table ---------------------------------------------------------

    @property
    def map(self) -> ShardMap:
        """The routing table currently in use."""
        return self._map

    @property
    def n_shards(self) -> int:
        return self._map.n_shards

    def shard_of(self, key: str) -> int:
        return self._map.shard_of(key)

    def _adopt(self, map_dict: Dict[str, Any]) -> bool:
        """Adopt a map hint if it is newer than the current table."""
        try:
            candidate = ShardMap.from_dict(map_dict)
        except (ValueError, TypeError):
            return False
        if candidate.epoch <= self._map.epoch:
            return False
        self._map = candidate
        self.map_refreshes += 1
        return True

    async def _client(self, shard: int) -> LiveClient:
        """The shard's group client, (re)dialed lazily.

        A client dialed for a superseded group (the map moved under
        it) is closed and replaced — never reused, or a retired
        replica would keep answering WRONG_SHARD forever.
        """
        if self._closed:
            raise ConnectionError("router is closed")
        lock = self._dial_locks.setdefault(shard, asyncio.Lock())
        async with lock:
            group = self._map.groups[shard]
            cached = self._clients.get(shard)
            if cached is not None:
                if cached[0] == group:
                    return cached[1]
                await cached[1].close()
                self._clients.pop(shard, None)
            (host, port), *rest = group
            client = await LiveClient.connect(
                host, port, failover=rest, **self._client_options
            )
            self._clients[shard] = (group, client)
            return client

    async def _call(self, shard: int, verb: str, *args: Any, **kwargs: Any) -> Any:
        """One verb against one shard, with migration-aware retry.

        ``WRONG_SHARD`` always carries proof the table is stale —
        adopt the newer map, re-dial, retry (the refusal happens
        before anything commits, so this is safe for updates too).
        ``UNAVAILABLE`` is retried only inside the migration window a
        recent ``WRONG_SHARD`` opened; outside it, it is the replica's
        honest degraded-mode refusal and surfaces immediately.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._migration_wait
        while True:
            client = await self._client(shard)
            try:
                return await getattr(client, verb)(*args, **kwargs)
            except LiveETFailed as exc:
                now = loop.time()
                if exc.wrong_shard:
                    self._migrating_until[shard] = now + self._migration_wait
                    hint = exc.frame.get("map")
                    if not (
                        isinstance(hint, dict) and self._adopt(hint)
                    ) and now >= deadline:
                        # No newer map to chase and out of patience.
                        raise
                elif exc.unavailable and now < self._migrating_until.get(
                    shard, 0.0
                ):
                    if now >= deadline:
                        raise
                else:
                    raise
            if loop.time() >= deadline:
                raise TimeoutError(
                    "shard %d did not become routable within %.1fs"
                    % (shard, self._migration_wait)
                )
            await asyncio.sleep(0.05)

    # -- updates ---------------------------------------------------------------

    async def update(
        self,
        operations: Sequence[Operation],
        spec: Optional[EpsilonSpec] = None,
        timeout: Optional[float] = None,
        saga: Optional[str] = None,
        abort: bool = False,
    ) -> Dict[str, Any]:
        """Submit an update ET, split per owning group.

        Single-shard updates keep full per-group semantics; an update
        spanning shards is submitted to each group concurrently
        (independent per-shard MSets, no cross-group atomicity).
        COMPE saga steps carry the saga id to every touched group, so
        a later :meth:`decide` can reach each group's members.
        """
        ops = list(operations)
        by_shard: Dict[int, List[Operation]] = {}
        for op in ops:
            by_shard.setdefault(self.shard_of(op.key), []).append(op)
        if not by_shard:
            raise ValueError("update needs at least one operation")

        async def one(shard: int, shard_ops: List[Operation]) -> Any:
            return await self._call(
                shard, "update", shard_ops, spec, timeout,
                saga=saga, abort=abort,
            )

        shards = sorted(by_shard)
        if abort:
            # Every touched group compensates its split independently
            # and raises COMPENSATED; collect them all and re-raise one
            # failure carrying the union of undone tids.
            outcomes = await asyncio.gather(
                *(one(shard, by_shard[shard]) for shard in shards),
                return_exceptions=True,
            )
            compensated: List[str] = []
            for outcome in outcomes:
                if isinstance(outcome, LiveETFailed) and outcome.compensated:
                    compensated.extend(outcome.compensated_tids)
                elif isinstance(outcome, BaseException):
                    raise outcome
            raise LiveETFailed(
                "update applied optimistically and undone by backward "
                "recovery on %d shard(s)" % len(shards),
                "COMPENSATED",
                {"compensated": compensated},
            )
        frames = await asyncio.gather(
            *(one(shard, by_shard[shard]) for shard in shards)
        )
        return {
            "applied": len(ops),
            "shards": dict(zip(shards, frames)),
        }

    async def decide(
        self,
        outcome: str,
        saga: Optional[str] = None,
        tids: Optional[Sequence[str]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Decide a COMPE saga commit/abort across every shard group.

        A saga's steps may be spread over several groups (each step
        landed at the group owning its keys), so the decide fans out to
        all shards; groups with no recorded steps for the saga answer
        "unknown saga" and are skipped.  The merged reply unions
        ``decided``/``skipped``/``compensated`` across groups.
        """

        async def one(shard: int) -> Any:
            try:
                return await self._call(
                    shard, "decide", outcome,
                    saga=saga, tids=tids, timeout=timeout,
                )
            except LiveETFailed as exc:
                if saga is not None and "unknown saga" in str(exc):
                    return None  # this group held no steps of the saga
                raise

        shards = list(range(self.n_shards))
        replies = await asyncio.gather(*(one(shard) for shard in shards))
        merged: Dict[str, Any] = {
            "outcome": outcome,
            "decided": [],
            "skipped": [],
            "shards": {},
        }
        if outcome == "abort":
            merged["compensated"] = []
        if saga is not None:
            merged["saga"] = saga
        hits = 0
        for shard, reply in zip(shards, replies):
            if reply is None:
                continue
            hits += 1
            merged["shards"][shard] = reply
            merged["decided"].extend(reply.get("decided", ()))
            merged["skipped"].extend(reply.get("skipped", ()))
            if outcome == "abort":
                merged["compensated"].extend(reply.get("compensated", ()))
        if saga is not None and not hits:
            raise LiveETFailed(
                "unknown saga %r (no group recorded any step)" % (saga,),
                "ValueError",
                {},
            )
        return merged

    # -- queries ---------------------------------------------------------------

    async def query(
        self,
        keys: Sequence[str],
        spec: Specish = None,
        timeout: Optional[float] = None,
    ) -> LiveETResult:
        """One logical query ET, fanned out per owning group.

        ``spec`` accepts the typed surface (:class:`ReadOptions` or a
        :class:`Consistency` level) or a raw :class:`EpsilonSpec`.
        Each group runs a real query ET over its keys under the full
        budget; the merged result reports the union of values
        and the *sum* of per-shard observed inconsistency (each
        shard's gauges bound disjoint object sets, so the sum bounds
        the merged read — and a spec satisfied per shard is therefore
        reported honestly, not re-checked against the merged total).
        ``staleness`` merges as the worst (max) per-shard lag;
        ``from_cache`` only when every shard answered from cache.  A
        session token in ``spec`` is attached to every per-shard
        query; each group checks the token sites it replicates, so the
        per-shard checks compose to the same guarantee.
        """
        by_shard = group_keys_by_shard(query_keys(keys), self.n_shards)

        async def one(shard: int) -> LiveETResult:
            return await self._call(
                shard, "query", by_shard[shard], spec, timeout
            )

        shards = sorted(by_shard)
        results = await asyncio.gather(*(one(shard) for shard in shards))
        merged: Dict[str, Any] = {
            "values": {},
            "inconsistency": 0,
            "overlap": [],
            "waits": 0,
            "degraded": False,
            "staleness": None,
            "served_by": None,
            "from_cache": bool(results),
            "frontiers": {},
        }
        overlap: List[str] = []
        served: List[str] = []
        for result in results:
            merged["values"].update(result.values)
            merged["inconsistency"] += result.inconsistency
            overlap.extend(result.overlap)
            merged["waits"] += result.waits
            merged["degraded"] = merged["degraded"] or result.degraded
            if result.staleness is not None:
                merged["staleness"] = max(
                    merged["staleness"] or 0, result.staleness
                )
            if result.served_by:
                served.append(result.served_by)
            merged["from_cache"] = merged["from_cache"] and result.from_cache
            for site, seq in result.frontiers.items():
                if seq > merged["frontiers"].get(site, 0):
                    merged["frontiers"][site] = seq
        merged["overlap"] = sorted(set(overlap))
        if served:
            merged["served_by"] = ",".join(sorted(set(served)))
        return LiveETResult(merged)

    def session(self, token: Optional[SessionToken] = None) -> LiveSession:
        """Open a read-your-writes + monotonic-reads session spanning
        shards (``async with router.session() as s:``)."""
        return LiveSession(self, token)

    # -- fan-out convenience ---------------------------------------------------

    async def _fan_out(
        self, verb: str, *args: Any, **kwargs: Any
    ) -> Dict[int, Any]:
        """Run one verb on every shard concurrently; results by shard."""
        shards = list(range(self.n_shards))
        results = await asyncio.gather(
            *(self._call(shard, verb, *args, **kwargs) for shard in shards)
        )
        return dict(zip(shards, results))

    async def settle(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Drain every shard concurrently (max-of-shards latency).

        ``timeout`` applies per shard; a shard that cannot drain in
        time surfaces its own TimeoutError.
        """
        replies = await self._fan_out("settle", timeout=timeout)
        return {
            "drained": all(r.get("drained") for r in replies.values()),
            "waited": any(r.get("waited") for r in replies.values()),
            "shards": replies,
        }

    async def values(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Full store contents, unioned across shards (disjoint keys)."""
        merged: Dict[str, Any] = {}
        for reply in (await self._fan_out("values", timeout=timeout)).values():
            merged.update(reply)
        return merged

    async def stats(
        self, timeout: Optional[float] = None
    ) -> Dict[int, Dict[str, Any]]:
        """Per-shard stats from each group's primary replica."""
        return await self._fan_out("stats", timeout=timeout)

    async def metrics(
        self, timeout: Optional[float] = None
    ) -> Dict[int, Dict[str, Any]]:
        """Per-shard metrics scrape (samples carry the shard label)."""
        return await self._fan_out("metrics", timeout=timeout)

    async def ping(
        self, timeout: Optional[float] = None
    ) -> Dict[int, Dict[str, Any]]:
        return await self._fan_out("ping", timeout=timeout)

    async def snapshot(self, timeout: float = 30.0) -> Dict[int, Dict[str, Any]]:
        return await self._fan_out("snapshot", timeout=timeout)

    async def close(self) -> None:
        self._closed = True
        clients = [client for _, client in self._clients.values()]
        self._clients.clear()
        for client in clients:
            await client.close()
