"""Versioned shard map and epoch-fenced shard migration.

The paper's epsilon bookkeeping is per object set, so nothing in the
model requires one engine to own the whole keyspace: the keyspace is
hash-partitioned into ``n_shards`` shards, each owned by an
independent replica group with its own engine, durable logs,
channels, and snapshots.  Epsilon gauges, degraded mode, and overlap
bounds all hold *per shard* — exactly the per-object-set guarantees
the paper proves, applied to a partition of the object universe.

:class:`ShardMap` is the routing table: shard index -> the owning
group's replica addresses, stamped with an **epoch** that increases
on every ownership change.  ``key_shard`` is a process-independent
hash (CRC-32, not Python's per-process-salted ``hash``), so every
client and every server derive the same owner for a key.

Migration is epoch-fenced and reuses the anti-entropy rejoin
machinery (a migration *is* a rejoin onto a new owner):

1. the replacement group boots cold with ``accepting=False`` (it
   refuses traffic with ``UNAVAILABLE`` until handed the shard);
2. the old owners are **fenced** (``shard-retire``): from that moment
   they answer every update/query with a typed ``WRONG_SHARD`` error
   carrying the epoch-bumped map, so clients refresh and retry —
   no acknowledged update can land behind the migration's back;
3. the fenced group is drained (``settle``) so its snapshot captures
   every acknowledged update;
4. each replacement replica pulls its same-named counterpart's fresh
   snapshot over the ordinary chunked ``snapshot-fetch`` wire path
   and installs it (``fetch-install``) — frontier translation is the
   identity because the replacement group reuses the old group's
   site names, and the tail drain is the degenerate case of a rejoin
   because step 3 quiesced the source;
5. the replacements adopt the new map (``shard-adopt``) and start
   accepting at the new epoch.

A crash of a replacement replica mid-migration just stalls step 4's
retry loop until the replica heals; durability is never in doubt
because the fenced old group still holds everything acknowledged.
"""

from __future__ import annotations

import asyncio
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import WRONG_SHARD
from .client import LiveETFailed, request_once

__all__ = [
    "ShardMap",
    "WrongShard",
    "key_shard",
    "group_keys_by_shard",
    "migrate_shard",
]

#: one replica group's addresses, in site-name order.
GroupAddrs = Tuple[Tuple[str, int], ...]


def key_shard(key: str, n_shards: int) -> int:
    """Owner shard of ``key`` — stable across processes and runs.

    CRC-32 of the UTF-8 key bytes, mod the shard count.  Every router
    and every server must agree on this function: it is part of the
    wire contract (a ``WRONG_SHARD`` answer asserts the *server's*
    evaluation of it).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    return zlib.crc32(key.encode("utf-8")) % n_shards


def group_keys_by_shard(
    keys: Sequence[str], n_shards: int
) -> Dict[int, List[str]]:
    """Partition ``keys`` by owner shard, preserving per-shard order."""
    out: Dict[int, List[str]] = {}
    for key in keys:
        out.setdefault(key_shard(key, n_shards), []).append(key)
    return out


class WrongShard(RuntimeError):
    """The addressed replica group does not own the requested keys.

    Carried to clients as error code ``WRONG_SHARD``; the error
    response also carries the newest shard map this replica knows
    (``extra["map"]``), so a router refreshes its table from the
    refusal itself — no separate discovery round trip.
    """

    code = WRONG_SHARD

    def __init__(
        self, message: str, map_hint: Optional[Dict[str, Any]] = None
    ) -> None:
        super().__init__(message)
        #: merged into the error response frame by the server.
        self.extra: Dict[str, Any] = (
            {"map": map_hint} if map_hint else {}
        )


@dataclass(frozen=True)
class ShardMap:
    """Epoch-versioned routing table: shard index -> group addresses.

    Immutable; every ownership change produces a *new* map with a
    higher epoch (:meth:`with_group`).  Total order on epochs is what
    makes the cutover fence sound: a client holding epoch ``E`` and a
    server holding ``E' > E`` disagree, the server refuses with the
    newer map, and the client adopts it — never the other way around.
    """

    epoch: int
    groups: Tuple[GroupAddrs, ...]

    @property
    def n_shards(self) -> int:
        return len(self.groups)

    def shard_of(self, key: str) -> int:
        return key_shard(key, self.n_shards)

    def with_group(self, shard: int, addrs: Sequence[Tuple[str, int]]) -> "ShardMap":
        """The next epoch: ``shard`` reassigned to ``addrs``."""
        groups = list(self.groups)
        groups[shard] = tuple((host, int(port)) for host, port in addrs)
        return ShardMap(self.epoch + 1, tuple(groups))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "shards": [
                [[host, port] for host, port in group]
                for group in self.groups
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardMap":
        shards = data.get("shards")
        if not isinstance(shards, list) or not shards:
            raise ValueError("shard map without shards: %r" % (data,))
        return cls(
            epoch=int(data.get("epoch", 0)),
            groups=tuple(
                tuple((str(host), int(port)) for host, port in group)
                for group in shards
            ),
        )


# -- cutover orchestration -----------------------------------------------------


async def _retrying(
    step: Callable[[], Any],
    deadline: float,
    what: str,
    clock: Callable[[], float],
    backoff: float = 0.05,
    backoff_max: float = 0.5,
) -> Any:
    """Run one cutover step until it succeeds or the deadline passes.

    Transient refusals and dead connections are expected mid-cutover
    (a replacement replica may be crashed and healing); everything
    else is a real error and surfaces immediately.
    """
    last: Optional[BaseException] = None
    while clock() < deadline:
        try:
            return await step()
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            last = exc
        except LiveETFailed as exc:
            # UNAVAILABLE covers a replica that is mid-install or
            # mid-restart; anything typed differently is permanent.
            if not exc.unavailable:
                raise
            last = exc
        await asyncio.sleep(backoff)
        backoff = min(backoff * 2, backoff_max)
    raise TimeoutError("%s did not complete: %r" % (what, last))


async def migrate_shard(
    *,
    site_names: Sequence[str],
    old_addr_of: Callable[[str], Tuple[str, int]],
    new_addr_of: Callable[[str], Tuple[str, int]],
    new_map: Dict[str, Any],
    settle_timeout: float = 30.0,
    step_timeout: float = 30.0,
    clock: Callable[[], float],
    before_install: Optional[Callable[[], Any]] = None,
) -> None:
    """Epoch-fenced cutover of one shard onto a replacement group.

    Pure orchestration over the wire protocol: ``old_addr_of`` /
    ``new_addr_of`` resolve a site name to its current address (looked
    up per attempt, so a replica that heals on a new port is found).
    ``before_install`` is a chaos hook invoked between the fence and
    the state transfer — exactly the window where a crash must not be
    able to lose acknowledged updates.
    """
    names = list(site_names)

    # 1. Fence: every old owner starts answering WRONG_SHARD with the
    # epoch-bumped map.  All-or-nothing — a single unfenced replica
    # could still acknowledge updates the transfer would miss.
    for name in names:
        await _retrying(
            lambda name=name: request_once(
                old_addr_of(name), "shard-retire", map=new_map
            ),
            clock() + step_timeout,
            "fencing %s" % name,
            clock,
        )

    # 2. Drain the fenced group: once settled, its snapshots cover
    # every acknowledged update (no new ones can arrive past the
    # fence), so the rejoin tail-drain below is degenerate.
    async def _settle(name: str) -> Dict[str, Any]:
        return await request_once(
            old_addr_of(name),
            "settle",
            timeout=settle_timeout + 5.0,
            wait=settle_timeout,
        )

    await asyncio.gather(
        *(
            _retrying(
                lambda name=name: _settle(name),
                clock() + settle_timeout,
                "draining %s" % name,
                clock,
            )
            for name in names
        )
    )

    if before_install is not None:
        await before_install()

    # 3. Transfer: each replacement replica pulls its same-named
    # counterpart's fresh snapshot over the chunked snapshot-fetch
    # path and installs it (identity frontier translation).  Retried
    # until the replica is reachable — a crash here only stalls.
    for name in names:
        await _retrying(
            lambda name=name: request_once(
                new_addr_of(name),
                "fetch-install",
                timeout=step_timeout,
                host=old_addr_of(name)[0],
                port=old_addr_of(name)[1],
                site=name,
            ),
            clock() + step_timeout,
            "installing %s" % name,
            clock,
        )

    # 4. Adopt: the replacements start accepting at the new epoch.
    for name in names:
        await _retrying(
            lambda name=name: request_once(
                new_addr_of(name), "shard-adopt", map=new_map
            ),
            clock() + step_timeout,
            "adopting %s" % name,
            clock,
        )
