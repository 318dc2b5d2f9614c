"""In-process live cluster bootstrapper for tests and demos.

Spins up N :class:`ReplicaServer` instances on localhost ephemeral
ports inside one event loop, wires their peer addresses, and offers
the control operations the integration tests need: clients, settle
(live quiescence), convergence checks, and kill/restart of individual
replicas (which exercises the durable-queue recovery path — a
restarted replica replays its logs and peers' channel loops re-deliver
whatever it missed).

A shared :class:`~repro.live.faults.FaultPlan` can be installed: each
server hands the plan's link to every connection it dials to a peer,
and those connections carry the faults.  The :meth:`partition` /
:meth:`heal` helpers drive it for the common split-brain scenario.

    cluster = LiveCluster(n_sites=3, method="commu", data_dir=tmp)
    await cluster.start()
    client = await cluster.client("site0")
    await client.increment("x", 5)
    await cluster.settle()
    assert await cluster.converged()
    await cluster.stop()
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .client import LiveClient, LiveETFailed, request_once
from .faults import FaultPlan
from .router import ShardRouter
from .server import ReplicaServer
from .shard import ShardMap, migrate_shard
from .snapshot import write_atomic

__all__ = ["LiveCluster", "ShardedCluster"]


class LiveCluster:
    """N live replicas on localhost, managed as one unit."""

    def __init__(
        self,
        n_sites: int = 3,
        method: str = "commu",
        data_dir: Optional[pathlib.Path] = None,
        host: str = "127.0.0.1",
        fsync: bool = False,
        faults: Optional[FaultPlan] = None,
        suspect_after: float = 0.75,
        heartbeat_interval: float = 0.25,
        observability: bool = True,
        server_options: Optional[Dict[str, Any]] = None,
        site_names: Optional[Sequence[str]] = None,
        shard: Optional[Dict[str, Any]] = None,
    ) -> None:
        if site_names is not None:
            self.names = list(site_names)
        else:
            self.names = ["site%d" % i for i in range(n_sites)]
        if not self.names:
            raise ValueError("a cluster needs at least one site")
        #: shard ownership passed to every replica (including
        #: restarts); a :class:`ShardedCluster` mutates this dict as
        #: the group's ownership changes (adopted / retired), so a
        #: replica restarted later boots with the current truth.
        self.shard: Optional[Dict[str, Any]] = shard
        self.method = method
        self.host = host
        self.fsync = fsync
        self.faults = faults
        self.suspect_after = suspect_after
        self.heartbeat_interval = heartbeat_interval
        #: False swaps every replica's registry/trace for no-ops (the
        #: benchmark's metrics-off baseline).
        self.observability = observability
        #: extra ReplicaServer keyword arguments (retry_base, ...),
        #: applied uniformly to every replica, including restarts.
        self.server_options: Dict[str, Any] = dict(server_options or {})
        self._own_tmp: Optional[tempfile.TemporaryDirectory] = None
        if data_dir is None:
            self._own_tmp = tempfile.TemporaryDirectory(prefix="repro-live-")
            data_dir = pathlib.Path(self._own_tmp.name)
        self.data_dir = pathlib.Path(data_dir)
        self.servers: Dict[str, ReplicaServer] = {}
        self.addrs: Dict[str, Tuple[str, int]] = {}
        self._clients: List[LiveClient] = []
        #: one cached introspection connection per replica, reused by
        #: settle()/site_values() across calls.
        self._probe_clients: Dict[str, LiveClient] = {}

    # -- lifecycle -----------------------------------------------------------

    def _make_server(
        self, name: str, peers: Optional[Sequence[str]] = None
    ) -> ReplicaServer:
        return ReplicaServer(
            name,
            peers=self.names if peers is None else peers,
            data_dir=self.data_dir / name,
            method=self.method,
            fsync=self.fsync,
            faults=self.faults,
            suspect_after=self.suspect_after,
            heartbeat_interval=self.heartbeat_interval,
            observability=self.observability,
            shard=dict(self.shard) if self.shard is not None else None,
            **self.server_options,
        )

    async def start(self) -> None:
        """Boot every replica, then connect the peer mesh.  Returns once
        each replica that booted empty has finished its recovery (until
        then it refuses updates and strict reads)."""
        for name in self.names:
            server = self._make_server(name)
            port = await server.bind(self.host, 0)
            self.servers[name] = server
            self.addrs[name] = (self.host, port)
        for server in self.servers.values():
            server.set_peers(self.addrs)
            server.start_channels()
        for server in self.servers.values():
            await server.recovered()

    async def stop(self) -> None:
        for client in self._clients:
            await client.close()
        self._clients.clear()
        for client in self._probe_clients.values():
            await client.close()
        self._probe_clients.clear()
        for server in self.servers.values():
            await server.stop()
        self.servers.clear()
        if self._own_tmp is not None:
            self._own_tmp.cleanup()
            self._own_tmp = None

    async def kill(self, name: str) -> None:
        """Crash one replica: its volatile state is gone, its durable
        logs survive.  Peers keep retrying delivery until restart."""
        server = self.servers.pop(name)
        await server.stop()
        await self._drop_probe(name)

    async def wipe(self, name: str) -> None:
        """Crash one replica AND destroy its durable state (logs,
        snapshot, control log) — the disk-loss scenario.  A subsequent
        :meth:`restart` boots it empty, and it rejoins by fetching a
        peer snapshot (anti-entropy)."""
        if name in self.servers:
            await self.kill(name)
        site_dir = self.data_dir / name
        if site_dir.exists():
            shutil.rmtree(site_dir)

    async def restart(self, name: str, rewire: bool = True) -> None:
        """Recover a killed replica from its durable queues.

        Does not wait for a wiped replica's recovery: its rejoin signal
        is :meth:`wait_caught_up`.

        With ``rewire=False`` the other replicas are *not* told the new
        address — they must re-learn it from the restarted replica's
        gossip (its bumped incarnation out-versions the stale record).
        """
        if name in self.servers:
            raise RuntimeError("%s is still running" % name)
        server = self._make_server(name)
        port = await server.bind(self.host, 0)
        self.servers[name] = server
        self.addrs[name] = (self.host, port)
        server.set_peers(self.addrs)
        server.start_channels()
        if rewire:
            # Everyone else re-points their channels at the new address.
            for other in self.servers.values():
                other.set_peers(self.addrs)
        await self._drop_probe(name)  # old address is stale

    async def join(self, name: str, seed: Optional[str] = None) -> None:
        """Boot a brand-new member wired to a single seed peer; gossip
        spreads its membership to everyone else (and everyone else's
        to it) without manual rewiring.  Returns once the member's
        recovery has finished."""
        if name in self.servers:
            raise RuntimeError("%s is already running" % name)
        if seed is None:
            seed = next(iter(self.servers))
        server = self._make_server(name, peers=[name, seed])
        port = await server.bind(self.host, 0)
        self.servers[name] = server
        self.addrs[name] = (self.host, port)
        if name not in self.names:
            self.names.append(name)
        server.set_peers({seed: self.addrs[seed]})
        server.start_channels()
        await server.recovered()

    # -- fault helpers -------------------------------------------------------

    def partition(self, groups: Sequence[Sequence[str]]) -> None:
        """Sever every inter-group link (requires an installed plan)."""
        if self.faults is None:
            raise RuntimeError("cluster was built without a FaultPlan")
        self.faults.partition(groups)

    def heal(self) -> None:
        """Heal all severed links."""
        if self.faults is None:
            raise RuntimeError("cluster was built without a FaultPlan")
        self.faults.heal_all()

    # -- access --------------------------------------------------------------

    async def client(self, name: str, **options) -> LiveClient:
        """Open a (cluster-managed) client connection to one replica."""
        host, port = self.addrs[name]
        client = await LiveClient.connect(host, port, **options)
        self._clients.append(client)
        return client

    async def _probe(self, name: str) -> LiveClient:
        """The cached stats/values connection for one replica."""
        client = self._probe_clients.get(name)
        if client is None:
            host, port = self.addrs[name]
            client = await LiveClient.connect(
                host, port, reconnect=False, request_timeout=5.0
            )
            self._probe_clients[name] = client
        return client

    async def _drop_probe(self, name: str) -> None:
        client = self._probe_clients.pop(name, None)
        if client is not None:
            await client.close()

    # -- cluster-wide probes -------------------------------------------------

    async def settle(self, timeout: float = 30.0) -> None:
        """Wait until every replica is quiescent: all durable queues
        drained, no held-back MSets, no update awaiting peer acks.

        Each replica blocks the ``settle`` verb on its drain condition
        (no stats busy-polling); a sweep repeats only while some site
        actually had to wait — draining site A can enqueue work at
        site B, so the sweep loops until a pass where every site was
        already drained on arrival.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    "cluster did not settle in %.1fs" % timeout
                )
            any_waited = False
            clean = True
            for name in list(self.servers):
                try:
                    client = await self._probe(name)
                    reply = await client.settle(timeout=remaining)
                except (ConnectionError, OSError):
                    # A replica mid-restart (or a stale cached address):
                    # drop the probe and re-sweep.
                    await self._drop_probe(name)
                    clean = False
                    break
                except LiveETFailed as exc:
                    # The replica answered with a typed failure — this
                    # is a real error at a known site, never something
                    # to quietly absorb into the sweep.
                    if exc.code == "TimeoutError":
                        raise TimeoutError(
                            "cluster did not settle in %.1fs: "
                            "%s did not drain: %s" % (timeout, name, exc)
                        ) from None
                    raise RuntimeError(
                        "replica %s failed during settle: %s"
                        % (name, exc)
                    ) from exc
                if reply.get("waited"):
                    any_waited = True
            if clean and not any_waited:
                return
            if not clean:
                await asyncio.sleep(0.05)  # replica mid-restart: brief pause

    async def snapshot(self, name: str) -> Dict[str, object]:
        """Force one replica to snapshot + compact; returns summary."""
        client = await self._probe(name)
        return await client.snapshot()

    async def snapshot_all(self) -> Dict[str, Dict[str, object]]:
        """Snapshot + compact every running replica."""
        out: Dict[str, Dict[str, object]] = {}
        for name in list(self.servers):
            out[name] = await self.snapshot(name)
        return out

    async def wait_caught_up(
        self, name: str, timeout: float = 30.0, installs: int = 1
    ) -> None:
        """Block until one replica's recovery has finished — the wiped
        replica's 'I have rejoined' signal — and check that it installed
        at least ``installs`` peer snapshots since boot."""
        server = self.servers[name]
        try:
            await asyncio.wait_for(server.recovered(), timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(
                "%s did not finish catch-up in %.1fs" % (name, timeout)
            ) from None
        if server.recovery.installs < installs:
            raise RuntimeError(
                "%s recovered with %d snapshot installs, expected %d"
                % (name, server.recovery.installs, installs)
            )

    async def site_stats(self) -> Dict[str, Dict[str, object]]:
        """Stats from every running replica (peer health, backlogs)."""
        out: Dict[str, Dict[str, object]] = {}
        for name in list(self.servers):
            client = await self._probe(name)
            out[name] = await client.stats()
        return out

    async def site_metrics(self) -> Dict[str, Dict[str, object]]:
        """Scrape every running replica's metrics registry."""
        out: Dict[str, Dict[str, object]] = {}
        for name in list(self.servers):
            client = await self._probe(name)
            out[name] = await client.metrics()
        return out

    async def site_values(self) -> Dict[str, Dict[str, object]]:
        out = {}
        for name in list(self.servers):
            client = await self._probe(name)
            out[name] = await client.values()
        return out

    async def converged(self) -> bool:
        """All running replicas hold identical values."""
        values = await self.site_values()
        snapshots = [
            _canonical(site_values) for site_values in values.values()
        ]
        return all(snap == snapshots[0] for snap in snapshots)


class ShardedCluster:
    """One replica group per hash shard, managed as one unit.

    Each shard is a full :class:`LiveCluster` — its own engine,
    durable logs, peer channels, and snapshots — so epsilon gauges,
    degraded mode, and overlap bounds hold per shard exactly as they
    do for an unsharded group.  Site names encode the shard
    (``s2r0`` = shard 2, replica 0) and are reused across migrations,
    which is what makes migration's frontier translation the identity.

        cluster = ShardedCluster(n_shards=4, replicas=3)
        await cluster.start()
        router = cluster.router()
        await router.increment("balance", 100)
        await cluster.migrate(1)     # live: shard 1 moves groups
        await cluster.stop()
    """

    def __init__(
        self,
        n_shards: int = 2,
        replicas: int = 3,
        method: str = "commu",
        data_dir: Optional[pathlib.Path] = None,
        host: str = "127.0.0.1",
        fsync: bool = False,
        suspect_after: float = 0.75,
        heartbeat_interval: float = 0.25,
        observability: bool = True,
        server_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("a sharded cluster needs at least one shard")
        self.n_shards = n_shards
        self.replicas = replicas
        self.method = method
        self.host = host
        self.fsync = fsync
        self.suspect_after = suspect_after
        self.heartbeat_interval = heartbeat_interval
        self.observability = observability
        self.server_options = dict(server_options or {})
        self._own_tmp: Optional[tempfile.TemporaryDirectory] = None
        if data_dir is None:
            self._own_tmp = tempfile.TemporaryDirectory(
                prefix="repro-shards-"
            )
            data_dir = pathlib.Path(self._own_tmp.name)
        self.data_dir = pathlib.Path(data_dir)
        #: current owner group of each shard, by shard index.
        self.groups: List[LiveCluster] = []
        #: groups fenced out by a migration, kept running (they serve
        #: WRONG_SHARD hints) until :meth:`stop`.
        self.retired: List[LiveCluster] = []
        #: replacement group mid-migration (chaos hooks reach it here).
        self.pending: Optional[LiveCluster] = None
        #: shard-map epoch; bumps on every completed migration.
        self.epoch = 0
        #: per-shard owner-group generation (data-dir namespacing).
        self._generation = [0] * n_shards
        self._routers: List[ShardRouter] = []
        # The manifest records which generation directory owns each
        # shard's current data.  Without it, a process restart after a
        # migration would boot the retired generation — resurrecting
        # pre-migration state and orphaning acknowledged updates.
        self._manifest_path = self.data_dir / "shards.json"
        if self._manifest_path.exists():
            manifest = json.loads(self._manifest_path.read_text())
            if manifest["n_shards"] != n_shards:
                raise ValueError(
                    "data dir %s was laid out for %d shards, not %d"
                    % (self.data_dir, manifest["n_shards"], n_shards)
                )
            self._generation = [
                int(g) for g in manifest["generations"]
            ]
            # A restart boots on fresh ephemeral ports under the saved
            # epoch's addresses: publish past it so stale routers
            # (which only adopt strictly newer epochs) re-learn.
            self.epoch = int(manifest["epoch"]) + 1

    # -- lifecycle -------------------------------------------------------------

    def _group_names(self, shard: int) -> List[str]:
        return ["s%dr%d" % (shard, i) for i in range(self.replicas)]

    def _make_group(self, shard: int, accepting: bool) -> LiveCluster:
        generation = self._generation[shard]
        return LiveCluster(
            site_names=self._group_names(shard),
            method=self.method,
            data_dir=self.data_dir / ("shard%d" % shard)
            / ("g%d" % generation),
            host=self.host,
            fsync=self.fsync,
            suspect_after=self.suspect_after,
            heartbeat_interval=self.heartbeat_interval,
            observability=self.observability,
            server_options=self.server_options,
            shard={
                "index": shard,
                "count": self.n_shards,
                "epoch": self.epoch,
                "accepting": accepting,
            },
        )

    @staticmethod
    def _group_addrs(group: LiveCluster) -> List[Tuple[str, int]]:
        return [group.addrs[name] for name in group.names]

    @property
    def map(self) -> ShardMap:
        """The current routing table."""
        return ShardMap(
            self.epoch,
            tuple(
                tuple(self._group_addrs(group)) for group in self.groups
            ),
        )

    def _save_manifest(self) -> None:
        payload = json.dumps(
            {
                "n_shards": self.n_shards,
                "epoch": self.epoch,
                "generations": self._generation,
            },
            indent=2,
        )
        write_atomic(self._manifest_path, (payload + "\n").encode("utf-8"))

    async def start(self) -> None:
        for shard in range(self.n_shards):
            group = self._make_group(shard, accepting=True)
            await group.start()
            self.groups.append(group)
        # Seed every replica with the current map so ``stats`` and the
        # map hint on WRONG_SHARD refusals work from boot.
        await self._broadcast_map()
        self._save_manifest()

    async def stop(self) -> None:
        for router in self._routers:
            await router.close()
        self._routers.clear()
        for group in self.groups + self.retired:
            await group.stop()
        if self.pending is not None:
            await self.pending.stop()
            self.pending = None
        self.groups.clear()
        self.retired.clear()
        if self._own_tmp is not None:
            self._own_tmp.cleanup()
            self._own_tmp = None

    # -- access ----------------------------------------------------------------

    def router(self, **options: Any) -> ShardRouter:
        """A (cluster-managed) router over the current map."""
        router = ShardRouter(self.map, **options)
        self._routers.append(router)
        return router

    async def _broadcast_map(self) -> None:
        """Push the current map to every running owner replica."""
        payload = self.map.to_dict()
        for group in self.groups:
            group.shard["epoch"] = self.epoch  # restarts boot current
            for name in list(group.servers):
                await request_once(
                    group.addrs[name], "shard-adopt", map=payload
                )
        # Refresh retired groups' WRONG_SHARD hints too (best-effort —
        # they are on their way out and may already be gone).
        for group in self.retired:
            for name in list(group.servers):
                try:
                    await request_once(
                        group.addrs[name], "shard-retire", map=payload
                    )
                except (
                    ConnectionError,
                    OSError,
                    asyncio.TimeoutError,
                    LiveETFailed,
                ):
                    pass

    # -- cluster-wide probes ---------------------------------------------------

    async def settle(self, timeout: float = 30.0) -> None:
        """Drain every shard concurrently (max-of-shards latency)."""
        await asyncio.gather(
            *(group.settle(timeout) for group in self.groups)
        )

    async def converged(self) -> bool:
        """Every group's replicas agree within that group."""
        results = await asyncio.gather(
            *(group.converged() for group in self.groups)
        )
        return all(results)

    async def values(self) -> Dict[str, Any]:
        """Union of all shards' stores (keys are disjoint by hash)."""
        merged: Dict[str, Any] = {}
        for group in self.groups:
            client = await group._probe(group.names[0])
            merged.update(await client.values())
        return merged

    async def shard_stats(self) -> Dict[int, Dict[str, Dict[str, Any]]]:
        """Per-shard, per-site stats (shard index -> site -> stats)."""
        return {
            shard: await group.site_stats()
            for shard, group in enumerate(self.groups)
        }

    # -- elasticity ------------------------------------------------------------

    async def migrate(
        self,
        shard: int,
        before_install=None,
        settle_timeout: float = 30.0,
        step_timeout: float = 30.0,
    ) -> ShardMap:
        """Move one shard onto a fresh replica group, live.

        Epoch-fenced cutover (see :mod:`repro.live.shard`): the old
        group is fenced and drained, each replacement replica installs
        its same-named counterpart's snapshot, and the replacements
        adopt the bumped map.  The old group stays up, answering
        ``WRONG_SHARD`` with the new map, until :meth:`stop`.
        ``before_install`` is a chaos hook run between the fence and the
        transfer (the replacement group is reachable as :attr:`pending`
        there).
        """
        if not 0 <= shard < self.n_shards:
            raise ValueError("no such shard: %d" % shard)
        old = self.groups[shard]
        self._generation[shard] += 1
        new = self._make_group(shard, accepting=False)
        await new.start()
        self.pending = new
        new_map = self.map.with_group(shard, self._group_addrs(new))
        loop = asyncio.get_running_loop()
        try:
            await migrate_shard(
                site_names=list(old.names),
                old_addr_of=lambda name: old.addrs[name],
                new_addr_of=lambda name: new.addrs[name],
                new_map=new_map.to_dict(),
                settle_timeout=settle_timeout,
                step_timeout=step_timeout,
                clock=loop.time,
                before_install=before_install,
            )
        finally:
            self.pending = None
        self.groups[shard] = new
        self.retired.append(old)
        self.epoch = new_map.epoch
        new.shard["accepting"] = True  # restarts boot accepting
        final = self.map
        if final.groups != new_map.groups:
            # A replacement replica healed on a new port mid-cutover:
            # the fence-time map is stale, so publish a fresher epoch.
            self.epoch += 1
        await self._broadcast_map()
        self._save_manifest()
        return self.map


def _canonical(values: Dict[str, object]) -> Dict[str, object]:
    """Normalize sequence-valued objects (appends commute as multisets)."""
    out: Dict[str, object] = {}
    for key, value in values.items():
        if isinstance(value, (list, tuple)):
            out[key] = tuple(sorted(map(repr, value)))
        else:
            out[key] = value
    return out
