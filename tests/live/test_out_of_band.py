"""A replica's out-of-band requests: one exchange, one snapshot pull.

``ReplicaServer._peer_request`` is the only way a replica asks a named
peer anything (surveys, snapshot pulls, election votes): it dials the
configured address, else the gossiped one, and refuses when either
direction of the link is cut.  ``fetch-install`` (shard migration)
pulls through the same checks as rejoin and keeps its idempotent
``current`` answer.
"""

import asyncio

import pytest

from repro.live import FaultPlan, LinkFaults, LiveCluster, LiveETFailed
from repro.live.client import request_once
from repro.live.server import ReplicaServer


def run(coro):
    return asyncio.run(coro)


async def _target(tmp_path, peers):
    """A cold replica named ``a`` that fetch-install may write into."""
    server = ReplicaServer("a", peers=peers, data_dir=tmp_path / "target")
    port = await server.bind("127.0.0.1", 0)
    return server, ("127.0.0.1", port)


async def _increment(addr, key, amount, times):
    for _ in range(times):
        await request_once(addr, "update", ops=[["inc", key, amount]])


class TestFetchInstall:
    def test_retry_after_a_completed_install_answers_current(self, tmp_path):
        async def scenario():
            source = LiveCluster(site_names=["a"], data_dir=tmp_path / "src")
            await source.start()
            target, addr = await _target(tmp_path, ["a"])
            try:
                host, port = source.addrs["a"]
                await _increment(source.addrs["a"], "k", 1, 3)
                reply = await request_once(
                    addr, "fetch-install", host=host, port=port, site="a"
                )
                assert reply["installed"] is True
                assert target.engine.snapshot() == {"k": 3}

                # The installed replica moves on; a retried transfer
                # must not roll it back.
                await _increment(addr, "k", 10, 1)
                reply = await request_once(
                    addr, "fetch-install", host=host, port=port, site="a"
                )
                assert reply["installed"] is False
                assert reply["current"] is True
                assert target.engine.snapshot() == {"k": 13}
                assert target.catchup_installs == 1
            finally:
                await target.stop()
                await source.stop()

        run(scenario())

    def test_counterpart_ahead_and_behind_is_refused(self, tmp_path):
        async def scenario():
            source = LiveCluster(
                site_names=["a", "b"], data_dir=tmp_path / "src"
            )
            await source.start()
            target, addr = await _target(tmp_path, ["a", "b"])
            try:
                await _increment(source.addrs["b"], "k", 1, 2)
                await _increment(source.addrs["a"], "k", 1, 3)
                await source.settle()
                # Ahead of the counterpart on its own channel (5 > 3),
                # behind it on b's (0 < 2): neither image covers the other.
                await _increment(addr, "k", 100, 5)
                host, port = source.addrs["a"]
                with pytest.raises(LiveETFailed, match="diverged"):
                    await request_once(
                        addr, "fetch-install", host=host, port=port, site="a"
                    )
                assert target.engine.snapshot() == {"k": 500}
                assert target.catchup_installs == 0
                assert target._catching_up is False
            finally:
                await target.stop()
                await source.stop()

        run(scenario())

    def test_fetch_install_without_site_is_refused(self, tmp_path):
        async def scenario():
            source = LiveCluster(site_names=["a"], data_dir=tmp_path / "src")
            await source.start()
            target, addr = await _target(tmp_path, ["a"])
            try:
                host, port = source.addrs["a"]
                with pytest.raises(LiveETFailed, match="site") as info:
                    await request_once(
                        addr, "fetch-install", host=host, port=port
                    )
                assert info.value.code == "ValueError"
                assert target.catchup_installs == 0
            finally:
                await target.stop()
                await source.stop()

        run(scenario())


class TestPeerRequest:
    def test_a_cut_reverse_link_refuses(self, tmp_path):
        """The reply needs the link back: site1 -> site0 cut alone is
        enough to refuse site0's request to site1."""

        async def scenario():
            plan = FaultPlan(0)
            cluster = LiveCluster(
                n_sites=2, data_dir=tmp_path, faults=plan
            )
            await cluster.start()
            try:
                server = cluster.servers["site0"]
                plan.sever("site1", "site0")
                with pytest.raises(ConnectionError, match="no route"):
                    await server._peer_request("site1", "ping")
                plan.heal_all()
                reply = await server._peer_request("site1", "ping")
                assert reply["site"] == "site1"
            finally:
                await cluster.stop()

        run(scenario())

    def test_a_dropping_link_loses_the_request(self, tmp_path):
        """A peer request takes the link's faults like any frame the
        replica dials out: all dropped, it times out."""

        async def scenario():
            plan = FaultPlan(0)
            cluster = LiveCluster(
                n_sites=2, data_dir=tmp_path, faults=plan
            )
            # Cut after the boot: start() waits for each replica's
            # startup probe, which a link dropping every frame from
            # boot would keep from ever deciding.
            await cluster.start()
            plan.set_link("site0", "site1", LinkFaults(drop=1.0))
            try:
                server = cluster.servers["site0"]
                with pytest.raises(asyncio.TimeoutError):
                    await server._peer_request("site1", "ping", timeout=0.2)
                assert plan.counts["dropped"] >= 1
                reply = await cluster.servers["site1"]._peer_request(
                    "site0", "ping"
                )
                assert reply["site"] == "site0"
            finally:
                await cluster.stop()

        run(scenario())

    def test_dials_the_gossiped_address(self, tmp_path):
        """No configured address: the membership table's is used."""

        async def scenario():
            names = ["site0", "site1"]
            servers = {
                name: ReplicaServer(name, peers=names, data_dir=tmp_path / name)
                for name in names
            }
            try:
                for server in servers.values():
                    await server.bind("127.0.0.1", 0)
                asker = servers["site0"]
                assert asker.peer_addrs == {}
                with pytest.raises(ConnectionError, match="no route"):
                    await asker._peer_request("site1", "ping")
                asker.membership.merge(servers["site1"].membership.wire())
                reply = await asker._peer_request("site1", "ping")
                assert reply["site"] == "site1"
                assert asker.peer_addrs == {}
            finally:
                for server in servers.values():
                    await server.stop()

        run(scenario())
