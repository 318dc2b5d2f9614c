"""A replica's requests to its peers, and one snapshot pull.

``ReplicaServer._peer_request`` is the only way a replica asks a named
peer anything (order tokens, election votes, surveys, snapshot pulls):
every request to one peer goes over one kept-open connection, dialed at
the configured address, else the gossiped one, dialed again once the
address moves, and refused when either direction of the link is cut.
A round that asks every peer asks them at once, so silent peers cost
one timeout, not one each.  ``fetch-install`` (shard migration) pulls
through the same checks as rejoin and keeps its idempotent ``current``
answer.
"""

import asyncio
import time

import pytest

from repro.live import FaultPlan, LinkFaults, LiveCluster, LiveETFailed
from repro.live import server as server_module
from repro.live.client import request_once
from repro.live.server import ReplicaServer

from .wire import listen


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
                assert target.recovery.installs == 1
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
                assert target.recovery.installs == 0
                assert target.recovery.state is None
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
                assert target.recovery.installs == 0
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
        """No configured address: the membership table's is used, by a
        request and by the peer channel alike."""

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
                assert asker.membership.configured == {}
                with pytest.raises(ConnectionError, match="no route"):
                    await asker._peer_request("site1", "ping")
                asker.membership.table.merge(
                    servers["site1"].membership.table.wire()
                )
                reply = await asker._peer_request("site1", "ping")
                assert reply["site"] == "site1"
                assert asker.membership.configured == {}
                # The channel dials the same address: an increment at
                # site0 reaches site1's inbox over it.
                asker.start_channels()
                await asker.recovered()
                await request_once(
                    ("127.0.0.1", asker.port), "update",
                    ops=[["inc", "k", 1]],
                )
                inbox = servers["site1"].inboxes["site0"]
                for _ in range(250):
                    if inbox.frontier:
                        break
                    await asyncio.sleep(0.02)
                assert inbox.frontier == 1
                assert servers["site1"].engine.snapshot() == {"k": 1}
            finally:
                for server in servers.values():
                    await server.stop()

        run(scenario())

    def test_every_request_to_a_peer_shares_one_connection(self, tmp_path):
        """Requests of several verbs, an order request among them, reach
        the peer on one connection; once the peer moves to a new port,
        the next request dials the new address; a stopped replica
        leaves no connection open."""

        def record(server, into):
            serve = server._serve_request

            def recording(frame, frames):
                into.append((frame.get("verb"), frames))
                serve(frame, frames)

            server._serve_request = recording

        async def scenario():
            cluster = LiveCluster(n_sites=2, data_dir=tmp_path)
            await cluster.start()
            try:
                asker = cluster.servers["site0"]
                seen = []
                record(cluster.servers["site1"], seen)
                asks = [
                    asker._peer_request("site1", "ping"),
                    asker._peer_request("site1", "stats"),
                    asker._peer_request(
                        "site1", "elect", epoch=0, candidate="site0"
                    ),
                    asker._peer_request("site1", "order", src="site0"),
                ]
                replies = await asyncio.gather(*asks, return_exceptions=True)
                assert replies[0]["site"] == "site1"
                # site1 is no order site: the request arrives, refused.
                assert isinstance(replies[3], LiveETFailed)
                assert sorted(verb for verb, _ in seen) == sorted([
                    "ping", "stats", "elect", "order"
                ])
                assert len({id(frames) for _, frames in seen}) == 1

                await cluster.kill("site1")
                await cluster.restart("site1")
                moved = []
                record(cluster.servers["site1"], moved)
                for _ in range(2):
                    reply = await asker._peer_request("site1", "ping")
                    assert reply["site"] == "site1"
                assert len({id(frames) for _, frames in moved}) == 1

                await cluster.kill("site0")
                kept = moved[0][1]._transport
                for _ in range(100):
                    if kept.is_closing():
                        break
                    await asyncio.sleep(0.02)
                assert kept.is_closing()
            finally:
                await cluster.stop()

        run(scenario())

    def test_a_late_reply_from_a_deposed_leader_is_dropped(
        self, tmp_path, monkeypatch
    ):
        """site0 asks the sequencer site1 for an order token; site1
        stays silent, so site0 re-sends the request, under the same id,
        to the new leader site2.  site1's answer then arrives late, on
        its own connection: it resolves nothing, and the token site0
        uses is site2's."""
        monkeypatch.setattr(server_module, "ORDER_RESEND", 0.5)

        async def scenario():
            leader = ["site1"]
            asked = asyncio.Event()
            stale_sent = asyncio.Event()

            async def old_leader(raw):
                frame = await raw.recv()
                leader[0] = "site2"
                await asked.wait()
                raw.send({"type": "response", "id": frame["id"], "ok": True,
                          "order": [1, 0]})
                stale_sent.set()
                await raw.recv()  # until site0 hangs up

            async def new_leader(raw):
                frame = await raw.recv()
                asked.set()
                await stale_sent.wait()
                await asyncio.sleep(0.1)  # the stale answer lands first
                raw.send({"type": "response", "id": frame["id"], "ok": True,
                          "order": [7, 1]})
                await raw.recv()

            listeners = [await listen(old_leader), await listen(new_leader)]
            asker = ReplicaServer(
                "site0", peers=["site0", "site1", "site2"],
                data_dir=tmp_path / "site0",
            )
            await asker.bind("127.0.0.1", 0)
            try:
                asker.set_peers({
                    name: listener.sockets[0].getsockname()[:2]
                    for name, listener in zip(("site1", "site2"), listeners)
                })
                asker.current_leader = lambda: leader[0]
                token = await asyncio.wait_for(asker._acquire_order(), 5.0)
                assert token == (7, 1)
            finally:
                await asker.stop()
                for listener in listeners:
                    listener.close()

        run(scenario())


class TestAllPeersRounds:
    """Two of site0's four peers drop every frame site0 sends them: a
    round that asks every peer waits one timeout for both, not one
    timeout each."""

    TIMEOUT = 0.5

    async def _round(self, tmp_path, monkeypatch, ask):
        monkeypatch.setattr(server_module, "ACK_TIMEOUT", self.TIMEOUT)
        plan = FaultPlan(0)
        cluster = LiveCluster(
            n_sites=5, method="ordup", data_dir=tmp_path, faults=plan
        )
        await cluster.start()
        try:
            asker = cluster.servers["site0"]
            for silent in ("site3", "site4"):
                plan.set_link("site0", silent, LinkFaults(drop=1.0))
            started = time.monotonic()
            await ask(asker)
            elapsed = time.monotonic() - started
            assert plan.counts["dropped"] >= 2
            return asker, elapsed
        finally:
            await cluster.stop()

    def test_a_campaign_asks_every_peer_at_once(self, tmp_path, monkeypatch):
        asker, elapsed = run(
            self._round(tmp_path, monkeypatch, lambda s: s._campaign())
        )
        # Three votes of five, its own among them: a quorum.
        assert asker.current_leader() == "site0"
        assert asker.election.epoch == 1
        assert elapsed < 1.5 * self.TIMEOUT

    def test_the_epoch_probe_asks_every_peer_at_once(
        self, tmp_path, monkeypatch
    ):
        async def probe(asker):
            asker._epoch_synced = False
            await asker._epoch_probe()

        asker, elapsed = run(self._round(tmp_path, monkeypatch, probe))
        assert asker._epoch_synced
        assert elapsed < 1.5 * self.TIMEOUT
