"""Gossip membership, adaptive failure detection, heartbeat jitter.

Unit tests pin the SWIM-style merge semantics (incarnation versioning,
severity tie-breaks, self-refutation) and the adaptive suspicion bound
(mean + 4 sigma of recent heartbeat gaps); integration tests boot real
clusters and check that membership converges by gossip alone — a
joined replica is discovered in both directions without manual wiring,
and an address change after a restart propagates without the test
re-pointing anyone.
"""

import asyncio
import math
import random
import time

import pytest

from repro.core.operations import WriteOp
from repro.live import LiveClient, LiveCluster
from repro.live.durable_queue import ControlLog
from repro.live.engine import make_engine
from repro.live.faults import FaultPlan, LinkFaults
from repro.live.gossip import (
    ALIVE,
    DEAD,
    LEFT,
    SUSPECT,
    FailureDetector,
    MembershipTable,
    NodeRecord,
)
from repro.live.server import ReplicaServer

from .wire import RawConn, listen


def run(coro):
    return asyncio.run(coro)


class TestNodeRecord:
    def test_wire_roundtrip(self):
        rec = NodeRecord(
            "siteA", host="127.0.0.1", port=7001, incarnation=3,
            status=SUSPECT, frontier=42, shard=1,
        )
        back = NodeRecord.from_wire(rec.wire())
        assert back.wire() == rec.wire()

    def test_shard_omitted_when_unsharded(self):
        assert "shard" not in NodeRecord("siteA").wire()


class TestMembershipMerge:
    def _table(self):
        table = MembershipTable("siteA")
        table.update_self(host="127.0.0.1", port=7000)
        return table

    def test_unknown_record_inserts(self):
        table = self._table()
        changed = table.merge(
            [NodeRecord("siteB", "127.0.0.1", 7001, incarnation=1).wire()]
        )
        assert changed == ["siteB"]
        assert table.address("siteB") == ("127.0.0.1", 7001)

    def test_higher_incarnation_wins(self):
        table = self._table()
        table.merge([NodeRecord("siteB", "h1", 1, incarnation=2,
                                status=DEAD).wire()])
        # The node itself re-asserts alive at a higher incarnation —
        # the refutation out-versions the death rumor.
        changed = table.merge(
            [NodeRecord("siteB", "h2", 2, incarnation=3).wire()]
        )
        assert changed == ["siteB"]
        rec = table.get("siteB")
        assert (rec.status, rec.host, rec.incarnation) == (ALIVE, "h2", 3)

    def test_higher_incarnation_keeps_max_frontier(self):
        table = self._table()
        table.merge([NodeRecord("siteB", incarnation=1,
                                frontier=90).wire()])
        table.merge([NodeRecord("siteB", incarnation=2,
                                frontier=10).wire()])
        # Frontiers only advance: the newer record wins the liveness
        # fields but cannot roll back what we know was applied.
        assert table.get("siteB").frontier == 90

    def test_equal_incarnation_escalates_severity_only(self):
        table = self._table()
        table.merge([NodeRecord("siteB", incarnation=2,
                                status=SUSPECT).wire()])
        # alive <- suspect at the same incarnation: no de-escalation.
        table.merge([NodeRecord("siteB", incarnation=2).wire()])
        assert table.get("siteB").status == SUSPECT
        table.merge([NodeRecord("siteB", incarnation=2,
                                status=DEAD).wire()])
        assert table.get("siteB").status == DEAD

    def test_equal_incarnation_advances_frontier_and_address(self):
        table = self._table()
        table.merge([NodeRecord("siteB", "h1", 1, incarnation=1,
                                frontier=5).wire()])
        changed = table.merge(
            [NodeRecord("siteB", "h2", 2, incarnation=1,
                        frontier=9).wire()]
        )
        assert changed == ["siteB"]
        rec = table.get("siteB")
        assert (rec.host, rec.port, rec.frontier) == ("h2", 2, 9)

    def test_lower_incarnation_is_ignored(self):
        table = self._table()
        table.merge([NodeRecord("siteB", "h2", 2, incarnation=3).wire()])
        changed = table.merge(
            [NodeRecord("siteB", "h1", 1, incarnation=2,
                        status=DEAD).wire()]
        )
        assert changed == []
        rec = table.get("siteB")
        assert (rec.status, rec.host) == (ALIVE, "h2")

    def test_self_refutation_bumps_incarnation(self):
        table = self._table()
        mine = table.self_record()
        start = mine.incarnation
        changed = table.merge(
            [NodeRecord("siteA", incarnation=start + 4,
                        status=DEAD).wire()]
        )
        assert changed == ["siteA"]
        assert table.self_record().status == ALIVE
        assert table.self_record().incarnation == start + 5

    def test_observe_seeds_at_incarnation_zero(self):
        table = self._table()
        table.observe("siteB", "127.0.0.1", 7001)
        assert table.get("siteB").incarnation == 0
        # Any gossiped record from the node itself (incarnation >= 1)
        # out-versions the static seed.
        table.merge([NodeRecord("siteB", "10.0.0.9", 9001,
                                incarnation=1).wire()])
        assert table.address("siteB") == ("10.0.0.9", 9001)

    def test_set_status_escalates_but_never_deescalates(self):
        table = self._table()
        table.observe("siteB")
        assert table.set_status("siteB", SUSPECT)
        assert table.set_status("siteB", DEAD)
        assert not table.set_status("siteB", SUSPECT)
        assert not table.set_status("siteB", ALIVE)
        assert table.get("siteB").status == DEAD

    def test_left_members_drop_out_of_active_views(self):
        table = self._table()
        table.observe("siteB")
        table.observe("siteC")
        table.set_status("siteC", LEFT)
        assert table.member_names() == ["siteA", "siteB"]
        assert table.member_names(include_left=True) == [
            "siteA", "siteB", "siteC",
        ]
        assert table.active_count() == 2


class TestMembershipPersistence:
    def test_incarnation_bumps_every_boot(self, tmp_path):
        path = tmp_path / "control.log"
        table = MembershipTable("siteA", ControlLog(path))
        first = table.self_record().incarnation
        table.update_self(host="127.0.0.1", port=7000)

        reborn = MembershipTable("siteA", ControlLog(path))
        # A reboot re-asserts alive at a strictly higher incarnation,
        # so the restarted node's record out-versions any death rumor
        # gossiped while it was down.
        assert reborn.self_record().incarnation == first + 1
        assert reborn.self_record().status == ALIVE
        assert reborn.address("siteA") == ("127.0.0.1", 7000)

    def test_peer_records_survive_restart(self, tmp_path):
        path = tmp_path / "control.log"
        table = MembershipTable("siteA", ControlLog(path))
        table.merge([NodeRecord("siteB", "127.0.0.1", 7001,
                                incarnation=2).wire()])
        reborn = MembershipTable("siteA", ControlLog(path))
        assert reborn.address("siteB") == ("127.0.0.1", 7001)
        assert reborn.get("siteB").incarnation == 2

    def test_an_address_observed_later_survives_restart(self, tmp_path):
        path = tmp_path / "control.log"
        table = MembershipTable("siteA", ControlLog(path))
        table.observe("siteB")
        table.observe("siteB", "10.0.0.2", 7001)
        reborn = MembershipTable("siteA", ControlLog(path))
        assert reborn.address("siteB") == ("10.0.0.2", 7001)


class TestFailureDetector:
    def test_floor_applies_before_enough_samples(self):
        det = FailureDetector(floor=0.5)
        det.heartbeat("p", 0.0)
        det.heartbeat("p", 0.1)
        assert det.timeout("p") == 0.5
        assert not det.suspect("p", 0.5)
        assert det.suspect("p", 0.7)

    def test_adaptive_bound_tracks_jittery_arrivals(self):
        det = FailureDetector(floor=0.15, min_samples=8)
        rng = random.Random(7)
        now = 0.0
        gaps = []
        for _ in range(40):
            gap = rng.uniform(0.05, 0.3)
            gaps.append(gap)
            now += gap
            det.heartbeat("p", now)
        bound = det.timeout("p")
        # The bound adapted above the (flappy) fixed floor and above
        # every gap actually observed.
        assert bound > 0.15
        assert bound > max(gaps)
        assert det.dead("p", now + 3.0 * bound + 0.01)
        assert not det.dead("p", now + 3.0 * bound - 0.01)

    def test_no_flap_regression_under_high_jitter(self):
        """The fixed-threshold detector this replaces would flap on a
        profile whose gaps routinely exceed the floor; the adaptive
        bound must ride it out after warm-up."""
        det = FailureDetector(floor=0.15, min_samples=8)
        rng = random.Random(23)
        now = 0.0
        det.heartbeat("p", now)
        arrivals = []
        for _ in range(60):
            now += rng.uniform(0.05, 0.3)
            arrivals.append(now)
        flaps = 0
        fixed_flaps = 0
        for i, at in enumerate(arrivals):
            if i >= 8:
                # Just before each arrival: the peer is at its stalest.
                if det.suspect("p", at - 1e-6):
                    flaps += 1
                if det.staleness("p", at - 1e-6) > 0.15:
                    fixed_flaps += 1
            det.heartbeat("p", at)
        assert flaps == 0
        # ...while a fixed 0.15s threshold would have suspected the
        # healthy peer over and over on the same arrival sequence.
        assert fixed_flaps > 10

    def test_forget_clears_history(self):
        det = FailureDetector(floor=0.5)
        det.heartbeat("p", 1.0)
        det.forget("p")
        assert det.last_seen("p") is None
        assert not det.suspect("p", 99.0)

    def test_cached_bound_equals_the_recomputation(self):
        """The bound is computed when the window changes and read per
        query; it must be the documented function of the window — to
        1e-9 relative (running sums, not a pass per arrival), after
        every arrival, over random gap sequences."""
        rng = random.Random(16)
        for _ in range(40):
            floor = rng.choice([0.05, 0.5])
            window = rng.choice([4, 64])
            min_samples = rng.choice([2, 8])
            det = FailureDetector(floor, window, min_samples)
            now, gaps = 0.0, []
            det.heartbeat("p", now)
            for _ in range(rng.randint(1, 150)):
                # Zero gaps (same-instant arrivals) are not samples.
                then, now = now, now + rng.choice([0.0, rng.uniform(0.001, 2)])
                det.heartbeat("p", now)
                if now > then:
                    gaps.append(now - then)
                recent = gaps[-window:]
                expected = floor
                if len(recent) >= min_samples:
                    mean = sum(recent) / len(recent)
                    var = sum((g - mean) ** 2 for g in recent) / len(recent)
                    expected = max(floor, mean + 4.0 * math.sqrt(var))
                assert math.isclose(det.timeout("p"), expected, rel_tol=1e-9)
                assert det.suspect("p", now + expected * 1.01)
                assert not det.suspect("p", now + expected * 0.99)
            det.forget("p")
            assert det.timeout("p") == floor


class TestPeerLiveness:
    """A replica's one liveness record per peer is its detector's, and
    a peer is watched from the start of its channel."""

    def test_the_start_mark_is_no_gap_sample(self):
        det = FailureDetector(floor=0.5, min_samples=2)
        det.watch("p", 0.0)
        assert det.last_seen("p") == 0.0
        det.heartbeat("p", 5.0)
        for i in range(1, 4):
            det.heartbeat("p", 5.0 + 0.1 * i)
        # A 5 s gap from the start mark would lift the bound above 2 s.
        assert det.timeout("p") == 0.5
        det.watch("p", 9.0)  # heard from already: no new start mark
        assert math.isclose(det.last_seen("p"), 5.3)

    def test_never_watched_not_yet_heard_and_dead(self, tmp_path):
        async def main():
            clock = [100.0]
            server = ReplicaServer(
                "siteA", ["siteA", "siteB"], tmp_path / "siteA",
                suspect_after=0.5,
            )
            server.engine.clock = lambda: clock[0]
            await server.bind("127.0.0.1", 0)
            members = server.membership
            try:
                # Never watched: not alive, and not dead either.
                assert not members.alive("siteB", clock[0])
                assert not members.dead("siteB", clock[0])
                server.start_channels()
                # Watched, not yet heard from: alive for suspect_after.
                assert members.alive("siteB", 100.4)
                assert not members.alive("siteB", 100.6)
                assert not members.dead("siteB", 100.6)
                assert members.suspected(100.6) == ("siteB",)
                # Dead after dead_multiple times that.
                assert not members.dead("siteB", 101.4)
                assert members.dead("siteB", 101.6)
            finally:
                await server.stop()

        run(main())


class TestHeartbeatJitter:
    def _server(self, tmp_path, name="siteA"):
        return ReplicaServer(
            name, ["siteA", "siteB"], tmp_path / name,
            heartbeat_interval=0.2,
        )

    def test_jitter_spreads_within_bounds(self, tmp_path):
        server = self._server(tmp_path)
        samples = [server._heartbeat_jitter() for _ in range(200)]
        assert all(0.15 <= s <= 0.25 for s in samples)
        # Actually jittered: the spread covers a real chunk of the
        # +/-25% band, so replica heartbeats cannot phase-lock.
        assert max(samples) - min(samples) > 0.05

    def test_jitter_streams_differ_across_replicas(self, tmp_path):
        one = self._server(tmp_path, "siteA")
        two = ReplicaServer(
            "siteB", ["siteA", "siteB"], tmp_path / "siteB",
            heartbeat_interval=0.2,
        )
        a = [one._heartbeat_jitter() for _ in range(20)]
        b = [two._heartbeat_jitter() for _ in range(20)]
        assert a != b


class TestLiveGossip:
    def test_membership_converges_across_cluster(self, tmp_path):
        async def main():
            cluster = LiveCluster(
                n_sites=3, data_dir=tmp_path, heartbeat_interval=0.05,
            )
            await cluster.start()
            try:
                names = set(cluster.names)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    tables = [
                        cluster.servers[n].membership.table for n in names
                    ]
                    if all(
                        set(t.member_names()) == names
                        and all(t.address(m) for m in names)
                        for t in tables
                    ):
                        break
                    await asyncio.sleep(0.05)
                for name in names:
                    table = cluster.servers[name].membership.table
                    assert set(table.member_names()) == names
                    for member in names:
                        assert table.address(member) is not None
                # Clients learn the same view from stats replies.
                client = await cluster.client(cluster.names[0])
                addrs = await client.refresh_membership()
                assert len(addrs) == len(names)
                await client.close()
            finally:
                await cluster.stop()

        run(main())

    def test_joined_replica_discovered_both_ways(self, tmp_path):
        async def main():
            cluster = LiveCluster(
                n_sites=3, data_dir=tmp_path, heartbeat_interval=0.05,
            )
            await cluster.start()
            try:
                client = await cluster.client("site0")
                for i in range(12):
                    await client.increment("acct%d" % (i % 3), 1)
                # One seed address; everything else travels by gossip.
                await cluster.join("site3", seed="site0")
                expect = set(cluster.names)
                deadline = time.monotonic() + 15.0
                while time.monotonic() < deadline:
                    joined = cluster.servers["site3"].membership.table
                    far = cluster.servers["site2"].membership
                    if (
                        set(joined.member_names()) == expect
                        and far.address("site3") is not None
                    ):
                        break
                    await asyncio.sleep(0.05)
                # The joiner learned every member through its one seed,
                # and a replica the joiner never dialed learned the
                # joiner's address.
                assert set(
                    cluster.servers["site3"].membership.table.member_names()
                ) == expect
                assert (
                    cluster.servers["site2"].membership.address("site3")
                    is not None
                )
                # State flows to the new member without manual wiring.
                await client.increment("acct0", 1)
                await cluster.settle(timeout=30.0)
                values = await cluster.site_values()
                assert values["site3"] == values["site0"]
                await client.close()
            finally:
                await cluster.stop()

        run(main())

    def test_ritu_stamp_ties_break_on_the_site_name(self):
        """Each RITU origin stamps a write ``(lamport, site name)``, so
        two writes stamped at the same Lamport time at different sites
        still order, and every arrival order keeps the same winner."""

        async def main():
            ends = {}
            for order in ((0, 1), (1, 0)):
                near = make_engine("ritu", "site1")
                far = make_engine("ritu", "site3")
                msets = [
                    near.make_mset("site1:1", (WriteOp("k", "from-site1"),)),
                    far.make_mset("site3:1", (WriteOp("k", "from-site3"),)),
                ]
                assert [m.ops[0].timestamp for m in msets] == [
                    (1, "site1"), (1, "site3"),
                ]
                engine = make_engine("ritu", "site0")
                for i in order:
                    engine.accept(msets[i])
                ends[order] = engine.store.as_dict()["k"]
            assert ends == {(0, 1): "from-site3", (1, 0): "from-site3"}

        run(main())

    def test_ritu_joiner_breaks_stamp_ties_like_everyone_else(self, tmp_path):
        """RITU breaks a stamp tie by site.  A joiner must not share a
        tie-breaker with a founding member: concurrent blind writes at
        site1 and the joined site3, stamped at the same Lamport time,
        must resolve to one winner at every replica."""

        async def main():
            cluster = LiveCluster(
                n_sites=3, method="ritu", data_dir=tmp_path,
                faults=FaultPlan(0), heartbeat_interval=0.05,
            )
            await cluster.start()
            try:
                await cluster.join("site3", seed="site0")
                expect = set(cluster.names)
                deadline = time.monotonic() + 15.0
                while time.monotonic() < deadline and not all(
                    set(server.membership.table.member_names()) == expect
                    and server.membership.configured.keys() == expect - {name}
                    for name, server in cluster.servers.items()
                ):
                    await asyncio.sleep(0.05)
                # Cut site3 off so neither write sees the other before
                # it is stamped: both carry Lamport time 1.
                cluster.partition([["site0", "site1", "site2"], ["site3"]])
                near = await cluster.client("site1")
                far = await cluster.client("site3")
                await near.write("k", "from-site1")
                await far.write("k", "from-site3")
                cluster.heal()
                await cluster.settle(timeout=30.0)
                values = await cluster.site_values()
                assert {site: v["k"] for site, v in values.items()} == {
                    site: "from-site3" for site in expect
                }
                assert await cluster.converged()
            finally:
                await cluster.stop()

        run(main())

    def test_restarted_address_relearned_by_gossip(self, tmp_path):
        async def main():
            cluster = LiveCluster(
                n_sites=3, data_dir=tmp_path, heartbeat_interval=0.05,
            )
            await cluster.start()
            try:
                client = await cluster.client("site0")
                for i in range(8):
                    await client.increment("acct%d" % (i % 3), 1)
                await cluster.settle(timeout=30.0)
                # Restart on a fresh port *without* re-pointing the
                # other replicas: the survivors must learn the new
                # address from the restarted node's bumped-incarnation
                # gossip record, not from test wiring.
                await cluster.kill("site2")
                await cluster.restart("site2", rewire=False)
                deadline = time.monotonic() + 15.0
                new_addr = cluster.addrs["site2"]
                while time.monotonic() < deadline:
                    learned = cluster.servers["site0"].membership.address(
                        "site2"
                    )
                    if learned == new_addr:
                        break
                    await asyncio.sleep(0.05)
                assert (
                    cluster.servers["site0"].membership.address("site2")
                    == new_addr
                )
                await client.increment("acct0", 1)
                await cluster.settle(timeout=30.0)
                assert await cluster.converged()
                await client.close()
            finally:
                await cluster.stop()

        run(main())

    def test_no_degraded_flaps_under_wan_jitter(self, tmp_path):
        """Regression for the fixed-threshold detector: with frame
        delays routinely exceeding ``suspect_after``, a healthy cluster
        must stop flapping in and out of degraded mode once the
        adaptive bound has warmed up.  A delay holds up the frames
        behind it but not the sender, so the heartbeat interval is
        wide enough for the delay spread to open gaps past the floor."""

        async def main():
            plan = FaultPlan(
                seed=7,
                default=LinkFaults(delay_min=0.05, delay_max=0.25),
            )
            cluster = LiveCluster(
                n_sites=2,
                data_dir=tmp_path,
                faults=plan,
                heartbeat_interval=0.1,
                suspect_after=0.15,
            )
            await cluster.start()
            started = time.monotonic()
            try:
                await asyncio.sleep(6.0)
                warmup = started + 3.0
                late_flips = []
                for server in cluster.servers.values():
                    peer = [
                        p for p in cluster.names if p != server.name
                    ][0]
                    # The bound adapted above the flappy fixed floor.
                    assert server.membership.detector.timeout(peer) > 0.15
                    for event in server.trace.snapshot():
                        if (
                            event.get("kind") == "degraded"
                            and event.get("value") == 1
                            and event.get("ts", 0.0) > warmup
                        ):
                            late_flips.append((server.name, event))
                assert late_flips == [], late_flips
            finally:
                await cluster.stop()

        run(main())


def _heartbeat_drops(server):
    return server.registry.get_sample(
        "frames_dropped_total", reason="malformed_heartbeat"
    )


class TestGossipIsCheckedFirst:
    """A heartbeat's gossip digest is decoded whole before it changes
    anything, and only a mesh peer's leadership counts."""

    @pytest.mark.parametrize("gossip", [
        {"nodes": 5},
        {"leader": {"epoch": "e", "leader": "z"}},
    ])
    def test_a_malformed_digest_drops_the_frame(self, tmp_path, gossip):
        async def main():
            server = ReplicaServer("site0", peers=["site0"], data_dir=tmp_path)
            port = await server.bind()
            try:
                raw = await RawConn.open("127.0.0.1", port)
                raw.send({"type": "hb", "src": "x", "gossip": gossip})
                assert await raw.recv() is None  # the connection is closed
                await raw.close()
                assert _heartbeat_drops(server) == 1
                assert server.membership.table.member_names() == ["site0"]
            finally:
                await server.stop()

        run(main())

    def test_a_malformed_heartbeat_reply_drops_the_channel(self, tmp_path):
        """A peer's ``hb-ack`` whose ``seq`` is not an integer closes
        the channel connection and is counted, not raised."""

        async def main():
            replied = asyncio.get_running_loop().create_future()

            async def peer(raw):
                frame = await raw.recv()
                while frame is not None and frame["type"] != "hb":
                    frame = await raw.recv()
                raw.send({"type": "hb-ack", "src": "site1", "seq": "x"})
                if not replied.done():  # the sender redials after a close
                    replied.set_result(await raw.recv())
                await raw.close()

            fake = await listen(peer)
            server = ReplicaServer(
                "site0", peers=["site0", "site1"], data_dir=tmp_path,
                heartbeat_interval=0.05,
            )
            await server.bind()
            try:
                server.set_peers({"site1": fake.sockets[0].getsockname()[:2]})
                server.start_channels()
                assert await asyncio.wait_for(replied, timeout=5) is None
                assert _heartbeat_drops(server) == 1
            finally:
                await server.stop()
                fake.close()
                await fake.wait_closed()

        run(main())

    def test_a_stranger_cannot_install_a_leader(self, tmp_path):
        async def main():
            server = ReplicaServer(
                "site0", peers=["site0"], data_dir=tmp_path, method="ordup"
            )
            port = await server.bind()
            try:
                raw = await RawConn.open("127.0.0.1", port)
                raw.send({"type": "hb", "src": "stranger", "gossip": {
                    "leader": {"epoch": 999, "leader": "nobody", "base": 0},
                }})
                assert (await raw.recv())["type"] == "hb-ack"
                await raw.close()
                assert server.election.epoch == 0
                assert server.current_leader() == "site0"
                # ...so this replica still sequences its own updates.
                client = await LiveClient.connect("127.0.0.1", port)
                await asyncio.wait_for(client.increment("acct", 1), 5)
                await client.close()
            finally:
                await server.stop()

        run(main())

    def test_a_strangers_heartbeat_is_no_lease_evidence(self, tmp_path):
        """The sequencer's peers are gone, so its lease lapses; a
        heartbeat from a name outside the mesh must not renew it."""

        async def main():
            cluster = LiveCluster(
                n_sites=3, method="ordup", data_dir=tmp_path,
                heartbeat_interval=0.05, suspect_after=0.2,
            )
            await cluster.start()
            try:
                leader = cluster.servers["site0"]
                deadline = time.monotonic() + 10.0
                while not leader._grant_allowed():  # the lease is held
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.05)
                await cluster.kill("site1")
                await cluster.kill("site2")
                while leader._grant_allowed():  # and then it lapses
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.05)
                raw = await RawConn.open(*cluster.addrs["site0"])
                raw.send({"type": "hb", "src": "stranger", "gossip": {
                    "leader": {"epoch": 0, "leader": None, "base": 0},
                }})
                assert (await raw.recv())["type"] == "hb-ack"
                await raw.close()
                assert not leader._grant_allowed()
            finally:
                await cluster.stop()

        run(main())
