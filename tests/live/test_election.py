"""Epoch-fenced sequencer failover: election state, fencing, e2e.

Unit tests pin the durable promise/adopt state machine and the
engine-level epoch fence; integration tests kill the ORDUP sequencer
at several phase boundaries and assert the failover safety claims —
an election happens, updates keep acknowledging, no acked update is
lost, and a resurrected deposed leader is fenced rather than allowed
to grant at its stale epoch (no two leaders commit in one epoch).
"""

import asyncio
import time

import pytest

from repro.core.operations import IncrementOp
from repro.live import FaultPlan, LinkFaults, LiveCluster, LiveETFailed
from repro.live import server
from repro.live.client import RequestTimeout
from repro.live.durable_queue import ControlLog
from repro.live.engine import OrdupLiveEngine
from repro.replica.mset import MSet
from repro.replica.sequencer import Sequencer

from .wire import RawConn


def run(coro):
    return asyncio.run(coro)


class TestElectionState:
    def test_promise_is_monotonic(self, tmp_path):
        state = Sequencer(ControlLog(tmp_path / "control.log"))
        assert state.promise(3)
        assert not state.promise(3)  # each epoch promised at most once
        assert not state.promise(2)
        assert state.promise(4)
        assert state.promised == 4

    def test_promise_survives_restart(self, tmp_path):
        path = tmp_path / "control.log"
        state = Sequencer(ControlLog(path))
        state.promise(5)
        reborn = Sequencer(ControlLog(path))
        # A crash cannot un-promise: the reply never outruns the disk.
        assert not reborn.promise(5)
        assert reborn.promised == 5

    def test_adopt_is_monotonic_and_lifts_promised(self, tmp_path):
        state = Sequencer(ControlLog(tmp_path / "control.log"))
        assert state.adopt(2, "siteB", base=17)
        assert (state.epoch, state.leader, state.base) == (2, "siteB", 17)
        assert state.promised == 2
        assert not state.adopt(1, "siteA", base=3)
        assert not state.adopt(2, "siteB", base=17)  # no-op repeat
        assert state.adopt(3, "siteC", base=40)
        assert state.bases == {2: 17, 3: 40}

    def test_adoption_survives_restart(self, tmp_path):
        path = tmp_path / "control.log"
        state = Sequencer(ControlLog(path))
        state.adopt(2, "siteB", base=9)
        reborn = Sequencer(ControlLog(path))
        assert reborn.wire() == state.wire()
        assert reborn.bases == {2: 9}


def _ordered_mset(seq, epoch, origin="siteB", amount=1):
    return MSet(
        tid="%s:%d" % (origin, seq),
        ops=(IncrementOp("x", amount),),
        origin=origin,
        order=(seq, epoch),
    )


class TestEngineEpochFence:
    def test_stale_epoch_tokens_are_fenced_past_the_base(self):
        async def main():
            engine = OrdupLiveEngine("siteA")
            for seq in range(1, 6):
                engine.accept(_ordered_mset(seq, 0))
            assert engine.frontier == (5, 0)

            engine.adopt_epoch(1, base=5)
            # Tokens at the current epoch always pass.
            assert engine.order_admissible((6, 1))
            # Stale-epoch tokens pass only at or below the handover
            # base — merely late, granted before the handover.
            assert engine.order_admissible((5, 0))
            assert not engine.order_admissible((6, 0))

            applied = engine.accept(_ordered_mset(6, 1))
            assert [m.order for m in applied] == [(6, 1)]
            # A deposed leader's grant past the base applies nowhere.
            fenced_before = engine.fenced_count
            assert engine.accept(_ordered_mset(7, 0)) == []
            assert engine.fenced_count == fenced_before + 1
            assert engine.store.get("x", 0) == 6

        run(main())

    def test_adopt_purges_fenced_holdback(self):
        async def main():
            engine = OrdupLiveEngine("siteA")
            engine.accept(_ordered_mset(1, 0))
            # Held back behind the gap at seq 2 — and granted past the
            # handover point by what turns out to be a deposed leader.
            engine.accept(_ordered_mset(3, 0))
            assert engine.max_order_seen() == 3

            engine.adopt_epoch(1, base=1)
            # The held-back (3, 0) can never become applicable: seqs
            # 2.. belong to epoch 1 now.  It must not wedge the buffer.
            applied = engine.accept(_ordered_mset(2, 1))
            assert [m.order for m in applied] == [(2, 1)]
            assert engine.fenced_count >= 1

        run(main())

    def test_epoch_state_survives_checkpoint_restore(self):
        async def main():
            engine = OrdupLiveEngine("siteA")
            for seq in range(1, 4):
                engine.accept(_ordered_mset(seq, 0))
            engine.adopt_epoch(2, base=3)

            reborn = OrdupLiveEngine("siteA")
            reborn.restore(engine.checkpoint())
            assert not reborn.order_admissible((4, 0))
            assert reborn.order_admissible((4, 2))

        run(main())


class TestFenceAcrossRestart:
    """A restarted replica fences with every epoch its election record
    adopted, merged into whatever epoch table its snapshot restored:
    the fence a replica held live never shrinks across a restart."""

    #: tokens either side of the adopted bases (epoch 1 at 3, epoch 2
    #: at 10): only the late grants and the current epoch pass.
    TOKENS = ((3, 0), (5, 0), (11, 0), (10, 1), (11, 1), (11, 2))

    @pytest.mark.parametrize(
        "snapshot_first", [False, True], ids=["no-snapshot", "stale-snapshot"]
    )
    def test_restart_keeps_the_live_fence(self, tmp_path, snapshot_first):
        async def boot():
            replica = server.ReplicaServer(
                "site0",
                peers=["site0", "site1", "site2"],
                data_dir=tmp_path,
                method="ordup",
            )
            await replica.bind("127.0.0.1", 0)
            return replica

        def fence(replica):
            return [replica.engine.order_admissible(t) for t in self.TOKENS]

        async def main():
            replica = await boot()
            try:
                if snapshot_first:
                    # The image predates both adoptions.
                    await replica.take_snapshot(kind="manual")
                replica._adopt_leader(1, "site1", 3)
                replica._adopt_leader(2, "site2", 10)
                live = fence(replica)
            finally:
                await replica.stop()
            assert live == [True, False, False, True, False, True]
            reborn = await boot()
            try:
                assert fence(reborn) == live
            finally:
                await reborn.stop()

        run(main())


async def _ack_one(client, key, deadline):
    """Retry one increment until it acks (or the deadline passes)."""
    while True:
        try:
            await client.increment(key, 1)
            return True
        except (
            LiveETFailed,
            ConnectionError,
            OSError,
            asyncio.TimeoutError,
            RequestTimeout,
        ):
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.1)


async def _wait_election(client, min_epoch, timeout=15.0):
    """Poll stats until the adopted epoch reaches ``min_epoch``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = await client.stats()
        election = stats.get("election", {})
        if int(election.get("epoch", 0)) >= min_epoch:
            return election
        await asyncio.sleep(0.1)
    raise AssertionError("no election reached epoch %d" % min_epoch)


def _fast_cluster(tmp_path):
    return LiveCluster(
        n_sites=3,
        method="ordup",
        data_dir=tmp_path,
        heartbeat_interval=0.05,
        suspect_after=0.2,
    )


class TestSequencerFailover:
    def test_elect_verb_promises_once_per_epoch(self, tmp_path):
        async def main():
            cluster = _fast_cluster(tmp_path)
            await cluster.start()
            try:
                client = await cluster.client("site1")
                reply = await client.request(
                    "elect", epoch=7, candidate="siteZ"
                )
                assert reply["promised"] is True
                assert reply["promised_epoch"] == 7
                assert "frontier" in reply
                # Same epoch again: already promised, refused — the
                # one-promise-per-epoch rule behind one-leader-per-epoch.
                again = await client.request(
                    "elect", epoch=7, candidate="siteY"
                )
                assert again["promised"] is False
                # epoch=0 is a pure read of the adopted state.
                probe = await client.request(
                    "elect", epoch=0, candidate=""
                )
                assert probe["promised"] is False
                assert probe["epoch"] == 0
                await client.close()
            finally:
                await cluster.stop()

        run(main())

    def test_a_repeated_order_request_is_granted_once(self, tmp_path):
        """A replica re-sends an unanswered order request under the
        same id, and a lossy link may deliver it twice: the sequencer
        answers a repeated id with the token it already granted."""

        async def main():
            cluster = _fast_cluster(tmp_path)
            await cluster.start()
            try:
                leader = cluster.servers["site0"].current_leader()
                client = await cluster.client(leader)
                await client.increment("acct", 1)  # the sequencer grants
                raw = await RawConn.open(*cluster.addrs[leader])
                ask = {"type": "request", "id": 7, "verb": "order",
                       "src": "site9"}
                raw.send(ask)
                raw.send(ask)
                first, again = await raw.recv(), await raw.recv()
                assert first["ok"] and again["order"] == first["order"]
                raw.send({**ask, "id": 8})
                after = await raw.recv()
                assert after["order"][0] == first["order"][0] + 1
                await raw.close()
                await client.close()
            finally:
                await cluster.stop()

        run(main())

    def test_a_repeated_order_request_is_granted_once_across_a_restart(
        self, tmp_path
    ):
        """The sequencer restarts between a grant and its re-send: the
        re-send gets the token it got, not a second one that leaves the
        first unused and every later update stalled behind it."""

        async def ask(cluster, frame):
            # A restarted sequencer refuses until it holds the lease.
            deadline = time.monotonic() + 10.0
            while True:
                raw = await RawConn.open(*cluster.addrs["site0"])
                raw.send(frame)
                reply = await raw.recv()
                await raw.close()
                if reply["ok"] or time.monotonic() > deadline:
                    return reply
                await asyncio.sleep(0.05)

        async def main():
            cluster = LiveCluster(n_sites=3, method="ordup", data_dir=tmp_path)
            await cluster.start()
            try:
                frame = {"type": "request", "id": 7, "verb": "order",
                         "src": "site9"}
                first = await ask(cluster, frame)
                await cluster.kill("site0")
                await cluster.restart("site0")
                again = await ask(cluster, frame)
                assert cluster.servers["site0"].election.epoch == 0
                assert again["order"] == first["order"]
                after = await ask(cluster, {**frame, "id": 8})
                assert after["order"][0] == first["order"][0] + 1
            finally:
                await cluster.stop()

        run(main())

    def test_order_tokens_survive_a_lossy_duplicating_link(
        self, tmp_path, monkeypatch
    ):
        """Every link drops and duplicates frames, order requests
        included: each update is granted exactly one token, so the
        global order has no gap and every site applies every update."""
        monkeypatch.setattr(server, "ACK_TIMEOUT", 0.2)
        monkeypatch.setattr(server, "ORDER_RESEND", 0.05)

        async def main():
            plan = FaultPlan(4, default=LinkFaults(drop=0.3, duplicate=0.5))
            cluster = LiveCluster(
                n_sites=3, method="ordup", data_dir=tmp_path, faults=plan,
                server_options={"retry_base": 0.01, "retry_max": 0.05},
            )
            await cluster.start()
            try:
                leader = cluster.servers["site0"].current_leader()
                others = [n for n in cluster.names if n != leader]
                clients = [await cluster.client(n) for n in others]
                for i in range(20):
                    await clients[i % 2].increment("acct", 1)
                await cluster.settle(timeout=30)
                assert await cluster.converged()
                assert (await cluster.site_values())[leader]["acct"] == 20
                assert cluster.servers[leader]._control.next == 20
                assert plan.counts["duplicated"] and plan.counts["dropped"]
            finally:
                await cluster.stop()

        run(main())

    @pytest.mark.parametrize("phase", ["cold", "warm", "handover"])
    def test_kill_leader_at_phase_boundary(self, phase, tmp_path):
        """Crash the sequencer cold (no state), warm (settled state),
        and again after one completed handover — each time the
        survivors must elect, resume, and reconverge with zero
        acked-update loss."""

        async def main():
            cluster = _fast_cluster(tmp_path)
            await cluster.start()
            acked = 0
            try:
                clients = {
                    name: await cluster.client(name)
                    for name in cluster.names
                }
                leader = cluster.servers["site0"].current_leader()
                min_epoch = 1
                if phase != "cold":
                    for i in range(12):
                        await clients[cluster.names[i % 3]].increment(
                            "acct", 1
                        )
                        acked += 1
                    await cluster.settle(timeout=30.0)
                if phase == "handover":
                    # Complete one failover first, then kill the *new*
                    # leader: the second election must stack on the
                    # first (epoch 2, fresh base).
                    await cluster.kill(leader)
                    survivor = [
                        n for n in cluster.names if n != leader
                    ][0]
                    deadline = time.monotonic() + 20.0
                    assert await _ack_one(
                        clients[survivor], "acct", deadline
                    )
                    acked += 1
                    election = await _wait_election(
                        clients[survivor], 1
                    )
                    await cluster.restart(leader)
                    await clients[leader].close()
                    clients[leader] = await cluster.client(leader)
                    await _wait_election(clients[leader], 1)
                    # Drain the first failover's acked update to every
                    # site before crashing again: an update acked only
                    # at the about-to-die leader stalls the next epoch
                    # behind a gap nobody left alive can fill (the
                    # documented acked-but-unpropagated window).
                    await cluster.settle(timeout=30.0)
                    leader = election["leader"]
                    min_epoch = 2

                await cluster.kill(leader)
                survivors = [n for n in cluster.names if n != leader]
                deadline = time.monotonic() + 20.0
                for survivor in survivors:
                    assert await _ack_one(
                        clients[survivor], "acct", deadline
                    ), "update at %s never acked after the crash" % (
                        survivor,
                    )
                    acked += 1
                election = await _wait_election(
                    clients[survivors[0]], min_epoch
                )
                assert election["leader"] in survivors

                await cluster.restart(leader)
                await clients[leader].close()
                clients[leader] = await cluster.client(leader)
                assert await _ack_one(
                    clients[leader], "acct", time.monotonic() + 20.0
                )
                acked += 1
                await cluster.settle(timeout=30.0)
                assert await cluster.converged()
                values = await cluster.site_values()
                for state in values.values():
                    # Acked updates all present; retries never
                    # double-apply.
                    assert state.get("acct", 0) == acked
                for client in clients.values():
                    await client.close()
            finally:
                await cluster.stop()

        run(main())

    def test_resurrected_stale_leader_is_fenced(self, tmp_path):
        """Split-brain probe: the deposed sequencer comes back with
        durable state that still says it leads epoch 0.  It must not
        grant at that stale epoch — boot probe + lease hold it silent
        until it adopts the new epoch and steps down."""

        async def main():
            cluster = _fast_cluster(tmp_path)
            await cluster.start()
            try:
                clients = {
                    name: await cluster.client(name)
                    for name in cluster.names
                }
                for i in range(9):
                    await clients[cluster.names[i % 3]].increment(
                        "acct", 1
                    )
                await cluster.settle(timeout=30.0)

                leader = cluster.servers["site0"].current_leader()
                await cluster.kill(leader)
                survivors = [n for n in cluster.names if n != leader]
                assert await _ack_one(
                    clients[survivors[0]], "acct",
                    time.monotonic() + 20.0,
                )
                election = await _wait_election(clients[survivors[0]], 1)
                new_leader = election["leader"]
                assert new_leader != leader

                await cluster.restart(leader)
                await clients[leader].close()
                clients[leader] = await cluster.client(leader)
                # Probe the revenant for an order token before it has
                # any chance to resync: every acceptable outcome is a
                # refusal; a grant at epoch < 1 is a split brain.
                try:
                    reply = await clients[leader].request(
                        "order", timeout=5.0
                    )
                except LiveETFailed:
                    pass
                else:
                    granted = list(reply.get("order") or [])
                    assert len(granted) > 1 and int(granted[1]) >= 1, (
                        "stale leader granted %r at its old epoch"
                        % (granted,)
                    )

                # The revenant adopts the new epoch and steps down.
                revenant = await _wait_election(clients[leader], 1)
                assert revenant["leader"] == new_leader
                deadline = time.monotonic() + 15.0
                while time.monotonic() < deadline:
                    if cluster.servers[leader].election.epoch >= 1:
                        break
                    await asyncio.sleep(0.05)
                assert cluster.servers[leader].election.leader == (
                    new_leader
                )

                # And serves as an ordinary replica at the new epoch.
                assert await _ack_one(
                    clients[leader], "acct", time.monotonic() + 20.0
                )
                await cluster.settle(timeout=30.0)
                assert await cluster.converged()
                for client in clients.values():
                    await client.close()
            finally:
                await cluster.stop()

        run(main())

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="Close the ORDUP safety bug with quorum-reserved order "
        "ranges: a new leader's base is what a majority has seen, not "
        "what the old sequencer granted, so an acked update is fenced",
    )
    def test_an_acked_update_survives_a_handover(self, tmp_path, monkeypatch):
        """The sequencer site0 grants and acks a fourth update that no
        peer has seen; site2 then wins epoch 1 with site1's promise.
        Its base must cover that grant, so every site ends at 4."""
        monkeypatch.setattr(server, "ACK_TIMEOUT", 0.3)
        drop = LinkFaults(drop=1.0)

        async def main():
            plan = FaultPlan(0)
            cluster = LiveCluster(
                n_sites=3, method="ordup", data_dir=tmp_path, faults=plan,
            )
            await cluster.start()
            try:
                client = await cluster.client("site0")
                for _ in range(3):
                    await client.increment("acct", 1)
                await cluster.settle(timeout=30.0)
                cut = [("site0", "site1"), ("site0", "site2"),
                       ("site2", "site0")]
                for src, dst in cut:
                    plan.set_link(src, dst, drop)
                await client.increment("acct", 1)  # acknowledged
                site2 = cluster.servers["site2"]
                await site2._campaign()
                assert site2.current_leader() == "site2"
                assert site2.election.epoch == 1
                for src, dst in cut:
                    plan.set_link(src, dst, LinkFaults())
                await cluster.settle(timeout=30.0)
                values = await cluster.site_values()
                assert {name: v["acct"] for name, v in values.items()} == {
                    name: 4 for name in cluster.names
                }
                await client.close()
            finally:
                await cluster.stop()

        run(main())


class TestWhenToCampaign:
    def test_a_replica_back_from_a_partition_does_not_depose_a_live_leader(
        self, tmp_path
    ):
        """site2, cut off long enough to declare the sequencer dead,
        campaigns in vain; once the partition heals — and before its
        slow channels reconnect — the sequencer answers its ping, so it
        does not depose it."""

        async def main():
            plan = FaultPlan(0)
            cluster = LiveCluster(
                n_sites=3, method="ordup", data_dir=tmp_path, faults=plan,
                heartbeat_interval=0.05, suspect_after=0.2,
                server_options={"retry_base": 0.5, "retry_max": 3.0},
            )
            await cluster.start()
            try:
                site2 = cluster.servers["site2"]
                plan.partition([["site2"], ["site0", "site1"]])
                for _ in range(100):
                    if site2.election.promised:
                        break
                    await asyncio.sleep(0.05)
                assert site2.election.promised  # it campaigned, and lost
                plan.heal_all()
                await asyncio.sleep(1.5)
                for server in cluster.servers.values():
                    assert server.election.epoch == 0
                    assert server.current_leader() == "site0"
            finally:
                await cluster.stop()

        run(main())

    def test_a_candidate_adopts_without_waiting_out_its_order_request(
        self, tmp_path, monkeypatch
    ):
        """site2 has an order request outstanding to the sequencer site0
        over a link that drops every frame, and campaigns: it adopts
        leadership after one vote round, without waiting for that
        request to give up, and the update it was ordering then acks
        under the new epoch."""
        monkeypatch.setattr(server, "ACK_TIMEOUT", 0.3)

        async def main():
            plan = FaultPlan(0)
            cluster = LiveCluster(
                n_sites=3, method="ordup", data_dir=tmp_path, faults=plan,
            )
            await cluster.start()
            try:
                client = await cluster.client("site2")
                await client.increment("acct", 1)
                plan.set_link("site2", "site0", LinkFaults(drop=1.0))
                update = asyncio.ensure_future(client.increment("acct", 1))
                site2 = cluster.servers["site2"]
                for _ in range(200):
                    if site2._order_lock.locked():
                        break
                    await asyncio.sleep(0.005)
                assert site2._order_lock.locked()
                started = time.monotonic()
                await site2._campaign()
                elapsed = time.monotonic() - started
                assert site2.current_leader() == "site2"
                assert site2.election.epoch == 1
                assert elapsed < 3 * server.ACK_TIMEOUT
                await asyncio.wait_for(update, 10.0)
                await client.close()
            finally:
                await cluster.stop()

        run(main())
