"""The seeded fault plan and the connection it acts on.

A plan's :class:`Link` decides every frame's fate as the connection
dialed with it writes the frame; the replica itself decides nothing.
"""

import asyncio

import pytest

from repro.live import LiveCluster
from repro.live.faults import FaultPlan, LinkFaults
from repro.live.protocol import connect_frames

from .wire import fake_connection


def run(coro):
    return asyncio.run(coro)


class TestLinkFaults:
    def test_default_is_quiet(self):
        assert LinkFaults().quiet()
        assert not LinkFaults(drop=0.1).quiet()
        assert not LinkFaults(delay_max=0.01).quiet()
        assert not LinkFaults(reorder=0.1).quiet()


class TestFrameFates:
    def test_quiet_link_never_injects(self):
        link = FaultPlan(seed=1).link("a", "b")
        for _ in range(50):
            assert link.fate(100) == (1, 0.0)
        assert not any(link.plan.counts.values())

    def test_fate_stream_is_deterministic_per_seed(self):
        """Two plans with the same seed issue identical per-link fate
        streams, regardless of how calls interleave across links."""
        spec = LinkFaults(drop=0.3, duplicate=0.2, delay_max=0.01)
        one = FaultPlan(seed=42, default=spec)
        two = FaultPlan(seed=42, default=spec)
        # Interleave links differently on the two plans.
        fates_one = [one.link("a", "b").fate(0) for _ in range(40)]
        for _ in range(40):
            one.link("b", "a").fate(0)
        for _ in range(40):
            two.link("b", "a").fate(0)
        fates_two = [two.link("a", "b").fate(0) for _ in range(40)]
        assert fates_one == fates_two

    def test_different_seeds_differ(self):
        spec = LinkFaults(drop=0.5)
        one = FaultPlan(seed=1, default=spec).link("a", "b")
        two = FaultPlan(seed=2, default=spec).link("a", "b")
        assert [one.fate(0) for _ in range(64)] != [
            two.fate(0) for _ in range(64)
        ]

    def test_per_link_override(self):
        plan = FaultPlan(seed=0)
        plan.set_link("a", "b", LinkFaults(drop=1.0))
        assert plan.link("a", "b").fate(0)[0] == 0
        assert plan.link("b", "a").fate(0)[0] == 1  # default stays quiet

    def test_counts_accumulate(self):
        link = FaultPlan(seed=0, default=LinkFaults(drop=1.0)).link("a", "b")
        for _ in range(5):
            link.fate(0)
        assert link.plan.counts["dropped"] == 5

    def test_bandwidth_adds_transmission_delay(self):
        link = FaultPlan(default=LinkFaults(bandwidth=1000)).link("a", "b")
        assert link.fate(500) == (1, 0.5)
        assert link.plan.counts["delayed"] == 1


class TestPartitions:
    def test_a_sever_cuts_both_directions_of_a_link(self):
        plan = FaultPlan()
        plan.sever("a", "b")
        assert plan.link("a", "b").severed
        assert plan.link("b", "a").severed
        assert not plan.link("a", "c").severed

    def test_partition_severs_only_cross_group_links(self):
        plan = FaultPlan()
        plan.partition([["a", "b"], ["c"]])
        assert plan.link("a", "c").severed
        assert plan.link("c", "b").severed
        assert not plan.link("a", "b").severed
        assert not plan.link("b", "a").severed

    def test_heal_all_restores_every_link(self):
        plan = FaultPlan()
        plan.partition([["a"], ["b", "c"]])
        plan.heal_all()
        assert not plan.link("a", "b").severed
        assert not plan.link("c", "a").severed

    def test_a_severed_dial_never_touches_a_socket(self, monkeypatch):
        async def scenario():
            loop = asyncio.get_running_loop()

            async def no_socket(*args, **kwargs):
                raise AssertionError("a severed dial made a socket")

            monkeypatch.setattr(loop, "create_connection", no_socket)
            plan = FaultPlan()
            plan.sever("b", "a")
            with pytest.raises(ConnectionRefusedError, match="no route"):
                await connect_frames(
                    ("127.0.0.1", 9), lambda conn, frame: None,
                    plan.link("a", "b"),
                )
            assert plan.counts["blocked"] == 1

        run(scenario())

    def test_a_severed_links_backoff_ends_at_the_heal(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            plan = FaultPlan()
            plan.partition([["a"], ["b", "c"]])
            parked = asyncio.ensure_future(plan.link("a", "b").backoff(30.0))
            other = asyncio.ensure_future(plan.link("a", "c").backoff(30.0))
            await asyncio.sleep(0)
            plan.heal("a", "c")  # b -> a and a -> b stay cut
            plan.heal("c", "a")
            await asyncio.sleep(0)
            assert other.done() and not parked.done()
            started = loop.time()
            plan.heal_all()
            await asyncio.wait_for(parked, 1.0)
            assert loop.time() - started < 1.0
            assert not plan.link("a", "b").retries

        run(scenario())

    def test_a_backoff_over_an_open_link_waits_its_delay(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            plan = FaultPlan()
            started = loop.time()
            waiting = asyncio.ensure_future(plan.link("a", "b").backoff(0.05))
            await asyncio.sleep(0)
            plan.heal_all()
            await waiting
            assert loop.time() - started >= 0.05

        run(scenario())

    def test_a_healed_channel_redials_before_its_backoff_ends(self, tmp_path):
        async def scenario():
            plan = FaultPlan(0)
            cluster = LiveCluster(
                n_sites=2, data_dir=tmp_path, faults=plan,
                server_options={"retry_base": 30.0, "retry_max": 30.0},
            )
            await cluster.start()
            try:
                client = await cluster.client("site0")
                await client.increment("k", 1)
                await cluster.settle()
                plan.partition([["site0"], ["site1"]])
                await asyncio.sleep(0.05)  # both channels park in backoff
                await client.increment("k", 1)
                plan.heal_all()
                await cluster.settle(timeout=5.0)
            finally:
                await cluster.stop()

        run(scenario())

    def test_partition_aborts_an_open_peer_channel_at_once(self, tmp_path):
        async def scenario():
            plan = FaultPlan(0)
            cluster = LiveCluster(n_sites=2, data_dir=tmp_path, faults=plan)
            await cluster.start()
            try:
                link = plan.link("site0", "site1")
                client = await cluster.client("site0")
                await client.increment("k", 1)
                await cluster.settle()  # it crossed the channel
                conns = set(link.conns)  # it, and any peer request
                assert conns
                plan.partition([["site0"], ["site1"]])
                assert all(conn.closing for conn in conns)
                await asyncio.sleep(0)  # one loop turn
                assert all(conn.lost.done() for conn in conns)
                await asyncio.sleep(0)  # the lost futures' callbacks
                assert not link.conns
                assert plan.counts["blocked"] >= len(conns)
            finally:
                await cluster.stop()

        run(scenario())


def _dialed(link):
    """A connection as ``connect_frames`` leaves it, and its transport."""
    conn = fake_connection(lambda conn, frame: None)
    link.attach(conn)
    return conn, conn.transport


class TestLinkWriter:
    def test_delays_keep_the_connection_fifo(self):
        """Frames leave late, but in the order written, duplicates next
        to their original, and the writer never made anyone wait."""

        async def scenario():
            plan = FaultPlan(
                seed=3, default=LinkFaults(delay_max=0.02, duplicate=0.3)
            )
            conn, wire = _dialed(plan.link("a", "b"))
            sent = [b"%03d" % i for i in range(40)]
            for i, frame in enumerate(sent):
                conn.frames.write(frame)
                if i % 4 == 3:
                    await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert len(b"".join(wire.written)) < 3 * len(sent)
            await asyncio.sleep(0.1)
            out = b"".join(wire.written)
            got = [out[i:i + 3] for i in range(0, len(out), 3)]
            assert len(got) == len(sent) + plan.counts["duplicated"]
            assert plan.counts["duplicated"] > 0
            originals = [f for i, f in enumerate(got) if got[i - 1:i] != [f]]
            assert originals == sent

        run(scenario())

    def test_a_dropping_link_writes_nothing(self):
        async def scenario():
            plan = FaultPlan(default=LinkFaults(drop=1.0))
            conn, wire = _dialed(plan.link("a", "b"))
            conn.frames.write(b"one")
            await asyncio.sleep(0)
            assert wire.written == []
            assert plan.counts["dropped"] == 1

        run(scenario())

    def test_reorder_swaps_whole_frames_within_a_flush(self):
        async def scenario():
            plan = FaultPlan(default=LinkFaults(reorder=1.0))
            conn, wire = _dialed(plan.link("a", "b"))
            for frame in (b"0", b"1", b"2", b"3", b"4"):
                conn.frames.write(frame)
            await asyncio.sleep(0)
            assert wire.written == [b"10324"]
            assert plan.counts["reordered"] == 2

        run(scenario())

    def test_a_closed_connection_drops_its_late_frames(self):
        async def scenario():
            plan = FaultPlan(default=LinkFaults(delay_min=0.01, delay_max=0.01))
            conn, wire = _dialed(plan.link("a", "b"))
            conn.frames.write(b"late")
            await asyncio.sleep(0)
            wire.abort()
            await asyncio.sleep(0.03)
            assert wire.written == []

        run(scenario())
