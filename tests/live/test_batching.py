"""Batched, pipelined propagation: end-to-end behaviour tests.

The channel hot path now drains backlogs as multi-MSet ``mset-batch``
frames with a window of batches in flight and cumulative acks.  These
tests exercise that machinery through real sockets: backlogs actually
travel as batches (observable via the ack high-water mark jumping in
steps), extreme frame sizes still converge (the ``channel.py`` frame
constants and ``server.py``'s ack timeout are monkeypatched: there is
no option), a healed backlog travels in full frames, a receiver
working through one still answers its other connections, forged
duplicate and gapped batches are acked at the frontier and never
re-applied, and the ``settle`` verb blocks server-side instead of
clients polling stats.
"""

import asyncio
import json

import pytest

from repro.core.transactions import EpsilonSpec
from repro.live import FaultPlan, LiveCluster, channel, server
from repro.live.protocol import (
    encode_bin_batch_frame,
    encode_mset,
    payload_blob,
    plain_update_blob,
)
from repro.replica import mset as mset_module
from repro.replica.mset import MSet
from repro.core.operations import IncrementOp, TimestampedWriteOp

from .wire import RawConn


def run(coro):
    return asyncio.run(coro)


KEYS = ["acct0", "acct1", "acct2", "acct3"]


def _frames(monkeypatch, msets, in_flight):
    """Small frames for one test: the constants are read at send time."""
    monkeypatch.setattr(channel, "FRAME_MSETS", msets)
    monkeypatch.setattr(channel, "FRAMES_IN_FLIGHT", in_flight)


async def _backlogged_drain(cluster, plan, n_updates):
    """Commit a backlog at site0 behind a partition, heal, settle."""
    writer = cluster.names[0]
    client = await cluster.client(writer)
    plan.partition([[writer], cluster.names[1:]])
    for i in range(n_updates):
        await client.increment(KEYS[i % len(KEYS)], 1)
    plan.heal_all()
    await cluster.settle(timeout=60)
    return writer


class TestBatchedDrain:
    @pytest.mark.parametrize("batch_size,window", [(1, 1), (8, 2), (64, 4)])
    def test_backlog_drains_and_converges(
        self, monkeypatch, batch_size, window
    ):
        _frames(monkeypatch, batch_size, window)

        async def scenario():
            plan = FaultPlan(0)
            cluster = LiveCluster(
                n_sites=3,
                method="commu",
                faults=plan,
                server_options={"retry_base": 0.005, "retry_max": 0.02},
            )
            await cluster.start()
            try:
                await _backlogged_drain(cluster, plan, 60)
                assert await cluster.converged()
                values = (await cluster.site_values())["site0"]
                assert sum(values.get(k, 0) for k in KEYS) == 60
            finally:
                await cluster.stop()

        run(scenario())

    def test_ack_high_water_reaches_backlog_and_counts_msets(
        self, monkeypatch
    ):
        _frames(monkeypatch, 16, 4)

        async def scenario():
            plan = FaultPlan(0)
            cluster = LiveCluster(
                n_sites=3,
                method="commu",
                faults=plan,
                server_options={"retry_base": 0.005, "retry_max": 0.02},
            )
            await cluster.start()
            try:
                writer = await _backlogged_drain(cluster, plan, 48)
                stats = (await cluster.site_stats())[writer]
                for peer, info in stats["peers"].items():
                    assert info["ack_high_water"] == 48, peer
                    assert info["acked_msets"] == 48, peer
                    assert info["ack_ms"] is not None, peer
                assert stats["ack_high_water"] == {
                    "site1": 48,
                    "site2": 48,
                }
                assert stats["drained"] is True
            finally:
                await cluster.stop()

        run(scenario())

    def test_tiny_window_large_backlog_still_exact(self, monkeypatch):
        """One 2-MSet frame in flight forces many ack round trips; the
        counters must still come out exactly once."""
        _frames(monkeypatch, 2, 1)

        async def scenario():
            plan = FaultPlan(0)
            cluster = LiveCluster(
                n_sites=2,
                method="commu",
                faults=plan,
                server_options={"retry_base": 0.005, "retry_max": 0.02},
            )
            await cluster.start()
            try:
                await _backlogged_drain(cluster, plan, 30)
                values = await cluster.site_values()
                for site, snapshot in values.items():
                    assert (
                        sum(snapshot.get(k, 0) for k in KEYS) == 30
                    ), site
            finally:
                await cluster.stop()

        run(scenario())

    def test_batching_survives_lossy_links(self, monkeypatch):
        """Drops and reorders under batching: stall-and-resend from the
        cumulative frontier must still deliver exactly once."""
        from repro.live import LinkFaults

        _frames(monkeypatch, 8, 3)
        monkeypatch.setattr(server, "ACK_TIMEOUT", 0.2)

        async def scenario():
            plan = FaultPlan(
                3, default=LinkFaults(drop=0.15, reorder=0.2, duplicate=0.1)
            )
            cluster = LiveCluster(
                n_sites=3,
                method="commu",
                faults=plan,
                server_options={"retry_base": 0.01, "retry_max": 0.05},
            )
            await cluster.start()
            try:
                clients = [
                    await cluster.client(name) for name in cluster.names
                ]
                await asyncio.gather(
                    *(
                        clients[i % 3].increment(KEYS[i % len(KEYS)], 1)
                        for i in range(90)
                    )
                )
                await cluster.settle(timeout=60)
                assert await cluster.converged()
                values = (await cluster.site_values())["site0"]
                assert sum(values.get(k, 0) for k in KEYS) == 90
            finally:
                await cluster.stop()

        run(scenario())


class TestFrameSizing:
    def test_healed_backlog_travels_in_full_frames(self):
        """Frames are cut by the cap, not by a 32-MSet default: what a
        partition left behind reaches each peer in backlog/cap frames
        (rounded up), counted where an operator would look."""
        n_updates = 1000

        async def scenario():
            plan = FaultPlan(0)
            cluster = LiveCluster(
                n_sites=3,
                method="commu",
                faults=plan,
                server_options={"retry_base": 0.005, "retry_max": 0.02},
            )
            await cluster.start()
            try:
                client = await cluster.client("site0")
                plan.partition([["site0"], ["site1", "site2"]])
                await asyncio.gather(
                    *(
                        client.increment(KEYS[i % len(KEYS)], 1)
                        for i in range(n_updates)
                    )
                )
                plan.heal_all()
                await cluster.settle(timeout=60)
                registry = cluster.servers["site0"].registry
                for peer in ("site1", "site2"):
                    assert registry.get_sample(
                        "frames_relayed_total", peer=peer
                    ) == n_updates
                    assert registry.get_sample(
                        "propagation_frames_total", peer=peer
                    ) <= n_updates / channel.FRAME_MSETS + 1
                # ... with finite histogram buckets past a full frame.
                (sizes,) = registry.to_dict()["repro_batch_msets"]["samples"]
                bounds = [float(le) for le in sizes["buckets"]]
                assert max(bounds) > channel.FRAME_MSETS
                assert max(sizes["buckets"].values()) == sizes["count"]
                assert await cluster.converged()
            finally:
                await cluster.stop()

        run(scenario())

    def test_receiver_answers_other_connections_mid_backlog(self):
        """A receiver yields to its loop after each frame it answers:
        with 64 frames sitting in one socket buffer, a ``ping`` sent on
        another connection once the first ack is out is answered before
        the last frame is acked, not after the whole stretch."""
        n_frames, per_frame = 64, 2
        last = n_frames * per_frame

        async def scenario():
            cluster = LiveCluster(n_sites=2, method="commu")
            await cluster.start()
            try:
                await cluster.kill("site1")  # the forged frames own the seqs
                peer = await RawConn.open(*cluster.addrs["site0"])
                other = await RawConn.open(*cluster.addrs["site0"])
                peer.send({"type": "peer-hello", "src": "site1"})
                peer.write(
                    b"".join(
                        _forged_batch("site1", first, first + per_frame - 1)
                        for first in range(1, last + 1, per_frame)
                    )
                )
                ack = await peer.recv()
                other.send({"type": "request", "id": 1, "verb": "ping"})
                pong = await other.recv()
                assert pong["ok"] is True
                # Answered with most of the backlog still unrecorded,
                # so before its last frame could be acknowledged.
                inbox = cluster.servers["site0"].inboxes["site1"]
                assert inbox.frontier < last
                while ack["seq"] < last:
                    ack = await peer.recv()
                assert inbox.frontier == last
                await peer.close()
                await other.close()
            finally:
                await cluster.stop()

        run(scenario())


def _forged_blobs(src, first, last):
    """Payload blobs of unit increments from ``src``, seqs ``first`` to
    ``last``: plain updates, each its operations' arrays."""
    return [
        plain_update_blob([["inc", "acct0", 1]])
        for seq in range(first, last + 1)
    ]


def _forged_batch(src, first, last):
    """One binary ``mset-batch`` frame of unit increments from ``src``:
    the run of seqs ``first`` to ``last``."""
    return encode_bin_batch_frame(src, first, _forged_blobs(src, first, last))


class TestWireInterop:
    def test_duplicate_batch_reacked_not_reapplied(self):
        """A re-sent batch (lost ack) is acknowledged at the frontier
        without double-applying."""

        async def scenario():
            cluster = LiveCluster(n_sites=2, method="commu")
            await cluster.start()
            try:
                raw = await RawConn.open(*cluster.addrs["site0"])
                raw.send({"type": "peer-hello", "src": "site1"})
                batch = _forged_batch("site1", 1, 3)
                for _ in range(3):  # original + two retries
                    raw.write(batch)
                    ack = await raw.recv(timeout=5)
                    assert ack == {"type": "ack", "seq": 3}
                await raw.close()
                client = await cluster.client("site0")
                assert await client.read("acct0") == 3
            finally:
                await cluster.stop()

        run(scenario())

    def test_gapped_batch_acks_frontier_only(self):
        """A frame whose run starts past ``frontier + 1`` (a frame
        between was lost or reordered) records nothing; the cumulative
        ack tells the sender where to resume."""

        async def scenario():
            cluster = LiveCluster(n_sites=2, method="commu")
            await cluster.start()
            try:
                await cluster.kill("site1")  # the forged frames own the seqs
                raw = await RawConn.open(*cluster.addrs["site0"])
                raw.send({"type": "peer-hello", "src": "site1"})
                inbox = cluster.servers["site0"].inboxes["site1"]
                raw.write(_forged_batch("site1", 1, 2))
                assert await raw.recv(timeout=5) == {"type": "ack", "seq": 2}
                # frontier is 2: seqs 3-4 missing
                raw.write(_forged_batch("site1", 5, 7))
                assert await raw.recv(timeout=5) == {"type": "ack", "seq": 2}
                assert inbox.frontier == 2
                await raw.close()
                client = await cluster.client("site0")
                assert await client.read("acct0") == 2  # 5-7 never applied
            finally:
                await cluster.stop()

        run(scenario())

    def test_unordered_batch_records_its_contiguous_prefix(self):
        """A frame whose run starts below ``frontier + 1`` (a re-send
        overlapping what an earlier frame delivered) records and
        applies only its tail past the frontier, each MSet once."""

        async def scenario():
            cluster = LiveCluster(n_sites=2, method="commu")
            await cluster.start()
            try:
                await cluster.kill("site1")  # the forged frames own the seqs
                raw = await RawConn.open(*cluster.addrs["site0"])
                raw.send({"type": "peer-hello", "src": "site1"})
                inbox = cluster.servers["site0"].inboxes["site1"]
                raw.write(_forged_batch("site1", 1, 2))
                assert await raw.recv(timeout=5) == {"type": "ack", "seq": 2}
                raw.write(_forged_batch("site1", 2, 4))
                assert await raw.recv(timeout=5) == {"type": "ack", "seq": 4}
                assert inbox.frontier == 4
                raw.write(_forged_batch("site1", 1, 6))
                assert await raw.recv(timeout=5) == {"type": "ack", "seq": 6}
                await raw.close()
                client = await cluster.client("site0")
                assert await client.read("acct0") == 6  # each once
            finally:
                await cluster.stop()

        run(scenario())

    def test_a_batch_wholly_below_the_frontier_is_reacked(self, tmp_path):
        """A frame whose whole run is at or below the frontier (a late
        duplicate) is acked at the frontier and changes nothing: no
        apply, no inbox line."""

        async def scenario():
            cluster = LiveCluster(
                n_sites=2, method="commu", data_dir=tmp_path
            )
            await cluster.start()
            try:
                await cluster.kill("site1")  # the forged frames own the seqs
                raw = await RawConn.open(*cluster.addrs["site0"])
                raw.send({"type": "peer-hello", "src": "site1"})
                inbox = cluster.servers["site0"].inboxes["site1"]
                raw.write(_forged_batch("site1", 1, 5))
                assert await raw.recv(timeout=5) == {"type": "ack", "seq": 5}
                log = tmp_path / "site0" / "inbox" / "site1.log"
                logged = log.read_bytes()
                for first, last in ((2, 4), (1, 5), (5, 5)):
                    raw.write(_forged_batch("site1", first, last))
                    ack = await raw.recv(timeout=5)
                    assert ack == {"type": "ack", "seq": 5}
                assert inbox.frontier == 5
                assert log.read_bytes() == logged
                await raw.close()
                client = await cluster.client("site0")
                assert await client.read("acct0") == 5
            finally:
                await cluster.stop()

        run(scenario())

    @pytest.mark.parametrize("at", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize(
        "poison",
        [
            lambda blob: b"\xef\xbb\xbf" + blob,
            lambda blob: blob.replace(b",", b",\n", 1),
            lambda blob: blob.decode("utf-8").encode("utf-16"),
        ],
        ids=["utf8_bom", "raw_newline", "utf16"],
    )
    def test_blob_its_inbox_log_cannot_replay_is_refused(
        self, tmp_path, poison, at
    ):
        """``json.loads`` reads each poisoned entry, but spliced into
        an inbox log line it would not read back: replay would cut it,
        and every acked record after it, as a torn tail (a BOM, a raw
        newline), or the splice itself would fail (UTF-16).  Wherever
        in the run it stands — first, in the middle or last — the
        frame is dropped and counted before anything is recorded or
        acked; the same entries unpoisoned are acked and survive a
        restart."""

        async def scenario():
            cluster = LiveCluster(
                n_sites=2, method="commu", data_dir=tmp_path
            )
            await cluster.start()
            try:
                await cluster.kill("site1")  # the forged frames own the seqs
                server = cluster.servers["site0"]
                log = tmp_path / "site0" / "inbox" / "site1.log"
                logged = log.read_bytes()
                blobs = _forged_blobs("site1", 1, 3)
                poisoned = list(blobs)
                poisoned[at] = poison(blobs[at])
                assert json.loads(poisoned[at]) == [["inc", "acct0", 1]]
                raw = await RawConn.open(*cluster.addrs["site0"])
                raw.send({"type": "peer-hello", "src": "site1"})
                raw.write(encode_bin_batch_frame("site1", 1, poisoned))
                assert await raw.recv(timeout=5) is None  # severed, no ack
                await raw.close()
                assert server.registry.get_sample(
                    "frames_dropped_total", reason="malformed_mset"
                ) == 1
                assert server.inboxes["site1"].frontier == 0
                assert log.read_bytes() == logged

                raw = await RawConn.open(*cluster.addrs["site0"])
                raw.send({"type": "peer-hello", "src": "site1"})
                raw.write(encode_bin_batch_frame("site1", 1, blobs))
                assert await raw.recv(timeout=5) == {"type": "ack", "seq": 3}
                await raw.close()
                await cluster.kill("site0")
                await cluster.restart("site0")
                assert cluster.servers["site0"].inboxes["site1"].frontier == 3
                client = await cluster.client("site0")
                assert await client.read("acct0") == 3
            finally:
                await cluster.stop()

        run(scenario())


    def test_a_plain_run_is_one_check_pass_and_builds_no_mset(
        self, monkeypatch
    ):
        """A full frame of a peer's plain updates — 256 arrays — is
        checked in one ``check_ops_many`` pass over the run and applied
        as ``(tid, arrays)`` pairs: no ``decode_mset``, no MSet and no
        operation is built for any of them (pinned by count: the
        receiver's traced span holds every cost together)."""

        async def scenario():
            cluster = LiveCluster(n_sites=2, method="commu")
            await cluster.start()
            try:
                await cluster.kill("site1")  # the forged frames own the seqs
                counts = {"passes": [], "decodes": 0, "msets": 0, "ops": 0}
                check, decode = (
                    mset_module.check_ops_many, mset_module.decode_mset
                )
                fill = mset_module._fill

                def checking(run):
                    counts["passes"].append(len(run))
                    return check(run)

                def counting(kind, real):
                    def count(*args):
                        counts[kind] += 1
                        return real(*args)

                    return count

                monkeypatch.setattr(mset_module, "check_ops_many", checking)
                monkeypatch.setattr(
                    mset_module, "decode_mset", counting("decodes", decode)
                )
                monkeypatch.setattr(
                    mset_module, "_fill", counting("msets", fill)
                )
                for cls, _, _ in set(mset_module._OPS.values()):
                    monkeypatch.setattr(
                        cls, "__init__", counting("ops", cls.__init__)
                    )
                raw = await RawConn.open(*cluster.addrs["site0"])
                raw.send({"type": "peer-hello", "src": "site1"})
                raw.write(_forged_batch("site1", 1, 256))
                assert await raw.recv(timeout=5) == {"type": "ack", "seq": 256}
                await raw.close()
                assert counts == {
                    "passes": [256], "decodes": 0, "msets": 0, "ops": 0,
                }
                monkeypatch.undo()
                client = await cluster.client("site0")
                assert await client.read("acct0") == 256
            finally:
                await cluster.stop()

        run(scenario())

    def test_entry_with_a_malformed_stamp_is_refused_before_recording(
        self, tmp_path
    ):
        """A peer entry whose ``tswrite`` stamp is not ``[int time,
        site name]`` drops the frame before anything is recorded: the
        inbox never holds a record that would fail at apply, and at
        every replay after it."""

        async def scenario():
            cluster = LiveCluster(
                n_sites=2, method="commu", data_dir=tmp_path
            )
            await cluster.start()
            try:
                await cluster.kill("site1")  # the forged frames own the seqs
                server = cluster.servers["site0"]
                good = MSet(
                    tid="site1:1",
                    ops=(TimestampedWriteOp("k", 1, (1, "site1")),),
                    origin="site1",
                )
                bad = MSet(
                    tid="site1:2",
                    ops=(TimestampedWriteOp("k", 2, ("x", 0)),),
                    origin="site1",
                )
                raw = await RawConn.open(*cluster.addrs["site0"])
                raw.send({"type": "peer-hello", "src": "site1"})
                raw.write(
                    encode_bin_batch_frame(
                        "site1",
                        1,
                        [payload_blob({"mset": encode_mset(m)})
                         for m in (good, bad)],
                    )
                )
                assert await raw.recv(timeout=5) is None  # severed, no ack
                await raw.close()
                assert server.registry.get_sample(
                    "frames_dropped_total", reason="malformed_mset"
                ) == 1
                assert server.inboxes["site1"].frontier == 0
                await cluster.kill("site0")
                await cluster.restart("site0")
                client = await cluster.client("site0")
                assert await client.read("k") == 0
            finally:
                await cluster.stop()

        run(scenario())


class TestSettleVerb:
    def test_settle_returns_immediately_when_drained(self):
        async def scenario():
            cluster = LiveCluster(n_sites=2, method="commu")
            await cluster.start()
            try:
                client = await cluster.client("site0")
                reply = await client.settle()
                assert reply["drained"] is True
                assert reply["waited"] is False
            finally:
                await cluster.stop()

        run(scenario())

    def test_settle_waits_for_backlog(self):
        async def scenario():
            plan = FaultPlan(0)
            cluster = LiveCluster(
                n_sites=2,
                method="commu",
                faults=plan,
                server_options={"retry_base": 0.005, "retry_max": 0.02},
            )
            await cluster.start()
            try:
                client = await cluster.client("site0")
                plan.partition([["site0"], ["site1"]])
                await client.increment("acct0", 1)
                settle_task = asyncio.ensure_future(
                    client.settle(timeout=30)
                )
                await asyncio.sleep(0.1)
                assert not settle_task.done()  # blocked on the backlog
                plan.heal_all()
                reply = await settle_task
                assert reply["drained"] is True
                assert reply["waited"] is True
                assert reply["ack_high_water"] == {"site1": 1}
            finally:
                await cluster.stop()

        run(scenario())

    def test_settle_times_out_against_a_dead_peer(self):
        async def scenario():
            plan = FaultPlan(0)
            cluster = LiveCluster(
                n_sites=2, method="commu", faults=plan
            )
            await cluster.start()
            try:
                client = await cluster.client("site0")
                plan.partition([["site0"], ["site1"]])
                await client.increment("acct0", 1)
                with pytest.raises(Exception) as excinfo:
                    await client.settle(timeout=0.5)
                assert "settle timed out" in str(excinfo.value)
            finally:
                await cluster.stop()

        run(scenario())

    def test_query_reports_degraded_flag(self):
        async def scenario():
            plan = FaultPlan(0)
            cluster = LiveCluster(
                n_sites=2,
                method="commu",
                faults=plan,
                heartbeat_interval=0.05,
                suspect_after=0.2,
            )
            await cluster.start()
            try:
                client = await cluster.client("site0")
                healthy = await client.query(
                    ["acct0"], EpsilonSpec(import_limit=10)
                )
                assert healthy.degraded is False
                plan.partition([["site0"], ["site1"]])
                await asyncio.sleep(0.5)  # let the detector trip
                outcome = await client.query(
                    ["acct0"], EpsilonSpec(import_limit=10)
                )
                assert outcome.degraded is True
                assert outcome["degraded"] is True  # dict-style too
            finally:
                await cluster.stop()

        run(scenario())
