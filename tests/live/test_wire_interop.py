"""Wire codec interop matrix: binary↔binary, binary↔JSON-only peer,
and a mixed-codec cluster under fault pressure — all must converge to
identical applied state, because the codec is transport dressing, not
semantics.

Also pins the wire-vs-durable-log split (channel logs stay JSON lines
no matter what the wire negotiated) and the decode-before-record
ordering: a malformed binary batch must drop the connection *without*
poisoning the inbox log, so a restart replays cleanly.
"""

import asyncio
import json

import pytest

from repro.live import FaultPlan, LiveCluster
from repro.live.protocol import (
    ProtocolError,
    encode_bin_batch_frame,
    payload_blob,
    read_frame,
    write_frame,
)


def run(coro):
    return asyncio.run(coro)


async def _booted(tmp_path, **kwargs):
    cluster = LiveCluster(
        n_sites=kwargs.pop("n_sites", 3),
        method="commu",
        data_dir=tmp_path,
        **kwargs,
    )
    await cluster.start()
    return cluster


async def _drive(cluster, site="site0", n=30):
    client = await cluster.client(site)
    for i in range(n):
        await client.increment("k%d" % (i % 5), i)
    await client.close()
    await cluster.settle(timeout=30)


class TestInteropMatrix:
    def test_binary_to_binary_converges_and_negotiates(self, tmp_path):
        async def scenario():
            cluster = await _booted(tmp_path)
            try:
                # Drive from every site so every outbound channel
                # carries traffic (a full mesh only propagates from
                # the origin).
                for site in ("site0", "site1", "site2"):
                    await _drive(cluster, site=site, n=10)
                assert await cluster.converged()
                stats = await cluster.site_stats()
                for site, stat in stats.items():
                    assert stat["wire"] == "bin1"
                    for peer, info in stat["peers"].items():
                        assert info["wire"] == "bin1", (site, peer)
                # The fast path actually carried the stream: every
                # replica relayed pre-encoded bytes to each peer.
                for site, server in cluster.servers.items():
                    for peer in server.peer_names:
                        assert (
                            server.registry.get_sample(
                                "frames_relayed_total", peer=peer
                            )
                            > 0
                        )
                        assert (
                            server.registry.get_sample(
                                "propagation_frames_total",
                                peer=peer,
                                wire_codec="bin1",
                            )
                            > 0
                        )
            finally:
                await cluster.stop()

        run(scenario())

    def test_binary_peer_falls_back_to_json_only_peer(self, tmp_path):
        """One JSON-pinned replica in a binary cluster: every channel
        touching it stays JSON, the rest go binary, state converges."""

        async def scenario():
            cluster = await _booted(
                tmp_path,
                server_overrides={"site1": {"wire": "json"}},
            )
            try:
                await _drive(cluster, site="site1")
                await _drive(cluster, site="site0", n=10)
                assert await cluster.converged()
                stats = await cluster.site_stats()
                # site1 never advertises nor accepts binary.
                assert stats["site1"]["wire"] == "json"
                for info in stats["site1"]["peers"].values():
                    assert info["wire"] == "json"
                # Binary peers negotiated bin1 among themselves but
                # fell back to JSON toward site1.
                assert stats["site0"]["peers"]["site1"]["wire"] == "json"
                assert stats["site0"]["peers"]["site2"]["wire"] == "bin1"
                assert stats["site2"]["peers"]["site1"]["wire"] == "json"
                assert stats["site2"]["peers"]["site0"]["wire"] == "bin1"
                site0 = cluster.servers["site0"]
                assert (
                    site0.registry.get_sample(
                        "propagation_frames_total",
                        peer="site1",
                        wire_codec="json",
                    )
                    > 0
                )
            finally:
                await cluster.stop()

        run(scenario())

    def test_mixed_cluster_under_faults_converges(self, tmp_path):
        """Drops, duplicates, and reordering on every link of a mixed
        bin1/json cluster: retransmission and cumulative acks are
        codec-independent, and all replicas end bit-identical."""
        from repro.live.faults import LinkFaults

        async def scenario():
            plan = FaultPlan(
                seed=11,
                default=LinkFaults(
                    drop=0.10, duplicate=0.08, reorder=0.15,
                    delay_max=0.005,
                ),
            )
            cluster = await _booted(
                tmp_path,
                faults=plan,
                server_overrides={"site2": {"wire": "json"}},
            )
            try:
                clients = {
                    site: await cluster.client(site)
                    for site in ("site0", "site1", "site2")
                }
                for i in range(40):
                    site = "site%d" % (i % 3)
                    await clients[site].increment("shared", 1)
                for client in clients.values():
                    await client.close()
                # Heal the rate faults: retransmission finishes the job.
                plan.set_default(LinkFaults())
                await cluster.settle(timeout=60)
                assert await cluster.converged()
                values = await cluster.site_values()
                assert values["site0"]["shared"] == 40
            finally:
                await cluster.stop()

        run(scenario())


class TestWireVsDurableLog:
    def test_channel_logs_stay_json_lines_after_binary_propagation(
        self, tmp_path
    ):
        """The binary codec exists only on the wire: after a binary
        run, every replication/inbox log line is plain JSON, bit-identical
        to a full ``json.dumps`` of its record."""

        async def scenario():
            cluster = await _booted(tmp_path, n_sites=2, fsync=False)
            try:
                await _drive(cluster, n=10)
                stats = await cluster.site_stats()
                assert stats["site0"]["peers"]["site1"]["wire"] == "bin1"
            finally:
                await cluster.stop()

        run(scenario())
        checked = 0
        for log in tmp_path.glob("site*/**/*.log"):
            for line in log.read_text().splitlines():
                record = json.loads(line)  # raises if the log went binary
                if "payload" in record:
                    canonical = json.dumps(
                        {"seq": record["seq"], "payload": record["payload"]},
                        separators=(",", ":"),
                    )
                    assert line == canonical
                    checked += 1
        assert checked > 0, "no channel log records found under %s" % tmp_path

    def test_restart_replays_binary_propagated_records(self, tmp_path):
        """Records that arrived via binary frames must recover exactly
        like JSON-era records (same log format, same replay path)."""

        async def scenario():
            cluster = await _booted(tmp_path, n_sites=2)
            try:
                await _drive(cluster, n=15)
                before = await cluster.site_values()
                await cluster.kill("site1")
                await cluster.restart("site1")
                await cluster.settle(timeout=30)
                assert await cluster.converged()
                after = await cluster.site_values()
                assert after["site1"] == before["site1"]
            finally:
                await cluster.stop()

        run(scenario())


class TestMalformedBinaryBatch:
    def _bad_blob(self):
        # Valid JSON, valid envelope — but the mset inside carries the
        # poisoned amount the decoder sweep rejects.
        return payload_blob(
            {
                "mset": {
                    "tid": "site1:1",
                    "kind": "update",
                    "ops": [{"t": "inc", "key": "x", "amount": "NaN"}],
                    "origin": "site1",
                    "order": None,
                    "txn": None,
                    "info": [],
                }
            }
        )

    def test_malformed_mset_drops_connection_without_poisoning_log(
        self, tmp_path
    ):
        async def scenario():
            cluster = await _booted(tmp_path, n_sites=2)
            try:
                # Quiet the real peer so the forged frames own the seqs.
                await cluster.kill("site1")
                server = cluster.servers["site0"]
                frontier = server.inboxes["site1"].frontier
                host, port = cluster.addrs["site0"]
                reader, writer = await asyncio.open_connection(host, port)
                await write_frame(
                    writer, {"type": "peer-hello", "src": "site1"}
                )
                writer.write(
                    encode_bin_batch_frame(
                        "site1", [(frontier + 1, self._bad_blob())]
                    )
                )
                await writer.drain()
                # The server must sever the connection (EOF to us)...
                assert await read_frame(reader) is None
                writer.close()
                # ...count the drop...
                assert (
                    server.registry.get_sample(
                        "frames_dropped_total", reason="malformed_mset"
                    )
                    == 1
                )
                # ...and never durably record the malformed entry.
                assert server.inboxes["site1"].frontier == frontier

                # Decode-before-record: a restart replays the inbox
                # log without tripping over a poisoned record.
                await cluster.kill("site0")
                await cluster.restart("site0")
                assert (
                    cluster.servers["site0"].inboxes["site1"].frontier
                    == frontier
                )
            finally:
                await cluster.stop()

        run(scenario())

    def test_garbage_binary_frame_counted_as_protocol_error(self, tmp_path):
        async def scenario():
            cluster = await _booted(tmp_path, n_sites=2)
            try:
                host, port = cluster.addrs["site0"]
                reader, writer = await asyncio.open_connection(host, port)
                await write_frame(
                    writer, {"type": "peer-hello", "src": "site1"}
                )
                # Binary flag set, unknown kind byte: ProtocolError at
                # the framing layer.
                writer.write(b"\x80\x00\x00\x04\x7fjnk")
                await writer.drain()
                assert await read_frame(reader) is None
                writer.close()
                server = cluster.servers["site0"]
                assert (
                    server.registry.get_sample(
                        "frames_dropped_total", reason="protocol_error"
                    )
                    == 1
                )
            finally:
                await cluster.stop()

        run(scenario())
