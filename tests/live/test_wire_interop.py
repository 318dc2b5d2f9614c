"""The one peer wire: a channel is a JSON ``peer-hello`` followed by
binary ``mset-batch`` frames, answered by binary cumulative acks —
nothing negotiated, no option to set, and a peer that speaks anything
else is refused where an operator can see it.

Also pins the wire-vs-durable-log split (channel logs are JSON lines
under a binary wire) and the decode-before-record ordering: a malformed
binary batch must drop the connection *without* poisoning the inbox
log, so a restart replays cleanly.
"""

import asyncio
import json
import time

import pytest

from repro.__main__ import main
from repro.core.operations import IncrementOp
from repro.live import LiveClient, LiveCluster, ReplicaServer
from repro.live.protocol import (
    encode_bin_batch_frame,
    encode_mset,
    payload_blob,
)
from repro.replica.mset import MSet

from .wire import RawConn, listen


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


class TestOneWire:
    def test_every_channel_relays_binary_frames(self, tmp_path):
        async def scenario():
            cluster = await _booted(tmp_path)
            try:
                # Drive from every site so every outbound channel
                # carries traffic (a full mesh only propagates from
                # the origin).
                for site in ("site0", "site1", "site2"):
                    await _drive(cluster, site=site, n=10)
                assert await cluster.converged()
                # Every replica relayed pre-encoded bytes to each peer.
                for site, server in cluster.servers.items():
                    for peer in server.peer_names:
                        for family in (
                            "frames_relayed_total",
                            "propagation_frames_total",
                        ):
                            assert (
                                server.registry.get_sample(family, peer=peer)
                                > 0
                            ), (site, peer, family)
            finally:
                await cluster.stop()

        run(scenario())

    def test_silent_receiver_gets_binary_batch_at_once(self, tmp_path):
        """A receiver that takes the ``peer-hello`` and never says a
        word still gets the backlog at once, as a binary ``mset-batch``:
        there is no verdict to wait for."""

        async def scenario():
            first = asyncio.get_running_loop().create_future()

            async def receiver(raw):
                hello = await raw.recv()
                greeted = time.monotonic()
                frame = await raw.recv()
                while frame["type"] == "hb":
                    frame = await raw.recv()
                if not first.done():  # the sender redials after the close
                    first.set_result(
                        (hello, frame, time.monotonic() - greeted)
                    )
                await raw.close()

            silent = await listen(receiver)
            server = ReplicaServer(
                "site0", peers=["site0", "site1"], data_dir=tmp_path
            )
            port = await server.bind()
            try:
                client = await LiveClient.connect("127.0.0.1", port)
                await client.increment("x", 7)  # owed to site1 from now on
                await client.close()
                server.set_peers(
                    {"site1": silent.sockets[0].getsockname()[:2]}
                )
                server.start_channels()
                hello, frame, waited = await asyncio.wait_for(
                    first, timeout=5
                )
            finally:
                await server.stop()
                silent.close()
                await silent.wait_closed()
            assert hello == {"type": "peer-hello", "src": "site0"}
            # ``blobs``: only a binary frame decodes to them.
            assert frame["type"] == "mset-batch"
            assert frame["first"] == 1 and len(frame["blobs"]) == 1
            assert waited < 0.15

        run(scenario())

    def test_json_batch_frames_are_refused_loudly(self, tmp_path):
        """A mis-versioned peer's JSON ``mset-batch`` / ``mset`` frames
        get an ``error`` reply and a counted drop; the inbox frontier
        and the engine never see them, across a restart too."""
        mset = encode_mset(
            MSet(
                tid="site1:1", ops=(IncrementOp("x", 5),), origin="site1"
            )
        )

        async def scenario():
            cluster = await _booted(tmp_path, n_sites=2)
            try:
                # Quiet the real peer so the forged frames own the seqs.
                await cluster.kill("site1")
                server = cluster.servers["site0"]
                frontier = server.inboxes["site1"].frontier
                raw = await RawConn.open(*cluster.addrs["site0"])
                raw.send({"type": "peer-hello", "src": "site1"})
                for forged in (
                    {
                        "type": "mset-batch",
                        "src": "site1",
                        "msets": [{"seq": frontier + 1, "mset": mset}],
                    },
                    {
                        "type": "mset",
                        "src": "site1",
                        "seq": frontier + 1,
                        "mset": mset,
                    },
                ):
                    raw.send(forged)
                    reply = await raw.recv(timeout=5)
                    assert reply["type"] == "error"
                await raw.close()
                assert (
                    server.registry.get_sample(
                        "frames_dropped_total", reason="unknown_frame"
                    )
                    == 2
                )
                assert server.inboxes["site1"].frontier == frontier
                assert server.engine.snapshot().get("x", 0) == 0

                await cluster.kill("site0")
                await cluster.restart("site0")
                server = cluster.servers["site0"]
                assert server.inboxes["site1"].frontier == frontier
                assert server.engine.snapshot().get("x", 0) == 0
            finally:
                await cluster.stop()

        run(scenario())

    def test_there_is_no_wire_option(self, tmp_path, capsys):
        with pytest.raises(TypeError):
            ReplicaServer(
                "site0", peers=["site0"], data_dir=tmp_path, wire="json"
            )
        with pytest.raises(TypeError):
            LiveClient([("127.0.0.1", 1)], wire="json")
        with pytest.raises(SystemExit) as refused:
            main(["serve", "--name", "site0", "--wire", "json"])
        assert refused.value.code == 2
        assert "--wire" in capsys.readouterr().err

    def test_there_is_no_batch_option(self, tmp_path, capsys):
        """Frame size and frames in flight are two ``server.py``
        constants, not something a caller sets."""
        with pytest.raises(TypeError):
            ReplicaServer(
                "site0", peers=["site0"], data_dir=tmp_path, batch_size=8
            )
        with pytest.raises(TypeError):
            LiveCluster(n_sites=2, data_dir=tmp_path, window=2)
        for flag in ("--batch-size", "--window"):
            with pytest.raises(SystemExit) as refused:
                main(["serve", "--name", "site0", flag, "8"])
            assert refused.value.code == 2
            assert flag in capsys.readouterr().err


class TestWireVsDurableLog:
    def test_channel_logs_stay_json_lines_after_binary_propagation(
        self, tmp_path
    ):
        """Binary framing exists only on the wire: after a run, every
        replication/inbox log line is plain JSON, bit-identical to a
        full ``json.dumps`` of its record."""

        async def scenario():
            cluster = await _booted(tmp_path, n_sites=2, fsync=False)
            try:
                await _drive(cluster, n=10)
                assert (
                    cluster.servers["site0"].registry.get_sample(
                        "frames_relayed_total", peer="site1"
                    )
                    == 10
                )
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
        """Records that arrived via binary frames recover through the
        ordinary JSON-lines replay path."""

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
    def _bad_blob(self, op=None):
        # Valid JSON, valid envelope — but the mset inside carries the
        # poisoned amount the decoder sweep rejects.
        return payload_blob(
            {
                "mset": {
                    "tid": "site1:1",
                    "ops": [op or ["inc", "x", "NaN"]],
                    "origin": "site1",
                }
            }
        )

    def test_malformed_mset_drops_connection_without_poisoning_log(
        self, tmp_path
    ):
        self._refused(tmp_path, [self._bad_blob()])

    def test_an_operation_in_the_object_form_is_malformed(self, tmp_path):
        """What a peer running a tree from before the positional codec
        would send: there is no reader for it."""
        self._refused(
            tmp_path,
            [self._bad_blob({"t": "inc", "key": "x", "amount": 1})],
        )

    def test_entries_valid_only_when_joined_are_refused(self, tmp_path):
        """Two entries, each invalid JSON alone, that read as a valid
        two-element array once joined with a comma.  This is why a
        batch is never parsed as one joined document: every blob is
        parsed and validated on its own, so bytes that only make sense
        across an entry boundary never reach the inbox log — where each
        entry becomes a line of its own and the first would be torn."""
        halves = [b'{"mset":{}', b'"x":1},{"mset":{}}']
        assert json.loads(b"[" + b",".join(halves) + b"]") == [
            {"mset": {}, "x": 1}, {"mset": {}},
        ]
        for half in halves:
            with pytest.raises(ValueError):
                json.loads(half)
        self._refused(tmp_path, halves)

    def _refused(self, tmp_path, blobs):
        """Forge one batch of ``blobs``: the connection is dropped, the
        drop counted, and neither the inbox frontier nor its log file
        moves — across a restart either."""

        async def scenario():
            cluster = await _booted(tmp_path, n_sites=2)
            try:
                # Quiet the real peer so the forged frames own the seqs.
                await cluster.kill("site1")
                server = cluster.servers["site0"]
                frontier = server.inboxes["site1"].frontier
                log = tmp_path / "site0" / "inbox" / "site1.log"
                logged = log.read_bytes()
                raw = await RawConn.open(*cluster.addrs["site0"])
                raw.send({"type": "peer-hello", "src": "site1"})
                raw.write(encode_bin_batch_frame("site1", frontier + 1, blobs))
                # The server must sever the connection (EOF to us)...
                assert await raw.recv() is None
                await raw.close()
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
                assert log.read_bytes() == logged
            finally:
                await cluster.stop()

        run(scenario())

    def test_garbage_binary_frame_counted_as_protocol_error(self, tmp_path):
        async def scenario():
            cluster = await _booted(tmp_path, n_sites=2)
            try:
                raw = await RawConn.open(*cluster.addrs["site0"])
                raw.send({"type": "peer-hello", "src": "site1"})
                # Binary flag set, unknown kind byte: ProtocolError at
                # the framing layer.
                raw.write(b"\x80\x00\x00\x04\x7fjnk")
                assert await raw.recv() is None
                await raw.close()
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
