"""Client robustness: timeouts, reconnect, failover, and the
no-leaked-future guarantee on failed sends."""

import asyncio
import pathlib
import re
import socket

import pytest

from repro.core.operations import IncrementOp
from repro.live import LiveCluster, LiveETFailed
from repro.live.client import _IDEMPOTENT_VERBS, LiveClient, RequestTimeout
from repro.live.server import ReplicaServer

from .wire import listen


def run(coro):
    return asyncio.run(coro)


def _free_port() -> int:
    """A port that was free a moment ago (nothing listens on it)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


LIVE_MD = pathlib.Path(__file__).resolve().parents[2] / "docs" / "LIVE.md"


class TestDocsSync:
    def test_documented_retried_verbs_are_the_idempotent_ones(self):
        """docs/LIVE.md "Client robustness" names exactly the verbs the
        client re-issues after a reconnect — a verb added to or dropped
        from ``_IDEMPOTENT_VERBS`` without its doc entry fails here."""
        text = LIVE_MD.read_text(encoding="utf-8")
        section = text.split("### Client robustness", 1)[1]
        section = section.split("\n### ", 1)[0]
        listed = re.search(r"Only\s+idempotent\s+verbs\s+\(([^)]*)\)", section)
        assert listed is not None, "no verb list in Client robustness"
        documented = re.findall(r"`([\w-]+)`", listed.group(1))
        assert len(documented) == len(set(documented))
        assert set(documented) == _IDEMPOTENT_VERBS


class TestFailedSendLeavesNoOrphanFuture:
    def test_send_failure_pops_the_waiting_future(self, tmp_path):
        """A request whose send raises must not leak its future in
        ``_waiting`` (the leak would pin memory and could mismatch a
        later response to the wrong caller).  Requests are buffered and
        written once per turn: the write that fails takes exactly the
        requests of its turn with it."""

        async def scenario():
            cluster = LiveCluster(n_sites=1, method="commu", data_dir=tmp_path)
            await cluster.start()
            try:
                client = await cluster.client("site0", reconnect=False)
                transport = client._conn.transport
                real_write = transport.write
                calls = {"n": 0}

                def flaky_write(data):
                    calls["n"] += 1
                    if calls["n"] == 1:
                        raise ConnectionResetError("boom mid-send")
                    real_write(data)

                transport.write = flaky_write
                outcomes = await asyncio.gather(
                    *(client.ping() for _ in range(3)),
                    return_exceptions=True,
                )
                assert calls["n"] == 1  # one turn, one write
                assert [type(o) for o in outcomes] == (
                    [ConnectionResetError] * 3
                )
                assert client._waiting == {}
                # The connection itself survived (nothing was written):
                # the next request must work and clean up after itself.
                reply = await client.ping()
                assert reply["site"] == "site0"
                assert client._waiting == {}
            finally:
                await cluster.stop()

        run(scenario())

    def test_transport_dead_before_the_flush_fails_every_buffered_request(
        self, tmp_path
    ):
        """The transport dies between a turn's requests being buffered
        and its flush: every one of them fails, none is left waiting."""

        async def scenario():
            cluster = LiveCluster(n_sites=1, method="commu", data_dir=tmp_path)
            await cluster.start()
            try:
                client = await cluster.client("site0", reconnect=False)
                pings = [
                    asyncio.ensure_future(client.ping()) for _ in range(4)
                ]
                await asyncio.sleep(0)  # buffered, flush still to come
                assert len(client._waiting) == 4
                client._conn.transport.abort()
                outcomes = await asyncio.gather(*pings, return_exceptions=True)
                assert all(isinstance(o, ConnectionError) for o in outcomes)
                assert client._waiting == {}
            finally:
                await cluster.stop()

        run(scenario())


class TestRequestTimeout:
    def test_unanswered_request_times_out(self):
        """A server that accepts but never replies must not hang the
        client past its per-request deadline."""

        async def scenario():
            async def black_hole(raw):
                while await raw.recv(timeout=None) is not None:
                    pass  # takes every frame, answers none
                await raw.close()

            server = await listen(black_hole)
            port = server.sockets[0].getsockname()[1]
            try:
                client = await LiveClient.connect("127.0.0.1", port)
                with pytest.raises(RequestTimeout):
                    await client.request("ping", timeout=0.2)
                assert client._waiting == {}
                await client.close()
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())


    def test_a_deadline_is_one_timer_and_a_late_reply_is_dropped(
        self, monkeypatch
    ):
        """The deadline is one ``call_later`` timer per request: a
        request that misses it raises ``RequestTimeout`` and
        leaves nothing in ``_waiting``; its late reply, arriving with the
        next request's, resolves nobody; an answered request leaves no
        live timer."""

        async def scenario():
            async def late(raw):
                first = await raw.recv(timeout=None)
                second = await raw.recv(timeout=None)
                for frame, site in ((first, "late"), (second, "second")):
                    raw.send(
                        {"type": "response", "id": frame["id"], "ok": True,
                         "site": site}
                    )
                while await raw.recv(timeout=None) is not None:
                    pass
                await raw.close()

            server = await listen(late)
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()
            timers = []
            real_call_later = loop.call_later

            def call_later(delay, callback, *args):
                timers.append(real_call_later(delay, callback, *args))
                return timers[-1]

            try:
                client = await LiveClient.connect(
                    "127.0.0.1", port, request_timeout=0.05
                )
                monkeypatch.setattr(loop, "call_later", call_later)
                with pytest.raises(RequestTimeout) as info:
                    await client.ping()
                assert str(info.value) == "ping request exceeded 0.050s"
                assert client._waiting == {}
                assert len(timers) == 1
                reply = await client.request("ping", timeout=5.0)
                assert reply["site"] == "second"
                assert client._waiting == {}
                assert len(timers) == 2 and timers[1].cancelled()
                monkeypatch.undo()
                await client.close()
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_an_update_spends_its_deadline_once(self):
        """An update awaits its one round trip directly, under the
        client-wide deadline: it times out, and it is not re-sent."""

        async def scenario():
            frames = []

            async def black_hole(raw):
                while True:
                    frame = await raw.recv(timeout=None)
                    if frame is None:
                        break
                    frames.append(frame)
                await raw.close()

            server = await listen(black_hole)
            port = server.sockets[0].getsockname()[1]
            try:
                client = await LiveClient.connect(
                    "127.0.0.1", port, request_timeout=0.05
                )
                with pytest.raises(RequestTimeout) as info:
                    await client.update([IncrementOp("k", 1)])
                assert str(info.value) == "update request exceeded 0.050s"
                assert client._waiting == {}
                await asyncio.sleep(0.05)
                assert [frame["verb"] for frame in frames] == ["update"]
                await client.close()
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())


class TestReconnect:
    def test_client_redials_a_restarted_server(self, tmp_path):
        async def scenario():
            server = ReplicaServer(
                "solo", peers=["solo"], data_dir=tmp_path / "a"
            )
            port = await server.bind("127.0.0.1", 0)
            client = await LiveClient.connect(
                "127.0.0.1", port, request_timeout=5.0
            )
            assert (await client.ping())["site"] == "solo"
            await server.stop()

            # Same address, fresh process-equivalent: reconnect works.
            server2 = ReplicaServer(
                "solo", peers=["solo"], data_dir=tmp_path / "b"
            )
            await server2.bind("127.0.0.1", port)
            try:
                assert (await client.ping())["site"] == "solo"
                assert client.reconnects >= 1
            finally:
                await client.close()
                await server2.stop()

        run(scenario())

    def test_no_reconnect_when_disabled(self, tmp_path):
        async def scenario():
            server = ReplicaServer(
                "solo", peers=["solo"], data_dir=tmp_path
            )
            port = await server.bind("127.0.0.1", 0)
            client = await LiveClient.connect(
                "127.0.0.1", port, reconnect=False
            )
            await client.ping()
            await server.stop()
            await asyncio.sleep(0.05)
            with pytest.raises((ConnectionError, LiveETFailed)):
                await client.ping()
            await client.close()

        run(scenario())


class TestHealthyConnectionFastPath:
    def test_requests_on_a_healthy_primary_skip_the_connection_checks(
        self, tmp_path, monkeypatch
    ):
        """On a live connection to the primary address with a writer
        under its high-water mark, a request neither re-checks the
        connection (``_ensure_connected``) nor awaits the writer's
        ``drain``: 100 updates and 100 one-key reads call neither."""

        async def scenario():
            cluster = LiveCluster(n_sites=1, data_dir=tmp_path)
            await cluster.start()
            try:
                client = await cluster.client("site0")
                calls = []

                async def ensure_connected():
                    calls.append("_ensure_connected")

                async def drain():
                    calls.append("drain")

                monkeypatch.setattr(
                    client, "_ensure_connected", ensure_connected
                )
                monkeypatch.setattr(client._conn.frames, "drain", drain)
                keys = ["k%d" % (i % 10) for i in range(100)]
                for key in keys:
                    await client.increment(key, 1)
                values = [await client.read(key) for key in keys]
                assert values == [10] * 100
                assert calls == []
            finally:
                await cluster.stop()

        run(scenario())


class TestFailover:
    def test_dead_primary_fails_over_to_live_replica(self, tmp_path):
        async def scenario():
            cluster = LiveCluster(n_sites=1, method="commu", data_dir=tmp_path)
            await cluster.start()
            try:
                dead = _free_port()
                host, live = cluster.addrs["site0"]
                client = await LiveClient.connect(
                    "127.0.0.1",
                    dead,
                    failover=[(host, live)],
                    request_timeout=5.0,
                )
                reply = await client.ping()
                assert reply["site"] == "site0"
                await client.close()
            finally:
                await cluster.stop()

        run(scenario())

    def test_updates_are_not_retried_by_default(self, tmp_path):
        """An update that dies on the wire surfaces the error rather
        than risking double-application via blind re-submission."""

        async def scenario():
            server = ReplicaServer(
                "solo", peers=["solo"], data_dir=tmp_path
            )
            port = await server.bind("127.0.0.1", 0)
            client = await LiveClient.connect("127.0.0.1", port)
            await client.increment("x", 1)
            await server.stop()
            await asyncio.sleep(0.05)
            with pytest.raises((ConnectionError, OSError)):
                await client.increment("x", 1)
            await client.close()

        run(scenario())
