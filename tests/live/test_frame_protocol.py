"""One :class:`FrameProtocol` per connection: frames are cut out of what
the socket delivered and handled in that step.

Pins the parser against the one-frame-at-a-time decoder whatever the
read boundaries, the refusals a malformed frame earns, back-pressure
from a peer that stops reading its acks, and what the design removed:
no task per connection, per COMMU update or per one-key read, and no
transport left unclosed once a cluster stops.
"""

import asyncio
import gc
import math
import socket
import struct
import warnings

from hypothesis import given
from hypothesis import strategies as st

from repro.core.operations import IncrementOp
from repro.live import LiveClient, LiveCluster, ReplicaServer
from repro.live.client import request_once
from repro.live.gossip import FailureDetector
from repro.live.protocol import (
    MAX_FRAME,
    READ_AHEAD,
    encode_bin_ack_frame,
    encode_bin_batch_frame,
    encode_frame,
    read_frame,
)

from .wire import RawConn, fake_connection

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2 ** 63), 2 ** 63 - 1)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
_JSON_FRAMES = st.dictionaries(
    st.text(max_size=6),
    st.recursive(
        _SCALARS,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    ),
    max_size=4,
).map(encode_frame)
_BATCH_FRAMES = st.builds(
    encode_bin_batch_frame,
    st.sampled_from(["site1", "s"]),
    st.integers(0, 2 ** 64 - 4),
    st.lists(st.binary(max_size=40), min_size=1, max_size=4),
)
_ACK_FRAMES = st.integers(0, 2 ** 64 - 1).map(encode_bin_ack_frame)
_FRAMES = st.lists(_JSON_FRAMES | _BATCH_FRAMES | _ACK_FRAMES, max_size=12)


def _alone(data: bytes) -> dict:
    """One encoded frame, decoded on its own."""
    (length,) = struct.unpack_from(">I", data)
    return read_frame(data[4:], length & 0x80000000)


@given(frames=_FRAMES, cuts=st.lists(st.integers(0, 4096), max_size=10))
def test_any_cut_of_the_stream_yields_the_frames_in_order(frames, cuts):
    """However the socket splits the stream, the consumer sees exactly
    the frames a one-at-a-time decoder reads, in order — including
    across the turns a consumer holds the parser for (as the replica
    does after every batch frame)."""
    stream = b"".join(frames)
    points = sorted({min(cut, len(stream)) for cut in cuts})
    pieces = [
        stream[a:b] for a, b in zip([0] + points, points + [len(stream)])
    ]

    async def feed():
        seen = []

        def on_frame(conn, frame):
            seen.append(frame)
            if frame.get("type") == "mset-batch":
                conn.hold()

        conn = fake_connection(on_frame)
        for piece in pieces:
            conn.data_received(piece)
            await asyncio.sleep(0)
        for _ in range(len(frames) + 1):  # the held turns run out
            await asyncio.sleep(0)
        assert conn.errors == [] and not conn._buf
        return seen

    assert asyncio.run(feed()) == [_alone(frame) for frame in frames]


def test_a_held_connection_stops_reading_past_its_read_ahead():
    """Bytes that arrive while the parser is held are buffered only up
    to ``READ_AHEAD``; past it the transport stops reading until the
    parser catches up."""

    async def scenario():
        batches = []
        conn = fake_connection(
            lambda conn, frame: (batches.append(frame), conn.hold())
        )
        frame = encode_bin_batch_frame("site1", 1, [b"x" * 4096])
        n = READ_AHEAD // len(frame)
        conn.data_received(frame * n)
        assert len(batches) == 1 and conn.transport.reading
        conn.data_received(frame * n)
        assert len(batches) == 1
        assert not conn.transport.reading  # held, and over the read-ahead
        while len(batches) < 2 * n:
            await asyncio.sleep(0)
        assert conn.transport.reading and not conn._buf

    asyncio.run(scenario())


def _dropped(server, reason):
    return server.registry.get_sample("frames_dropped_total", reason=reason)


def test_malformed_frames_close_the_connection_and_are_counted(tmp_path):
    """An oversized length word, a truncated binary batch and a JSON
    body that is not an object each close their connection and count
    one ``protocol_error`` drop; the replica serves on."""
    one_entry = encode_bin_batch_frame("site1", 1, [b"{}"])
    body = bytearray(one_entry[4:])
    struct.pack_into(">I", body, 3, 2)  # claims two entries, carries one
    malformed = {
        "oversized": struct.pack(">I", MAX_FRAME + 1),
        "truncated": struct.pack(">I", 0x80000000 | len(body)) + bytes(body),
        "non-object": struct.pack(">I", 7) + b"[1,2,3]",
    }

    async def scenario():
        server = ReplicaServer(
            "site0", peers=["site0", "site1"], data_dir=tmp_path
        )
        port = await server.bind()
        try:
            for n, data in enumerate(malformed.values(), start=1):
                raw = await RawConn.open("127.0.0.1", port)
                raw.write(data)
                assert await raw.recv() is None  # closed on us
                await raw.close()
                assert _dropped(server, "protocol_error") == n
            reply = await request_once(("127.0.0.1", port), "ping")
            assert reply["site"] == "site0"
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_a_peer_that_stops_reading_its_acks_stops_being_read(tmp_path):
    """A connection whose answers back up is not read further: the
    replica's receive buffer and its unsent answers stay bounded while
    the peer keeps writing, other connections are served meanwhile,
    and every answer arrives once the peer reads again."""
    count = 4000  # ~170 KiB of answers: far past every buffer below
    hb = encode_frame({"type": "hb", "src": "site1"})

    async def scenario():
        server = ReplicaServer(
            "site0", peers=["site0", "site1"], data_dir=tmp_path
        )
        port = await server.bind()
        try:
            raw = await RawConn.open("127.0.0.1", port)
            mine = raw.conn.transport.get_extra_info("socket")
            mine.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            raw.conn.transport.pause_reading()  # takes no answer
            raw.send({"type": "peer-hello", "src": "site1"})
            while not server._conns:
                await asyncio.sleep(0.01)
            (theirs,) = server._conns
            sock = theirs.transport.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            theirs.transport.set_write_buffer_limits(high=4096)
            for start in range(0, count, 500):
                raw.write(hb * 500)
                await asyncio.sleep(0.01)
            for _ in range(100):
                if not theirs.transport.is_reading():
                    break
                await asyncio.sleep(0.01)
            assert not theirs.transport.is_reading()
            assert theirs._stops == {"writes"}
            assert len(theirs._buf) <= READ_AHEAD
            assert theirs.transport.get_write_buffer_size() < (1 << 20)
            # The replica itself is not stalled.
            reply = await request_once(("127.0.0.1", port), "ping")
            assert reply["site"] == "site0"

            raw.conn.transport.resume_reading()
            for _ in range(count):
                frame = await raw.recv()
                assert frame["type"] == "hb-ack"
            assert theirs.transport.is_reading()
            await raw.close()
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_no_task_per_connection_per_commu_update_or_per_one_key_read(
    tmp_path,
):
    """A new connection, its updates and its one-key reads are served
    by the steps that read their frames: neither a replica nor a client
    creates a task for any of them."""

    async def scenario():
        cluster = LiveCluster(n_sites=3, method="commu", data_dir=tmp_path)
        await cluster.start()
        try:
            warm = await cluster.client("site0")
            await warm.increment("k", 1)
            await cluster.settle(timeout=30)
            loop = asyncio.get_running_loop()
            created = []

            def factory(loop, coro, **kwargs):
                code = getattr(coro, "cr_code", None)
                if code is not None and "repro" in code.co_filename:
                    created.append(coro.__qualname__)
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.set_task_factory(factory)
            try:
                client = await LiveClient.connect(*cluster.addrs["site0"])
                replies = await asyncio.gather(
                    *(client.increment("k", 1) for _ in range(8))
                )
                reads = [await client.read("k") for _ in range(4)]
                await client.close()
            finally:
                loop.set_task_factory(None)
            assert len(replies) == 8 and reads[-1] >= 9
            # ``gather`` wraps the test's own eight calls (``increment``
            # hands back ``update``'s coroutine); nothing else.
            assert created == ["LiveClient.update"] * 8
            await cluster.settle(timeout=30)
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_a_stopped_cluster_leaves_no_transport_unclosed(tmp_path):
    """Clients, one-off requests, peer channels and the listeners'
    connections are all closed by the time everything has stopped."""

    async def scenario():
        cluster = LiveCluster(n_sites=3, method="commu", data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site1")
            for i in range(20):
                await client.update([IncrementOp("k%d" % (i % 4), 1)])
            assert await client.read("k0") >= 5
            await request_once(cluster.addrs["site2"], "stats")
            await cluster.settle(timeout=30)
            await client.close()
        finally:
            await cluster.stop()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        asyncio.run(scenario())
        gc.collect()
    leaks = [
        str(w.message) for w in caught
        if issubclass(w.category, ResourceWarning)
        and ("transport" in str(w.message) or "socket" in str(w.message))
    ]
    assert leaks == []


def _reference_timeout(gaps, floor):
    n = len(gaps)
    mean = sum(gaps) / n
    var = sum((g - mean) ** 2 for g in gaps) / n
    return max(floor, mean + 4.0 * math.sqrt(var))


@given(
    gaps=st.lists(
        st.floats(min_value=1e-4, max_value=10.0), min_size=1, max_size=300
    ),
    window=st.sampled_from([4, 8, 64]),
    floor=st.sampled_from([0.0, 0.75]),
)
def test_failure_detector_timeout_matches_the_two_pass_formula(
    gaps, window, floor
):
    """Running sums, recomputed once per window wrap, give the timeout
    the two-pass mean and variance over the same window give, to 1e-9
    relative."""
    detector = FailureDetector(floor=floor, window=window, min_samples=1)
    now = 0.0
    detector.heartbeat("p", now)
    seen = []
    for gap in gaps:
        later = now + gap
        if later <= now:
            continue
        detector.heartbeat("p", later)
        seen.append(later - now)
        now = later
        expected = _reference_timeout(seen[-window:], floor)
        assert math.isclose(detector.timeout("p"), expected, rel_tol=1e-9)
