"""The origin's update path: a burst of plain COMMU or ROWA updates is
checked, numbered, logged, applied and answered as one run of request
arrays, and each update is refused word for word as its operations
would be.

An update request its group answers (every method but ORDUP, COMPE,
and ROWA with peers to wait for) joins the commit queue in the step
that read its frame.  Under an engine of the plain form (COMMU, ROWA)
the group checks its plain updates as one run (``_group_forms``: one
codec pass, each one's keys, the shard, recovery and backlog checks
once) and commits them without an operation, an MSet or a ``_Member``
per update; a request the run's check cannot pass as it is is checked
alone (``_update_form``), with the same refusals.  Every other method,
and an update that reads, builds its MSet, decoding its arrays in the
one codec pass it makes.  The refusal table pins the exception class
and text of every check on the way, for a method that keeps the
restriction (COMMU) and one that has none (ROWA).
"""

import asyncio
import math
import struct

import pytest

from repro.core.operations import (
    DecrementOp,
    IncrementOp,
    TimestampedWriteOp,
    WriteOp,
)
from repro.live import LiveCluster
from repro.live import protocol as protocol_module
from repro.live import server as server_module
from repro.live.server import ReplicaServer
from repro.live.shard import key_shard
from repro.replica import mset as mset_module

from .wire import RawConn, fake_connection

#: request -> (exception class name, text) or None for accepted, as
#: COMMU answers it.
REFUSALS = {
    "missing": ({}, ("ValueError", "update without operations")),
    "empty": ({"ops": []}, ("ValueError", "update without operations")),
    "not-a-sequence": (
        {"ops": "x"}, ("ProtocolError", "ops must be a sequence: 'x'"),
    ),
    "reads-only": (
        {"ops": [["read", "a"]]},
        ("ValueError", "update ET must contain a write (use query)"),
    ),
    "read-mixed": (
        {"ops": [["read", "a"], ["inc", "b", 1]]},
        (
            "NonCommutativeError",
            "the update mixes reads into a COMMU update; read-modify-write"
            " updates need ordered execution (ORDUP)",
        ),
    ),
    "inc-mul": (
        {"ops": [["inc", "k", 1], ["mul", "k", 2]]},
        (
            "NonCommutativeError",
            "operations IncrementOp(key='k', amount=1) and "
            "MultiplyOp(key='k', amount=2) of the update do not commute",
        ),
    ),
    "write-twice": (
        {"ops": [["write", "k", 1], ["inc", "j", 1], ["write", "k", 2]]},
        (
            "NonCommutativeError",
            "operations WriteOp(key='k', value=1) and "
            "WriteOp(key='k', value=2) of the update do not commute",
        ),
    ),
    "inc-inc": ({"ops": [["inc", "k", 1], ["inc", "k", 2]]}, None),
    "arity": (
        {"ops": [["inc", "k"]]},
        ("ProtocolError", "inc operation must be an array of 3: ['inc', 'k']"),
    ),
    "tag": (
        {"ops": [["bogus", "k", 1]]},
        ("ProtocolError", "unknown operation tag 'bogus'"),
    ),
    "empty-array": (
        {"ops": [[]]}, ("ProtocolError", "unknown operation tag None"),
    ),
    "keyless": (
        {"ops": [["inc", 5, 1]]},
        ("ProtocolError", "operation without a key: ['inc', 5, 1]"),
    ),
    "string-amount": (
        {"ops": [["inc", "k", "1"]]},
        ("ProtocolError", "non-numeric operation amount '1'"),
    ),
    "not-an-array": (
        {"ops": [5]}, ("ProtocolError", "operation must be an array: 5"),
    ),
    "nan": (
        {"ops": [["inc", "k", math.nan]]},
        ("ProtocolError", "non-finite number in operation ['inc', 'k', nan]"),
    ),
    "zero-divisor": (
        {"ops": [["inc", "j", 1], ["div", "k", 0]]},
        ("ProtocolError", "division by zero on 'k'"),
    ),
    "stamp": (
        {"ops": [["tswrite", "k", 1, ["x", 0]]]},
        ("ProtocolError", "tswrite ts must be a [time, site] pair: ['x', 0]"),
    ),
    "saga": (
        {"ops": [["inc", "k", 1]], "saga": "s"},
        ("ValueError", "saga/abort updates need the COMPE method (got COMMU)"),
    ),
}
#: what ROWA, which has no operation restriction, answers otherwise.
ROWA = {
    "read-mixed": None,
    "inc-mul": None,
    "write-twice": None,
    "saga": (
        "ValueError", "saga/abort updates need the COMPE method (got ROWA)"
    ),
}


def _outcome(server, frame):
    """The member-by-member check's answer to ``frame``
    (``_update_form``): None once accepted, else the refusal's class
    name and text."""
    try:
        server._update_form(
            frame.get("ops", ()), frame.get("saga"), bool(frame.get("abort"))
        )
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize("method", ["commu", "rowa"])
def test_the_origin_refuses_as_its_operations_would(method, tmp_path):
    """Each check, word for word, in the order the checks run: the
    codec's, the request's shape, the shard, the backlog, the method
    restriction (COMMU's on the writes of a key written twice), the
    saga fields."""

    async def scenario():
        server = ReplicaServer("site0", ["site1"], tmp_path / "a", method)
        sharded = ReplicaServer(
            "site0", [], tmp_path / "b", method,
            shard={"index": 0, "count": 2, "epoch": 1},
        )
        await server.bind()
        await sharded.bind()
        try:
            for name, (frame, refusal) in REFUSALS.items():
                if method == "rowa":
                    refusal = ROWA.get(name, refusal)
                assert _outcome(server, frame) == refusal, name
            far = next(
                key for key in map("k{}".format, range(64))
                if key_shard(key, 2) != 0
            )
            assert _outcome(sharded, {"ops": [["inc", far, 1]]}) == (
                "WrongShard", "key %r belongs to shard 1, not 0" % far
            )
            server.backlog_limit = 1
            server.log.backlog = lambda peer: 3
            assert _outcome(server, {"ops": [["inc", "k", 1]]}) == (
                "Overloaded", "update refused: channel backlog 3 >= limit 1"
            )
        finally:
            await server.stop()
            await sharded.stop()

    asyncio.run(scenario())


#: method -> one plain update of its kind (RITU's writes are blind).
PLAIN_UPDATES = {
    "commu": [DecrementOp("a", 1), IncrementOp("b", 1), IncrementOp("c", 2)],
    "rowa": [DecrementOp("a", 1), IncrementOp("b", 1)],
    "ordup": [DecrementOp("a", 1), IncrementOp("b", 1)],
    "compe": [DecrementOp("a", 1), IncrementOp("b", 1)],
    "ritu": [WriteOp("a", 1), TimestampedWriteOp("b", 2, (1, "x"))],
}


@pytest.mark.parametrize("method", sorted(PLAIN_UPDATES))
def test_a_plain_update_builds_no_operation_and_no_mset_at_its_origin(
    method, tmp_path, monkeypatch
):
    """A plain COMMU or ROWA update is logged and applied as its
    request arrays: its origin builds no operation and no MSet for it,
    and encodes its arrays as its blob rather than a payload
    (``payload_blob``).  The writes of a key written twice are built,
    those alone, for the method's check (ROWA's passes them all).  RITU
    (which stamps its writes), ORDUP (which orders them) and COMPE
    (which decides them) still build the update's MSet.  Either way
    the codec makes one pass over the request's arrays: the run's
    check, or the decode that builds the MSet's operations."""
    ops = PLAIN_UPDATES[method]
    twice = [IncrementOp("b", 1), DecrementOp("a", 1), IncrementOp("b", 2)]

    async def scenario():
        cluster = LiveCluster(n_sites=1, method=method, data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site0")
            await client.update(ops)  # warm: the first of its kind
            built = {"operations": 0, "msets": 0, "blobs": 0, "passes": 0}

            def counting(kind, real):
                def count(*args, **kwargs):
                    built[kind] += 1
                    return real(*args, **kwargs)

                return count

            for cls, _, _ in set(mset_module._OPS.values()):
                monkeypatch.setattr(
                    cls, "__init__", counting("operations", cls.__init__)
                )
            monkeypatch.setattr(
                mset_module, "_fill", counting("msets", mset_module._fill)
            )
            monkeypatch.setattr(
                server_module, "payload_blob",
                counting("blobs", server_module.payload_blob),
            )
            monkeypatch.setattr(
                mset_module, "_pass", counting("passes", mset_module._pass)
            )
            reply = await client.update(ops)
            assert built["passes"] == 1
            if method in ("commu", "rowa"):
                assert built == {
                    "operations": 0, "msets": 0, "blobs": 0, "passes": 1,
                }
                built["passes"] = 0
                await client.update(twice)
                assert built == {
                    "operations": 2, "msets": 0, "blobs": 0,
                    # the run's check, then the decode of the writes
                    # of the key written twice
                    "passes": 2,
                }
            else:
                assert built["msets"] >= 1 and built["blobs"] >= 1
            monkeypatch.undo()
            assert reply["tid"].startswith("site0:")
            values = await client.values()
            assert values["a"] == {"ritu": 1, "commu": -3, "rowa": -3}.get(
                method, -2
            )
        finally:
            await cluster.stop()

    asyncio.run(scenario())


@pytest.mark.parametrize("method", ["commu", "rowa"])
def test_a_plain_updates_blob_is_one_encode_of_its_arrays(
    method, tmp_path, monkeypatch
):
    """A plain update's payload blob is one encode of its request
    arrays, copied to its size — no splice around it, no payload dict,
    no ``encode_mset``, no ``payload_blob`` (the commit group is in no
    traced span, so counts pin it) — and its log line is that blob
    behind its seq: no tid, origin or envelope."""
    ops = PLAIN_UPDATES[method]

    async def scenario():
        cluster = LiveCluster(n_sites=1, method=method, data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site0")
            await client.update(ops)  # warm
            server = cluster.servers["site0"]
            encoded, logged = [], []
            counts = {"encode_mset": 0, "payload_blob": 0}
            real_encode = protocol_module._encode

            def encoding(obj):
                out = real_encode(obj)
                encoded.append((obj, out))
                return out

            def counting(kind, real):
                def count(*args, **kwargs):
                    counts[kind] += 1
                    return real(*args, **kwargs)

                return count

            real_append = server.log.append_many

            def append_many(payloads, blobs=None, releases=None):
                logged.extend(blobs)
                return real_append(payloads, blobs=blobs, releases=releases)

            monkeypatch.setattr(protocol_module, "_encode", encoding)
            for name in counts:
                monkeypatch.setattr(
                    server_module, name,
                    counting(name, getattr(server_module, name)),
                )
            monkeypatch.setattr(server.log, "append_many", append_many)
            reply = await client.update(ops)
            monkeypatch.undo()
            arrays = [protocol_module.encode_op(op) for op in ops]
            lists = [(obj, out) for obj, out in encoded if type(obj) is list]
            assert [obj for obj, _ in lists] == [arrays]
            assert not any(
                type(obj) is dict and "mset" in obj for obj, _ in encoded
            )
            assert counts == {"encode_mset": 0, "payload_blob": 0}
            (blob,) = logged
            assert blob == lists[0][1] and blob is not lists[0][1]
            seq = int(reply["tid"].split(":")[1])
            log = (server.data_dir / "replication.log").read_bytes()
            assert log.endswith(b'{"seq":%d,"payload":%s}\n' % (seq, blob))
        finally:
            await cluster.stop()

    asyncio.run(scenario())


@pytest.mark.parametrize("method", ["commu", "rowa"])
def test_a_plain_update_is_answered_without_encoding_its_reply(
    method, tmp_path, monkeypatch
):
    """A served plain update's reply leaves as the frame its commit
    group spliced: no ``encode_frame`` runs for it (the reply writer is
    in no traced span, so a count pins it), and it is counted served.
    A request whose id is not an int is answered from the reply's
    fields, as every reply was."""

    async def scenario():
        cluster = LiveCluster(n_sites=1, method=method, data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site0")
            await client.update([IncrementOp("a", 1)])  # warm
            encoded = []
            real = protocol_module.encode_frame

            def counting(obj):
                if obj.get("type") == "response":
                    encoded.append(obj)
                return real(obj)

            monkeypatch.setattr(protocol_module, "encode_frame", counting)
            replies = await asyncio.gather(*(
                client.update([IncrementOp("a", 1), DecrementOp("b", 1)])
                for _ in range(8)
            ))
            assert encoded == []
            assert [r["tid"] for r in replies] == [
                "site0:%d" % seq for seq in range(2, 10)
            ]
            assert all(r["values"] == {} and r["ok"] for r in replies)
            registry = cluster.servers["site0"].registry
            assert registry.get_sample(
                "requests_total", verb="update", outcome="ok"
            ) == 9

            raw = await RawConn.open(*cluster.addrs["site0"])
            raw.send({
                "type": "request", "id": "x", "verb": "update",
                "ops": [["inc", "a", 1]],
            })
            assert await raw.recv(timeout=5) == {
                "type": "response", "id": "x", "ok": True,
                "tid": "site0:10", "values": {},
            }
            await raw.close()
            assert [r["id"] for r in encoded] == ["x"]
            monkeypatch.undo()
            assert (await client.values())["a"] == 10
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def _request(rid, fields):
    return {"type": "request", "id": rid, "verb": "update", **fields}


def _inc(rid, key):
    return _request(rid, {"ops": [["dec", key, 1], ["inc", key + "'", 1]]})


async def _deliver(server, bursts):
    """Hand ``server`` every frame of ``bursts`` — ``(connection index,
    frame or its bytes)`` pairs, in arrival order — in one step, over two
    socketless connections, and return each connection's replies once
    the group answered them, with the number of writes each took."""
    conns = [fake_connection(server._on_frame) for _ in range(2)]
    writes = [0, 0]
    for index, conn in enumerate(conns):
        real = conn.frames.write

        def write(data, waiter=None, real=real, index=index):
            writes[index] += 1
            return real(data, waiter)

        conn.frames.write = write
    for index, frame in bursts:
        if type(frame) is not bytes:
            frame = protocol_module.encode_frame(frame)
        conns[index].data_received(frame)
    for _ in range(4):
        await asyncio.sleep(0)
    replies = []
    for conn in conns:
        got = []
        fake_connection(lambda _, frame: got.append(frame)).data_received(
            b"".join(conn.transport.written)
        )
        replies.append(got)
    return replies, writes


@pytest.mark.parametrize("method", ["commu", "rowa"])
def test_a_burst_refuses_each_bad_request_alone_and_answers_in_order(
    method, tmp_path
):
    """Every refusal of the table, inside one loop turn of valid plain
    updates over two connections: each is refused alone, with its own
    class and text, and takes no tid; the accepted updates take
    consecutive tids in arrival order; each connection's replies come
    back in the order it sent its requests."""

    async def scenario():
        server = ReplicaServer("site0", [], tmp_path, method)
        await server.bind()
        try:
            await _deliver(server, [(0, _inc(0, "warm"))])
            bursts, expected = [], {}
            rid = 1
            for n, (name, (fields, refusal)) in enumerate(REFUSALS.items()):
                if method == "rowa":
                    refusal = ROWA.get(name, refusal)
                for frame, outcome in (
                    (_inc(rid, "k%d" % n), None),
                    (_request(rid + 1, fields), refusal),
                ):
                    bursts.append((frame["id"] % 2, frame))
                    expected[frame["id"]] = outcome
                rid += 2
            replies, _ = await _deliver(server, bursts)
            for index in (0, 1):
                assert [reply["id"] for reply in replies[index]] == [
                    frame["id"] for conn, frame in bursts if conn == index
                ]
            by_id = {
                reply["id"]: reply for got in replies for reply in got
            }
            tids = []
            for frame_id, refusal in expected.items():
                reply = by_id[frame_id]
                if refusal is None:
                    assert reply["ok"], reply
                    tids.append(reply["tid"])
                else:
                    assert not reply["ok"]
                    assert (reply["code"], reply["error"]) == refusal
            assert tids == [
                "site0:%d" % seq for seq in range(2, 2 + len(tids))
            ]
            assert server.log.assigned == 1 + len(tids)
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_a_burst_of_plain_updates_is_one_run(tmp_path, monkeypatch):
    """The origin's whole group commit is in no traced span, so its cost
    is pinned here: 32 plain updates of one loop turn, over two
    connections, take one codec pass, one ``append_many``, one
    ``sync``, one ``accept_batch``, no ``_Member``, one reply write per
    connection and one ok count; their replies are the frames
    ``encode_frame`` would write."""

    async def scenario():
        server = ReplicaServer("site0", [], tmp_path, "commu")
        await server.bind()
        try:
            await _deliver(server, [(0, _inc(0, "warm"))])
            calls = {
                "passes": 0, "append_many": 0, "sync": 0,
                "accept_batch": 0, "members": 0,
            }

            def counting(name, real):
                def count(*args, **kwargs):
                    calls[name] += 1
                    return real(*args, **kwargs)

                return count

            monkeypatch.setattr(
                mset_module, "_pass", counting("passes", mset_module._pass)
            )
            for owner, attr in (
                (server.log, "append_many"),
                (server.log, "sync"),
                (server.engine, "accept_batch"),
            ):
                monkeypatch.setattr(
                    owner, attr, counting(attr, getattr(owner, attr))
                )
            monkeypatch.setattr(
                server_module._Member, "__init__",
                counting("members", server_module._Member.__init__),
            )
            bursts = [
                (rid % 2, _inc(rid, "k%d" % rid)) for rid in range(1, 33)
            ]
            replies, writes = await _deliver(server, bursts)
            monkeypatch.undo()
            assert calls == {
                "passes": 1, "append_many": 1, "sync": 1,
                "accept_batch": 1, "members": 0,
            }
            assert writes == [1, 1]
            for got in replies:
                for reply in got:
                    assert reply == {
                        "type": "response", "id": reply["id"], "ok": True,
                        "tid": "site0:%d" % (reply["id"] + 1), "values": {},
                    }
            assert sorted(len(got) for got in replies) == [16, 16]
            assert server.registry.get_sample(
                "requests_total", verb="update", outcome="ok"
            ) == 33
            assert server.engine.snapshot()["k32'"] == 1
        finally:
            await server.stop()

    asyncio.run(scenario())


def _raw_frame(body):
    return struct.pack(">I", len(body)) + body


def test_a_request_no_reply_can_carry_leaves_the_rest_of_its_run_answered(
    tmp_path,
):
    """A frame holding a NaN is parsed by ``json.loads``, which reads an
    id past 64 bits, or a lone surrogate, exactly: no reply frame can
    carry such an id back.  Inside one loop turn of plain updates, such
    a request is refused unexecuted with a null id; every other request
    of the run is committed and answered, in order — a float id from the
    reply's fields, an integer one spliced — and a NaN operand is
    refused alone."""

    async def scenario():
        server = ReplicaServer("site0", [], tmp_path, "commu")
        await server.bind()
        try:
            await _deliver(server, [(0, _inc(0, "warm"))])
            ops = b'"verb":"update","ops":[["inc","k",1]]'
            bursts = [
                (0, _inc(1, "a")),
                (0, _raw_frame(
                    b'{"type":"request","id":%d,%s,"x":NaN}' % (2**70, ops)
                )),
                (1, _inc(2, "b")),
                (1, _raw_frame(
                    b'{"type":"request","id":"\\ud800",%s,"x":NaN}' % ops
                )),
                (0, _request(1.5, {"ops": [["inc", "c", 1]]})),
                (1, _request("s", {"ops": [["inc", "d", math.nan]]})),
                (1, _inc(3, "e")),
            ]
            replies, writes = await _deliver(server, bursts)
            # The refusal in the step that read it, the group's replies
            # in one write per connection after.
            assert writes == [2, 2]
            unanswerable = {
                "type": "response", "id": None, "ok": False,
                "error": "request id cannot be carried by a reply",
                "code": "ProtocolError",
            }
            assert replies[0] == [
                unanswerable,
                {
                    "type": "response", "id": 1, "ok": True,
                    "tid": "site0:2", "values": {},
                },
                {
                    "type": "response", "id": 1.5, "ok": True,
                    "tid": "site0:4", "values": {},
                },
            ]
            assert replies[1] == [
                unanswerable,
                {
                    "type": "response", "id": 2, "ok": True,
                    "tid": "site0:3", "values": {},
                },
                {
                    "type": "response", "id": "s", "ok": False,
                    "error": "non-finite number in operation"
                    " ['inc', 'd', nan]",
                    "code": "ProtocolError",
                },
                {
                    "type": "response", "id": 3, "ok": True,
                    "tid": "site0:5", "values": {},
                },
            ]
            assert server.log.assigned == 5
            assert "k" not in server.engine.snapshot()
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_a_request_checked_alone_leaves_the_rest_of_its_burst_a_run(
    tmp_path, monkeypatch
):
    """A burst of 32 updates holding one that reads, one that names a
    saga and one whose arrays fail the codec: those three, and only
    they, are checked alone (``_update_form``) and refused; the other
    29 stay one run — no ``_Member``, one append, consecutive tids in
    arrival order."""

    async def scenario():
        server = ReplicaServer("site0", [], tmp_path, "commu")
        await server.bind()
        try:
            await _deliver(server, [(0, _inc(0, "warm"))])
            alone = {
                5: {"ops": [["read", "a"], ["inc", "b", 1]]},
                11: {"ops": [["inc", "k", 1]], "saga": "s"},
                20: {"ops": [["bogus", "k", 1]]},
            }
            bursts = [
                (rid % 2, _request(rid, alone[rid]) if rid in alone
                 else _inc(rid, "k%d" % rid))
                for rid in range(1, 33)
            ]
            calls = {"alone": 0, "members": 0, "append_many": 0}

            def counting(name, real):
                def count(*args, **kwargs):
                    calls[name] += 1
                    return real(*args, **kwargs)

                return count

            monkeypatch.setattr(
                server, "_update_form",
                counting("alone", server._update_form),
            )
            monkeypatch.setattr(
                server.log, "append_many",
                counting("append_many", server.log.append_many),
            )
            monkeypatch.setattr(
                server_module._Member, "__init__",
                counting("members", server_module._Member.__init__),
            )
            replies, writes = await _deliver(server, bursts)
            monkeypatch.undo()
            assert calls == {"alone": 3, "members": 0, "append_many": 1}
            assert writes == [1, 1]
            by_id = {r["id"]: r for got in replies for r in got}
            assert sorted(
                rid for rid, reply in by_id.items() if not reply["ok"]
            ) == sorted(alone)
            assert [
                by_id[rid]["tid"] for rid in range(1, 33) if rid not in alone
            ] == ["site0:%d" % seq for seq in range(2, 31)]
        finally:
            await server.stop()

    asyncio.run(scenario())
