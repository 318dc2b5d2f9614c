"""The origin's update path: a plain COMMU or ROWA update is checked,
logged and applied as its request arrays, and refused word for word as
its operations would be.

``_handle_update`` checks a request's arrays once (``check_ops``) and
asks the engine for the form it commits (``engine.plain_keys``): COMMU
and ROWA take a plain update — writes only, no saga — as ``(arrays,
keys)``, so the origin builds no operation and no MSet for it; every
other method, and an update that reads, still builds its MSet.  The
refusal table pins the exception class and text of every check on the
way, for a method that keeps the restriction (COMMU) and one that has
none (ROWA).
"""

import asyncio
import math

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

from .wire import RawConn

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
    """``_handle_update``'s answer to ``frame``: None once accepted,
    else the refusal's class name and text."""
    try:
        body = server._handle_update(frame)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if asyncio.iscoroutine(body):
        body.close()  # ROWA waits for its peers' acks: never run here
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
    and splices its blob rather than encoding a payload
    (``payload_blob``).  The writes of a key written twice are built,
    those alone, for the method's check (ROWA's passes them all).  RITU
    (which stamps its writes), ORDUP (which orders them) and COMPE
    (which decides them) still build the update's MSet."""
    ops = PLAIN_UPDATES[method]
    twice = [IncrementOp("b", 1), DecrementOp("a", 1), IncrementOp("b", 2)]

    async def scenario():
        cluster = LiveCluster(n_sites=1, method=method, data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site0")
            await client.update(ops)  # warm: the first of its kind
            built = {"operations": 0, "msets": 0, "blobs": 0}

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
            reply = await client.update(ops)
            if method in ("commu", "rowa"):
                assert built == {"operations": 0, "msets": 0, "blobs": 0}
                await client.update(twice)
                assert built == {"operations": 2, "msets": 0, "blobs": 0}
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
