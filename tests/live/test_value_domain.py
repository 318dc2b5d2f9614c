"""The live codec's value domain, end to end.

Every document an update crosses — frames, payload blobs, log lines —
is encoded by one codec (``protocol.encode_line``/``payload_blob``, orjson)
and read by ``protocol.loads``.  Its domain is JSON's with 64-bit
integers and finite operation arguments; what lies outside is refused
at the sender, never silently rewritten.  These tests pin it on a
running cluster:

* a zero divisor is refused before anything is logged — it used to
  fail its whole commit group at apply, after the group was logged
  everywhere, and leave a log no restart could replay;
* a store value that overflowed legitimately still reads back as
  ``inf`` at every replica, also after a snapshot install;
* every document a scripted COMMU run sends — every client verb,
  heartbeats with gossip, a partition and its heal — reads back under
  ``loads`` as ``json.loads`` reads it;
* held payload blobs cost their size, not the allocation orjson
  returns them in;
* and the apply-failure hole that remains (COMMU checks commutativity
  inside one update, not across updates on one key) is a strict xfail.
"""

import asyncio
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from repro.consistency import Consistency
from repro.core.operations import (
    AppendOp,
    DecrementOp,
    DivideOp,
    IncrementOp,
    MultiplyOp,
    WriteOp,
)
from repro.live import FaultPlan, LiveCluster, LiveETFailed
from repro.live import protocol
from repro.live import server as server_module
from repro.live.protocol import ProtocolError, loads

#: timings tuned for test speed, not realism.
FAST = dict(heartbeat_interval=0.05, suspect_after=0.3)


def _logged_text(data_dir):
    """Every durable log under ``data_dir``, concatenated."""
    return "".join(
        log.read_text() for log in sorted(data_dir.glob("**/*.log"))
    )


async def _restarted_values(data_dir, method="commu"):
    """The values of a cluster booted again from ``data_dir``."""
    cluster = LiveCluster(n_sites=3, method=method, data_dir=data_dir)
    await cluster.start()
    try:
        return await cluster.site_values()
    finally:
        await cluster.stop()


def test_a_zero_divisor_fails_alone_before_anything_is_logged(tmp_path):
    """Seven concurrent updates through one client, ``div x 0`` in the
    middle: the six others are one commit group that every replica
    applies, and the division is refused at the client — and at the
    server, alone, for a client that sends it anyway.  Nothing of it
    is logged, and the cluster restarts from its data dir."""
    ahead = [IncrementOp("a%d" % i, 1) for i in range(3)]
    behind = [IncrementOp("b%d" % i, 1) for i in range(3)]
    want = {"a0": 2, "a1": 2, "a2": 2, "b0": 2, "b1": 2, "b2": 2}

    async def scenario():
        cluster = LiveCluster(n_sites=3, method="commu", data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site0")
            outcomes = await asyncio.gather(
                *(client.update([op]) for op in ahead),
                client.update([DivideOp("x", 0)]),
                *(client.update([op]) for op in behind),
                return_exceptions=True,
            )
            refused = outcomes.pop(3)
            assert isinstance(refused, ProtocolError)
            assert "division by zero" in str(refused)
            assert all(isinstance(reply, dict) for reply in outcomes)
            # The same burst with the division sent as it is encoded,
            # past the client's check: the server refuses it alone.
            outcomes = await asyncio.gather(
                *(client.update([op]) for op in ahead),
                *(
                    client.request("update", ops=[["div", "x", zero]])
                    for zero in (0, 0.0, -0.0)
                ),
                *(client.update([op]) for op in behind),
                return_exceptions=True,
            )
            for refused in outcomes[3:6]:
                assert isinstance(refused, LiveETFailed)
                assert refused.code == "ProtocolError"
            del outcomes[3:6]
            assert all(isinstance(reply, dict) for reply in outcomes)
            await cluster.settle(timeout=30)
            values = await cluster.site_values()
            assert values == dict.fromkeys(cluster.names, want)
        finally:
            await cluster.stop()
        assert '"div"' not in _logged_text(tmp_path)
        assert await _restarted_values(tmp_path) == {
            name: want for name in ("site0", "site1", "site2")
        }

    asyncio.run(scenario())


@pytest.mark.xfail(
    strict=True,
    reason="an update that fails at apply is logged first: COMMU checks "
    "commutativity inside one update, not across updates on one key "
    "(per-key operation discipline, ROADMAP: per-key operation types)",
)
def test_an_update_that_fails_at_apply_leaves_the_cluster_converged(
    tmp_path,
):
    """``append k "x"``, then ``inc k 1`` (refused), then ``inc z 1``
    from one client: the replicas must agree at quiescence and the
    cluster must restart from its data dir.  Today the ``inc k`` is
    logged before its apply fails, so a receiver whose frame carries
    it with the ``inc z`` applies neither, and replaying it kills
    every restart."""

    async def scenario():
        cluster = LiveCluster(n_sites=3, method="commu", data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site0")
            await client.update([AppendOp("k", "x")])
            with pytest.raises(LiveETFailed):
                await client.update([IncrementOp("k", 1)])
            await client.update([IncrementOp("z", 1)])
            await cluster.settle(timeout=10)
            values = await cluster.site_values()
        finally:
            await cluster.stop()
        assert values == dict.fromkeys(values, {"k": ["x"], "z": 1})
        assert await _restarted_values(tmp_path) == values

    asyncio.run(scenario())


def test_an_overflowed_store_value_reads_back_as_inf_everywhere(tmp_path):
    """``mul y 1e308`` twice overflows the store value to ``inf``: a
    legitimate value, read back as ``inf`` at all three replicas —
    through the stdlib encoding of the reply and the ``json.loads``
    fallback of ``loads`` — and again at a wiped replica after it
    installs a peer snapshot."""

    async def read_everywhere(cluster):
        for name in cluster.names:
            reader = await cluster.client(name)
            assert await reader.read("y", Consistency.STRICT) == math.inf
        values = await cluster.site_values()
        assert [v["y"] for v in values.values()] == [math.inf] * 3

    async def scenario():
        cluster = LiveCluster(
            n_sites=3, method="commu", data_dir=tmp_path, **FAST
        )
        await cluster.start()
        try:
            client = await cluster.client("site0")
            await client.increment("y", 1)
            for _ in range(2):
                await client.update([MultiplyOp("y", 1e308)])
            await cluster.settle(timeout=30)
            await read_everywhere(cluster)

            await cluster.snapshot_all()
            await cluster.wipe("site2")
            await cluster.restart("site2")
            await cluster.wait_caught_up("site2")
            await cluster.settle(timeout=30)
            await read_everywhere(cluster)
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_every_document_a_scripted_run_sends_reads_back_as_json_loads_does(
    tmp_path, monkeypatch
):
    """Every frame body, payload blob and log line a 3-site COMMU run
    encodes — each client verb once, heartbeats with gossip, a
    partition and its heal — is encoded without a ``TypeError`` and
    decodes under ``loads`` exactly as under ``json.loads``."""
    documents = []
    refused = []
    encode = protocol._encode

    def capturing(obj):
        try:
            body = encode(obj)
        except TypeError as exc:
            refused.append((obj, exc))
            raise
        documents.append(body)
        return body

    monkeypatch.setattr(protocol, "_encode", capturing)
    # A plain update's blob is spliced around the encode of its arrays.
    splice = server_module.plain_update_blob

    def spliced(*args):
        documents.append(splice(*args))
        return documents[-1]

    monkeypatch.setattr(server_module, "plain_update_blob", spliced)

    async def scenario():
        cluster = LiveCluster(
            n_sites=3,
            method="commu",
            data_dir=tmp_path,
            faults=FaultPlan(0),
            **FAST,
        )
        await cluster.start()
        try:
            client = await cluster.client("site0", cache=True, fan_out=True)
            await client.update([IncrementOp("a", 1), DecrementOp("b", 1)])
            await client.update([WriteOp("w", {"é": [1.5, None, True]})])
            await client.update([AppendOp("log", "x y")])
            await client.read("a", Consistency.CACHED)
            await client.read("a", Consistency.BOUNDED(2))
            async with client.session() as session:
                await session.increment("a", 1)
                await session.read("a", Consistency.SESSION)
            await client.read("a", Consistency.STRICT)
            await client.read_many(["a", "b", "w"], Consistency.BOUNDED(2))
            await client.values()
            await client.stats()
            await client.metrics()
            await client.settle()
            await client.snapshot()
            await asyncio.sleep(0.3)  # heartbeats, each with gossip

            cluster.partition([["site0"], ["site1", "site2"]])
            await client.increment("a", 1)
            await asyncio.sleep(0.6)  # suspicion: site0 is degraded
            with pytest.raises(LiveETFailed) as failure:
                await client.read("a", Consistency.STRICT, timeout=5.0)
            assert failure.value.code == "UNAVAILABLE"
            cluster.heal()
            await cluster.settle(timeout=30)
            assert await cluster.converged()
        finally:
            await cluster.stop()

    asyncio.run(scenario())
    assert refused == []
    for kind in (b'"type":"request"', b'"type":"response"', b'"gossip"',
                 b'"type":"peer-hello"', b'{"mset":', b'{"meta":'):
        assert any(kind in body for body in documents), kind
    for body in documents:
        assert loads(body) == json.loads(body)


_HOLD_BLOBS = """
import resource
from repro.core.operations import DecrementOp, IncrementOp
from repro.live.protocol import encode_mset, payload_blob
from repro.replica.mset import MSet

def blob(n):
    ops = (IncrementOp("a%d" % (n % 4096), 1), DecrementOp("b%d" % n, 1))
    return payload_blob({"mset": encode_mset(MSet("site0:%d" % n, "update", ops, "site0"))})

blob(0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
held = [blob(n) for n in range(100000)]
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="ru_maxrss is KiB on Linux"
)
def test_held_payload_blobs_cost_their_size():
    """A replication log holds each blob until every peer acks it: 100k
    held blobs of ~85 bytes grow the peak RSS by ~11 MB.  As orjson
    returns them — each in a ~1 KiB allocation — they take ~100 MB."""
    src = pathlib.Path(protocol.__file__).parents[2]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", _HOLD_BLOBS],
        env=env, capture_output=True, text=True, check=True,
    )
    assert float(out.stdout) < 30.0
