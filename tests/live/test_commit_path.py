"""The commit path — ``ReplicaServer._commit_local`` — crashed at
every boundary, and counted.

Accepted updates commit in groups: whatever one loop turn delivered is
numbered, serialised, appended (``append_many``) and synced once, to
the replica's one replication log, then applied at its origin
(``accept_batch``) and handed to the channel senders.  The crash test
kills the origin at each step of that sequence, for a group of one and
a group of three, with both peers partitioned away so nothing can have
been sent, and restarts it:

* no member of the group was acknowledged (the exception reaches all
  of them), and every update a client *was* told about reaches both
  peers exactly once (and the doomed group too, exactly once, if its
  records had reached the log — never acknowledged, so either is
  right);
* the restarted origin charges exactly the still-unacknowledged
  updates to its queries — the one a snapshot already contains
  (``hold_counters``) and the ones replay re-applies alike — each with
  its own drift, and releases them all once the peers have them.

The rest pins what a group is made of: one fsync, one log write and
one socket write per connection for a turn's worth of updates; the
group entering the engine ahead of any ack for it; a fenced ORDUP
member refused alone; COMPE's decisions in a later group than their
updates; ROWA's commit futures in place before the append.  A group
whose apply fails part-way still answers every member with the error
(a strict xfail until per-key operation types are checked before
logging).
"""

import asyncio
import copy
import gc
import json
import sys

import pytest

from repro.core.operations import (
    AppendOp,
    DecrementOp,
    IncrementOp,
    MultiplyOp,
    ReadOp,
    TimestampedWriteOp,
    WriteOp,
)
from repro.core.transactions import EpsilonSpec
from repro.live import FaultPlan, LiveCluster, LiveETFailed, protocol
from repro.live.engine import QueryTimeout
from repro.live.protocol import decode_mset, encode_mset, loads, payload_blob


class _Crash(Exception):
    """Stands in for the process dying at a chosen instant."""


def _die(*args, **kwargs):
    raise _Crash


#: boundary -> (what dies, are the doomed group's records in the log?)
BOUNDARIES = {
    "before-append": (lambda server: (server.log, "append_many"), False),
    "after-append-before-sync": (lambda server: (server.log, "sync"), True),
    "after-sync-before-accept": (
        lambda server: (server.engine, "accept_batch"), True,
    ),
    "after-accept-before-kick": (
        lambda server: (server, "_kick_channels"), True,
    ),
}
AMOUNT = 5

FAST_REDIAL = {"retry_base": 0.005, "retry_max": 0.02}


def _record_group_sizes(server, sizes):
    """Note how many records each ``append_many`` of ``server`` takes."""
    real = server.log.append_many

    def append_many(payloads, blobs=None, releases=None):
        sizes.append(len(blobs))
        return real(payloads, blobs=blobs, releases=releases)

    server.log.append_many = append_many


def _logged_msets(server):
    """The data records of ``server``'s replication log, as (seq, mset)."""
    lines = (server.data_dir / "replication.log").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    return [
        (record["seq"], record["payload"]["mset"])
        for record in records
        if "meta" not in record
    ]


@pytest.mark.parametrize("group", [1, 3])
@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_commit_crash_loses_nothing_acked_and_charges_what_is_owed(
    boundary, group, tmp_path, monkeypatch
):
    target, logged = BOUNDARIES[boundary]

    async def scenario():
        plan = FaultPlan(0)
        cluster = LiveCluster(
            n_sites=3, method="commu", data_dir=tmp_path, faults=plan,
            server_options=FAST_REDIAL,
        )
        await cluster.start()
        try:
            client = await cluster.client("site0")
            for _ in range(3):
                await client.increment("k", AMOUNT)
            await cluster.settle(timeout=30)  # held by everyone
            cluster.partition([["site0"], ["site1", "site2"]])
            await client.increment("k", AMOUNT)  # site0:4, owed to both
            await cluster.snapshot("site0")  # ... and inside the image
            await client.increment("k", AMOUNT)  # site0:5, above it
            acked = 5

            origin = cluster.servers["site0"]
            sizes = []
            owner, attr = target(origin)
            if attr == "append_many":

                def dying_append(payloads, blobs=None, releases=None):
                    sizes.append(len(blobs))
                    raise _Crash

                origin.log.append_many = dying_append
            else:
                _record_group_sizes(origin, sizes)
                monkeypatch.setattr(owner, attr, _die)
            # One connection, one turn: site0:6 ... die as one group,
            # and no member of it is told anything but the failure.
            doomed = await asyncio.gather(
                *(client.increment("k", AMOUNT) for _ in range(group)),
                return_exceptions=True,
            )
            assert [type(outcome) for outcome in doomed] == (
                [LiveETFailed] * group
            )
            assert sizes == [group]
            monkeypatch.undo()
            await cluster.kill("site0")
            await cluster.restart("site0")

            # Still partitioned: exactly the unacknowledged updates are
            # charged, each with its own drift.
            origin = cluster.servers["site0"]
            owed = ["site0:4", "site0:5"] + [
                "site0:%d" % (6 + member) for member in range(group * logged)
            ]
            engine = origin.engine
            assert engine.state.holders_of("k") == set(owed)
            assert origin.log.released_hi == 3
            assert [s for s, _ in origin.log.pending("site1")] == list(
                range(4, 4 + len(owed))
            )
            assert origin.log.pending("site1") == origin.log.pending("site2")
            budget = float(AMOUNT * len(owed))
            outcome = await engine.query(
                ["k"], EpsilonSpec(value_limit=budget), timeout=1.0
            )
            assert outcome.values == {"k": AMOUNT * (3 + len(owed))}
            assert outcome.inconsistency == len(owed)
            with pytest.raises(QueryTimeout):
                await engine.query(
                    ["k"], EpsilonSpec(value_limit=budget - 1), timeout=0.3
                )

            cluster.heal()
            await cluster.settle(timeout=30)
            total = AMOUNT * (acked + group * logged)
            values = await cluster.site_values()
            assert {name: v["k"] for name, v in values.items()} == dict.fromkeys(
                cluster.names, total
            )
            assert engine.state.holders_of("k") == set()
            assert engine._pins == {} and engine._drift == {}
            for name in ("site1", "site2"):
                assert cluster.servers[name].inboxes["site0"].frontier == len(
                    owed
                ) + 3
        finally:
            await cluster.stop()

    asyncio.run(scenario())


class _CountingFile:
    """A log handle that notes what is written through it."""

    def __init__(self, real, writes):
        self._real = real
        self._writes = writes

    def write(self, data):
        self._writes.append(data)
        return self._real.write(data)

    def __getattr__(self, name):
        return getattr(self._real, name)


def test_a_turn_of_updates_costs_one_fsync_one_log_write_one_reply_write(
    tmp_path, monkeypatch
):
    """16 concurrent updates on one connection are one group: one
    ``os.fsync`` and one data write at the origin's log, and their 16
    replies leave in at most two socket writes."""

    async def scenario():
        cluster = LiveCluster(
            n_sites=3, method="commu", data_dir=tmp_path, fsync=True
        )
        await cluster.start()
        try:
            client = await cluster.client("site0")
            await client.increment("warm", 1)
            await cluster.settle(timeout=30)

            origin = cluster.servers["site0"]
            log_writes = []
            origin.log._log = _CountingFile(origin.log._log, log_writes)
            fsyncs = origin.log.fsync_count
            reply_writes = []

            def counting(real):
                def write(data):
                    if b'"type":"response"' in data:
                        reply_writes.append(data.count(b'"type":"response"'))
                    return real(data)

                return write

            # Every connection the origin accepted (the client's and the
            # peers' channels): the replies must leave through one.
            for conn in origin._conns:
                monkeypatch.setattr(
                    conn.transport, "write", counting(conn.transport.write)
                )
            replies = await asyncio.gather(
                *(client.increment("k%d" % i, 1) for i in range(16))
            )
            monkeypatch.undo()
            assert sorted(
                int(reply["tid"].rpartition(":")[2]) for reply in replies
            ) == list(range(2, 18))
            assert origin.log.fsync_count == fsyncs + 1
            data_writes = [w for w in log_writes if w.startswith(b'{"seq":')]
            assert len(data_writes) == 1
            assert data_writes[0].count(b"\n") == 16
            assert sum(reply_writes) == 16 and len(reply_writes) <= 2
            # The warm-up's group of one, then this group of 16.
            groups = origin.m_commit_group
            assert (groups.count, groups.sum) == (2, 17)
            await cluster.settle(timeout=30)
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_group_raises_its_obligations_before_any_ack_releases_them(tmp_path):
    """Regression: nothing suspends between a group's ``append_many``
    and its apply.

    ``append_many`` shows the group to the channel senders at once, so
    the peers' cumulative ack for all of it can be on its way before
    the group is applied.  Given a loop turn in between, that ack's
    ``fully_acked_many`` can run first and release obligations raised
    only afterwards — ``state.holders`` never empties again and
    ``settle`` hangs.  So a callback the append schedules must not have
    run when any member of its group is applied; a strict read of the
    hot key parks behind the group and is woken by the acks.
    """

    async def scenario():
        plan = FaultPlan(0)
        cluster = LiveCluster(
            n_sites=3, method="commu", data_dir=tmp_path, faults=plan,
            server_options=FAST_REDIAL,
        )
        await cluster.start()
        try:
            client = await cluster.client("site0")
            await client.increment("hot", 1)
            await cluster.settle(timeout=30)
            origin = cluster.servers["site0"]
            engine = origin.engine
            loop = asyncio.get_running_loop()
            latest = [[]]  # what the newest append's callback wrote
            groups, late = [], []
            real_append, real_accept = origin.log.append_many, engine.accept_batch

            def append_many(payloads, blobs=None, releases=None):
                groups.append(len(blobs))
                marker = latest[0] = []
                loop.call_soon(marker.append, "a loop turn ran")
                return real_append(payloads, blobs=blobs, releases=releases)

            def accept_batch(entries, local=False):
                if local and latest[0]:
                    late.extend(entries)
                return real_accept(entries, local)

            origin.log.append_many = append_many
            engine.accept_batch = accept_batch
            cluster.partition([["site0"], ["site1", "site2"]])
            updates = asyncio.gather(
                *(client.increment("hot", 1) for _ in range(16))
            )
            await asyncio.wait_for(updates, timeout=10)
            query = asyncio.ensure_future(
                engine.query(["hot"], EpsilonSpec(import_limit=0), timeout=5.0)
            )
            await asyncio.sleep(0)
            assert not query.done()  # parked behind the unacked group
            cluster.heal()
            outcome = await asyncio.wait_for(query, timeout=10)
            assert outcome.values == {"hot": 17}
            assert outcome.inconsistency == 0 and outcome.waits >= 1
            assert sum(groups) == 16 and len(groups) < 16
            assert late == []
            await cluster.settle(timeout=10)
            assert engine.state.holders == {}
            assert engine._pins == {} and engine._drift == {}
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_ordup_group_refuses_a_fenced_member_alone(tmp_path):
    """One member's token was fenced by a newer epoch: it alone is
    refused, before any append, and the survivors' tids are gap-free
    and are their log positions."""

    async def scenario():
        cluster = LiveCluster(n_sites=1, method="ordup", data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site0")
            for _ in range(2):
                await client.increment("k", 1)  # tokens (1, 0), (2, 0)
            server = cluster.servers["site0"]
            # A new leader took over at token 2: epoch-0 tokens above
            # it are fenced.
            server.engine.adopt_epoch(1, 2)
            tokens = [(3, 1), (4, 0), (4, 1)]

            async def next_token():
                return tokens.pop(0)

            server._acquire_order = next_token
            sizes = []
            _record_group_sizes(server, sizes)
            outcomes = await asyncio.gather(
                *(client.increment("k", 1) for _ in range(3)),
                return_exceptions=True,
            )
            assert sizes == [2]
            assert [reply["tid"] for reply in (outcomes[0], outcomes[2])] == [
                "site0:3", "site0:4",
            ]
            assert isinstance(outcomes[1], LiveETFailed)
            assert outcomes[1].code == "UNAVAILABLE"
            assert "fenced" in str(outcomes[1])
            assert [
                (seq, mset["tid"], mset["order"])
                for seq, mset in _logged_msets(server)[2:]
            ] == [(3, "site0:3", [3, 1]), (4, "site0:4", [4, 1])]
            assert (await client.values())["k"] == 4
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_compe_decisions_commit_in_a_later_group_than_their_updates(tmp_path):
    """An update and its decision are two trips through the commit
    path: the decision is in a later group, after its update in the
    log — four concurrent updates are a group of four updates, then a
    group of their four decisions."""

    async def scenario():
        cluster = LiveCluster(n_sites=3, method="compe", data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site0")
            server = cluster.servers["site0"]
            sizes = []
            _record_group_sizes(server, sizes)
            replies = await asyncio.gather(
                *(client.increment("k%d" % i, 1) for i in range(4))
            )
            assert sizes == [4, 4]
            assert all(reply["decided"] == "commit" for reply in replies)
            logged = _logged_msets(server)
            # An update's kind is the default and is not logged.
            assert [mset.get("kind") for _, mset in logged] == (
                [None] * 4 + ["commit"] * 4
            )
            position = {mset["tid"]: seq for seq, mset in logged}
            decides = {
                dict(map(tuple, mset["info"]))["decides"]: seq
                for seq, mset in logged[4:]
            }
            assert sorted(decides) == sorted(r["tid"] for r in replies)
            assert all(decides[tid] > position[tid] for tid in decides)
            await cluster.settle(timeout=30)
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_rowa_members_have_their_ack_futures_before_the_append(tmp_path):
    """A peer's ack can only resolve a full-ack future that exists:
    every member's is created before the group's records can be seen
    by a channel sender."""

    async def scenario():
        cluster = LiveCluster(n_sites=3, method="rowa", data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site0")
            server = cluster.servers["site0"]
            seen = []
            real = server.log.append_many

            def append_many(payloads, blobs=None, releases=None):
                seen.append(
                    [
                        loads(blob)["mset"]["tid"] in server._full_ack_futures
                        for blob in blobs
                    ]
                )
                return real(payloads, blobs=blobs, releases=releases)

            server.log.append_many = append_many
            replies = await asyncio.gather(
                *(client.update([WriteOp("k%d" % i, i)]) for i in range(3))
            )
            assert seen == [[True, True, True]]
            assert sorted(r["tid"] for r in replies) == [
                "site0:1", "site0:2", "site0:3",
            ]
            assert server._full_ack_futures == {}
            await cluster.settle(timeout=30)
        finally:
            await cluster.stop()

    asyncio.run(scenario())


@pytest.mark.parametrize("method", ["commu", "ritu", "compe"])
def test_a_live_update_draws_no_simulator_tid(method, tmp_path):
    """Validation runs on the operations themselves: no throw-away
    ``UpdateET`` per update, so the simulator's global tid counter —
    which a live replica has no business touching — stands still."""
    from repro.core import transactions

    def next_tid():
        return next(copy.copy(transactions._tid_counter))

    async def scenario():
        cluster = LiveCluster(n_sites=1, method=method, data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site0")
            blind = method == "ritu"
            before = next_tid()
            for i in range(3):
                await client.update(
                    [WriteOp("k", i) if blind else IncrementOp("k", 1)]
                )
            refused = (
                [IncrementOp("k", 1)] if blind
                else [WriteOp("k", 1), WriteOp("k", 2)]
            )
            with pytest.raises(LiveETFailed):  # by the method's validator
                await client.update(refused)
            assert next_tid() == before
        finally:
            await cluster.stop()

    asyncio.run(scenario())


#: method -> one update's operations.  COMMU and ORDUP build their
#: MSets from the request's operations as they are; RITU stamps them.
ORIGIN_UPDATES = {
    "commu": [
        IncrementOp("a", 2),
        DecrementOp("b", 1.5),
        AppendOp("l", "x"),
        WriteOp("w", {"v": [1, "é"]}),
    ],
    "ordup": [ReadOp("r"), IncrementOp("a", 2), MultiplyOp("m", 3)],
    "ritu": [WriteOp("a", 1), WriteOp("b", "x")],
}


@pytest.mark.parametrize("method", sorted(ORIGIN_UPDATES))
def test_the_origin_logs_the_request_arrays_unless_the_engine_rewrote_them(
    method, tmp_path, monkeypatch
):
    """The origin's payload carries the request's own (validated) op
    arrays, writes only: nothing is re-encoded, and the logged blob is
    byte-identical to encoding the MSet it decodes to.  RITU's
    ``make_mset`` rewrites the writes with its Lamport stamp, so those
    are encoded, and the log holds the stamped ``tswrite``s."""
    ops = ORIGIN_UPDATES[method]

    async def scenario():
        cluster = LiveCluster(n_sites=2, method=method, data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site0")
            origin = cluster.servers["site0"]
            logged = []
            real = origin.log.append_many

            def append_many(payloads, blobs=None, releases=None):
                logged.extend(blobs)
                return real(payloads, blobs=blobs, releases=releases)

            origin.log.append_many = append_many
            encodes = []
            real_encode_ops = protocol.encode_ops

            def encode_ops(ops):
                encodes.append(len(ops))
                return real_encode_ops(ops)

            monkeypatch.setattr(protocol, "encode_ops", encode_ops)
            reply = await client.update(ops)
            monkeypatch.undo()

            (blob,) = logged
            mset = decode_mset(loads(blob)["mset"])
            assert mset.tid == reply["tid"]
            assert blob == payload_blob({"mset": encode_mset(mset)})
            assert _logged_msets(origin)[-1][1] == loads(blob)["mset"]
            writes = tuple(op for op in ops if op.is_write_op)
            if method == "ritu":
                assert encodes == [len(writes)]
                assert all(type(op) is TimestampedWriteOp for op in mset.ops)
                assert [(op.key, op.value) for op in mset.ops] == [
                    (op.key, op.value) for op in writes
                ]
                assert len({op.timestamp for op in mset.ops}) == 1
            else:
                assert encodes == []
                assert mset.ops == writes
            if method == "ordup":
                assert mset.get_info("reads") == ["r"]
            await cluster.settle(timeout=30)
            values = {}
            for name in ("site0", "site1"):
                replica = await cluster.client(name)
                values[name] = await replica.values()
            assert values["site0"] == values["site1"]
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_a_malformed_stamp_is_refused_before_it_is_logged(tmp_path):
    """A ``tswrite`` whose stamp is not ``[int time, site name]`` is
    refused at decode, before its group appends it: the replica keeps
    serving, the log holds only what applied, and a restart replays
    it."""

    async def scenario():
        cluster = LiveCluster(n_sites=1, method="commu", data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site0")
            await client.update([TimestampedWriteOp("k", 1, (1, "site0"))])
            for stamp in (("x", 0), (2, 0)):
                with pytest.raises(LiveETFailed):
                    await client.update(
                        [TimestampedWriteOp("k", 2, stamp)]
                    )
            assert len(_logged_msets(cluster.servers["site0"])) == 1
            await cluster.kill("site0")
            await cluster.restart("site0")
            client = await cluster.client("site0")
            assert await client.read("k") == 1
            await client.update([TimestampedWriteOp("k", 3, (2, "site0"))])
            assert await client.read("k") == 3
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def _is_bound_to(callback, owner):
    """True when ``callback`` (or the function a ``partial`` wraps) is a
    method bound to ``owner``."""
    func = getattr(callback, "func", callback)
    return getattr(func, "__self__", None) is owner


def test_a_turn_of_served_updates_makes_no_future_and_one_answer_callback(
    tmp_path, monkeypatch
):
    """16 COMMU updates of one turn are one group, and the group answers
    them itself: the replica creates no future for any of them and
    schedules one callback besides the group's leader, not one per
    update."""

    async def scenario():
        cluster = LiveCluster(n_sites=1, method="commu", data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site0")
            await client.increment("warm", 1)
            origin = cluster.servers["site0"]
            loop = asyncio.get_running_loop()
            futures, scheduled = [], []
            real_create_future, real_call_soon = (
                loop.create_future, loop.call_soon,
            )

            def create_future():
                caller = sys._getframe(1).f_globals.get("__name__")
                if caller == "repro.live.server":
                    futures.append(sys._getframe(1).f_code.co_name)
                return real_create_future()

            def call_soon(callback, *args, **kwargs):
                if _is_bound_to(callback, origin):
                    scheduled.append(getattr(callback, "func", callback))
                return real_call_soon(callback, *args, **kwargs)

            monkeypatch.setattr(loop, "create_future", create_future)
            monkeypatch.setattr(loop, "call_soon", call_soon)
            replies = await asyncio.gather(
                *(client.increment("k%d" % i, 1) for i in range(16))
            )
            monkeypatch.undo()
            assert [reply["tid"] for reply in replies] == [
                "site0:%d" % seq for seq in range(2, 18)
            ]
            groups = origin.m_commit_group
            assert (groups.count, groups.sum) == (2, 17)
            assert futures == []
            answers = [
                cb for cb in scheduled if cb.__name__ != "_commit_groups"
            ]
            assert len(answers) == 1, answers
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_a_group_writes_its_batch_frames_before_its_first_reply(
    tmp_path, monkeypatch
):
    """A group's replies go out after its senders woke and wrote the
    group's batch frames, never a turn ahead of them: answering inline
    in the group's step would write the replies first."""

    async def scenario():
        cluster = LiveCluster(n_sites=3, method="commu", data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site0")
            await client.increment("warm", 1)
            await cluster.settle(timeout=30)
            written = []
            real_write = protocol.FrameWriter.write

            def write(self, data, waiter=None):
                if b'"type":"response"' in data:
                    # A connection's replies of a group: one write.
                    written.extend(
                        ["reply"] * data.count(b'"type":"response"')
                    )
                elif b'{"mset":' in data:
                    written.append("batch")
                return real_write(self, data, waiter)

            monkeypatch.setattr(protocol.FrameWriter, "write", write)
            await asyncio.gather(
                *(client.increment("k%d" % i, 1) for i in range(8))
            )
            monkeypatch.undo()
            assert written.count("reply") == 8
            assert written.index("batch") < written.index("reply")
            assert written[:2] == ["batch", "batch"]  # one per peer
            await cluster.settle(timeout=30)
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_a_replica_stopped_before_its_group_is_answered_writes_no_reply(
    tmp_path, monkeypatch
):
    """The replica stops between a group's commit and its answer: no
    reply is written, and the client sees its connection lost."""

    async def scenario():
        cluster = LiveCluster(n_sites=3, method="commu", data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site0")
            await client.increment("warm", 1)
            origin = cluster.servers["site0"]
            stopping = []
            real_kick = origin._kick_channels

            def kick_then_stop():
                real_kick()
                if not stopping:  # the stop's first step runs next
                    stopping.append(
                        asyncio.ensure_future(cluster.kill("site0"))
                    )

            origin._kick_channels = kick_then_stop
            replies = []
            real_write = protocol.FrameWriter.write

            def write(self, data, waiter=None):
                if b'"type":"response"' in data:
                    replies.append(data)
                return real_write(self, data, waiter)

            monkeypatch.setattr(protocol.FrameWriter, "write", write)
            outcomes = await asyncio.gather(
                *(client.increment("k%d" % i, 1) for i in range(4)),
                return_exceptions=True,
            )
            await stopping[0]
            monkeypatch.undo()
            assert replies == []
            assert [type(outcome) for outcome in outcomes] == (
                [ConnectionError] * 4
            )
            # The group committed before the stop: it is in the log.
            await cluster.restart("site0")
            assert cluster.servers["site0"].log.assigned == 5
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_a_write_stream_stays_out_of_the_young_generation(tmp_path):
    """Allocation-churn guard: 32 callers on 2 clients send 4096
    three-op transfers to a 3-site COMMU cluster.  A group answers its
    members without a future, done-callback or handle each, and commits
    each update as its request arrays, without an operation or an MSet,
    so the run triggers about 40 generation-0 collections.  Building
    the MSet and its operations again makes it about 60; one future,
    done-callback or handle per update about 120."""

    async def scenario():
        cluster = LiveCluster(
            n_sites=3, method="commu", data_dir=tmp_path, fsync=False
        )
        await cluster.start()
        try:
            clients = [await cluster.client("site0") for _ in range(2)]

            async def caller(index, count):
                client = clients[index % 2]
                for n in range(index, count, 32):
                    await client.update(
                        [
                            DecrementOp("k%d" % (n % 4096), 1),
                            IncrementOp("k%d" % ((n + 1) % 4096), 1),
                            IncrementOp("k%d" % ((n + 2) % 4096), 1),
                        ]
                    )

            await asyncio.gather(*(caller(i, 256) for i in range(32)))
            await cluster.settle(timeout=30)
            young = []

            def note(phase, info):
                if phase == "start" and info["generation"] == 0:
                    young.append(phase)

            gc.collect()
            gc.callbacks.append(note)
            try:
                await asyncio.gather(*(caller(i, 4096) for i in range(32)))
            finally:
                gc.callbacks.remove(note)
            assert len(young) <= 50, len(young)
            await cluster.settle(timeout=30)
        finally:
            await cluster.stop()

    # Debug mode (``-X dev``) records a traceback per handle and future.
    asyncio.run(scenario(), debug=False)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a group whose accept_batch fails part-way answers every "
    "member with the error, although all are logged: the per-key kind "
    "check before logging is ROADMAP item 8(b)",
)
def test_a_group_that_fails_part_way_answers_each_member_its_own(tmp_path):
    """``append k``, ``inc k`` and ``inc j`` in one loop turn are one
    group: the append is acked, ``inc k`` is refused, and ``inc j`` is
    acked and in the origin's store.  Today all three hear the failure
    and ``j`` is missing until a restart replays the log."""

    async def scenario():
        cluster = LiveCluster(n_sites=1, method="commu", data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site0")
            outcomes = await asyncio.gather(
                client.update([AppendOp("k", "x")]),
                client.update([IncrementOp("k", 1)]),
                client.update([IncrementOp("j", 1)]),
                return_exceptions=True,
            )
            values = await client.values()
        finally:
            await cluster.stop()
        assert [isinstance(o, LiveETFailed) for o in outcomes] == [
            False, True, False,
        ]
        assert [outcomes[0]["tid"], outcomes[2]["tid"]] == [
            "site0:1", "site0:3",
        ]
        assert values == {"k": ["x"], "j": 1}

    asyncio.run(scenario())
