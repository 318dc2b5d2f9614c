"""Resident divergence state is bounded by what is in flight, not by
how long the replica has been up.

An engine soak per method (20 k updates with overlapping queries: the
drift table and the apply history never exceed in-flight work plus
what was applied since the oldest active query began, and drain to
nothing — ORDUP: one writer per key — at quiescence), a cluster
checkpoint that does not grow with history, and a restart that still
charges an unacked pre-snapshot update its real drift.
"""

import asyncio
import random

import pytest

from repro.core.operations import IncrementOp, WriteOp
from repro.core.transactions import EpsilonSpec
from repro.live import LiveCluster
from repro.live.engine import ENGINES, QueryTimeout
from repro.replica.mset import MSet, MSetKind

KEYS = ["k%d" % i for i in range(16)]
UPDATES = 20_000
ACK_LAG = 48  # local updates (and COMPE decisions) kept outstanding
ORDERED = ("ordup", "ritu-mv")


async def soak(method):
    engine = ENGINES[method]("s0")
    rng = random.Random(16)
    unacked = []  # (tid, keys), oldest first
    undecided = []  # COMPE
    swapped = None  # ordered methods: one MSet delivered a slot late
    active = {}  # query task -> number of updates applied at its start
    applied = 0
    seq = 0

    def accept(mset, local):
        nonlocal applied
        applied += len(engine.accept(mset, local=local))
        if local:
            unacked.append((mset.tid, mset.keys))

    def check():
        for task in [t for t in active if t.done()]:
            task.result()
            del active[task]
        window = applied - min(active.values(), default=applied)
        in_flight = len(unacked) + len(undecided) + 2 * (swapped is not None)
        floor = len(KEYS) if method == "ordup" else 0
        # A compensating abort re-enters the window under its own tid.
        bound = floor + in_flight + 2 * window
        assert len(engine._pins) <= bound, (seq, len(engine._pins))
        assert engine._drift.keys() <= engine._pins.keys()
        assert engine.history_entries() <= floor + 3 * 2 * window

    for _ in range(UPDATES):
        seq += 1
        local = rng.random() < 0.5
        keys = rng.sample(KEYS, rng.randint(1, 3))
        tid = "%s:%d" % ("s0" if local else "s1", seq)
        op = WriteOp if method.startswith("ritu") else IncrementOp
        order = (seq, 0) if method in ORDERED else None
        mset = engine.make_mset(tid, [op(k, 1) for k in keys], order=order)
        if method == "compe":
            undecided.append(tid)
        if method in ORDERED and swapped is None and rng.random() < 0.2:
            swapped = (mset, local)  # its successor overtakes it
        else:
            accept(mset, local)
            if swapped is not None:
                accept(*swapped)
                swapped = None
        if len(undecided) > ACK_LAG:
            seq += 1
            kind = MSetKind.ABORT if rng.random() < 0.2 else MSetKind.COMMIT
            decision = MSet(
                "s0:%d" % seq, kind, (), origin="s0",
                info=(("decides", undecided.pop(0)),),
            )
            accept(decision, True)
        if len(unacked) > ACK_LAG:
            batch, unacked[:16] = unacked[:16], []
            engine.fully_acked_many(batch)
        if seq % 40 == 0:
            query = engine.query(
                rng.sample(KEYS, 3), EpsilonSpec(), timeout=5.0
            )
            active[asyncio.ensure_future(query)] = applied
        if seq % 3 == 0:
            await asyncio.sleep(0)  # queries read between applies
        check()

    if swapped is not None:
        accept(*swapped)
        swapped = None
    while undecided:
        seq += 1
        decision = MSet(
            "s0:%d" % seq, MSetKind.COMMIT, (), origin="s0",
            info=(("decides", undecided.pop(0)),),
        )
        accept(decision, True)
    engine.fully_acked_many(unacked)
    unacked.clear()
    await asyncio.gather(*active)
    check()
    return engine


@pytest.mark.parametrize("method", sorted(ENGINES))
def test_engine_state_is_bounded_by_in_flight_work(method):
    engine = asyncio.run(soak(method))
    if method == "ordup":
        assert 0 < len(engine._pins) <= len(KEYS)
        assert engine.history_entries() <= len(KEYS)
    else:
        assert engine._pins == {} and engine._drift == {}
        assert engine.history_entries() == 0
    assert engine.applied_count >= UPDATES


async def _pump(cluster, total, callers=32):
    """``total`` increments at site0 over a fixed key set."""
    client = await cluster.client("site0")
    remaining = iter(range(total))

    async def caller():
        for i in remaining:
            await client.increment(KEYS[i % len(KEYS)], 1)

    await asyncio.gather(*(caller() for _ in range(callers)))
    await cluster.settle()


def test_checkpoint_size_does_not_grow_with_history(tmp_path):
    async def scenario():
        cluster = LiveCluster(n_sites=3, method="commu", data_dir=tmp_path)
        await cluster.start()
        try:
            await _pump(cluster, 2_000)
            early = (await cluster.snapshot("site0"))["bytes"]
            await _pump(cluster, 18_000)
            late = (await cluster.snapshot("site0"))["bytes"]
            engine = cluster.servers["site0"].engine
            assert engine.applied_count == 20_000
            assert late <= 1.2 * early, (early, late)
            assert engine._pins == {} and engine._drift == {}
            assert engine.history_entries() == 0
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_restart_charges_an_unacked_pre_snapshot_update_its_real_drift(
    tmp_path,
):
    """The checkpoint does not carry lock-counter holders; recovery
    re-raises them from the outbox — with the update's own drift, not
    an unknown (unbounded) one."""

    async def scenario():
        cluster = LiveCluster(n_sites=3, method="commu", data_dir=tmp_path)
        await cluster.start()
        try:
            await cluster.kill("site1")
            await cluster.kill("site2")
            client = await cluster.client("site0")
            await client.increment("k", 5)  # commits; nobody acks it
            await cluster.snapshot("site0")  # ... and is inside the image
            await cluster.kill("site0")
            await cluster.restart("site0")
            engine = cluster.servers["site0"].engine
            assert engine.state.holders_of("k")
            outcome = await engine.query(
                ["k"], EpsilonSpec(value_limit=5.0), timeout=1.0
            )
            assert outcome.values == {"k": 5}
            assert outcome.inconsistency == 1
            with pytest.raises(QueryTimeout):
                await engine.query(
                    ["k"], EpsilonSpec(value_limit=4.0), timeout=0.3
                )
        finally:
            await cluster.stop()

    asyncio.run(scenario())
