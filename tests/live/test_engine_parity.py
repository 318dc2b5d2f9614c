"""Pruning is unobservable: each live engine next to a twin that never
forgets.

The live engines drop divergence state no query can still read — apply
history behind the oldest active query, the drift of updates that are
acked / decided / overwritten / stable — and checkpoint only what is
left.  The reference twin is the same
engine with forgetting switched off: every pin kept, and mixed
observations answered from the test's own complete log of applies,
i.e. the whole-history behaviour.  Each is driven, on its own event
loop and a manual clock (ties included), through the same random
interleaving of local and remote accepts, acks, decisions,
out-of-order deliveries, checkpoint-and-restore restarts and
overlapping bounded / strict / value-limited queries, and both must
return identical ``QueryOutcome``s.
"""

import asyncio

import pytest
from hypothesis import given, strategies as st

from repro.core.operations import IncrementOp, WriteOp
from repro.core.transactions import UNLIMITED, EpsilonSpec
from repro.live.engine import ENGINES
from repro.replica.mset import MSet, MSetKind

KEYS = ["a", "b", "c"]
ORDERED = ("ordup", "ritu-mv")
BLIND = ("ritu", "ritu-mv")


def never_forgetting(cls):
    class Reference(cls):
        """Keeps every pin, and answers "what was applied since this
        query began" from the driver's own complete log of applies
        rather than from the engine's (prunable) history."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.applies = []  # (time, tid, keys), appended by drive()

        def _unpin(self, *tids):
            pass

        def _query_sources(self, key, start):
            sources = self.state.holders_of(key)
            sources |= getattr(self, "_undecided_by_key", {}).get(key, set())
            return sources | {
                tid
                for at, tid, keys in self.applies
                if key in keys and at > start
            }

    return Reference


key_sets = st.lists(st.sampled_from(KEYS), min_size=1, max_size=3, unique=True)
update = st.tuples(
    st.just("update"),
    st.booleans(),  # local?
    key_sets,
    st.integers(1, 3),
    st.booleans(),  # hold back (ordered methods: deliver later)
    st.sampled_from([1.0, 1.0, 1.0, 0.0]),  # clock advance (0: a tie)
)
query = st.tuples(
    st.just("query"),
    st.lists(st.sampled_from(KEYS), min_size=2, max_size=3, unique=True),
    st.sampled_from([0, 1, 2, UNLIMITED]),
    st.sampled_from([UNLIMITED, 4.0]),
)
step = st.just(("step",))
# Weighted towards what makes queries overlap updates: a query only
# registers, reads and blocks when the loop gets to run it.
steps = st.one_of(
    update, update, query, query, step, step, step,
    st.just(("flush",)),
    st.just(("restart",)),
    st.tuples(st.just("ack"), st.integers(1, 3)),
    st.tuples(st.just("decide"), st.booleans()),
)


def chargeable(engine):
    """Every tid some query could be charged for right now, read off
    the engine's method state."""
    tids = set(getattr(engine, "_undecided", ()))
    state = getattr(engine, "state", None)
    if state is not None:
        tids.update(*state.holders.values())
        tids.update(tid for _, tid, _ in state._noted)
    if hasattr(engine, "last_writer"):
        tids.update(tid for _, tid in engine.last_writer.values())
    if hasattr(engine, "mvstore"):
        for key in engine.mvstore.keys():
            for version in engine.mvstore.unstable_versions(key):
                tids.add(version.writer)
    return tids


async def drive(cls, method, script, audit=False):
    """Run ``script`` against one engine on its own loop and manual
    clock; returns the engine and its queries' outcomes, in order.
    ``audit``: after every step, exactly the chargeable tids are
    pinned — nothing forgotten early, nothing kept late — each with
    the drift the script gave it."""
    now = [0.0]
    engine = cls("s0", clock=lambda: now[0])
    queries = []
    seq = 0
    unacked = []  # local update MSets no peer has acked, oldest first
    undecided = []  # COMPE update tids awaiting a decision
    held = []  # (mset, local) built but not yet delivered
    drifts = {}  # update tid -> its worst-case drift, from the script
    written = {}  # update tid -> the keys it wrote

    def log_apply(tid, keys):
        if hasattr(engine, "applies"):
            engine.applies.append((now[0], tid, keys))

    async def deliver(mset, local):
        engine.accept_batch([mset], local=local)
        log_apply(mset.tid, mset.keys)
        if local:
            unacked.append(mset)

    async def decide(kind):
        nonlocal seq
        seq += 1
        target = undecided.pop(0)
        decision = MSet(
            "s0:%d" % seq, kind, (), origin="s0",
            info=(("decides", target),),
        )
        await deliver(decision, True)
        if kind == MSetKind.ABORT:
            # The compensating step is an apply of its own, charged
            # under the decision's tid on the keys it undid.
            log_apply(decision.tid, written[target])

    async def flush():
        while held:
            await deliver(*held.pop())  # newest first: out of order

    for step in script:
        kind = step[0]
        if kind == "step":
            await asyncio.sleep(0)
        elif kind == "flush":
            await flush()
        elif kind == "update":
            _, local, keys, amount, hold, advance = step
            now[0] += advance
            seq += 1
            tid = "%s:%d" % ("s0" if local else "s1", seq)
            order = (seq, 0) if method in ORDERED else None
            if method in BLIND:
                ops = [WriteOp(key, amount) for key in keys]
            else:
                ops = [IncrementOp(key, amount) for key in keys]
            mset = engine.make_mset(tid, ops, order=order)
            drifts[tid] = None if method in BLIND else amount * len(keys)
            written[tid] = mset.keys
            if not local:
                mset = MSet(
                    mset.tid, mset.kind, mset.ops, origin="s1",
                    order=mset.order, txn_number=mset.txn_number,
                )
            if method == "compe":
                undecided.append(tid)
            if hold and method in ORDERED:
                held.append((mset, local))
            else:
                await deliver(mset, local)
        elif kind == "ack":
            batch, unacked[: step[1]] = unacked[: step[1]], []
            engine.fully_acked_many([(m.tid, m.keys) for m in batch])
        elif kind == "restart" and all(query.done() for query in queries):
            # A crash takes the running queries with it, so only between
            # them: checkpoint, restore into a fresh engine, and re-raise
            # what the outbox still owes — as ReplicaServer._recover does.
            image, drift = engine.checkpoint(), engine._drift
            engine = cls("s0", clock=lambda: now[0])
            engine.restore(image)
            for mset in unacked:
                engine.hold_counters(mset)
            for tid in engine._pins:  # still chargeable: same drift
                assert engine._drift.get(tid) == drift.get(tid), tid
        elif kind == "decide" and undecided:
            await decide(MSetKind.ABORT if step[1] else MSetKind.COMMIT)
        elif kind == "query":
            spec = EpsilonSpec(import_limit=step[2], value_limit=step[3])
            queries.append(
                asyncio.ensure_future(
                    engine.query(step[1], spec, timeout=1e9)
                )
            )
        if audit:
            assert set(engine._pins) == chargeable(engine), step
            for tid in engine._pins:  # (a decision's own tid: unknown)
                assert engine._drift.get(tid) == drifts.get(tid), tid

    # Quiesce: deliver, decide and ack everything; each parked query is
    # woken by the step that frees its keys and finishes on its own.
    await flush()
    while undecided:
        await decide(MSetKind.COMMIT)
    engine.fully_acked_many([(m.tid, m.keys) for m in unacked])
    for _ in range(50):
        if all(query.done() for query in queries):
            break
        await asyncio.sleep(0)
    return engine, [query.result() for query in queries]


def run(coro):
    # Not asyncio.run: its shutdown would cancel a query that never
    # finished (the bug this test is for) instead of failing on it.
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


@pytest.mark.parametrize("method", sorted(ENGINES))
@given(script=st.lists(steps, min_size=8, max_size=80))
def test_pruning_engine_matches_never_forgetting_twin(method, script):
    cls = ENGINES[method]
    engine, outcomes = run(drive(cls, method, script, audit=True))
    reference, expected = run(drive(never_forgetting(cls), method, script))
    assert outcomes == expected
    assert engine.snapshot() == reference.snapshot()
    # And it did forget: at quiescence nothing is pinned but what the
    # method can still charge (ORDUP: each key's last writer).
    resident = len(KEYS) if method == "ordup" else 0
    assert len(engine._pins) <= resident
    assert engine.history_entries() <= resident
