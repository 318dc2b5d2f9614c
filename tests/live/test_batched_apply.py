"""The COMMU apply and release paths' one-pass stages against their
per-MSet references.

A remote batch, and a local commit group, reaches the store in one
``apply_many`` pass — a group given as its request arrays exactly as
given as MSets — and a cumulative ack releases its whole window through
``LockCounterSiteState.release_many``.  Each reference twin below is
the same engine with that stage done the long way — one apply, or one
one-tid ``release_many`` + ``_unpin`` + ``_wake``, per MSet — and every
observable piece of engine state must come out identical: the store,
``applied_count``, the apply history, pins and drift, read-modify-report
results, the returned MSets and the woken queries.
"""

import asyncio

import pytest
from hypothesis import given, strategies as st

from repro.core.operations import (
    AppendOp,
    DecrementOp,
    IncrementOp,
    OperationError,
    TimestampedWriteOp,
    WriteOp,
)
from repro.live.engine import ENGINES, LiveEngine
from repro.replica.mset import MSet, encode_ops

SITE = "site0"
KEYS = ["a", "b", "c"]
#: a query that began before anything here was applied (the clock is
#: pinned at 1.0, so every apply in a test lands after it).
READING = object()


def per_mset(cls):
    class Reference(cls):
        """Accepts a remote batch one MSet at a time, each with its own
        store pass (the path the batched apply replaces)."""

        _accept_msets = LiveEngine._accept_msets

        def _accept_one(self, mset, local):
            held = local and self.state.raise_counters(mset.tid, mset.keys)
            watched = bool(self._query_starts)
            if held or watched:
                self._note_drift(mset.tid, mset.ops, pins=held + watched)
            self._apply_ops(mset)
            if watched:
                self.state.note_applied(self.clock(), mset.tid, mset.keys)
            return [mset]

    return Reference


def per_tid(cls):
    class Reference(cls):
        """Releases an ack window one tid at a time."""

        def fully_acked_many(self, items):
            for tid, keys in items:
                if self.state.release_many(((tid, keys),)):
                    self._unpin(tid)
                    self._wake(keys)

    return Reference


def _engine(cls):
    return cls(SITE, clock=lambda: 1.0)


def _state(engine):
    return {
        "store": engine.store.as_dict(),
        "applied_count": engine.applied_count,
        "last_applied_at": engine.last_applied_at,
        "history": {k: list(v) for k, v in engine.state.applied.items()},
        "read_results": engine.read_results,
        "holders": engine.state.holders,
    }


keys = st.sampled_from(KEYS)
numeric = st.one_of(
    st.builds(IncrementOp, keys, st.integers(1, 3)),
    st.builds(DecrementOp, keys, st.integers(1, 3)),
    st.builds(WriteOp, keys, st.integers(0, 9)),
)
# A string under a key that a later increment then fails on.
failing = st.builds(WriteOp, st.just("c"), st.just("text"))


def msets(op):
    return st.lists(
        st.tuples(
            st.lists(op, min_size=1, max_size=3),
            st.sampled_from([SITE, "site1", "site2"]),
            st.none() | st.lists(keys, min_size=1, max_size=2, unique=True),
        ),
        min_size=1,
        max_size=8,
    )


def _msets(specs, prefix):
    return [
        MSet(
            "%s%d" % (prefix, index),
            ops=tuple(body),
            origin=origin,
            info=(("reads", tuple(reads)),) if reads else (),
        )
        for index, (body, origin, reads) in enumerate(specs)
    ]


def _accept(engine, local, remote, watched):
    for mset in local:
        engine.accept(mset, local=True)
    if watched:
        engine._query_starts[READING] = 0.0
    try:
        return engine.accept_batch(remote, local=False), None
    except OperationError as exc:
        return None, type(exc)


class TestBatchedApply:
    @pytest.mark.parametrize("method", ["commu", "rowa"])
    @given(
        local=msets(numeric),
        remote=msets(numeric | failing),
        watched=st.booleans(),
    )
    def test_matches_one_apply_per_mset(self, method, local, remote, watched):
        cls = ENGINES[method]
        batched, reference = _engine(cls), _engine(per_mset(cls))
        prefix, batch = _msets(local, "l"), _msets(remote, "r")
        got = _accept(batched, prefix, batch, watched)
        want = _accept(reference, prefix, batch, watched)
        assert got == want
        assert _state(batched) == _state(reference)
        if got[1] is None:
            # A failed apply leaves the reference pinned for the MSet it
            # stopped in, which never reaches the history to unpin it.
            assert batched._pins == reference._pins
            assert batched._drift == reference._drift

    def test_origin_reads_see_the_batch_before_them(self):
        engine = _engine(ENGINES["commu"])
        batch = [
            MSet("r0", ops=(IncrementOp("a", 1),), origin="site1"),
            MSet(
                "r1",
                ops=(WriteOp("b", 5),),
                origin=SITE,
                info=(("reads", ("a", "b")),),
            ),
            MSet("r2", ops=(IncrementOp("a", 2),), origin="site2"),
        ]
        assert engine.accept_batch(batch, local=False) == batch
        assert engine.pop_read_results("r1") == {"a": 1, "b": 0}
        assert engine.store.as_dict() == {"a": 3, "b": 5}

    @pytest.mark.parametrize("watched", [False, True])
    def test_a_failed_apply_counts_the_msets_before_it(self, watched):
        cls = ENGINES["rowa"]
        batched, reference = _engine(cls), _engine(per_mset(cls))
        batch = [
            MSet("r0", ops=(IncrementOp("a", 1),), origin="site1"),
            MSet("r1", ops=(WriteOp("a", "text"),), origin="site1"),
            MSet(
                "r2",
                ops=(IncrementOp("b", 1), IncrementOp("a", 1)),
                origin="site1",
            ),
            MSet("r3", ops=(IncrementOp("b", 1),), origin="site1"),
        ]
        for engine in (batched, reference):
            assert _accept(engine, [], batch, watched) == (
                None, OperationError
            )
        assert batched.applied_count == 2
        assert batched.store.as_dict() == {"a": "text", "b": 1}
        assert _state(batched) == _state(reference)


stamped = st.builds(
    TimestampedWriteOp, keys, st.integers(0, 9),
    st.tuples(st.integers(1, 3), st.sampled_from([SITE, "site1"])),
)
# An append under a key that a later increment then fails on.
appended = st.builds(AppendOp, st.just("c"), st.just("x"))


def _local(engine, group, watched):
    """Commit ``group`` at ``engine`` in one step, as its origin's
    commit group does: the outcome, and every piece of state it
    leaves."""
    if watched:
        engine._query_starts[READING] = 0.0
    try:
        engine.accept_batch(group, local=True)
        outcome = None
    except OperationError as exc:
        outcome = (type(exc), str(exc))
    return outcome, {
        **_state(engine),
        "stamps": dict(engine.store.snapshot().stamps),
        "pins": engine._pins,
        "drift": engine._drift,
    }


def _forms(cls, bodies):
    """One local group three ways, each at its own fresh engine: as its
    ``(tid, arrays, keys)`` triples, as MSets, and as MSets one accept
    each (the per-MSet path the one pass replaces)."""
    msets = [
        MSet("l%d" % index, ops=tuple(body), origin=SITE)
        for index, body in enumerate(bodies)
    ]
    triples = [(m.tid, encode_ops(m.ops), m.keys) for m in msets]
    return [
        (_engine(cls), triples),
        (_engine(cls), msets),
        (_engine(per_mset(cls)), msets),
    ]


class TestLocalGroup:
    @pytest.mark.parametrize("method", ["commu", "rowa"])
    @given(
        bodies=st.lists(
            st.lists(numeric | stamped | appended, min_size=1, max_size=3),
            min_size=1,
            max_size=8,
        ),
        watched=st.booleans(),
    )
    def test_arrays_match_msets_and_one_accept_per_mset(
        self, method, bodies, watched
    ):
        (got, *want) = [
            _local(engine, group, watched)
            for engine, group in _forms(ENGINES[method], bodies)
        ]
        assert want == [got, got]

    @pytest.mark.parametrize("method", ["commu", "rowa"])
    @pytest.mark.parametrize("watched", [False, True])
    def test_a_failed_apply_counts_the_entries_before_it(
        self, method, watched
    ):
        bodies = [
            [IncrementOp("a", 1)],
            [AppendOp("k", "x")],
            [IncrementOp("b", 1), IncrementOp("k", 1)],
            [IncrementOp("b", 1)],
        ]
        (got, *want) = [
            _local(engine, group, watched)
            for engine, group in _forms(ENGINES[method], bodies)
        ]
        assert want == [got, got]
        outcome, state = got
        assert outcome == (
            OperationError,
            "IncrementOp requires a numeric value for 'k', got ('x',)",
        )
        assert state["applied_count"] == 2
        assert state["store"] == {"a": 1, "k": ("x",), "b": 1}
        # The failing entry raised its counters before it failed.
        assert state["holders"]["b"] == {"l2"}


steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("update"),
            st.lists(keys, min_size=1, max_size=3, unique=True),
        ),
        st.tuples(st.just("hold"), st.integers(0, 9)),
        st.tuples(
            st.just("ack"),
            st.lists(
                st.tuples(
                    st.integers(0, 9),
                    st.none() | st.lists(keys, max_size=2, unique=True),
                ),
                max_size=5,
            ),
        ),
        st.tuples(
            st.just("park"),
            st.lists(keys, min_size=1, max_size=2, unique=True),
        ),
        st.tuples(st.just("watch"), st.booleans()),
    ),
    max_size=25,
)


class TestAckWindow:
    @pytest.mark.parametrize("method", ["commu", "rowa", "ritu", "compe"])
    @given(script=steps)
    def test_matches_one_release_per_tid(self, method, script):
        cls = ENGINES[method]
        loop = asyncio.new_event_loop()
        try:
            self._drive(loop, cls, script)
        finally:
            loop.close()

    @staticmethod
    def _drive(loop, cls, script):
        engines = (_engine(cls), _engine(per_tid(cls)))
        waiters = ([], [])
        updates = []
        for step in script:
            if step[0] == "update":
                updates.append(MSet(
                    "u%d" % len(updates),
                    ops=tuple(IncrementOp(key, 1) for key in step[1]),
                    origin=SITE,
                ))
            for engine, parked in zip(engines, waiters):
                if step[0] == "update":
                    engine.accept(updates[-1], local=True)
                elif step[0] == "hold" and step[1] < len(updates):
                    engine.hold_counters(updates[step[1]])
                elif step[0] == "ack":
                    # An update's own keys, or any keys at all: a tid
                    # that never held, or held fewer, releases nothing
                    # it does not hold.
                    engine.fully_acked_many([
                        (
                            "u%d" % index,
                            updates[index].keys
                            if chosen is None and index < len(updates)
                            else tuple(chosen or ()),
                        )
                        for index, chosen in step[1]
                    ])
                elif step[0] == "park":
                    # What LiveEngine._park files for a query.
                    waiter = loop.create_future()
                    for key in step[1]:
                        engine._parked.setdefault(key, set()).add(waiter)
                    parked.append(waiter)
                elif step[0] == "watch":
                    if step[1]:
                        engine._query_starts[READING] = 0.0
                    else:
                        engine._query_starts.pop(READING, None)
            batched, reference = engines
            assert batched.state.holders == reference.state.holders
            assert batched._pins == reference._pins
            assert batched._drift == reference._drift
            assert [w.done() for w in waiters[0]] == [
                w.done() for w in waiters[1]
            ]
