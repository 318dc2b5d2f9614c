"""Queries answered in one step, and queries parked on their keys.

The live engines hold no lock: every mutator finishes in the step that
calls it, a query that can be charged now is answered in that step
(``read_now``), and one that cannot parks one future under each of its
keys until a lock-counter release, a COMPE decision or a restore wakes
it — no condition variable, no re-poll, one timer (its deadline).
Pinned here:

* the one-step contract: each mutator's coroutine finishes on its first
  ``send(None)``;
* a served one-key read that need not wait creates no task at the
  replica;
* a state machine drives COMMU and COMPE engines through accepts,
  ack-releases, decisions, restores, cancellations, strict-read
  refusals and overlapping queries, against a reference chargeability
  predicate: after every rule and one loop pass no query whose keys are
  chargeable is still parked, and no parked future outlives its query;
  at quiescence every query has finished on its own.
"""

import asyncio
import inspect

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.operations import IncrementOp, WriteOp
from repro.core.transactions import UNLIMITED, EpsilonSpec
from repro.live import LiveCluster
from repro.live.engine import ENGINES, CommuLiveEngine, CompeLiveEngine
from repro.replica.mset import MSet, MSetKind

KEYS = ("a", "b", "c")


MUTATORS = (
    "accept", "accept_batch", "fully_acked_many", "hold_counters",
    "checkpoint", "restore",
)


@pytest.mark.parametrize("method", sorted(ENGINES))
def test_every_mutator_finishes_in_the_step_that_calls_it(method):
    """Every mutator is a plain method: the server calls it in the step
    that parsed its frame, with nothing to await."""
    engine = ENGINES[method]("s0")
    for name in MUTATORS:
        assert not inspect.iscoroutinefunction(getattr(engine, name)), name
    op = WriteOp if method.startswith("ritu") else IncrementOp
    ordered = engine.needs_order
    first, second = (
        engine.make_mset(
            "s0:%d" % n, [op("a", 1)], order=(n, 0) if ordered else None
        )
        for n in (1, 2)
    )
    assert engine.accept(first, local=True) == [first]
    assert engine.accept_batch([second], local=True) == [second]
    engine.fully_acked_many([(first.tid, first.keys)])
    engine.hold_counters(second)
    engine.restore(engine.checkpoint())
    assert engine.snapshot() == {"a": 2 if op is IncrementOp else 1}


def test_a_one_key_read_that_need_not_wait_creates_no_task(tmp_path):
    async def scenario():
        cluster = LiveCluster(n_sites=3, method="commu", data_dir=tmp_path)
        await cluster.start()
        try:
            client = await cluster.client("site0")
            await client.increment("k", 2)
            await cluster.settle(timeout=30)
            loop = asyncio.get_running_loop()
            created = []

            def factory(loop, coro, **kwargs):
                created.append(getattr(coro, "__qualname__", ""))
                return asyncio.Task(coro, loop=loop, **kwargs)

            results = []
            loop.set_task_factory(factory)
            try:
                for limit in (0, 3, UNLIMITED):
                    results.append(
                        await client.query(
                            ["k"], EpsilonSpec(import_limit=limit)
                        )
                    )
            finally:
                loop.set_task_factory(None)
            assert [dict(r.values) for r in results] == [{"k": 2}] * 3
            assert [
                name for name in created if name.startswith("ReplicaServer.")
            ] == []
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def _probed(cls):
    class Probe(cls):
        """Records which tasks are parked (inside ``_park``)."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.parked_tasks = set()

        async def _park(self, *args):
            task = asyncio.current_task()
            self.parked_tasks.add(task)
            try:
                await super()._park(*args)
            finally:
                self.parked_tasks.discard(task)

    return Probe


key_sets = st.lists(st.sampled_from(KEYS), min_size=1, max_size=3, unique=True)


class ParkedQueryMachine(RuleBasedStateMachine):
    engine_cls = CommuLiveEngine

    def __init__(self):
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.now = [0.0]
        self.engine = _probed(self.engine_cls)(
            "s0", clock=lambda: self.now[0]
        )
        self.seq = 0
        self.unacked = []  # local update MSets no peer has acked, oldest first
        self.undecided = {}  # COMPE: update tid -> keys, awaiting a decision
        self.drift = {}  # update tid -> its worst-case value drift
        self.queries = []  # (task, keys, spec)

    def chargeable(self, keys, spec):
        """Reference: could a query started now be charged for every
        update still standing on its keys — held by a lock-counter
        (local, unacked) or, under COMPE, undecided?"""
        standing = {mset.tid: mset.keys for mset in self.unacked}
        standing.update(self.undecided)
        sources = [
            tid for tid, written in standing.items() if set(written) & set(keys)
        ]
        if len(sources) > spec.import_limit:
            return False
        if spec.value_limit == UNLIMITED:
            return True
        return sum(self.drift[tid] for tid in sources) <= spec.value_limit

    # -- driving ---------------------------------------------------------------

    def run(self, coro):
        """Run ``coro`` to completion, then give the loop one pass."""
        self.loop.run_until_complete(coro)
        self.loop.run_until_complete(asyncio.sleep(0))

    def turn(self):
        """Give the loop the passes a mutator's wake-ups need."""
        self.run(asyncio.sleep(0))

    def pending(self):
        return [task for task, _, _ in self.queries if not task.done()]

    def release(self, count):
        acked, self.unacked[:count] = self.unacked[:count], []
        self.engine.fully_acked_many([(m.tid, m.keys) for m in acked])
        self.turn()

    def settle_decision(self, target, abort):
        del self.undecided[target]
        self.seq += 1
        decision = MSet(
            "s0:%d" % self.seq,
            MSetKind.ABORT if abort else MSetKind.COMMIT,
            (), origin="s0", info=(("decides", target),),
        )
        self.engine.accept_batch([decision], local=True)
        self.turn()

    @rule(local=st.booleans(), keys=key_sets, amount=st.integers(1, 3))
    def accept(self, local, keys, amount):
        self.now[0] += 1.0
        self.seq += 1
        origin = "s0" if local else "s1"
        tid = "%s:%d" % (origin, self.seq)
        mset = MSet(
            tid, MSetKind.UPDATE,
            tuple(IncrementOp(key, amount) for key in keys), origin=origin,
        )
        self.drift[tid] = amount * len(keys)
        if local:
            self.unacked.append(mset)
        if self.engine_cls is CompeLiveEngine:
            self.undecided[tid] = mset.keys
        self.engine.accept_batch([mset], local=local)
        self.turn()

    @precondition(lambda self: self.unacked)
    @rule(count=st.integers(1, 3))
    def ack(self, count):
        self.release(count)

    @precondition(lambda self: self.undecided)
    @rule(abort=st.booleans(), pick=st.integers(0, 7))
    def decide(self, abort, pick):
        targets = sorted(self.undecided)
        self.settle_decision(targets[pick % len(targets)], abort)

    @rule()
    def restore(self):
        # As recovery does: install the image, then re-raise what the
        # outbox still owes — with no turn in between.
        self.engine.restore(self.engine.checkpoint())
        for mset in self.unacked:
            self.engine.hold_counters(mset)
        self.turn()

    @rule(
        keys=key_sets,
        limit=st.sampled_from([0, 1, 2, UNLIMITED]),
        value=st.sampled_from([UNLIMITED, 2.0, 4.0]),
    )
    def query(self, keys, limit, value):
        spec = EpsilonSpec(import_limit=limit, value_limit=value)
        task = self.loop.create_task(
            self.engine.query(keys, spec, timeout=1e9)
        )
        self.queries.append((task, keys, spec))
        self.run(asyncio.sleep(0))

    @precondition(lambda self: self.pending())
    @rule(pick=st.integers(0, 7))
    def cancel(self, pick):
        pending = self.pending()
        pending[pick % len(pending)].cancel()
        self.run(asyncio.sleep(0))

    @rule()
    def refuse_strict(self):
        self.engine.fail_parked_strict(lambda: RuntimeError("unavailable"))
        self.run(asyncio.sleep(0))

    # -- what must hold --------------------------------------------------------

    @invariant()
    def no_chargeable_query_stays_parked(self):
        for task, keys, spec in self.queries:
            if task in self.engine.parked_tasks:
                assert not self.chargeable(keys, spec), (keys, spec)

    @invariant()
    def no_waiter_outlives_its_query(self):
        filed = set()
        for waiters in self.engine._parked.values():
            assert waiters
            filed |= waiters
        assert len(filed) == len(self.engine.parked_tasks)
        assert self.engine._parked_strict <= filed
        assert not any(waiter.done() for waiter in filed)

    def teardown(self):
        try:
            # Quiesce: every obligation released; each parked query is
            # woken by the step that frees its keys and finishes alone.
            for target in sorted(self.undecided):
                self.settle_decision(target, False)
            self.release(len(self.unacked))
            for _ in range(10):
                if not self.pending():
                    break
                self.run(asyncio.sleep(0))
            assert self.pending() == []
            for task, _, spec in self.queries:
                if not task.cancelled() and task.exception() is None:
                    assert task.result().inconsistency <= spec.import_limit
            assert self.engine._parked == {}
            assert self.engine._parked_strict == set()
        finally:
            for task in self.pending():
                task.cancel()
            self.loop.run_until_complete(asyncio.sleep(0))
            self.loop.close()


class CompeParkedQueryMachine(ParkedQueryMachine):
    engine_cls = CompeLiveEngine


TestCommuParkedQueries = ParkedQueryMachine.TestCase
TestCompeParkedQueries = CompeParkedQueryMachine.TestCase
