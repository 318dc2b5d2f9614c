"""Tests for the local ET scheduler over divergence control engines."""

import pytest

from repro.core.divergence import (
    BasicTimestampDC,
    TwoPhaseLockingDC,
)
from repro.core.locks import CLASSIC_2PL, COMMU_TABLE, ORDUP_TABLE
from repro.core.operations import (
    IncrementOp,
    MultiplyOp,
    ReadOp,
    WriteOp,
)
from repro.core.scheduler import LocalScheduler
from repro.core.transactions import (
    EpsilonSpec,
    ETStatus,
    QueryET,
    UpdateET,
    reset_tid_counter,
)
from repro.sim.events import Simulator
from repro.storage.kv import KeyValueStore


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


def _scheduler(table=CLASSIC_2PL, store=None, dc=None):
    sim = Simulator(seed=1)
    engine = dc or TwoPhaseLockingDC(table)
    sched = LocalScheduler(
        sim, engine, store or KeyValueStore({"x": 0, "y": 0})
    )
    return sim, sched


class TestBasicExecution:
    def test_single_update_commits(self):
        sim, sched = _scheduler()
        sched.submit(UpdateET([IncrementOp("x", 5)]))
        sim.run()
        assert sched.drained()
        assert sched.store.get("x") == 5
        assert sched.completed[0].status == ETStatus.COMMITTED

    def test_query_reads_committed_state(self):
        sim, sched = _scheduler(store=KeyValueStore({"x": 9}))
        results = []
        sched.submit(QueryET([ReadOp("x")]), results.append)
        sim.run()
        assert results[0].values == {"x": 9}

    def test_writes_invisible_until_commit(self):
        sim, sched = _scheduler(table=ORDUP_TABLE)
        # A slow update followed by a query that reads mid-update: the
        # query sees the pre-update value because effects land at
        # commit time (strict execution).
        sched.submit(UpdateET([IncrementOp("x", 5), IncrementOp("y", 5)]))
        results = []
        sched.submit(
            QueryET([ReadOp("x")], EpsilonSpec(import_limit=5)),
            results.append,
        )
        sim.run()
        assert results[0].values["x"] in (0, 5)
        assert sched.store.get("x") == 5

    def test_operations_take_time(self):
        sim, sched = _scheduler()
        sched.submit(UpdateET([IncrementOp("x", 1), IncrementOp("y", 1)]))
        sim.run()
        assert sched.completed[0].latency == pytest.approx(1.0)


class TestBlockingByTable:
    def test_classic_2pl_serializes_conflicting_updates(self):
        sim, sched = _scheduler(CLASSIC_2PL)
        sched.submit(UpdateET([WriteOp("x", 1), WriteOp("y", 1)]))
        sched.submit(UpdateET([WriteOp("x", 2), WriteOp("y", 2)]))
        sim.run()
        assert sched.wait_count > 0
        assert sched.store.get("x") == sched.store.get("y")

    def test_commu_table_interleaves_commuting_updates(self):
        sim, sched = _scheduler(COMMU_TABLE)
        for i in range(5):
            sched.submit(UpdateET([IncrementOp("x", 1)]))
        sim.run()
        assert sched.wait_count == 0
        assert sched.store.get("x") == 5

    def test_commu_table_blocks_non_commuting(self):
        sim, sched = _scheduler(COMMU_TABLE)
        sched.submit(UpdateET([IncrementOp("x", 10)]))
        sched.submit(UpdateET([MultiplyOp("x", 2)]))
        sim.run()
        assert sched.wait_count > 0
        # Serialized: Inc then Mul -> 20 (submission order wins here
        # because the second blocks behind the first).
        assert sched.store.get("x") == 20

    def test_ordup_table_lets_queries_through_writes(self):
        sim, sched = _scheduler(ORDUP_TABLE)
        sched.submit(UpdateET([WriteOp("x", 1), WriteOp("y", 1)]))
        results = []
        sched.submit(
            QueryET([ReadOp("x")], EpsilonSpec(import_limit=2)),
            results.append,
        )
        sim.run()
        assert results[0].status == ETStatus.COMMITTED
        assert results[0].inconsistency == 1

    def test_classic_table_blocks_queries_on_writes(self):
        sim, sched = _scheduler(CLASSIC_2PL)
        sched.submit(UpdateET([WriteOp("x", 1), WriteOp("y", 1)]))
        results = []
        sched.submit(QueryET([ReadOp("x")]), results.append)
        sim.run()
        assert results[0].waits > 0


class TestTimestampEngine:
    def test_rejected_et_restarts_and_commits(self):
        sim = Simulator(seed=1)
        dc = BasicTimestampDC()
        sched = LocalScheduler(sim, dc, KeyValueStore({"x": 0}))
        # Late-timestamped write racing an earlier one on the same key:
        # one of them gets rejected and must restart.
        sched.submit(UpdateET([ReadOp("x"), WriteOp("x", 1)]))
        sched.submit(UpdateET([ReadOp("x"), WriteOp("x", 2)]))
        sim.run()
        assert sched.drained()
        assert all(
            r.status == ETStatus.COMMITTED for r in sched.completed
        )

    def test_abort_limit_reported(self):
        sim = Simulator(seed=1)
        dc = BasicTimestampDC()
        sched = LocalScheduler(
            sim, dc, KeyValueStore({"x": 0}), max_restarts=0
        )
        sched.submit(UpdateET([ReadOp("x"), WriteOp("x", 1)]))
        sched.submit(UpdateET([ReadOp("x"), WriteOp("x", 2)]))
        sim.run()
        statuses = sorted(r.status for r in sched.completed)
        # With no restarts allowed, the loser stays aborted.
        assert ETStatus.COMMITTED in statuses


class TestConcurrencyComparison:
    def test_commu_beats_classic_on_commutative_load(self):
        """The dynamic version of Tables 2/3: same workload, different
        lock table, measurably different blocking."""

        def run(table):
            sim, sched = _scheduler(table)
            for i in range(8):
                sched.submit(UpdateET([IncrementOp("x", 1)]))
            sim.run()
            return sched.wait_count, max(
                r.finish_time for r in sched.completed
            )

        commu_waits, commu_span = run(COMMU_TABLE)
        classic_waits, classic_span = run(CLASSIC_2PL)
        assert commu_waits < classic_waits
        assert commu_span < classic_span


class TestSchedulerProperties:
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=25, deadline=None)
    @given(
        amounts=st.lists(
            st.integers(min_value=1, max_value=9), min_size=1, max_size=10
        ),
        table_name=st.sampled_from(["classic", "ordup", "commu"]),
        stagger=st.floats(min_value=0.0, max_value=0.4),
    )
    def test_concurrent_increments_sum_under_any_table(
        self, amounts, table_name, stagger
    ):
        """Whatever the lock table, committed increments must sum — the
        scheduler may reorder or block, never lose or double-apply."""
        from repro.core.divergence import TwoPhaseLockingDC
        from repro.core.locks import CLASSIC_2PL, COMMU_TABLE, ORDUP_TABLE
        from repro.core.operations import IncrementOp
        from repro.core.scheduler import LocalScheduler
        from repro.core.transactions import UpdateET, reset_tid_counter
        from repro.sim.events import Simulator
        from repro.storage.kv import KeyValueStore

        table = {
            "classic": CLASSIC_2PL,
            "ordup": ORDUP_TABLE,
            "commu": COMMU_TABLE,
        }[table_name]
        reset_tid_counter()
        sim = Simulator(seed=1)
        sched = LocalScheduler(
            sim, TwoPhaseLockingDC(table), KeyValueStore({"x": 0})
        )
        for i, amount in enumerate(amounts):
            sim.schedule_at(
                i * stagger,
                lambda a=amount: sched.submit(UpdateET([IncrementOp("x", a)])),
            )
        sim.run()
        assert sched.drained()
        assert sched.store.get("x") == sum(amounts)


class TestDeadlockTimeout:
    def test_upgrade_deadlock_resolved_by_timeout(self):
        """Two read-modify-write ETs both hold read locks on the same
        key and spin on the write-lock upgrade; the lock manager keeps
        no waits-for graph.  The wait timeout must break
        the cycle and both ETs must commit with no lost update."""
        sim, sched = _scheduler(CLASSIC_2PL)
        sched.submit(UpdateET([ReadOp("x"), IncrementOp("x", 1)]))
        sched.submit(UpdateET([ReadOp("x"), IncrementOp("x", 1)]))
        sim.run(max_events=100_000)
        assert sched.drained()
        assert sched.abort_count >= 1  # at least one timeout abort
        assert sched.store.get("x") == 2

    def test_wait_limit_configurable(self):
        from repro.core.divergence import TwoPhaseLockingDC
        from repro.sim.events import Simulator
        from repro.storage.kv import KeyValueStore

        sim = Simulator(seed=1)
        sched = LocalScheduler(
            sim,
            TwoPhaseLockingDC(CLASSIC_2PL),
            KeyValueStore({"x": 0}),
            wait_limit=3,
        )
        sched.submit(UpdateET([ReadOp("x"), IncrementOp("x", 1)]))
        sched.submit(UpdateET([ReadOp("x"), IncrementOp("x", 1)]))
        sim.run(max_events=100_000)
        assert sched.drained()
        assert sched.store.get("x") == 2
