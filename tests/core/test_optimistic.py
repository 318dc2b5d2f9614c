"""Tests for optimistic (validation-based) divergence control."""

import pytest

from repro.core.divergence import Admission, OptimisticDC
from repro.core.operations import IncrementOp, ReadOp, WriteOp
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


class TestEngine:
    def test_operations_always_admitted(self):
        dc = OptimisticDC()
        u = UpdateET([ReadOp("x"), WriteOp("x", 1)])
        dc.begin(u)
        assert dc.request(u, ReadOp("x")).admission is Admission.GRANT
        assert dc.request(u, WriteOp("x", 1)).admission is Admission.GRANT

    def test_clean_update_validates(self):
        dc = OptimisticDC()
        u = UpdateET([WriteOp("x", 1)])
        dc.begin(u)
        dc.request(u, WriteOp("x", 1))
        assert dc.validate(u)
        dc.commit(u)

    def test_stale_read_fails_update_validation(self):
        dc = OptimisticDC()
        reader = UpdateET([ReadOp("x"), WriteOp("y", 1)])
        writer = UpdateET([WriteOp("x", 2)])
        dc.begin(reader)
        dc.begin(writer)
        dc.request(reader, ReadOp("x"))
        dc.request(writer, WriteOp("x", 2))
        dc.validate(writer)
        dc.commit(writer)  # writer commits first
        assert not dc.validate(reader)  # reader's x is stale

    def test_disjoint_transactions_both_validate(self):
        dc = OptimisticDC()
        a = UpdateET([WriteOp("x", 1)])
        b = UpdateET([ReadOp("y"), WriteOp("y", 2)])
        dc.begin(a)
        dc.begin(b)
        dc.request(a, WriteOp("x", 1))
        dc.request(b, ReadOp("y"))
        dc.commit(a)
        assert dc.validate(b)

    def test_query_charges_instead_of_failing(self):
        dc = OptimisticDC()
        q = QueryET([ReadOp("x")], EpsilonSpec(import_limit=1))
        writer = UpdateET([WriteOp("x", 2)])
        dc.begin(q)
        dc.begin(writer)
        dc.request(q, ReadOp("x"))
        dc.request(writer, WriteOp("x", 2))
        dc.commit(writer)
        assert dc.validate(q)  # charged, not refused
        assert dc.inconsistency_of(q.tid) == 1

    def test_exhausted_query_fails_validation(self):
        dc = OptimisticDC()
        q = QueryET([ReadOp("x")], EpsilonSpec(import_limit=0))
        writer = UpdateET([WriteOp("x", 2)])
        dc.begin(q)
        dc.begin(writer)
        dc.request(q, ReadOp("x"))
        dc.request(writer, WriteOp("x", 2))
        dc.commit(writer)
        assert not dc.validate(q)


class TestSchedulerIntegration:
    def _scheduler(self):
        sim = Simulator(seed=1)
        sched = LocalScheduler(
            sim, OptimisticDC(), KeyValueStore({"x": 0, "y": 0})
        )
        return sim, sched

    def test_conflicting_updates_serialize_via_restart(self):
        sim, sched = self._scheduler()
        # Two read-modify-write ETs race on x; the loser restarts and
        # re-reads, so no update is lost.
        sched.submit(UpdateET([ReadOp("x"), IncrementOp("x", 1)]))
        sched.submit(UpdateET([ReadOp("x"), IncrementOp("x", 1)]))
        sim.run()
        assert sched.drained()
        assert sched.abort_count >= 1
        assert sched.store.get("x") == 2

    def test_queries_never_force_update_restarts(self):
        sim, sched = self._scheduler()
        sched.submit(
            QueryET(
                [ReadOp("x"), ReadOp("y")], EpsilonSpec(import_limit=5)
            )
        )
        sched.submit(UpdateET([WriteOp("x", 7), WriteOp("y", 7)]))
        sim.run()
        assert sched.drained()
        statuses = [r.status for r in sched.completed]
        assert all(s == ETStatus.COMMITTED for s in statuses)

    def test_strict_query_restarts_until_consistent(self):
        sim, sched = self._scheduler()
        sched.submit(
            QueryET([ReadOp("x"), ReadOp("y")], EpsilonSpec(import_limit=0))
        )
        sched.submit(UpdateET([WriteOp("x", 7), WriteOp("y", 7)]))
        sim.run()
        assert sched.drained()
        query = [r for r in sched.completed if r.et.is_query][0]
        assert query.status == ETStatus.COMMITTED
        # After restarting past the update it reads a consistent pair.
        assert query.values in (
            {"x": 0, "y": 0}, {"x": 7, "y": 7},
        )
