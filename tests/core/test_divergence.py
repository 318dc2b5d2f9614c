"""Unit tests for divergence control engines."""

import pytest

from repro.core.divergence import (
    Admission,
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
from repro.core.transactions import (
    EpsilonSpec,
    QueryET,
    UpdateET,
    reset_tid_counter,
)


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


class TestTwoPhaseLockingDC:
    def test_classic_blocks_query_on_write(self):
        dc = TwoPhaseLockingDC(CLASSIC_2PL)
        u = UpdateET([WriteOp("x", 1)])
        q = QueryET([ReadOp("x")])
        dc.begin(u)
        dc.begin(q)
        assert dc.request(u, WriteOp("x", 1)).granted
        decision = dc.request(q, ReadOp("x"))
        assert decision.admission is Admission.WAIT
        assert decision.blocker == u.tid

    def test_ordup_admits_query_with_charge(self):
        dc = TwoPhaseLockingDC(ORDUP_TABLE)
        u = UpdateET([WriteOp("x", 1)])
        q = QueryET([ReadOp("x")], EpsilonSpec(import_limit=2))
        dc.begin(u)
        dc.begin(q)
        dc.request(u, WriteOp("x", 1))
        decision = dc.request(q, ReadOp("x"))
        assert decision.admission is Admission.GRANT_CHARGE
        assert dc.inconsistency_of(q.tid) == 1

    def test_exhausted_query_waits(self):
        dc = TwoPhaseLockingDC(ORDUP_TABLE)
        u = UpdateET([WriteOp("x", 1)])
        q = QueryET([ReadOp("x")], EpsilonSpec(import_limit=0))
        dc.begin(u)
        dc.begin(q)
        dc.request(u, WriteOp("x", 1))
        decision = dc.request(q, ReadOp("x"))
        assert decision.admission is Admission.WAIT
        assert dc.inconsistency_of(q.tid) == 0

    def test_wait_then_proceed_after_commit(self):
        dc = TwoPhaseLockingDC(ORDUP_TABLE)
        u = UpdateET([WriteOp("x", 1)])
        q = QueryET([ReadOp("x")], EpsilonSpec(import_limit=0))
        dc.begin(u)
        dc.begin(q)
        dc.request(u, WriteOp("x", 1))
        assert dc.request(q, ReadOp("x")).admission is Admission.WAIT
        dc.commit(u)
        assert dc.request(q, ReadOp("x")).granted

    def test_same_source_not_double_charged(self):
        dc = TwoPhaseLockingDC(ORDUP_TABLE)
        u = UpdateET([WriteOp("x", 1), WriteOp("y", 1)])
        q = QueryET([ReadOp("x"), ReadOp("y")], EpsilonSpec(import_limit=1))
        dc.begin(u)
        dc.begin(q)
        dc.request(u, WriteOp("x", 1))
        dc.request(u, WriteOp("y", 1))
        assert dc.request(q, ReadOp("x")).granted
        assert dc.request(q, ReadOp("y")).granted  # same source: u
        assert dc.inconsistency_of(q.tid) == 1

    def test_commu_table_interleaves_commutative_updates(self):
        dc = TwoPhaseLockingDC(COMMU_TABLE)
        u1 = UpdateET([IncrementOp("x", 1)])
        u2 = UpdateET([IncrementOp("x", 2)])
        dc.begin(u1)
        dc.begin(u2)
        assert dc.request(u1, IncrementOp("x", 1)).granted
        assert dc.request(u2, IncrementOp("x", 2)).granted

    def test_commu_table_blocks_non_commutative(self):
        dc = TwoPhaseLockingDC(COMMU_TABLE)
        u1 = UpdateET([IncrementOp("x", 1)])
        u2 = UpdateET([MultiplyOp("x", 2)])
        dc.begin(u1)
        dc.begin(u2)
        assert dc.request(u1, IncrementOp("x", 1)).granted
        assert dc.request(u2, MultiplyOp("x", 2)).admission is Admission.WAIT


class TestBasicTimestampDC:
    def test_in_order_updates_granted(self):
        dc = BasicTimestampDC()
        u1 = UpdateET([WriteOp("x", 1)])
        u2 = UpdateET([WriteOp("x", 2)])
        dc.begin(u1, timestamp=1)
        dc.begin(u2, timestamp=2)
        assert dc.request(u1, WriteOp("x", 1)).granted
        assert dc.request(u2, WriteOp("x", 2)).granted

    def test_out_of_order_write_rejected(self):
        dc = BasicTimestampDC()
        u1 = UpdateET([WriteOp("x", 1)])
        u2 = UpdateET([WriteOp("x", 2)])
        dc.begin(u1, timestamp=5)
        dc.begin(u2, timestamp=2)
        dc.request(u1, WriteOp("x", 1))
        assert dc.request(u2, WriteOp("x", 2)).admission is Admission.REJECT

    def test_out_of_order_update_read_rejected(self):
        dc = BasicTimestampDC()
        u1 = UpdateET([WriteOp("x", 1)])
        u2 = UpdateET([ReadOp("x"), WriteOp("y", 1)])
        dc.begin(u1, timestamp=5)
        dc.begin(u2, timestamp=2)
        dc.request(u1, WriteOp("x", 1))
        assert dc.request(u2, ReadOp("x")).admission is Admission.REJECT

    def test_late_query_read_charges(self):
        dc = BasicTimestampDC()
        u = UpdateET([WriteOp("x", 1)])
        q = QueryET([ReadOp("x")], EpsilonSpec(import_limit=1))
        dc.begin(u, timestamp=5)
        dc.begin(q, timestamp=2)
        dc.request(u, WriteOp("x", 1))
        decision = dc.request(q, ReadOp("x"))
        assert decision.admission is Admission.GRANT_CHARGE
        assert dc.inconsistency_of(q.tid) == 1

    def test_exhausted_query_waits_for_order(self):
        dc = BasicTimestampDC()
        u = UpdateET([WriteOp("x", 1)])
        q = QueryET([ReadOp("x")], EpsilonSpec(import_limit=0))
        dc.begin(u, timestamp=5)
        dc.begin(q, timestamp=2)
        dc.request(u, WriteOp("x", 1))
        assert dc.request(q, ReadOp("x")).admission is Admission.WAIT

    def test_in_order_query_free(self):
        dc = BasicTimestampDC()
        u = UpdateET([WriteOp("x", 1)])
        q = QueryET([ReadOp("x")], EpsilonSpec(import_limit=0))
        dc.begin(u, timestamp=1)
        dc.begin(q, timestamp=5)
        dc.request(u, WriteOp("x", 1))
        assert dc.request(q, ReadOp("x")).admission is Admission.GRANT
