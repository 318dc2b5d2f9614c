"""Unit tests for histories and serialization graphs."""

import pytest

from repro.core.history import Event, History, SerializationGraph
from repro.core.operations import (
    IncrementOp,
    MultiplyOp,
    ReadOp,
    WriteOp,
)
from repro.core.transactions import (
    QueryET,
    UpdateET,
    reset_tid_counter,
)


@pytest.fixture(autouse=True)
def _fresh_tids():
    reset_tid_counter()


class TestSerializationGraph:
    def test_empty_graph_is_acyclic(self):
        assert SerializationGraph().is_acyclic()

    def test_single_edge_acyclic(self):
        g = SerializationGraph()
        g.add_edge(1, 2)
        assert g.is_acyclic()

    def test_two_cycle_detected(self):
        g = SerializationGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        assert not g.is_acyclic()

    def test_long_cycle_detected(self):
        g = SerializationGraph()
        for a, b in [(1, 2), (2, 3), (3, 4), (4, 1)]:
            g.add_edge(a, b)
        assert not g.is_acyclic()

    def test_self_edges_ignored(self):
        g = SerializationGraph()
        g.add_edge(1, 1)
        assert g.is_acyclic()
        assert g.successors(1) == set()


def _history(*events):
    h = History()
    for tid, op in events:
        h.record(tid, op)
    return h


class TestHistoryBasics:
    def test_len_and_iteration(self):
        h = _history((1, ReadOp("a")), (2, WriteOp("a", 1)))
        assert len(h) == 2
        assert [ev.tid for ev in h] == [1, 2]

    def test_tids_first_appearance_order(self):
        h = _history((2, ReadOp("a")), (1, ReadOp("b")), (2, ReadOp("c")))
        assert h.tids == [2, 1]

    def test_is_serial_true_for_consecutive(self):
        h = _history(
            (1, ReadOp("a")), (1, WriteOp("a", 1)),
            (2, ReadOp("a")), (2, WriteOp("a", 2)),
        )
        assert h.is_serial()

    def test_is_serial_false_for_interleaved(self):
        h = _history(
            (1, ReadOp("a")), (2, ReadOp("a")), (1, WriteOp("a", 1)),
        )
        assert not h.is_serial()


class TestClassificationAndProjection:
    def test_classification_by_logged_ops(self):
        h = _history((1, ReadOp("a")), (2, WriteOp("a", 1)))
        assert not h.is_update_tid(1)
        assert h.update_tids() == [2]

    def test_classification_by_registered_et(self):
        # An update ET whose logged ops at this site happen to be reads
        # must still classify as an update.
        et = UpdateET([ReadOp("a"), WriteOp("b", 1)])
        h = History()
        h.register(et)
        h.record(et.tid, ReadOp("a"))
        assert h.update_tids() == [et.tid]

    def test_without_queries_removes_query_events(self):
        h = _history(
            (1, ReadOp("a")), (2, WriteOp("a", 1)), (1, ReadOp("b")),
        )
        projected = h.without_queries()
        assert [ev.tid for ev in projected] == [2]

    def test_project_keeps_registered_ets(self):
        et = UpdateET([WriteOp("a", 1)])
        h = History()
        h.record(et.tid, WriteOp("a", 1), et=et)
        sub = h.project([et.tid])
        assert sub.update_tids() == [et.tid]


class TestConflictPairs:
    def test_rw_conflict_detected(self):
        h = _history((1, ReadOp("a")), (2, WriteOp("a", 1)))
        pairs = h.conflict_pairs()
        assert len(pairs) == 1
        assert pairs[0][0].tid == 1 and pairs[0][1].tid == 2

    def test_commuting_writes_no_conflict(self):
        h = _history((1, IncrementOp("a", 1)), (2, IncrementOp("a", 2)))
        assert h.conflict_pairs() == []

    def test_non_commuting_writes_conflict(self):
        h = _history((1, IncrementOp("a", 1)), (2, MultiplyOp("a", 2)))
        assert len(h.conflict_pairs()) == 1

    def test_same_transaction_never_conflicts_with_itself(self):
        h = _history((1, WriteOp("a", 1)), (1, ReadOp("a")))
        assert h.conflict_pairs() == []

    def test_different_keys_no_conflict(self):
        h = _history((1, WriteOp("a", 1)), (2, WriteOp("b", 2)))
        assert h.conflict_pairs() == []


class TestSerializationGraphFromHistory:
    def test_acyclic_for_serial_history(self):
        h = _history(
            (1, WriteOp("a", 1)), (1, WriteOp("b", 1)),
            (2, WriteOp("a", 2)), (2, WriteOp("b", 2)),
        )
        assert h.serialization_graph().is_acyclic()

    def test_cycle_for_write_inversion(self):
        h = _history(
            (1, WriteOp("a", 1)), (2, WriteOp("a", 2)),
            (2, WriteOp("b", 2)), (1, WriteOp("b", 1)),
        )
        assert not h.serialization_graph().is_acyclic()
