"""Unit tests for online overlap tracking."""

import pytest

from repro.core.operations import IncrementOp, ReadOp
from repro.core.overlap import OverlapTracker
from repro.core.transactions import (
    QueryET,
    UpdateET,
    reset_tid_counter,
)


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


def _update(*keys):
    return UpdateET([IncrementOp(k, 1) for k in keys])


def _query(*keys):
    return QueryET([ReadOp(k) for k in keys])


class TestOverlapDefinition:
    def test_update_active_at_query_start_included(self):
        tracker = OverlapTracker()
        u = _update("a")
        tracker.update_started(u)
        q = _query("a")
        record = tracker.query_started(q)
        assert record.members == {u.tid}

    def test_update_starting_during_query_included(self):
        tracker = OverlapTracker()
        q = _query("a")
        tracker.query_started(q)
        u = _update("a")
        tracker.update_started(u)
        assert tracker.current_overlap(q.tid) == 1

    def test_finished_update_excluded(self):
        tracker = OverlapTracker()
        u = _update("a")
        tracker.update_started(u)
        tracker.update_finished(u.tid)
        q = _query("a")
        record = tracker.query_started(q)
        assert record.members == set()

    def test_disjoint_keys_excluded(self):
        tracker = OverlapTracker()
        u = _update("z")
        tracker.update_started(u)
        q = _query("a")
        record = tracker.query_started(q)
        assert record.members == set()
        u2 = _update("w")
        tracker.update_started(u2)
        assert tracker.current_overlap(q.tid) == 0

    def test_empty_overlap_means_sr(self):
        """Paper: 'If a query ET's overlap is empty, then it is SR.'"""
        tracker = OverlapTracker()
        q = _query("a")
        record = tracker.query_started(q)
        tracker.query_finished(q.tid)
        assert len(record.members) == 0


class TestLifecycle:
    def test_query_finished_returns_and_forgets_record(self):
        tracker = OverlapTracker()
        u = _update("a")
        tracker.update_started(u)
        q = _query("a")
        tracker.query_started(q)
        assert tracker.overlap_members(q.tid) == {u.tid}
        record = tracker.query_finished(q.tid)
        assert record is not None and record.members == {u.tid}
        # Nothing is kept per finished query.
        assert tracker.overlap_members(q.tid) == set()
        assert tracker.active_query_count == 0

    def test_finish_unknown_query_returns_none(self):
        assert OverlapTracker().query_finished(99) is None

    def test_active_counts(self):
        tracker = OverlapTracker()
        tracker.update_started(_update("a"))
        tracker.query_started(_query("a"))
        assert tracker.active_update_count == 1
        assert tracker.active_query_count == 1

    def test_overlap_accumulates_multiple_updates(self):
        tracker = OverlapTracker()
        q = _query("a", "b")
        tracker.query_started(q)
        u1, u2, u3 = _update("a"), _update("b"), _update("c")
        for u in (u1, u2, u3):
            tracker.update_started(u)
        assert tracker.overlap_members(q.tid) == {u1.tid, u2.tid}
