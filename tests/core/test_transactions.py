"""Unit tests for epsilon-transactions and their specs."""

import pytest

from repro.core.operations import IncrementOp, ReadOp, WriteOp
from repro.core.transactions import (
    EpsilonSpec,
    EpsilonTransaction,
    ETResult,
    ETStatus,
    QueryET,
    UNLIMITED,
    UpdateET,
    make_et,
    reset_tid_counter,
)


@pytest.fixture(autouse=True)
def _fresh_tids():
    reset_tid_counter()


class TestEpsilonSpec:
    def test_default_is_unlimited(self):
        spec = EpsilonSpec()
        assert spec.import_limit == UNLIMITED
        assert spec.export_limit == UNLIMITED
        assert not spec.is_strict

    def test_zero_is_strict(self):
        assert EpsilonSpec(import_limit=0).is_strict

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            EpsilonSpec(import_limit=-1)
        with pytest.raises(ValueError):
            EpsilonSpec(export_limit=-1)


class TestClassification:
    def test_reads_only_is_query(self):
        et = make_et([ReadOp("a"), ReadOp("b")])
        assert isinstance(et, QueryET)
        assert et.is_query and not et.is_update

    def test_any_write_makes_update(self):
        et = make_et([ReadOp("a"), IncrementOp("b", 1)])
        assert isinstance(et, UpdateET)
        assert et.is_update and not et.is_query

    def test_query_et_rejects_writes(self):
        with pytest.raises(ValueError):
            QueryET([WriteOp("a", 1)])

    def test_update_et_requires_a_write(self):
        with pytest.raises(ValueError):
            UpdateET([ReadOp("a")])

    def test_empty_et_rejected(self):
        with pytest.raises(ValueError):
            EpsilonTransaction(())


class TestKeySets:
    def test_read_write_sets(self):
        et = make_et([ReadOp("a"), IncrementOp("b", 1), ReadOp("c")])
        assert et.write_set == ("b",)
        assert et.keys == ("a", "b", "c")

    def test_sets_deduplicate_in_order(self):
        et = make_et([ReadOp("a"), ReadOp("a"), ReadOp("b")])
        assert et.keys == ("a", "b")

    def test_writes_and_reads_iterators(self):
        et = make_et([ReadOp("a"), IncrementOp("b", 1)])
        assert [op.key for op in et.reads()] == ["a"]
        assert [op.key for op in et.writes()] == ["b"]


class TestTids:
    def test_tids_are_unique_and_increasing(self):
        a = make_et([ReadOp("a")])
        b = make_et([ReadOp("a")])
        assert a.tid < b.tid

    def test_reset_restarts_numbering(self):
        first = make_et([ReadOp("a")]).tid
        reset_tid_counter()
        assert make_et([ReadOp("a")]).tid == first


class TestETResult:
    def test_latency(self):
        et = make_et([ReadOp("a")])
        result = ETResult(et, start_time=2.0, finish_time=5.5)
        assert result.latency == pytest.approx(3.5)

    def test_within_bound(self):
        et = make_et([ReadOp("a")], EpsilonSpec(import_limit=2))
        assert ETResult(et, inconsistency=2).within_bound
        assert not ETResult(et, inconsistency=3).within_bound

    def test_default_status_committed(self):
        et = make_et([ReadOp("a")])
        assert ETResult(et).status == ETStatus.COMMITTED
