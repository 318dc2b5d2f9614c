"""Unit tests for ET lock tables and the lock manager."""

import pytest

from repro.core.locks import (
    CLASSIC_2PL,
    COMMU_TABLE,
    Compatibility,
    LockManager,
    LockMode,
    ORDUP_TABLE,
)
from repro.core.operations import (
    IncrementOp,
    MultiplyOp,
    ReadOp,
    WriteOp,
)

RU, WU, RQ = LockMode.R_U, LockMode.W_U, LockMode.R_Q


class TestPaperTables:
    """Tables 2 and 3 cell-by-cell, straight from the paper."""

    def test_table2_matches_paper(self):
        expected = {
            (RU, RU): "OK", (RU, WU): "", (RU, RQ): "OK",
            (WU, RU): "", (WU, WU): "", (WU, RQ): "OK",
            (RQ, RU): "OK", (RQ, WU): "OK", (RQ, RQ): "OK",
        }
        rows = dict(ORDUP_TABLE.rows())
        order = [RU, WU, RQ]
        for i, held in enumerate(order):
            for j, req in enumerate(order):
                assert rows[held.value][j] == expected[(held, req)], (
                    "Table 2 cell (%s, %s)" % (held, req)
                )

    def test_table3_matches_paper(self):
        expected = {
            (RU, RU): "OK", (RU, WU): "Comm", (RU, RQ): "OK",
            (WU, RU): "Comm", (WU, WU): "Comm", (WU, RQ): "OK",
            (RQ, RU): "OK", (RQ, WU): "OK", (RQ, RQ): "OK",
        }
        rows = dict(COMMU_TABLE.rows())
        order = [RU, WU, RQ]
        for i, held in enumerate(order):
            for j, req in enumerate(order):
                assert rows[held.value][j] == expected[(held, req)], (
                    "Table 3 cell (%s, %s)" % (held, req)
                )

    def test_classic_table_blocks_queries_on_writes(self):
        ok, _ = CLASSIC_2PL.compatible(
            WU, WriteOp("x", 1), RQ, ReadOp("x")
        )
        assert not ok

    def test_ordup_grants_query_over_write_with_charge(self):
        ok, charge = ORDUP_TABLE.compatible(
            WU, WriteOp("x", 1), RQ, ReadOp("x")
        )
        assert ok and charge

    def test_commu_comm_entry_resolves_by_operations(self):
        ok, _ = COMMU_TABLE.compatible(
            WU, IncrementOp("x", 1), WU, IncrementOp("x", 2)
        )
        assert ok
        ok, _ = COMMU_TABLE.compatible(
            WU, IncrementOp("x", 1), WU, MultiplyOp("x", 2)
        )
        assert not ok


class TestLockManager:
    def test_compatible_grants_coexist(self):
        lm = LockManager(CLASSIC_2PL)
        assert lm.try_acquire(1, "x", RU, ReadOp("x"))
        assert lm.try_acquire(2, "x", RU, ReadOp("x"))

    def test_conflicting_request_denied(self):
        lm = LockManager(CLASSIC_2PL)
        lm.try_acquire(1, "x", WU, WriteOp("x", 1))
        assert lm.try_acquire(2, "x", WU, WriteOp("x", 2)) is None

    def test_reentrant_same_mode(self):
        lm = LockManager(CLASSIC_2PL)
        first = lm.try_acquire(1, "x", WU, WriteOp("x", 1))
        again = lm.try_acquire(1, "x", WU, WriteOp("x", 1))
        assert first is again

    def test_write_subsumes_read(self):
        lm = LockManager(CLASSIC_2PL)
        lm.try_acquire(1, "x", WU, WriteOp("x", 1))
        assert lm.try_acquire(1, "x", RU, ReadOp("x")) is not None

    def test_charged_against_collects_all_writers(self):
        lm = LockManager(COMMU_TABLE)
        lm.try_acquire(1, "x", WU, IncrementOp("x", 1))
        lm.try_acquire(2, "x", WU, IncrementOp("x", 2))
        grant = lm.try_acquire(3, "x", RQ, ReadOp("x"))
        assert grant.charged_against == {1, 2}

    def test_holders_of(self):
        lm = LockManager(CLASSIC_2PL)
        lm.try_acquire(1, "x", WU, WriteOp("x", 1))
        assert [g.tid for g in lm.holders_of("x")] == [1]

    def test_release_lets_a_refused_request_through(self):
        lm = LockManager(CLASSIC_2PL)
        lm.try_acquire(1, "x", WU, WriteOp("x", 1))
        assert lm.try_acquire(2, "x", WU, WriteOp("x", 2)) is None
        lm.release_all(1)
        assert lm.holders_of("x") == []
        assert lm.try_acquire(2, "x", WU, WriteOp("x", 2)) is not None
