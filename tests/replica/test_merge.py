"""Tests for offline partition-log merging (section 5.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.operations import (
    DecrementOp,
    IncrementOp,
    MultiplyOp,
    TimestampedWriteOp,
    WriteOp,
)
from repro.replica.merge import (
    LoggedOp,
    MergeResult,
    apply_merged,
    merge_partition_logs,
)
from repro.storage.kv import KeyValueStore


class TestCleanMerges:
    def test_commutative_logs_merge_cleanly(self):
        log_a = [LoggedOp(1, IncrementOp("x", 5))]
        log_b = [LoggedOp(2, IncrementOp("x", 3))]
        result = merge_partition_logs(log_a, log_b)
        assert not result.backed_out
        store = apply_merged(KeyValueStore({"x": 0}), result)
        assert store.get("x") == 8

    def test_disjoint_keys_merge_cleanly(self):
        log_a = [LoggedOp(1, WriteOp("x", 1))]
        log_b = [LoggedOp(2, WriteOp("y", 2))]
        result = merge_partition_logs(log_a, log_b)
        assert not result.backed_out
        store = apply_merged(KeyValueStore(), result)
        assert store.get("x") == 1 and store.get("y") == 2

    def test_timestamped_overwrites_merge_by_thomas_rule(self):
        log_a = [LoggedOp(1, TimestampedWriteOp("x", "a", (5, 0)))]
        log_b = [LoggedOp(2, TimestampedWriteOp("x", "b", (3, 1)))]
        result = merge_partition_logs(log_a, log_b)
        assert not result.backed_out
        store = apply_merged(KeyValueStore(), result)
        assert store.get("x") == "a"  # newer stamp wins either order

    def test_empty_logs(self):
        result = merge_partition_logs([], [])
        assert not result.backed_out
        assert result.schedule == []


class TestConflictsAndBackouts:
    def test_non_commuting_cross_ops_conflict(self):
        log_a = [LoggedOp(1, IncrementOp("x", 10))]
        log_b = [LoggedOp(2, MultiplyOp("x", 2))]
        result = merge_partition_logs(log_a, log_b)
        assert result.backed_out
        assert result.cross_conflicts == [(1, 2)]
        assert len(result.backed_out) == 1

    def test_backout_minimizes_victims(self):
        """One multiplier against three increments: back out the one."""
        log_a = [
            LoggedOp(1, IncrementOp("x", 1)),
            LoggedOp(2, IncrementOp("x", 2)),
            LoggedOp(3, IncrementOp("x", 3)),
        ]
        log_b = [LoggedOp(9, MultiplyOp("x", 2))]
        result = merge_partition_logs(log_a, log_b)
        assert result.backed_out == {9}
        store = apply_merged(KeyValueStore({"x": 0}), result)
        assert store.get("x") == 6

    def test_surviving_schedule_order_independent(self):
        """After backout every cross pair commutes: A-then-B equals
        B-then-A up to the commutativity of the survivors."""
        log_a = [LoggedOp(1, IncrementOp("x", 5))]
        log_b = [
            LoggedOp(2, MultiplyOp("x", 3)),
            LoggedOp(3, IncrementOp("x", 7)),
        ]
        result = merge_partition_logs(log_a, log_b)
        # The multiplier conflicts with both increments; it is the
        # single victim.
        assert result.backed_out == {2}
        store = apply_merged(KeyValueStore({"x": 0}), result)
        assert store.get("x") == 12

    def test_within_partition_conflicts_are_fine(self):
        """Each partition was internally SR; only cross pairs matter."""
        log_a = [
            LoggedOp(1, IncrementOp("x", 10)),
            LoggedOp(2, MultiplyOp("x", 2)),  # conflicts with 1, same side
        ]
        log_b = [LoggedOp(3, IncrementOp("y", 1))]
        result = merge_partition_logs(log_a, log_b)
        assert not result.backed_out
        store = apply_merged(KeyValueStore({"x": 0, "y": 0}), result)
        assert store.get("x") == 20  # A's order preserved

    def test_shared_transaction_rejected(self):
        log_a = [LoggedOp(1, IncrementOp("x", 1))]
        log_b = [LoggedOp(1, IncrementOp("x", 1))]
        with pytest.raises(ValueError):
            merge_partition_logs(log_a, log_b)

    def test_ops_examined_counts_work(self):
        log_a = [LoggedOp(1, IncrementOp("x", 1))] * 1
        log_b = [LoggedOp(2, IncrementOp("x", 1)), LoggedOp(2, IncrementOp("y", 1))]
        result = merge_partition_logs(log_a, log_b)
        assert result.ops_examined == 2


class TestMergeProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        a_ops=st.lists(
            st.tuples(
                st.sampled_from(["inc", "dec"]),
                st.sampled_from(["x", "y"]),
                st.integers(min_value=1, max_value=9),
            ),
            max_size=6,
        ),
        b_ops=st.lists(
            st.tuples(
                st.sampled_from(["inc", "dec"]),
                st.sampled_from(["x", "y"]),
                st.integers(min_value=1, max_value=9),
            ),
            max_size=6,
        ),
    )
    def test_commutative_merges_are_order_symmetric(self, a_ops, b_ops):
        def build(ops, base_tid):
            out = []
            for i, (kind, key, amount) in enumerate(ops):
                op = (
                    IncrementOp(key, amount)
                    if kind == "inc"
                    else DecrementOp(key, amount)
                )
                out.append(LoggedOp(base_tid + i, op))
            return out

        log_a = build(a_ops, 100)
        log_b = build(b_ops, 200)
        ab = merge_partition_logs(log_a, log_b)
        ba = merge_partition_logs(log_b, log_a)
        assert not ab.backed_out and not ba.backed_out
        store_ab = apply_merged(KeyValueStore({"x": 0, "y": 0}), ab)
        store_ba = apply_merged(KeyValueStore({"x": 0, "y": 0}), ba)
        assert store_ab.as_dict() == store_ba.as_dict()

    @settings(max_examples=40, deadline=None)
    @given(
        stamps_a=st.lists(
            st.integers(min_value=1, max_value=50), max_size=5,
            unique=True,
        ),
        stamps_b=st.lists(
            st.integers(min_value=51, max_value=100), max_size=5,
            unique=True,
        ),
    )
    def test_timestamped_merge_picks_global_newest(self, stamps_a, stamps_b):
        log_a = [
            LoggedOp(100 + i, TimestampedWriteOp("k", s, (s, 0)))
            for i, s in enumerate(stamps_a)
        ]
        log_b = [
            LoggedOp(200 + i, TimestampedWriteOp("k", s, (s, 1)))
            for i, s in enumerate(stamps_b)
        ]
        result = merge_partition_logs(log_a, log_b)
        assert not result.backed_out
        store = apply_merged(KeyValueStore(), result)
        all_stamps = stamps_a + stamps_b
        if all_stamps:
            assert store.get("k") == max(all_stamps)
