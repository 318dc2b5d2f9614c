"""Unit and property tests for the correctness checkers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.history import History
from repro.core.operations import (
    IncrementOp,
    MultiplyOp,
    ReadOp,
    WriteOp,
)
from repro.core.serializability import (
    is_epsilon_serial,
    is_one_copy_serializable,
    is_serial,
    is_serializable,
    is_serializable_bruteforce,
    replicas_converged,
)
from repro.core.transactions import (
    QueryET,
    UpdateET,
    reset_tid_counter,
)


@pytest.fixture(autouse=True)
def _fresh_tids():
    reset_tid_counter()


def _history(*events):
    h = History()
    for item in events:
        tid, op = item[0], item[1]
        time = item[2] if len(item) > 2 else 0.0
        h.record(tid, op, time=time)
    return h


class TestSR:
    def test_empty_history_is_sr(self):
        assert is_serializable(History())

    def test_serial_history_is_sr(self):
        h = _history(
            (1, WriteOp("a", 1)), (2, ReadOp("a")), (2, WriteOp("a", 2)),
        )
        assert is_serializable(h)

    def test_classic_non_sr_interleaving(self):
        # T1 reads a, T2 writes a and b, T1 reads b: T1 must be both
        # before and after T2.
        h = _history(
            (1, ReadOp("a")),
            (2, WriteOp("a", 2)),
            (2, WriteOp("b", 2)),
            (1, ReadOp("b")),
        )
        assert not is_serializable(h)

    def test_commutative_interleaving_is_sr(self):
        h = _history(
            (1, IncrementOp("a", 1)),
            (2, IncrementOp("a", 2)),
            (1, IncrementOp("b", 1)),
            (2, IncrementOp("b", 2)),
        )
        assert is_serializable(h)


class TestEpsilonSerial:
    def test_paper_log_one(self):
        """The worked example of section 2.1."""
        u1 = UpdateET([ReadOp("a"), WriteOp("b", 1)])
        u2 = UpdateET([WriteOp("b", 2), WriteOp("a", 2)])
        q3 = QueryET([ReadOp("a"), ReadOp("b")])
        h = History()
        for et in (u1, u2, q3):
            h.register(et)
        h.record(u1.tid, ReadOp("a"))
        h.record(u1.tid, WriteOp("b", 1))
        h.record(u2.tid, WriteOp("b", 2))
        h.record(q3.tid, ReadOp("a"))
        h.record(u2.tid, WriteOp("a", 2))
        h.record(q3.tid, ReadOp("b"))
        assert not is_serializable(h)
        assert is_epsilon_serial(h)

    def test_non_sr_updates_fail_epsilon_serial(self):
        h = _history(
            (1, WriteOp("a", 1)), (2, WriteOp("a", 2)),
            (2, WriteOp("b", 2)), (1, WriteOp("b", 1)),
        )
        assert not is_epsilon_serial(h)

    def test_query_interleaving_never_breaks_epsilon_serial(self):
        h = _history(
            (1, WriteOp("a", 1)),
            (3, ReadOp("a")),
            (2, WriteOp("a", 2)),
            (3, ReadOp("a")),
        )
        assert is_epsilon_serial(h)


class TestBruteForceOracle:
    def test_agrees_on_small_examples(self):
        sr = _history((1, WriteOp("a", 1)), (2, ReadOp("a")))
        non_sr = _history(
            (1, ReadOp("a")), (2, WriteOp("a", 2)),
            (2, WriteOp("b", 2)), (1, ReadOp("b")),
        )
        assert is_serializable_bruteforce(sr) == is_serializable(sr)
        assert is_serializable_bruteforce(non_sr) == is_serializable(non_sr)

    def test_rejects_large_histories(self):
        h = _history(*[(i, ReadOp("a")) for i in range(1, 10)])
        with pytest.raises(ValueError):
            is_serializable_bruteforce(h)

    @settings(max_examples=120, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),
            st.sampled_from(["r", "w", "i"]),
            st.sampled_from(["a", "b"]),
        ),
        min_size=1,
        max_size=8,
    ))
    def test_graph_checker_matches_bruteforce(self, script):
        """Conflict-graph SR == exhaustive permutation SR.

        Note: for conflict-equivalence both notions coincide exactly;
        this is the core soundness/completeness property test.
        """
        h = History()
        for tid, kind, key in script:
            if kind == "r":
                h.record(tid, ReadOp(key))
            elif kind == "w":
                h.record(tid, WriteOp(key, tid))
            else:
                h.record(tid, IncrementOp(key, 1))
        assert is_serializable(h) == is_serializable_bruteforce(h)


class TestReplicaChecks:
    def test_converged_when_identical(self):
        assert replicas_converged(
            {"s0": {"a": 1, "b": 2}, "s1": {"a": 1, "b": 2}}
        )

    def test_not_converged_on_value_mismatch(self):
        assert not replicas_converged(
            {"s0": {"a": 1}, "s1": {"a": 2}}
        )

    def test_not_converged_on_missing_key(self):
        assert not replicas_converged(
            {"s0": {"a": 1, "b": 2}, "s1": {"a": 1}}
        )

    def test_tuples_converge_as_multisets(self):
        assert replicas_converged(
            {"s0": {"log": ("x", "y")}, "s1": {"log": ("y", "x")}}
        )

    def test_single_site_trivially_converged(self):
        assert replicas_converged({"s0": {"a": 1}})

    def test_one_copy_sr_same_order(self):
        h0 = _history((1, WriteOp("a", 1), 0.0), (2, WriteOp("a", 2), 1.0))
        h1 = _history((1, WriteOp("a", 1), 5.0), (2, WriteOp("a", 2), 6.0))
        assert is_one_copy_serializable({"s0": h0, "s1": h1})

    def test_one_copy_sr_fails_on_opposite_orders(self):
        h0 = _history((1, WriteOp("a", 1), 0.0), (2, WriteOp("a", 2), 1.0))
        h1 = _history((2, WriteOp("a", 2), 0.0), (1, WriteOp("a", 1), 1.0))
        assert not is_one_copy_serializable({"s0": h0, "s1": h1})

    def test_one_copy_sr_tolerates_time_skew(self):
        """Replicas applying the same serial order at different times
        must pass — the regression the union-graph fix addressed."""
        h0 = _history(
            (1, MultiplyOp("a", 2), 0.0), (2, IncrementOp("a", 1), 1.0),
        )
        h1 = _history(
            (1, MultiplyOp("a", 2), 10.0), (2, IncrementOp("a", 1), 11.0),
        )
        assert is_one_copy_serializable({"s0": h0, "s1": h1})
