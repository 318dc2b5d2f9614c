"""Unit tests for the operation algebra."""

import copy
import dataclasses
import pickle

import pytest

from repro.core.operations import (
    AppendOp,
    DecrementOp,
    DivideOp,
    IncrementOp,
    MultiplyOp,
    OperationError,
    ReadOp,
    TimestampedWriteOp,
    WriteOp,
    commutes,
    conflicts,
    is_read,
    is_write,
)


class TestApplication:
    def test_read_returns_value_unchanged(self):
        assert ReadOp("x").apply(42) == 42

    def test_write_overwrites(self):
        assert WriteOp("x", 7).apply(3) == 7

    def test_increment(self):
        assert IncrementOp("x", 5).apply(10) == 15

    def test_decrement(self):
        assert DecrementOp("x", 5).apply(10) == 5

    def test_multiply(self):
        assert MultiplyOp("x", 3).apply(4) == 12

    def test_divide(self):
        assert DivideOp("x", 4).apply(12) == 3

    def test_divide_by_zero_raises(self):
        with pytest.raises(OperationError):
            DivideOp("x", 0).apply(12)

    def test_arithmetic_on_non_numeric_raises(self):
        with pytest.raises(OperationError):
            IncrementOp("x", 1).apply("not a number")

    def test_arithmetic_takes_every_number_and_nothing_else(self):
        """``int``/``float`` by exact type, the rest of the numeric
        tower — ``bool`` included — through ``numbers.Number``."""
        from decimal import Decimal
        from fractions import Fraction

        assert IncrementOp("x", 2).apply(True) == 3
        assert IncrementOp("x", 2).apply(Fraction(1, 2)) == Fraction(5, 2)
        assert MultiplyOp("x", 2).apply(Decimal("1.5")) == Decimal("3.0")
        assert DecrementOp("x", 0.5).apply(1) == 0.5
        assert type(IncrementOp("x", 1).apply(1)) is int
        for bad in ("1", None, [1], (1,)):
            with pytest.raises(OperationError, match="requires a numeric"):
                IncrementOp("x", 1).apply(bad)

    def test_append_to_empty(self):
        assert AppendOp("x", "a").apply(None) == ("a",)

    def test_append_extends(self):
        assert AppendOp("x", "b").apply(("a",)) == ("a", "b")

    def test_append_to_non_tuple_raises(self):
        with pytest.raises(OperationError):
            AppendOp("x", "a").apply(5)


class TestClassification:
    def test_read_is_read(self):
        assert is_read(ReadOp("x"))
        assert not is_write(ReadOp("x"))

    def test_write_is_write(self):
        assert is_write(WriteOp("x", 1))
        assert not is_read(WriteOp("x", 1))

    def test_arithmetic_ops_are_writes(self):
        for op in (
            IncrementOp("x", 1),
            DecrementOp("x", 1),
            MultiplyOp("x", 2),
            DivideOp("x", 2),
        ):
            assert is_write(op)

    def test_blind_write_flags(self):
        assert WriteOp("x", 1).read_independent
        assert TimestampedWriteOp("x", 1, (1, 0)).read_independent
        assert not IncrementOp("x", 1).read_independent


class TestCommutativity:
    def test_different_keys_always_commute(self):
        assert commutes(WriteOp("x", 1), WriteOp("y", 2))
        assert commutes(ReadOp("x"), WriteOp("y", 2))

    def test_reads_commute(self):
        assert commutes(ReadOp("x"), ReadOp("x"))

    def test_read_write_do_not_commute(self):
        assert not commutes(ReadOp("x"), WriteOp("x", 1))

    def test_increments_commute(self):
        assert commutes(IncrementOp("x", 3), IncrementOp("x", 9))
        assert commutes(IncrementOp("x", 3), DecrementOp("x", 9))

    def test_multiplies_commute(self):
        assert commutes(MultiplyOp("x", 2), DivideOp("x", 3))

    def test_increment_multiply_do_not_commute(self):
        assert not commutes(IncrementOp("x", 10), MultiplyOp("x", 2))

    def test_appends_commute(self):
        assert commutes(AppendOp("x", 1), AppendOp("x", 2))

    def test_timestamped_writes_commute(self):
        a = TimestampedWriteOp("x", 1, (1, 0))
        b = TimestampedWriteOp("x", 2, (2, 0))
        assert commutes(a, b)

    def test_plain_writes_same_value_commute(self):
        assert commutes(WriteOp("x", 5), WriteOp("x", 5))

    def test_plain_writes_different_values_do_not(self):
        assert not commutes(WriteOp("x", 5), WriteOp("x", 6))

    def test_commutes_is_symmetric(self):
        pairs = [
            (IncrementOp("x", 1), MultiplyOp("x", 2)),
            (ReadOp("x"), IncrementOp("x", 1)),
            (TimestampedWriteOp("x", 1, (1, 0)), WriteOp("x", 2)),
            (AppendOp("x", 1), ReadOp("x")),
        ]
        for a, b in pairs:
            assert commutes(a, b) == commutes(b, a)


class TestConflicts:
    def test_no_conflict_across_keys(self):
        assert not conflicts(WriteOp("x", 1), WriteOp("y", 2))

    def test_reads_do_not_conflict(self):
        assert not conflicts(ReadOp("x"), ReadOp("x"))

    def test_read_write_conflict(self):
        assert conflicts(ReadOp("x"), IncrementOp("x", 1))

    def test_commuting_writes_do_not_conflict(self):
        assert not conflicts(IncrementOp("x", 1), IncrementOp("x", 2))

    def test_non_commuting_writes_conflict(self):
        assert conflicts(IncrementOp("x", 1), MultiplyOp("x", 2))


class TestInverses:
    def test_increment_inverse_restores(self):
        op = IncrementOp("x", 7)
        inv = op.inverse(10)
        assert inv.apply(op.apply(10)) == 10

    def test_decrement_inverse_restores(self):
        op = DecrementOp("x", 7)
        inv = op.inverse(10)
        assert inv.apply(op.apply(10)) == 10

    def test_multiply_inverse_restores(self):
        op = MultiplyOp("x", 4)
        inv = op.inverse(10)
        assert inv.apply(op.apply(10)) == 10

    def test_multiply_by_zero_inverse_uses_prior_value(self):
        op = MultiplyOp("x", 0)
        inv = op.inverse(10)
        assert inv.apply(op.apply(10)) == 10

    def test_write_inverse_restores_prior(self):
        op = WriteOp("x", 99)
        inv = op.inverse(10)
        assert inv.apply(op.apply(10)) == 10

    def test_read_has_no_inverse(self):
        assert ReadOp("x").inverse(10) is None

    def test_append_inverse_removes_item(self):
        op = AppendOp("x", "b")
        inv = op.inverse(("a",))
        assert inv.apply(op.apply(("a",))) == ("a",)

    def test_append_inverse_fails_when_item_missing(self):
        op = AppendOp("x", "b")
        inv = op.inverse(("a",))
        with pytest.raises(OperationError):
            inv.apply(("a",))

    def test_timestamped_inverse_reinstalls_prior_at_same_stamp(self):
        op = TimestampedWriteOp("x", 5, (3, 0))
        inv = op.inverse(2)
        assert isinstance(inv, TimestampedWriteOp)
        assert inv.value == 2
        assert inv.timestamp == (3, 0)


class TestThomasWriteRule:
    def test_newer_write_wins(self):
        op = TimestampedWriteOp("x", 5, (3, 0))
        assert op.apply_timestamped(((1, 0), 2)) == ((3, 0), 5)

    def test_older_write_ignored(self):
        op = TimestampedWriteOp("x", 5, (1, 0))
        assert op.apply_timestamped(((3, 0), 2)) == ((3, 0), 2)

    def test_first_write_installs(self):
        op = TimestampedWriteOp("x", 5, (1, 0))
        assert op.apply_timestamped(None) == ((1, 0), 5)

    def test_order_independence(self):
        a = TimestampedWriteOp("x", 1, (1, 0))
        b = TimestampedWriteOp("x", 2, (2, 1))
        ab = b.apply_timestamped(a.apply_timestamped(None))
        ba = a.apply_timestamped(b.apply_timestamped(None))
        assert ab == ba == ((2, 1), 2)


#: one instance of every concrete operation class, with its class
#: facts (is_read_op, is_write_op, read_independent).
VALUES = [
    (ReadOp("k"), (True, False, False)),
    (WriteOp("k", ("v", 1)), (False, True, True)),
    (IncrementOp("k", 2), (False, True, False)),
    (DecrementOp("k", 2.5), (False, True, False)),
    (MultiplyOp("k", 3), (False, True, False)),
    (DivideOp("k", 4), (False, True, False)),
    (AppendOp("k", "x"), (False, True, False)),
    (AppendOp("k", "x").inverse(()), (False, True, False)),  # _RemoveLastOp
    (TimestampedWriteOp("k", 1, (2, 0)), (False, True, True)),
]
_IDS = [type(op).__name__ for op, _ in VALUES]


@pytest.mark.parametrize("op, facts", VALUES, ids=_IDS)
class TestValueContract:
    """Operations are frozen, slotted values: each field lives in a
    slot and is stored by the class's own constructor, and the flags
    are facts of the class, not fields."""

    def test_no_instance_dict(self, op, facts):
        assert not hasattr(op, "__dict__")

    def test_mutation_is_refused(self, op, facts):
        for f in dataclasses.fields(op):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(op, f.name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(op, f.name)
        # No slot, no attribute (before Python 3.12 the generated
        # ``__setattr__`` of a slotted frozen class says so as a
        # TypeError).
        with pytest.raises((AttributeError, TypeError)):
            op.other = 1

    def test_hash_pickle_and_copy_round_trip(self, op, facts):
        for clone in (
            pickle.loads(pickle.dumps(op)), copy.copy(op), copy.deepcopy(op)
        ):
            assert type(clone) is type(op)
            assert clone == op and hash(clone) == hash(op)
            assert repr(clone) == repr(op)

    def test_constructor_takes_the_fields_by_name(self, op, facts):
        fields = {f.name: getattr(op, f.name) for f in dataclasses.fields(op)}
        assert type(op)(**fields) == op
        assert dataclasses.replace(op, key="other").key == "other"

    def test_flags_are_class_facts(self, op, facts):
        names = ("is_read_op", "is_write_op", "read_independent")
        assert not {f.name for f in dataclasses.fields(op)} & set(names)
        assert tuple(getattr(type(op), name) for name in names) == facts
        assert tuple(getattr(op, name) for name in names) == facts
        assert "is_write_op" not in repr(op)


def test_equal_fields_of_different_classes_are_different_values():
    assert IncrementOp("k", 1) != DecrementOp("k", 1)
    assert MultiplyOp("k", 2) != DivideOp("k", 2)
    assert WriteOp("k", 1) != TimestampedWriteOp("k", 1)


class TestPaperWorkedExample:
    """Section 4.1: Inc(x,10).Mul(x,2).Dec(x,10) != Mul(x,2)."""

    def test_naive_compensation_is_wrong(self):
        x = 1
        x = IncrementOp("x", 10).apply(x)
        x = MultiplyOp("x", 2).apply(x)
        x = DecrementOp("x", 10).apply(x)  # naive undo of the Inc
        assert x != MultiplyOp("x", 2).apply(1)

    def test_rollback_and_replay_is_right(self):
        x = 1
        x = IncrementOp("x", 10).apply(x)
        x = MultiplyOp("x", 2).apply(x)
        # undo the intervening Mul, undo the Inc, replay the Mul:
        x = DivideOp("x", 2).apply(x)
        x = DecrementOp("x", 10).apply(x)
        x = MultiplyOp("x", 2).apply(x)
        assert x == MultiplyOp("x", 2).apply(1)
