"""Unit tests for the versioned KV store."""

from fractions import Fraction

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
)
from repro.storage.kv import KeyNotFound, KeyValueStore


class TestBasics:
    def test_put_get(self):
        store = KeyValueStore()
        store.put("x", 5)
        assert store.get("x") == 5

    def test_missing_key_raises(self):
        with pytest.raises(KeyNotFound):
            KeyValueStore().get("x")

    def test_missing_key_default(self):
        assert KeyValueStore().get("x", 42) == 42

    def test_initial_contents(self):
        store = KeyValueStore({"a": 1, "b": 2})
        assert store.get("a") == 1 and store.get("b") == 2

    def test_contains_len_keys(self):
        store = KeyValueStore({"a": 1})
        assert len(store) == 1
        assert list(store.keys()) == ["a"]

    def test_as_dict(self):
        store = KeyValueStore({"a": 1, "b": 2})
        assert store.as_dict() == {"a": 1, "b": 2}


class TestApply:
    def test_write_op(self):
        store = KeyValueStore()
        store.apply(WriteOp("x", 9))
        assert store.get("x") == 9

    def test_increment_materializes_default(self):
        store = KeyValueStore()
        assert store.apply(IncrementOp("x", 5)) == 5

    def test_increment_with_custom_default(self):
        store = KeyValueStore()
        assert store.apply(IncrementOp("x", 5), default=100) == 105

    def test_read_does_not_modify(self):
        store = KeyValueStore({"x": 3})
        assert store.apply(ReadOp("x")) == 3
        assert store.get("x") == 3

    def test_append(self):
        store = KeyValueStore()
        store.apply(AppendOp("log", "a"), default=())
        store.apply(AppendOp("log", "b"), default=())
        assert store.get("log") == ("a", "b")


    def test_apply_many_runs_the_algebra_in_order(self):
        """The one apply loop: exact ``int``/``float`` increments and
        decrements inline, every other value and operation through its
        ``apply`` (a ``bool`` becomes an ``int``, a ``Fraction`` stays
        one, a tuple is refused); the last value is returned."""
        store = KeyValueStore(
            {"i": 1, "f": 0.5, "b": True, "q": Fraction(1, 3), "s": ("x",)}
        )
        last = store.apply_many(
            [
                IncrementOp("i", 2),
                DecrementOp("f", 0.25),
                IncrementOp("b", 1),
                DecrementOp("q", Fraction(1, 6)),
                MultiplyOp("i", 3),
                DivideOp("f", 2),
                ReadOp("i"),
                AppendOp("s", "y"),
                IncrementOp("new", 4),
                WriteOp("w", [1]),
                TimestampedWriteOp("t", 1, (2, 0)),
                TimestampedWriteOp("t", 0, (1, 0)),  # older: ignored
            ]
        )
        assert last == 1
        assert store.as_dict() == {
            "i": 9, "f": 0.125, "b": 2, "q": Fraction(1, 6), "s": ("x", "y"),
            "new": 4, "w": [1], "t": 1,
        }
        assert type(store.get("b")) is int
        assert type(store.get("q")) is Fraction
        assert store.stamp_of("t") == (2, 0)
        assert store.apply_many([ReadOp("i")]) == 9
        with pytest.raises(OperationError):
            store.apply_many([IncrementOp("s", 1)])
        assert store.get("s") == ("x", "y")


class TestThomasRule:
    def test_newer_timestamp_wins(self):
        store = KeyValueStore()
        store.apply(TimestampedWriteOp("x", 1, (1, 0)))
        store.apply(TimestampedWriteOp("x", 2, (5, 0)))
        assert store.get("x") == 2
        assert store.stamp_of("x") == (5, 0)

    def test_older_timestamp_ignored(self):
        store = KeyValueStore()
        store.apply(TimestampedWriteOp("x", 2, (5, 0)))
        store.apply(TimestampedWriteOp("x", 1, (1, 0)))
        assert store.get("x") == 2

    def test_any_order_converges(self):
        ops = [
            TimestampedWriteOp("x", i, (i, 0)) for i in (3, 1, 4, 2, 5)
        ]
        a, b = KeyValueStore(), KeyValueStore()
        for op in ops:
            a.apply(op)
        for op in reversed(ops):
            b.apply(op)
        assert a.get("x") == b.get("x") == 5


class TestSnapshots:
    def test_snapshot_restore_roundtrip(self):
        store = KeyValueStore({"a": 1})
        snap = store.snapshot()
        store.put("a", 99)
        store.put("b", 2)
        store.restore(snap)
        assert store.as_dict() == {"a": 1}

    def test_snapshot_is_deep(self):
        store = KeyValueStore({"a": [1, 2]})
        snap = store.snapshot()
        store.get("a").append(3)
        assert snap.values["a"] == [1, 2]

    def test_restore_preserves_stamps(self):
        store = KeyValueStore()
        store.apply(TimestampedWriteOp("x", 1, (7, 0)))
        snap = store.snapshot()
        store.apply(TimestampedWriteOp("x", 2, (9, 0)))
        store.restore(snap)
        assert store.stamp_of("x") == (7, 0)

    def test_restore_is_deep(self):
        store = KeyValueStore({"a": [1, 2], "b": {"c": [3]}, "t": ([4],)})
        snap = store.snapshot()
        store.restore(snap)
        store.get("a").append(3)
        store.get("b")["c"].append(4)
        store.get("t")[0].append(5)
        assert snap.values == {"a": [1, 2], "b": {"c": [3]}, "t": ([4],)}

    def test_immutable_scalars_are_shared_not_deep_copied(self, monkeypatch):
        import repro.storage.kv as kv

        calls = []
        deepcopy = kv.copy.deepcopy

        def counting(value, *args):
            calls.append(value)
            return deepcopy(value, *args)

        monkeypatch.setattr(kv.copy, "deepcopy", counting)
        values = {"i": 7, "f": 1.5, "s": "text", "b": True, "n": None}
        store = KeyValueStore(values)
        snap = store.snapshot()
        store.restore(snap)
        assert calls == []
        assert snap.values == values and store.as_dict() == values
        store.put("l", [1])
        store.snapshot()
        assert calls == [[1]]
