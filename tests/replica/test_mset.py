"""Unit tests for MSets and the shared method runtime."""

import copy
import dataclasses
import pickle

import pytest

from repro.core.operations import IncrementOp, ReadOp, WriteOp
from repro.core.transactions import (
    EpsilonSpec,
    QueryET,
    UNLIMITED,
    UpdateET,
    reset_tid_counter,
)
from repro.live.protocol import decode_mset, encode_mset
from repro.replica.common import MethodRuntime
from repro.replica.mset import MSet, MSetKind


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


class TestMSet:
    def test_keys_deduplicated_in_order(self):
        mset = MSet(
            1,
            MSetKind.UPDATE,
            (IncrementOp("b", 1), IncrementOp("a", 1), IncrementOp("b", 2)),
        )
        assert mset.keys == ("b", "a")

    def test_info_lookup(self):
        mset = MSet(1, MSetKind.VOTE, info=(("yes", True), ("n", 3)))
        assert mset.get_info("yes") is True
        assert mset.get_info("n") == 3
        assert mset.get_info("missing", "dflt") == "dflt"

    def test_frozen(self):
        mset = MSet(1)
        with pytest.raises(Exception):
            mset.tid = 2  # type: ignore[misc]

    def test_cached_keys_are_invisible_to_the_value(self):
        """``keys`` is computed once per MSet; the cache must not leak
        into equality, hash, repr, pickling or the wire encoding."""
        ops = (IncrementOp("b", 1), IncrementOp("a", 1), IncrementOp("b", 2))
        used, fresh = MSet("t1", ops=ops, origin="s"), MSet("t1", ops=ops, origin="s")
        assert used.keys is used.keys == ("b", "a")  # same tuple: cached
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert len({used, fresh}) == 1
        clone = pickle.loads(pickle.dumps(used))
        assert clone == fresh and clone.keys == ("b", "a")
        assert encode_mset(used) == encode_mset(fresh)
        assert decode_mset(encode_mset(used)) == fresh
        assert dataclasses.replace(used, ops=ops[:1]).keys == ("b",)

    def test_value_contract(self):
        """A frozen, slotted value: ``keys`` is a slot the constructor
        fills; every field refuses mutation; hash, pickle and copy
        round-trip."""
        ops = (IncrementOp("b", 1), WriteOp("a", 2))
        mset = MSet(
            "t1", MSetKind.UPDATE, ops, "s", (3, 1), 7, (("reads", ["r"]),)
        )
        assert not hasattr(mset, "__dict__")
        assert "keys" in MSet.__slots__ and mset.keys == ("b", "a")
        for f in dataclasses.fields(mset):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(mset, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(mset, f.name)
        for clone in (
            pickle.loads(pickle.dumps(mset)),
            copy.copy(mset),
            copy.deepcopy(mset),
        ):
            assert clone == mset and repr(clone) == repr(mset)
            assert clone.keys == ("b", "a")
        hashable = dataclasses.replace(mset, info=(("saga", "s1"),))
        assert hash(pickle.loads(pickle.dumps(hashable))) == hash(hashable)
        assert hash(copy.copy(hashable)) == hash(hashable)
        with pytest.raises(ValueError):  # computed, never passed
            dataclasses.replace(mset, keys=("x",))


class TestMethodRuntimeLifecycles:
    def test_update_countdown(self):
        runtime = MethodRuntime(3)
        et = UpdateET([IncrementOp("x", 1)])
        runtime.update_submitted(et)
        assert runtime.in_flight_updates() == 1
        assert not runtime.update_applied_at_site(et.tid)
        assert not runtime.update_applied_at_site(et.tid)
        assert runtime.update_applied_at_site(et.tid)  # third copy
        assert runtime.in_flight_updates() == 0

    def test_explicit_copies(self):
        runtime = MethodRuntime(3)
        et = UpdateET([IncrementOp("x", 1)])
        runtime.update_submitted(et, copies=1)
        assert runtime.update_applied_at_site(et.tid)

    def test_unknown_tid_is_complete(self):
        runtime = MethodRuntime(3)
        assert runtime.update_applied_at_site(999)

    def test_completion_hook_fires_once(self):
        runtime = MethodRuntime(2)
        et = UpdateET([IncrementOp("x", 1)])
        runtime.update_submitted(et)
        fired = []
        runtime.when_update_complete(et.tid, lambda: fired.append(1))
        runtime.update_applied_at_site(et.tid)
        assert fired == []
        runtime.update_applied_at_site(et.tid)
        assert fired == [1]

    def test_completion_hook_immediate_when_done(self):
        runtime = MethodRuntime(1)
        et = UpdateET([IncrementOp("x", 1)])
        runtime.update_submitted(et, copies=1)
        runtime.update_applied_at_site(et.tid)
        fired = []
        runtime.when_update_complete(et.tid, lambda: fired.append(1))
        assert fired == [1]

    def test_completion_hook_parked_before_submission(self):
        runtime = MethodRuntime(1)
        et = UpdateET([IncrementOp("x", 1)])
        fired = []
        # Registered before the update exists: parked, not fired.
        runtime.when_update_complete(et.tid, lambda: fired.append(1))
        assert fired == []
        runtime.update_submitted(et, copies=1)
        runtime.update_applied_at_site(et.tid)
        assert fired == [1]


class TestMethodRuntimeCharging:
    def test_try_charge_respects_limit(self):
        runtime = MethodRuntime(2)
        q = QueryET([ReadOp("x")], EpsilonSpec(import_limit=1))
        runtime.query_started(q)
        assert runtime.try_charge(q.tid, {101})
        assert not runtime.try_charge(q.tid, {102})
        assert runtime.inconsistency_of(q.tid) == 1

    def test_known_sources_free(self):
        runtime = MethodRuntime(2)
        q = QueryET([ReadOp("x")], EpsilonSpec(import_limit=1))
        runtime.query_started(q)
        assert runtime.try_charge(q.tid, {101})
        assert runtime.try_charge(q.tid, {101})  # already imported
        assert runtime.inconsistency_of(q.tid) == 1

    def test_charge_is_atomic(self):
        runtime = MethodRuntime(2)
        q = QueryET([ReadOp("x")], EpsilonSpec(import_limit=1))
        runtime.query_started(q)
        # Two new sources at once exceed the budget: nothing charged.
        assert not runtime.try_charge(q.tid, {101, 102})
        assert runtime.inconsistency_of(q.tid) == 0

    def test_non_query_always_charges_free(self):
        runtime = MethodRuntime(2)
        assert runtime.try_charge(12345, {1})

    def test_value_drift_tracked_per_update(self):
        runtime = MethodRuntime(2)
        u = UpdateET([IncrementOp("x", 30)])
        runtime.update_submitted(u)
        q = QueryET(
            [ReadOp("x")],
            EpsilonSpec(value_limit=25),
        )
        runtime.query_started(q)
        # 30 units of drift exceed a 25-unit budget.
        assert not runtime.try_charge(q.tid, {u.tid})

    def test_unknown_drift_blocks_limited_budget(self):
        runtime = MethodRuntime(2)
        u = UpdateET([WriteOp("x", 5)])  # delta unknown
        runtime.update_submitted(u)
        q = QueryET([ReadOp("x")], EpsilonSpec(value_limit=1000))
        runtime.query_started(q)
        assert not runtime.try_charge(q.tid, {u.tid})
