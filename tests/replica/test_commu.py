"""Tests for COMMU (commutative operations) replica control."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.core.operations import (
    AppendOp,
    DecrementOp,
    IncrementOp,
    MultiplyOp,
    ReadOp,
    WriteOp,
    commutes,
)
from repro.core.transactions import (
    EpsilonSpec,
    QueryET,
    UNLIMITED,
    UpdateET,
    reset_tid_counter,
)
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations, NonCommutativeError
from repro.sim.network import UniformLatency


class _CountedKey(str):
    """A key that counts how often it is compared for equality."""

    compared = 0

    def __eq__(self, other):
        _CountedKey.compared += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


def _system(n=3, seed=1, method=None, **cfg):
    config = SystemConfig(
        n_sites=n, seed=seed, initial=(("x", 0), ("y", 0)), **cfg
    )
    return ReplicatedSystem(method or CommutativeOperations(), config)


class TestRestriction:
    def test_non_commutative_et_rejected(self):
        system = _system()
        et = UpdateET([IncrementOp("x", 1), MultiplyOp("x", 2)])
        with pytest.raises(NonCommutativeError):
            system.submit(et, "site0")

    def test_non_commutative_on_different_keys_allowed(self):
        system = _system()
        et = UpdateET([IncrementOp("x", 1), MultiplyOp("y", 2)])
        system.submit(et, "site0")
        system.run_to_quiescence()
        assert system.converged()

    def test_check_commutative_static(self):
        CommutativeOperations.check_commutative(
            UpdateET([IncrementOp("x", 1), DecrementOp("x", 2)])
        )
        with pytest.raises(NonCommutativeError):
            CommutativeOperations.check_commutative(
                UpdateET([WriteOp("x", 1), WriteOp("x", 2)])
            )


    def test_the_et_check_is_the_ops_check_named_by_tid(self):
        """One validator: the live engines hand it bare operations, the
        simulator an ET — same exception, the message naming the ET."""
        ops = [IncrementOp("x", 1), MultiplyOp("x", 2)]
        with pytest.raises(NonCommutativeError) as bare:
            CommutativeOperations.check_ops_commutative(ops)
        et = UpdateET(ops)
        with pytest.raises(NonCommutativeError) as named:
            CommutativeOperations.check_commutative(et)
        assert str(named.value) == str(bare.value).replace(
            "the update", "ET %s" % et.tid
        )
        with pytest.raises(NonCommutativeError, match="mixes reads"):
            CommutativeOperations.check_ops_commutative(
                [ReadOp("x"), IncrementOp("x", 1)]
            )
        CommutativeOperations.check_ops_commutative(
            (IncrementOp("x", 1), DecrementOp("x", 2), MultiplyOp("y", 2))
        )

    def test_distinct_keys_are_not_compared_pairwise(self):
        """64 operations whose one conflict is op 0 against op 63: the
        same refusal as ever; without that conflict every key is
        distinct, and one set build replaces the 2,016 key comparisons
        of an all-pairs check (each key counts its ``==`` calls)."""
        ops = [WriteOp(_CountedKey("k"), 1)]
        ops += [IncrementOp(_CountedKey("k%d" % i), 1) for i in range(1, 63)]
        ops.append(WriteOp(_CountedKey("k"), 2))
        with pytest.raises(NonCommutativeError) as refused:
            CommutativeOperations.check_ops_commutative(ops)
        assert str(refused.value) == (
            "operations %r and %r of the update do not commute"
            % (ops[0], ops[63])
        )
        _CountedKey.compared = 0
        CommutativeOperations.check_ops_commutative(ops[:63])
        assert _CountedKey.compared < len(ops)

    @given(st.lists(
        st.tuples(
            st.sampled_from([IncrementOp, MultiplyOp, WriteOp, AppendOp]),
            st.sampled_from("abc"),
            st.integers(1, 2),
        ),
        max_size=8,
    ))
    def test_the_refusal_names_the_first_pair_of_all_pairs(self, drawn):
        """The pair an all-pairs check in ``itertools.combinations``
        order refuses first is the pair refused, or none is."""
        ops = [kind(key, arg) for kind, key, arg in drawn]
        expected = next(
            (
                "operations %r and %r of the update do not commute" % (a, b)
                for a, b in itertools.combinations(ops, 2)
                if not commutes(a, b)
            ),
            None,
        )
        try:
            CommutativeOperations.check_ops_commutative(ops)
        except NonCommutativeError as exc:
            assert str(exc) == expected
        else:
            assert expected is None


class TestAsynchrony:
    def test_update_commits_immediately(self):
        system = _system(latency=UniformLatency(50.0, 60.0))
        system.submit(UpdateET([IncrementOp("x", 1)]), "site0")
        assert len(system.results) == 1
        assert system.results[0].latency == 0.0

    def test_out_of_order_application_converges(self):
        system = _system(n=4, latency=UniformLatency(0.1, 10.0))
        for i in range(15):
            system.submit_at(
                float(i) * 0.3,
                UpdateET([IncrementOp("x", i + 1)]),
                "site%d" % (i % 4),
            )
        system.run_to_quiescence()
        assert system.converged()
        assert system.sites["site0"].store.get("x") == sum(range(1, 16))

    def test_append_workload_converges_as_multiset(self):
        system = _system(n=3, latency=UniformLatency(0.5, 5.0))
        for i in range(6):
            system.submit_at(
                float(i) * 0.2,
                UpdateET([AppendOp("log", "item%d" % i)]),
                "site%d" % (i % 3),
            )
        system.run_to_quiescence()
        assert system.converged()
        logs = [
            sorted(site.store.get("log")) for site in system.sites.values()
        ]
        assert all(log == logs[0] for log in logs)


class TestLockCounters:
    def test_query_charged_by_in_flight_updates(self):
        system = _system(latency=UniformLatency(4.0, 6.0))
        system.submit(UpdateET([IncrementOp("x", 1)]), "site0")
        system.submit(
            QueryET([ReadOp("x")], EpsilonSpec(import_limit=5)), "site0"
        )
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.inconsistency >= 1

    def test_strict_query_zero_error(self):
        system = _system(n=3, latency=UniformLatency(1.0, 3.0))
        for i in range(6):
            system.submit_at(
                float(i), UpdateET([IncrementOp("x", 1)]), "site1"
            )
        system.submit_at(
            2.0, QueryET([ReadOp("x")], EpsilonSpec(import_limit=0)), "site0"
        )
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.inconsistency == 0

    def test_epsilon_respected(self):
        system = _system(n=4, latency=UniformLatency(1.0, 5.0))
        for i in range(12):
            system.submit_at(
                float(i) * 0.4, UpdateET([IncrementOp("x", 1)]), "site1"
            )
        system.submit_at(
            1.0,
            QueryET(
                [ReadOp("x"), ReadOp("y"), ReadOp("x")],
                EpsilonSpec(import_limit=2),
            ),
            "site0",
        )
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.inconsistency <= 2


class TestUpdateThrottling:
    def test_throttled_update_waits_for_drain(self):
        method = CommutativeOperations(update_limit=1)
        system = _system(
            method=method, latency=UniformLatency(5.0, 8.0)
        )
        system.submit(UpdateET([IncrementOp("x", 1)]), "site0")
        # Second update on the hot key must queue behind the first.
        system.submit(UpdateET([IncrementOp("x", 1)]), "site0")
        assert len(system.results) == 1  # second is throttled
        system.run_to_quiescence()
        assert len(system.results) == 2
        assert system.converged()
        assert system.sites["site1"].store.get("x") == 2

    def test_a_throttled_update_is_timed_from_its_submission(self):
        """Its latency includes the wait: the second update on the hot
        key launches only once the first has applied everywhere."""
        method = CommutativeOperations(update_limit=1)
        system = _system(method=method, latency=UniformLatency(5.0, 8.0))
        first, second = (UpdateET([IncrementOp("x", 1)]) for _ in range(2))
        system.submit(first, "site0")
        system.submit(second, "site0")
        launched = []
        method.runtime.when_update_complete(
            first.tid, lambda: launched.append(system.sim.now)
        )
        system.run_to_quiescence()
        result = next(r for r in system.results if r.et is second)
        assert result.start_time == 0.0
        assert result.latency >= launched[0] >= 5.0

    def test_the_limit_holds_when_several_updates_wait(self):
        """Released one at a time: each waiting update's check sees the
        counter the one launched before it raised."""
        method = CommutativeOperations(update_limit=1)
        system = _system(method=method, latency=UniformLatency(5.0, 8.0))
        ets = [UpdateET([IncrementOp("x", 1)]) for _ in range(3)]
        completed = {}
        for et in ets:
            system.submit(et, "site0")
            method.runtime.when_update_complete(
                et.tid,
                lambda tid=et.tid: completed.setdefault(tid, system.sim.now),
            )
        system.run_to_quiescence()
        launched = {r.et.tid: r.finish_time for r in system.results}
        assert launched[ets[1].tid] >= completed[ets[0].tid]
        assert launched[ets[2].tid] >= completed[ets[1].tid]
        assert system.sites["site2"].store.get("x") == 3

    def test_unlimited_never_throttles(self):
        system = _system(latency=UniformLatency(5.0, 8.0))
        for _ in range(5):
            system.submit(UpdateET([IncrementOp("x", 1)]), "site0")
        assert len(system.results) == 5

    def test_throttling_preserves_convergence(self):
        method = CommutativeOperations(update_limit=2)
        system = _system(method=method, n=4, latency=UniformLatency(0.5, 4.0))
        for i in range(16):
            system.submit_at(
                float(i) * 0.3, UpdateET([IncrementOp("x", 1)]), "site%d" % (i % 4)
            )
        system.run_to_quiescence()
        assert system.converged()
        assert system.sites["site0"].store.get("x") == 16


class TestESRInvariants:
    def test_epsilon_serial_history(self):
        system = _system(n=3, latency=UniformLatency(0.5, 4.0))
        for i in range(10):
            system.submit_at(
                float(i) * 0.5, UpdateET([IncrementOp("x", 1)]), "site%d" % (i % 3)
            )
            system.submit_at(
                float(i) * 0.5 + 0.2, QueryET([ReadOp("x")]), "site%d" % ((i + 1) % 3)
            )
        system.run_to_quiescence()
        assert system.is_one_copy_serializable()
        assert system.converged()
