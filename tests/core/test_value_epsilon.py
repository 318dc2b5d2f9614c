"""Tests for value-based epsilon specs (section 5.1 extension).

Besides counting conflicting updates, a query may bound the total
worst-case *value drift* it imports — the "data value changed
asynchronously" spatial-consistency criterion the paper relates to
interdependent data management and controlled inconsistency.
"""

import pytest

from repro.core.inconsistency import EpsilonExceeded, InconsistencyCounter
from repro.core.operations import (
    AppendOp,
    DecrementOp,
    IncrementOp,
    MultiplyOp,
    ReadOp,
    WriteOp,
)
from repro.core.transactions import (
    EpsilonSpec,
    QueryET,
    UNLIMITED,
    UpdateET,
    reset_tid_counter,
)
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations
from repro.sim.network import UniformLatency


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


class TestValueDeltas:
    def test_increment_delta_is_amount(self):
        assert IncrementOp("x", 7).value_delta() == 7
        assert DecrementOp("x", 7).value_delta() == 7

    def test_multiply_delta_unknown(self):
        assert MultiplyOp("x", 2).value_delta() is None

    def test_write_delta_unknown(self):
        assert WriteOp("x", 5).value_delta() is None

    def test_read_delta_unknown(self):
        assert ReadOp("x").value_delta() is None

    def test_append_delta_is_one(self):
        assert AppendOp("x", "item").value_delta() == 1.0


class TestSpec:
    def test_value_limit_validated(self):
        with pytest.raises(ValueError):
            EpsilonSpec(value_limit=-1)

    def test_zero_value_limit_is_strict(self):
        assert EpsilonSpec(value_limit=0).is_strict

    def test_default_unlimited(self):
        assert EpsilonSpec().value_limit == UNLIMITED


class TestCounterValueBudget:
    def _counter(self, value_limit, import_limit=UNLIMITED):
        return InconsistencyCounter(
            1,
            EpsilonSpec(import_limit=import_limit, value_limit=value_limit),
        )

    def test_drift_accumulates(self):
        counter = self._counter(value_limit=100)
        counter.charge(1, source=7, drift=30.0)
        counter.charge(1, source=8, drift=40.0)
        assert counter.value_drift == pytest.approx(70.0)

    def test_drift_over_budget_raises(self):
        counter = self._counter(value_limit=50)
        counter.charge(1, source=7, drift=30.0)
        with pytest.raises(EpsilonExceeded):
            counter.charge(1, source=8, drift=40.0)
        assert counter.value_drift == pytest.approx(30.0)

    def test_unknown_drift_needs_unlimited_budget(self):
        limited = self._counter(value_limit=1000)
        assert not limited.can_charge(1, drift=None)
        unlimited = self._counter(value_limit=UNLIMITED)
        assert unlimited.can_charge(1, drift=None)

    def test_count_limit_still_enforced(self):
        counter = self._counter(value_limit=UNLIMITED, import_limit=1)
        counter.charge(1, source=7, drift=5.0)
        assert not counter.can_charge(1, drift=0.0)

    def test_exhausted_by_drift(self):
        counter = self._counter(value_limit=10)
        counter.charge(1, source=7, drift=10.0)
        assert counter.exhausted


class TestEndToEndValueBound:
    def _system(self):
        return ReplicatedSystem(
            CommutativeOperations(),
            SystemConfig(
                n_sites=3,
                seed=9,
                latency=UniformLatency(2.0, 5.0),
                initial=(("balance", 0),),
            ),
        )

    def test_query_drift_bounded(self):
        system = self._system()
        # Three concurrent deposits of 100 each.
        for i in range(3):
            system.submit_at(
                float(i) * 0.1,
                UpdateET([IncrementOp("balance", 100)]),
                "site%d" % i,
            )
        # The auditor tolerates at most 150 of drift: it may observe at
        # most one in-flight deposit.
        results = []
        system.submit_at(
            0.3,
            QueryET(
                [ReadOp("balance")],
                EpsilonSpec(value_limit=150),
            ),
            "site0",
        )
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.inconsistency <= 1

    def test_unlimited_value_budget_unchanged(self):
        system = self._system()
        for i in range(3):
            system.submit_at(
                float(i) * 0.1,
                UpdateET([IncrementOp("balance", 100)]),
                "site%d" % i,
            )
        system.submit_at(
            0.3,
            QueryET([ReadOp("balance")], EpsilonSpec()),
            "site0",
        )
        system.run_to_quiescence()
        assert system.converged()
