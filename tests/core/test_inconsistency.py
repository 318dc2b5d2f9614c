"""Unit tests for inconsistency counters."""

import pytest

from repro.core.inconsistency import (
    EpsilonExceeded,
    InconsistencyCounter,
)
from repro.core.transactions import EpsilonSpec, UNLIMITED


class TestInconsistencyCounter:
    def test_charge_accumulates(self):
        counter = InconsistencyCounter(1, EpsilonSpec(import_limit=3))
        assert counter.charge() == 1
        assert counter.charge() == 2
        assert counter.value == 2

    def test_charge_at_limit_raises(self):
        counter = InconsistencyCounter(1, EpsilonSpec(import_limit=1))
        counter.charge()
        with pytest.raises(EpsilonExceeded):
            counter.charge()
        assert counter.value == 1  # unchanged after refusal

    def test_zero_limit_forbids_any_charge(self):
        counter = InconsistencyCounter(1, EpsilonSpec(import_limit=0))
        with pytest.raises(EpsilonExceeded):
            counter.charge()

    def test_unlimited_never_raises(self):
        counter = InconsistencyCounter(1, EpsilonSpec())
        for _ in range(1000):
            counter.charge()
        assert counter.value == 1000

    def test_sources_tracked(self):
        counter = InconsistencyCounter(1, EpsilonSpec(import_limit=5))
        counter.charge(source=7)
        counter.charge(source=9)
        assert counter.imported == {7, 9}

    def test_can_charge_and_exhausted(self):
        counter = InconsistencyCounter(1, EpsilonSpec(import_limit=2))
        assert counter.can_charge(2)
        assert not counter.can_charge(3)
        counter.charge(2)
        assert counter.exhausted

    def test_exception_carries_details(self):
        counter = InconsistencyCounter(42, EpsilonSpec(import_limit=0))
        with pytest.raises(EpsilonExceeded) as exc:
            counter.charge()
        assert exc.value.tid == 42
        assert exc.value.limit == 0
