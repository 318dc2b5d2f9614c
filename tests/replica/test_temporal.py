"""Tests for temporal ET services: deadlines and periodic updates."""

import pytest

from repro.core.operations import IncrementOp, ReadOp
from repro.core.transactions import (
    QueryET,
    UpdateET,
    reset_tid_counter,
)
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations
from repro.replica.coherency import PrimaryCopy
from repro.replica.temporal import DeadlineTracker
from repro.sim.failures import FailureInjector, PartitionEvent
from repro.sim.network import ConstantLatency, UniformLatency


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


def _system(method=None, **cfg):
    defaults = dict(
        n_sites=3, seed=1, latency=ConstantLatency(1.0),
        initial=(("x", 0),),
    )
    defaults.update(cfg)
    return ReplicatedSystem(
        method or CommutativeOperations(), SystemConfig(**defaults)
    )


class TestDeadlineTracker:
    def test_met_deadline(self):
        system = _system()
        tracker = DeadlineTracker(system)
        record = tracker.submit(
            UpdateET([IncrementOp("x", 1)]), "site0", relative_deadline=50.0
        )
        system.run_to_quiescence()
        assert record.met is True
        assert not record.escalated
        assert tracker.met_fraction() == 1.0

    def test_missed_deadline(self):
        system = _system(latency=ConstantLatency(30.0))
        tracker = DeadlineTracker(system, escalate=False)
        record = tracker.submit(
            UpdateET([IncrementOp("x", 1)]), "site0", relative_deadline=5.0
        )
        system.run_to_quiescence()
        assert record.met is False
        assert tracker.met_fraction() == 0.0

    def test_escalation_kicks_queues(self):
        system = _system(retry_interval=500.0)
        injector = FailureInjector(
            system.sim, system.network, system.sites
        )
        injector.schedule_partition(
            PartitionEvent((("site0",), ("site1", "site2")), 0.0, 10.0)
        )
        tracker = DeadlineTracker(system, escalate=True)
        record = tracker.submit(
            UpdateET([IncrementOp("x", 1)]), "site0", relative_deadline=15.0
        )
        system.run_to_quiescence(max_time=200.0)
        # Without the escalation kick at t=15, the 500-unit retry timer
        # would have blown way past the deadline window.
        assert record.escalated
        assert record.propagated_at < 100.0
        assert system.converged()

    def test_rejects_queries_and_bad_deadlines(self):
        system = _system()
        tracker = DeadlineTracker(system)
        with pytest.raises(ValueError):
            tracker.submit(QueryET([ReadOp("x")]), "site0", 5.0)
        with pytest.raises(ValueError):
            tracker.submit(UpdateET([IncrementOp("x", 1)]), "site0", 0.0)

    def test_synchronous_method_counts_as_propagated_at_commit(self):
        system = _system(method=PrimaryCopy())
        tracker = DeadlineTracker(system)
        record = tracker.submit(
            UpdateET([IncrementOp("x", 1)]), "site0", relative_deadline=50.0
        )
        system.run_to_quiescence()
        assert record.met is True
