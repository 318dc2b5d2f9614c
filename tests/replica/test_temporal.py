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
from repro.replica.temporal import DeadlineTracker, PeriodicSubmitter
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
        assert tracker.missed() == [record]

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


class TestPeriodicSubmitter:
    def test_fires_count_times(self):
        system = _system()
        submitter = PeriodicSubmitter(
            system,
            lambda: UpdateET([IncrementOp("x", 1)]),
            "site0",
            period=2.0,
            count=5,
        )
        system.run_to_quiescence()
        assert submitter.fired == 5
        assert system.sites["site1"].store.get("x") == 5
        assert system.converged()

    def test_cancel_stops_firing(self):
        system = _system()
        submitter = PeriodicSubmitter(
            system,
            lambda: UpdateET([IncrementOp("x", 1)]),
            "site0",
            period=2.0,
            count=100,
        )
        system.sim.schedule_at(5.0, submitter.cancel)
        system.run_to_quiescence()
        assert submitter.fired == 2  # t=2 and t=4 only

    def test_rejects_bad_period(self):
        system = _system()
        with pytest.raises(ValueError):
            PeriodicSubmitter(
                system, lambda: UpdateET([IncrementOp("x", 1)]),
                "site0", period=0.0,
            )

    def test_rejects_query_template(self):
        system = _system()
        PeriodicSubmitter(
            system, lambda: QueryET([ReadOp("x")]), "site0",
            period=1.0, count=1,
        )
        with pytest.raises(ValueError):
            system.run_to_quiescence()
