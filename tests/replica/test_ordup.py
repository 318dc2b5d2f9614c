"""Tests for ORDUP (ordered updates) replica control."""

import pytest

from repro.core.operations import IncrementOp, MultiplyOp, ReadOp, WriteOp
from repro.core.transactions import (
    EpsilonSpec,
    QueryET,
    UNLIMITED,
    UpdateET,
    reset_tid_counter,
)
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import OrderedUpdates
from repro.sim.network import UniformLatency


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


def _system(n=3, seed=1, ordering="central", **cfg):
    config = SystemConfig(
        n_sites=n, seed=seed,
        initial=(("x", 0), ("y", 0)),
        **cfg,
    )
    return ReplicatedSystem(OrderedUpdates(ordering=ordering), config)


class TestOrderedExecution:
    def test_non_commutative_updates_converge(self):
        """Inc then Mul at different origins: same order everywhere."""
        system = _system(latency=UniformLatency(0.5, 5.0))
        system.submit(UpdateET([IncrementOp("x", 10)]), "site1")
        system.submit(UpdateET([MultiplyOp("x", 2)]), "site2")
        system.run_to_quiescence()
        assert system.converged()
        assert system.is_one_copy_serializable()

    def test_many_conflicting_updates_converge(self):
        system = _system(n=4, latency=UniformLatency(0.2, 4.0))
        for i in range(20):
            op = IncrementOp("x", 1) if i % 2 else MultiplyOp("x", 2)
            system.submit_at(float(i), UpdateET([op]), "site%d" % (i % 4))
        system.run_to_quiescence()
        assert system.converged()
        assert system.is_one_copy_serializable()

    def test_update_commits_asynchronously(self):
        """Commit happens at ordering time, not propagation time."""
        system = _system(latency=UniformLatency(10.0, 20.0))
        system.submit(UpdateET([IncrementOp("x", 1)]), "site0")
        # The result callback fires long before replicas catch up.
        assert len(system.results) == 1
        assert system.results[0].latency < 10.0

    def test_quiescent_reports_holdback(self):
        system = _system(latency=UniformLatency(5.0, 6.0))
        system.submit(UpdateET([IncrementOp("x", 1)]), "site0")
        assert not system.method.quiescent()
        system.run_to_quiescence()
        assert system.method.quiescent()


class TestLamportOrdering:
    def test_lamport_converges_non_commutative(self):
        system = _system(
            ordering="lamport", latency=UniformLatency(0.5, 5.0)
        )
        system.submit(UpdateET([IncrementOp("x", 10)]), "site1")
        system.submit(UpdateET([MultiplyOp("x", 2)]), "site2")
        system.run_to_quiescence()
        assert system.converged()
        assert system.is_one_copy_serializable()

    def test_lamport_sets_fifo_channels(self):
        system = _system(ordering="lamport")
        assert all(q.fifo for q in system.queues.values())

    def test_central_mode_keeps_non_fifo(self):
        system = _system(ordering="central")
        assert not any(q.fifo for q in system.queues.values())

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            OrderedUpdates(ordering="magic")


class TestQueries:
    def test_strict_query_runs_in_global_order(self):
        system = _system()
        system.submit(UpdateET([IncrementOp("x", 5)]), "site0")
        system.submit(
            QueryET([ReadOp("x")], EpsilonSpec(import_limit=0)), "site0"
        )
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.inconsistency == 0
        assert query.waits >= 1  # executor-ordered atomic run

    def test_free_query_bounded_by_epsilon(self):
        system = _system(n=4, latency=UniformLatency(1.0, 3.0))
        for i in range(10):
            system.submit_at(
                float(i), UpdateET([IncrementOp("x", 1)]), "site1"
            )
        system.submit_at(
            2.0,
            QueryET(
                [ReadOp("x"), ReadOp("y"), ReadOp("x")],
                EpsilonSpec(import_limit=2),
            ),
            "site0",
        )
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.inconsistency <= 2

    def test_query_values_returned(self):
        system = _system()
        system.submit(UpdateET([WriteOp("x", 9)]), "site0")
        system.run_to_quiescence()
        system.submit(QueryET([ReadOp("x")]), "site1")
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.values == {"x": 9}

    def test_unlimited_query_never_waits(self):
        system = _system(n=4)
        for i in range(10):
            system.submit_at(
                float(i) / 2, UpdateET([IncrementOp("x", 1)]), "site1"
            )
        system.submit_at(
            1.0,
            QueryET([ReadOp("x")], EpsilonSpec(import_limit=UNLIMITED)),
            "site0",
        )
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.waits == 0


class TestOverlapBound:
    def test_error_bounded_by_overlap(self):
        system = _system(n=3, latency=UniformLatency(1.0, 4.0))
        for i in range(8):
            system.submit_at(
                float(i), UpdateET([IncrementOp("x", 1)]), "site1"
            )
        system.submit_at(1.5, QueryET([ReadOp("x"), ReadOp("y")]), "site0")
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.inconsistency <= len(query.overlap) or (
            query.inconsistency == 0
        )
