"""Targeted robustness scenarios beyond the randomized storms.

Each test pins one specific, interesting failure interaction the
randomized tests might only rarely hit.
"""

import pytest

from repro.core.operations import IncrementOp, ReadOp, WriteOp
from repro.core.transactions import (
    EpsilonSpec,
    ETStatus,
    QueryET,
    UpdateET,
    reset_tid_counter,
)
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.coherency import QuorumConsensus
from repro.replica.host import CommutativeOperations
from repro.replica.host import OrderedUpdates
from repro.replica.host import ReadIndependentUpdates
from repro.sim.failures import CrashEvent, FailureInjector, PartitionEvent
from repro.sim.network import ConstantLatency, UniformLatency


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


def _injector(system):
    return FailureInjector(
        system.sim, system.network, system.sites,
        on_heal=system.kick_queues,
    )


class TestOrderServerCrash:
    """ORDUP's central order server lives at site0: crashing it stalls
    *ordering* (new updates cannot get sequence numbers) but already
    ordered updates keep propagating."""

    def test_ordering_resumes_after_server_recovery(self):
        system = ReplicatedSystem(
            OrderedUpdates(),
            SystemConfig(
                n_sites=3,
                seed=5,
                latency=ConstantLatency(1.0),
                retry_interval=2.0,
                initial=(("x", 0),),
            ),
        )
        _injector(system).schedule_crash(
            CrashEvent("site0", at=1.0, duration=10.0)
        )
        # Submitted while the server is down, from a remote site.
        system.submit_at(3.0, UpdateET([IncrementOp("x", 5)]), "site1")
        system.run_to_quiescence()
        assert system.converged()
        assert system.sites["site2"].store.get("x") == 5
        update = system.results[0]
        # The commit had to wait out the server's downtime.
        assert update.finish_time > 10.0

    def test_lamport_ordering_survives_any_single_crash(self):
        """Decentralized ordering has no single point of ordering."""
        system = ReplicatedSystem(
            OrderedUpdates(ordering="lamport"),
            SystemConfig(
                n_sites=3,
                seed=5,
                latency=ConstantLatency(1.0),
                retry_interval=2.0,
                initial=(("x", 0),),
            ),
        )
        _injector(system).schedule_crash(
            CrashEvent("site0", at=1.0, duration=15.0)
        )
        system.submit_at(3.0, UpdateET([IncrementOp("x", 5)]), "site1")
        # Lamport mode commits immediately (local stamp).
        system.run(until=4.0)
        assert len(system.results) == 1
        assert system.results[0].latency == 0.0
        system.run_to_quiescence()
        assert system.converged()


class TestOriginCrashAfterCommit:
    """Forward methods: once committed (MSets durably queued), an
    origin crash must not lose the update — stable queues resume."""

    @pytest.mark.parametrize("factory,op", [
        (CommutativeOperations, IncrementOp("x", 5)),
        (ReadIndependentUpdates, WriteOp("x", 5)),
    ])
    def test_update_survives_origin_crash(self, factory, op):
        system = ReplicatedSystem(
            factory(),
            SystemConfig(
                n_sites=3,
                seed=7,
                latency=ConstantLatency(4.0),
                retry_interval=2.0,
                initial=(("x", 0),),
            ),
        )
        system.submit(UpdateET([op]), "site0")
        # Crash the origin before its MSets could possibly arrive.
        _injector(system).schedule_crash(
            CrashEvent("site0", at=0.5, duration=20.0)
        )
        system.run_to_quiescence()
        assert system.converged()
        assert system.sites["site2"].store.get("x") == 5


class TestQuorumMinorityCrash:
    def test_writes_proceed_with_minority_down(self):
        system = ReplicatedSystem(
            QuorumConsensus(),
            SystemConfig(
                n_sites=5,
                seed=9,
                latency=ConstantLatency(1.0),
                retry_interval=2.0,
                initial=(("x", 0),),
            ),
        )
        # Two of five replicas crash for a long stretch.
        injector = _injector(system)
        injector.schedule_crash(CrashEvent("site3", at=0.0, duration=50.0))
        injector.schedule_crash(CrashEvent("site4", at=0.0, duration=50.0))
        system.submit_at(1.0, UpdateET([WriteOp("x", 9)]), "site0")
        system.run(until=20.0)
        # Write quorum (3 of 5) is intact: the update commits while the
        # minority is still down.
        assert len(system.results) == 1
        assert system.results[0].status == ETStatus.COMMITTED
        assert system.results[0].finish_time < 20.0
        system.run_to_quiescence()
        assert system.converged()


class TestQueryDuringCrash:
    def test_query_at_crashing_site_aborts(self):
        system = ReplicatedSystem(
            CommutativeOperations(),
            SystemConfig(
                n_sites=2,
                seed=11,
                latency=ConstantLatency(1.0),
                initial=(("x", 0), ("y", 0)),
            ),
        )
        # A 3-read query (1.5 time units) at a site that dies mid-way.
        system.submit(
            QueryET(
                [ReadOp("x"), ReadOp("y"), ReadOp("x")],
                EpsilonSpec(import_limit=5),
            ),
            "site1",
        )
        _injector(system).schedule_crash(
            CrashEvent("site1", at=0.7, duration=5.0)
        )
        system.run_to_quiescence()
        query = system.results[0]
        assert query.status == ETStatus.ABORTED

    def test_system_healthy_after_aborted_query(self):
        system = ReplicatedSystem(
            CommutativeOperations(),
            SystemConfig(
                n_sites=2,
                seed=11,
                latency=ConstantLatency(1.0),
                initial=(("x", 0),),
            ),
        )
        system.submit(
            QueryET([ReadOp("x"), ReadOp("x")]), "site1"
        )
        _injector(system).schedule_crash(
            CrashEvent("site1", at=0.3, duration=2.0)
        )
        system.submit_at(5.0, UpdateET([IncrementOp("x", 4)]), "site0")
        system.run_to_quiescence()
        assert system.converged()
        assert system.sites["site1"].store.get("x") == 4


class TestBackToBackPartitions:
    def test_two_partitions_with_different_cuts(self):
        system = ReplicatedSystem(
            CommutativeOperations(),
            SystemConfig(
                n_sites=4,
                seed=13,
                latency=UniformLatency(0.5, 1.5),
                retry_interval=2.0,
                initial=(("x", 0),),
            ),
        )
        injector = _injector(system)
        injector.schedule_partition(
            PartitionEvent(
                (("site0", "site1"), ("site2", "site3")), 2.0, 8.0
            )
        )
        injector.schedule_partition(
            PartitionEvent(
                (("site0", "site2"), ("site1", "site3")), 15.0, 8.0
            )
        )
        for i in range(12):
            system.submit_at(
                1.0 + i * 2.0,
                UpdateET([IncrementOp("x", 1)]),
                "site%d" % (i % 4),
            )
        system.run_to_quiescence()
        assert system.converged()
        assert system.sites["site0"].store.get("x") == 12
