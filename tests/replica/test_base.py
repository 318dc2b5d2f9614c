"""Unit tests for the replica control framework (system assembly)."""

import pytest

from repro.core.operations import IncrementOp, ReadOp
from repro.core.transactions import (
    QueryET,
    UpdateET,
    reset_tid_counter,
)
from repro.replica.base import (
    ReplicatedSystem,
    SiteExecutor,
    SystemConfig,
)
from repro.replica.host import CommutativeOperations
from repro.sim.events import Simulator
from repro.sim.site import Site


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


class TestSystemConfig:
    def test_site_names(self):
        assert SystemConfig(n_sites=3).site_names() == [
            "site0", "site1", "site2",
        ]

    def test_initial_values_loaded_everywhere(self):
        system = ReplicatedSystem(
            CommutativeOperations(),
            SystemConfig(n_sites=2, initial=(("a", 7),)),
        )
        for site in system.sites.values():
            assert site.store.get("a") == 7


class TestMesh:
    def test_full_mesh_of_queues(self):
        system = ReplicatedSystem(
            CommutativeOperations(), SystemConfig(n_sites=3)
        )
        assert len(system.queues) == 6  # 3 * 2 directed channels

    def test_submit_unknown_site_raises(self):
        system = ReplicatedSystem(
            CommutativeOperations(), SystemConfig(n_sites=2)
        )
        with pytest.raises(KeyError):
            system.submit(UpdateET([IncrementOp("a", 1)]), "nowhere")

    def test_results_collected(self):
        system = ReplicatedSystem(
            CommutativeOperations(), SystemConfig(n_sites=2)
        )
        system.submit(UpdateET([IncrementOp("a", 1)]), "site0")
        system.run_to_quiescence()
        assert len(system.results) == 1

    def test_submit_at_schedules(self):
        system = ReplicatedSystem(
            CommutativeOperations(), SystemConfig(n_sites=2)
        )
        system.submit_at(5.0, UpdateET([IncrementOp("a", 1)]), "site0")
        system.run(until=1.0)
        assert not system.results
        system.run_to_quiescence()
        assert len(system.results) == 1
        assert system.results[0].start_time >= 5.0

    def test_default_site_is_first(self):
        system = ReplicatedSystem(
            CommutativeOperations(), SystemConfig(n_sites=2)
        )
        system.submit(QueryET([ReadOp("a")]))
        system.run_to_quiescence()
        assert system.results[0].site == "site0"

    def test_origin_site_respected(self):
        system = ReplicatedSystem(
            CommutativeOperations(), SystemConfig(n_sites=2)
        )
        system.submit(QueryET([ReadOp("a")], origin_site="site1"))
        system.run_to_quiescence()
        assert system.results[0].site == "site1"


class TestSiteExecutor:
    def _rig(self):
        sim = Simulator(seed=1)
        site = Site("s", sim)
        return sim, site, SiteExecutor(sim, site)

    def test_tasks_run_serially(self):
        sim, site, ex = self._rig()
        done = []
        ex.submit(1.0, lambda: done.append(sim.now))
        ex.submit(1.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [1.0, 2.0]

    def test_backlog_and_idle(self):
        sim, site, ex = self._rig()
        assert ex.idle()
        ex.submit(1.0, lambda: None)
        assert not ex.idle()
        sim.run()
        assert ex.idle()

    def test_crash_interrupts_and_recovery_restarts(self):
        sim, site, ex = self._rig()
        done = []
        ex.submit(5.0, lambda: done.append(sim.now))
        sim.schedule(2.0, site.crash)
        sim.schedule(10.0, site.recover)
        sim.run()
        # Task restarted from scratch at recovery: 10 + 5.
        assert done == [15.0]

    def test_crash_before_any_task(self):
        sim, site, ex = self._rig()
        site.crash()
        done = []
        ex.submit(1.0, lambda: done.append(1))
        sim.run()
        assert done == []
        site.recover()
        sim.run()
        assert done == [1]


class TestQuiescenceAndConvergence:
    def test_empty_system_quiesces_immediately(self):
        system = ReplicatedSystem(
            CommutativeOperations(), SystemConfig(n_sites=2)
        )
        assert system.run_to_quiescence() == 0.0
        assert system.converged()

    def test_convergence_after_updates(self):
        system = ReplicatedSystem(
            CommutativeOperations(), SystemConfig(n_sites=3, seed=2)
        )
        for i in range(5):
            system.submit(
                UpdateET([IncrementOp("a", i + 1)]), "site%d" % (i % 3)
            )
        system.run_to_quiescence()
        assert system.converged()
        assert system.sites["site0"].store.get("a") == 15
