"""Tests for update-side export limiting in COMMU (section 3.2).

"Alternatively, we can limit the update ETs in addition to query ETs"
— an update ET with a finite ``export_limit`` defers while more than
that many live queries overlap its write set.
"""

import pytest

from repro.core.operations import IncrementOp, ReadOp, WriteOp
from repro.core.transactions import (
    EpsilonSpec,
    QueryET,
    UNLIMITED,
    UpdateET,
    reset_tid_counter,
)
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations, ReadIndependentUpdates
from repro.sim.network import ConstantLatency


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


def _system():
    return ReplicatedSystem(
        CommutativeOperations(),
        SystemConfig(
            n_sites=2,
            seed=1,
            latency=ConstantLatency(1.0),
            initial=(("x", 0), ("y", 0)),
        ),
    )


class TestExportLimit:
    def test_update_defers_while_queries_active(self):
        system = _system()
        # A long query (3 reads at 0.5 each) over x.
        system.submit(
            QueryET(
                [ReadOp("x"), ReadOp("y"), ReadOp("x")],
                EpsilonSpec(import_limit=UNLIMITED),
            ),
            "site0",
        )
        # An export-0 update on x must wait for the query to finish.
        system.submit(
            UpdateET(
                [IncrementOp("x", 5)], EpsilonSpec(export_limit=0)
            ),
            "site0",
        )
        assert len(system.results) == 0  # update throttled, query running
        system.run_to_quiescence()
        update = [r for r in system.results if r.et.is_update][0]
        query = [r for r in system.results if r.et.is_query][0]
        # The update committed only after the query left the system.
        assert update.finish_time >= query.finish_time
        assert query.inconsistency == 0  # nothing was exported to it

    def test_unlimited_export_commits_immediately(self):
        system = _system()
        system.submit(QueryET([ReadOp("x")]), "site0")
        system.submit(UpdateET([IncrementOp("x", 5)]), "site0")
        update = [r for r in system.results if r.et.is_update]
        assert len(update) == 1  # committed synchronously at submit

    def test_disjoint_query_does_not_defer(self):
        system = _system()
        system.submit(QueryET([ReadOp("y"), ReadOp("y")]), "site0")
        system.submit(
            UpdateET([IncrementOp("x", 5)], EpsilonSpec(export_limit=0)),
            "site0",
        )
        update = [r for r in system.results if r.et.is_update]
        assert len(update) == 1

    def test_export_limit_one_tolerates_one_query(self):
        system = _system()
        system.submit(QueryET([ReadOp("x"), ReadOp("x")]), "site0")
        system.submit(
            UpdateET([IncrementOp("x", 5)], EpsilonSpec(export_limit=1)),
            "site0",
        )
        update = [r for r in system.results if r.et.is_update]
        assert len(update) == 1  # one exposed query is within budget

    def test_system_converges_with_export_limits(self):
        system = _system()
        for i in range(4):
            system.submit_at(
                i * 0.5, QueryET([ReadOp("x")]), "site%d" % (i % 2)
            )
            system.submit_at(
                i * 0.5 + 0.1,
                UpdateET(
                    [IncrementOp("x", 1)], EpsilonSpec(export_limit=1)
                ),
                "site%d" % (i % 2),
            )
        system.run_to_quiescence()
        assert system.converged()
        assert system.sites["site0"].store.get("x") == 4

    @pytest.mark.parametrize("versioning", ["overwrite", "multiversion"])
    def test_ritu_does_not_throttle(self, versioning):
        """The export limit is COMMU's update-side bound; a RITU update
        commits at submission whatever queries are running."""
        system = ReplicatedSystem(
            ReadIndependentUpdates(versioning),
            SystemConfig(n_sites=2, seed=1, initial=(("x", 0),)),
        )
        system.submit(QueryET([ReadOp("x"), ReadOp("x")]), "site0")
        system.submit(
            UpdateET([WriteOp("x", 5)], EpsilonSpec(export_limit=0)),
            "site0",
        )
        assert [r.et.is_update for r in system.results] == [True]
