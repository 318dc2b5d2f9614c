"""Tests for the one-call ESR audit."""

import pytest

from repro import audit
from repro.core.operations import IncrementOp, ReadOp
from repro.core.transactions import (
    EpsilonSpec,
    ETResult,
    QueryET,
    UpdateET,
    reset_tid_counter,
)
from repro.harness.audit import AuditReport
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations
from repro.sim.network import UniformLatency


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


class TestAuditOnRealSystem:
    def test_clean_run_audits_ok(self):
        system = ReplicatedSystem(
            CommutativeOperations(),
            SystemConfig(
                n_sites=3,
                seed=4,
                latency=UniformLatency(0.5, 3.0),
                initial=(("x", 0),),
            ),
        )
        for i in range(6):
            system.submit_at(
                i * 0.5, UpdateET([IncrementOp("x", 1)]), "site%d" % (i % 3)
            )
            system.submit_at(
                i * 0.5 + 0.2,
                QueryET([ReadOp("x")], EpsilonSpec(import_limit=2)),
                "site%d" % ((i + 1) % 3),
            )
        system.run_to_quiescence()
        report = audit(system)
        assert report.ok, report.problems()
        assert report.queries_audited == 6
        assert report.updates_audited == 6


class TestAuditReportDiagnosis:
    def test_ok_report(self):
        report = AuditReport(converged=True, one_copy_serializable=True)
        assert report.ok
        assert report.problems() == []

    def test_divergence_diagnosed(self):
        report = AuditReport(converged=False, one_copy_serializable=True)
        assert report.problems() == ["replicas did not converge"]

    def test_non_sr_diagnosed(self):
        report = AuditReport(converged=True, one_copy_serializable=False)
        assert report.problems() == ["update projection is not 1SR"]

    def test_epsilon_violation_diagnosed(self):
        report = AuditReport(
            converged=True,
            one_copy_serializable=True,
            epsilon_violations=[7],
        )
        assert report.problems() == ["queries over epsilon: [7]"]

    def test_overlap_violation_diagnosed(self):
        report = AuditReport(
            converged=True,
            one_copy_serializable=True,
            overlap_violations=[9],
        )
        assert report.problems() == ["queries over overlap bound: [9]"]
