"""System audit: one call that checks every ESR guarantee.

``audit(system)`` inspects a finished (quiescent) replicated system
and verifies the paper's four pillars:

1. convergence — identical replica contents,
2. one-copy serializability of the update projection,
3. per-query epsilon bounds respected,
4. per-query error within its overlap.

Applications and tests use :meth:`AuditReport.assert_ok` as a single
tripwire; benchmarks use the report fields for their tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..core.transactions import TransactionID
from ..replica.base import ReplicatedSystem

__all__ = ["AuditReport", "audit"]


@dataclass
class AuditReport:
    """Result of auditing one quiescent replicated system."""

    converged: bool
    one_copy_serializable: bool
    #: query tids whose inconsistency exceeded their epsilon spec.
    epsilon_violations: List[TransactionID] = field(default_factory=list)
    #: query tids whose inconsistency exceeded their overlap.
    overlap_violations: List[TransactionID] = field(default_factory=list)
    queries_audited: int = 0
    updates_audited: int = 0

    @property
    def ok(self) -> bool:
        return (
            self.converged
            and self.one_copy_serializable
            and not self.epsilon_violations
            and not self.overlap_violations
        )

    def assert_ok(self) -> None:
        """Raise with a readable diagnosis when any guarantee failed."""
        if self.ok:
            return
        problems = []
        if not self.converged:
            problems.append("replicas did not converge")
        if not self.one_copy_serializable:
            problems.append("update projection is not 1SR")
        if self.epsilon_violations:
            problems.append(
                "queries over epsilon: %s" % self.epsilon_violations
            )
        if self.overlap_violations:
            problems.append(
                "queries over overlap bound: %s" % self.overlap_violations
            )
        raise AssertionError("ESR audit failed: " + "; ".join(problems))


def audit(system: ReplicatedSystem) -> AuditReport:
    """Audit a replicated system (meaningful once it is quiescent)."""
    report = AuditReport(
        converged=system.converged(),
        one_copy_serializable=system.is_one_copy_serializable(),
    )
    for result in system.results:
        if result.et.is_update:
            report.updates_audited += 1
            continue
        report.queries_audited += 1
        if not result.within_bound:
            report.epsilon_violations.append(result.et.tid)
        if result.inconsistency > len(result.overlap):
            report.overlap_violations.append(result.et.tid)
    return report
