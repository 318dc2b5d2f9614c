"""Temporal ET services: deadlines and periodic application (§5.1).

The paper maps Wiederhold and Qian's identity-connection update classes
onto ETs:

* *immediate updates* — "ETs with no divergence" (epsilon 0 / the
  synchronous baselines; nothing to add),
* *deferred updates* — "ETs with deadlines": the update may propagate
  asynchronously but must be applied at every replica by a deadline,
* *independent updates* — "ETs applied periodically": a recurring
  refresh transaction,
* *potentially inconsistent updates* — "ETs with backward replica
  control" (COMPE; already implemented).

This module supplies the deferred-update service as a thin layer over
any replica control method:

* :class:`DeadlineTracker` wraps update submission, records whether
  full propagation beat the deadline, and can optionally *escalate* —
  kick the stable queues when the deadline arrives and the update has
  not fully propagated (deferred updates get priority treatment at
  their deadline).

Independent updates ("ETs applied periodically") are left to the
application: a recurring submission of an update ET.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..core.transactions import EpsilonTransaction, ETResult, TransactionID
from .base import ReplicatedSystem

__all__ = ["DeadlineTracker", "DeadlineRecord"]


@dataclass
class DeadlineRecord:
    """Propagation-deadline bookkeeping for one update ET."""

    tid: TransactionID
    deadline: float
    submitted_at: float
    propagated_at: Optional[float] = None
    escalated: bool = False

    @property
    def met(self) -> Optional[bool]:
        """True/False once propagation completed; None while pending."""
        if self.propagated_at is None:
            return None
        return self.propagated_at <= self.deadline


class DeadlineTracker:
    """Deferred updates: asynchronous propagation with a deadline."""

    def __init__(
        self, system: ReplicatedSystem, escalate: bool = True
    ) -> None:
        """``escalate=True`` kicks the stable queues at the deadline if
        the update has not fully propagated — the priority boost a
        deferred update earns when its time comes."""
        self.system = system
        self.escalate = escalate
        self.records: Dict[TransactionID, DeadlineRecord] = {}

    def submit(
        self,
        et: EpsilonTransaction,
        origin: str,
        relative_deadline: float,
        on_done: Optional[Callable[[ETResult], None]] = None,
    ) -> DeadlineRecord:
        """Submit an update ET that should propagate within the deadline."""
        if not et.is_update:
            raise ValueError("deadlines apply to update ETs")
        if relative_deadline <= 0:
            raise ValueError("relative_deadline must be positive")
        now = self.system.sim.now
        record = DeadlineRecord(
            et.tid, now + relative_deadline, now
        )
        self.records[et.tid] = record

        runtime = getattr(self.system.method, "runtime", None)
        if runtime is not None:
            runtime.when_update_complete(
                et.tid, lambda: self._propagated(record)
            )
        self.system.submit(et, origin, on_done)
        if runtime is None:
            # Synchronous methods propagate within the commit itself.
            self._propagated(record)
        if self.escalate:
            self.system.sim.schedule_at(
                record.deadline, lambda: self._escalate(record)
            )
        return record

    def _propagated(self, record: DeadlineRecord) -> None:
        if record.propagated_at is None:
            record.propagated_at = self.system.sim.now

    def _escalate(self, record: DeadlineRecord) -> None:
        if record.propagated_at is not None:
            return
        record.escalated = True
        self.system.kick_queues()

    # -- reporting -----------------------------------------------------------

    def met_fraction(self) -> float:
        """Fraction of decided deadlines that were met."""
        decided = [r for r in self.records.values() if r.met is not None]
        if not decided:
            return 1.0
        return sum(1 for r in decided if r.met) / len(decided)
