"""Operation log with undo and replay — COMPE's compensation record
(:class:`~repro.replica.engine.CompeLiveEngine`, simulator and live).

Backward replica control (paper section 4) needs each site to remember
executed MSets "until there is no risk of rollback", together with the
information required to compensate them:

* the operation itself,
* its inverse (compensation) operation, built against the value the
  object held *before* the operation ran — required for overwrites
  (section 4.2: 'to rollback RITU with overwrite we must also record
  the value being overwritten on the log').

Two rollback strategies, matching the paper's analysis in section 4.1:

* :meth:`OperationLog.compensate_directly` — legal only when every
  logged operation after the target commutes with the compensation;
  used for COMMU/RITU logs.
* :meth:`OperationLog.rollback_and_replay` — the general Time-Warp-like
  strategy: undo the suffix in reverse order, drop the target, replay
  the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Tuple

from ..core.operations import Operation, commutes
from ..core.transactions import TransactionID
from .kv import KeyValueStore

__all__ = ["LogRecord", "OperationLog", "CompensationError"]


class CompensationError(Exception):
    """Raised when a requested compensation cannot be performed."""


@dataclass
class LogRecord:
    """One executed operation with its undo information."""

    tid: TransactionID
    op: Operation
    prior_value: Any
    inverse: Optional[Operation]
    #: monotonically increasing position in this site's log.
    lsn: int = 0


class OperationLog:
    """Executed-operation log bound to one site's value store."""

    def __init__(self, store: KeyValueStore, default: Any = 0) -> None:
        self.store = store
        self._default = default
        self._records: List[LogRecord] = []
        self._next_lsn = 1

    # -- execution ---------------------------------------------------------

    def execute(self, tid: TransactionID, op: Operation) -> Any:
        """Apply ``op`` through the store, logging undo information."""
        prior = self.store.get(op.key, self._default)
        result = self.store.apply(op, default=self._default)
        self._append(tid, op, prior)
        return result

    def _append(self, tid: TransactionID, op: Operation, prior: Any) -> None:
        inverse = op.inverse(prior) if op.is_write_op else None
        record = LogRecord(tid, op, prior, inverse, self._next_lsn)
        self._records.append(record)
        self._next_lsn += 1

    def load(
        self, entries: Iterable[Tuple[TransactionID, Operation, Any]]
    ) -> None:
        """Replace the records with ``entries`` — (tid, operation, prior
        value), oldest first — without touching the store: the log as a
        checkpoint of it recorded."""
        self._records = []
        for tid, op, prior in entries:
            self._append(tid, op, prior)

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Tuple[LogRecord, ...]:
        return tuple(self._records)

    def records_of(self, tid: TransactionID) -> List[LogRecord]:
        return [r for r in self._records if r.tid == tid]

    def truncate_before(self, lsn: int) -> int:
        """Forget records older than ``lsn`` (no rollback risk remains).

        Returns the number of records dropped.  COMPE's engine calls
        this after each decision, at the :meth:`low_water_mark` of the
        updates still undecided at its site.
        """
        kept = [r for r in self._records if r.lsn >= lsn]
        dropped = len(self._records) - len(kept)
        self._records = kept
        return dropped

    def low_water_mark(self, tids: Iterable[TransactionID]) -> int:
        """Lowest LSN any of ``tids`` owns (``next_lsn`` when none do).

        Rollback-and-replay of transaction T undoes the whole suffix
        from T's first record, so records *before every possibly-
        rolled-back transaction's first record* are dead weight; this
        is the safe truncation point for :meth:`truncate_before`.
        """
        watch = set(tids)
        marks = [r.lsn for r in self._records if r.tid in watch]
        return min(marks) if marks else self._next_lsn

    # -- compensation strategies ------------------------------------------------

    def can_compensate_directly(self, tid: TransactionID) -> bool:
        """True when every later operation commutes with the undo.

        Section 4.1: 'if all the operations on an object are commutative
        then rollback of entire log is not necessary.'  We check the
        actual suffix rather than assuming method-wide commutativity, so
        mixed logs degrade safely to rollback-and-replay.
        """
        targets = self.records_of(tid)
        if not targets:
            return False
        for target in targets:
            if target.inverse is None:
                continue
            for record in self._records:
                if record.tid == tid or record.lsn <= target.lsn:
                    continue
                if not commutes(record.op, target.inverse):
                    return False
        return True

    def compensate_directly(self, tid: TransactionID) -> int:
        """Apply inverses of ``tid``'s operations in place.

        Returns the number of compensating operations applied.  Raises
        :class:`CompensationError` when direct compensation is illegal
        for this log (callers should use :meth:`rollback_and_replay`).
        """
        if not self.can_compensate_directly(tid):
            raise CompensationError(
                "log suffix does not commute with undo of %s" % tid
            )
        applied = 0
        for record in reversed(self.records_of(tid)):
            if record.inverse is None:
                continue
            self.store.apply(record.inverse, default=self._default)
            applied += 1
        self._records = [r for r in self._records if r.tid != tid]
        return applied

    def rollback_and_replay(self, tid: TransactionID) -> Tuple[int, int]:
        """General compensation: undo suffix, drop ``tid``, replay rest.

        This is the paper's worked example made executable::

            Inc(x,10) . Mul(x,2) . Div(x,2) . Dec(x,10) . Mul(x,2)
                == Mul(x,2)

        Returns ``(undone, replayed)`` operation counts — the cost
        metric benchmark E8 reports.
        """
        targets = self.records_of(tid)
        if not targets:
            raise CompensationError("transaction %s not in log" % tid)
        first_lsn = targets[0].lsn
        prefix = [r for r in self._records if r.lsn < first_lsn]
        suffix = [r for r in self._records if r.lsn >= first_lsn]

        undone = 0
        for record in reversed(suffix):
            if record.inverse is not None:
                self.store.apply(record.inverse, default=self._default)
            undone += 1

        replayed = 0
        self._records = prefix
        survivors = [r for r in suffix if r.tid != tid]
        for record in survivors:
            self.execute(record.tid, record.op)
            replayed += 1
        return undone, replayed
