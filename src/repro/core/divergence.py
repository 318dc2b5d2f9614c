"""Divergence control engines.

Divergence control is to ESR what concurrency control is to SR (paper
section 2.1): it restricts the interleaving of ET operations so that
update ETs stay serializable while query ETs are admitted with bounded
inconsistency.  Three engines are provided, matching the mechanisms the
paper outlines:

* :class:`TwoPhaseLockingDC` — 2PL over the ET lock classes, driven by
  any of the compatibility tables (classic, Table 2/ORDUP, Table 3/
  COMMU).  Query reads granted over uncommitted update writes charge
  the query's inconsistency counter; an exhausted counter converts the
  grant into a wait, which is the paper's "allowed to proceed only when
  it is running in the global order".

* :class:`BasicTimestampDC` — basic timestamp ordering for update ETs
  (section 3.1: "each object maintains the timestamp of the latest
  access"); out-of-order update accesses are rejected, out-of-order
  query reads charge the counter and degrade to waits when exhausted.

Each engine exposes the same small interface (``begin`` / ``request`` /
``commit`` / ``abort``) so sites and tests can swap them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from .inconsistency import EpsilonExceeded, InconsistencyCounter
from .locks import (
    CompatibilityTable,
    LockManager,
    LockMode,
    LockGrant,
)
from .operations import Operation, is_write
from .transactions import EpsilonTransaction, TransactionID

__all__ = [
    "Admission",
    "Decision",
    "DivergenceControl",
    "TwoPhaseLockingDC",
    "BasicTimestampDC",
    "OptimisticDC",
]


class Admission(enum.Enum):
    """Outcome of asking divergence control to admit one operation."""

    GRANT = "grant"  #: proceed, no inconsistency imported
    GRANT_CHARGE = "grant+charge"  #: proceed, counter(s) charged
    WAIT = "wait"  #: block until the blocker finishes
    REJECT = "reject"  #: abort the transaction (timestamp order violated)


@dataclass
class Decision:
    """Admission decision plus its accounting details."""

    admission: Admission
    #: update tids whose in-flight effects the requester imported.
    charged: Set[TransactionID] = field(default_factory=set)
    #: a transaction the requester is blocked behind, when WAIT.
    blocker: Optional[TransactionID] = None

    @property
    def granted(self) -> bool:
        return self.admission in (Admission.GRANT, Admission.GRANT_CHARGE)


class DivergenceControl:
    """Common bookkeeping: one inconsistency counter per query ET."""

    def __init__(self) -> None:
        self._counters: Dict[TransactionID, InconsistencyCounter] = {}

    def begin(self, et: EpsilonTransaction) -> None:
        """Start tracking an ET (queries get an inconsistency counter)."""
        if et.is_query:
            self._counters[et.tid] = InconsistencyCounter(et.tid, et.spec)

    def inconsistency_of(self, tid: TransactionID) -> int:
        """Final/current inconsistency counter value of a query."""
        counter = self._counters.get(tid)
        return counter.value if counter else 0

    def request(self, et: EpsilonTransaction, op: Operation) -> Decision:
        raise NotImplementedError

    def commit(self, et: EpsilonTransaction) -> None:
        raise NotImplementedError

    def abort(self, et: EpsilonTransaction) -> None:
        raise NotImplementedError

    def validate(self, et: EpsilonTransaction) -> bool:
        """Commit-time validation hook (optimistic engines).

        Pessimistic engines admit operations up front and always
        validate; optimistic engines may refuse here, forcing the
        executor to abort-and-restart the ET.
        """
        return True

    def _charge_query(
        self,
        et: EpsilonTransaction,
        sources: Set[TransactionID],
    ) -> Optional[Decision]:
        """Charge a query's counter for each source, or signal WAIT.

        Returns the final decision, or ``None`` when no charge applies.
        Each distinct conflicting update charges one unit (the paper's
        'each time a query ET is found to overlap an update ET the
        inconsistency counter is incremented by 1'); an already-imported
        source is not double-charged.
        """
        counter = self._counters.get(et.tid)
        if counter is None or not sources:
            return None
        new_sources = sources - counter.imported
        if not new_sources:
            return Decision(Admission.GRANT_CHARGE, set(sources))
        try:
            for source in sorted(new_sources):
                counter.charge(1, source)
        except EpsilonExceeded:
            return Decision(
                Admission.WAIT, blocker=min(sources)
            )
        return Decision(Admission.GRANT_CHARGE, set(sources))


class TwoPhaseLockingDC(DivergenceControl):
    """2PL divergence control over a pluggable compatibility table."""

    def __init__(self, table: CompatibilityTable) -> None:
        super().__init__()
        self.locks = LockManager(table)
        self._is_query: Dict[TransactionID, bool] = {}

    def begin(self, et: EpsilonTransaction) -> None:
        super().begin(et)
        self._is_query[et.tid] = et.is_query

    def request(self, et: EpsilonTransaction, op: Operation) -> Decision:
        """Admit one operation of ``et`` under the lock table."""
        mode = self._mode_for(et, op)
        grant = self.locks.try_acquire(et.tid, op.key, mode, op)
        if grant is None:
            blocker = self._first_blocker(et.tid, op.key)
            return Decision(Admission.WAIT, blocker=blocker)
        if grant.charged_against:
            charged = self._charge_query(et, grant.charged_against)
            if charged is not None:
                if charged.admission is Admission.WAIT:
                    # Counter exhausted: the grant must be rescinded and
                    # the query forced to wait for the global order.
                    self._rescind(et.tid, grant)
                return charged
        return Decision(Admission.GRANT)

    def _rescind(self, tid: TransactionID, grant: LockGrant) -> None:
        holders = self.locks._holders.get(grant.key, [])  # noqa: SLF001
        if grant in holders:
            holders.remove(grant)
        owned = self.locks._locks_of.get(tid, [])  # noqa: SLF001
        if grant in owned:
            owned.remove(grant)

    def _mode_for(
        self, et: EpsilonTransaction, op: Operation
    ) -> LockMode:
        if is_write(op):
            return LockMode.W_U
        if self._is_query.get(et.tid, et.is_query):
            return LockMode.R_Q
        return LockMode.R_U

    def _first_blocker(
        self, tid: TransactionID, key: str
    ) -> Optional[TransactionID]:
        for grant in self.locks.holders_of(key):
            if grant.tid != tid:
                return grant.tid
        return None

    def commit(self, et: EpsilonTransaction) -> None:
        self.locks.release_all(et.tid)
        self._is_query.pop(et.tid, None)

    def abort(self, et: EpsilonTransaction) -> None:
        self.locks.release_all(et.tid)
        self._is_query.pop(et.tid, None)


@dataclass
class _ObjectTimestamps:
    read_ts: float = -1.0
    write_ts: float = -1.0
    #: tid that produced the current write timestamp (charge source).
    writer: Optional[TransactionID] = None


class BasicTimestampDC(DivergenceControl):
    """Basic timestamp ordering with ESR query relaxation.

    Update ETs carry a global order timestamp (their MSet sequence
    number under ORDUP); accesses violating timestamp order are
    rejected, producing the SRlog the paper requires of update ETs.
    Query reads that arrive "late" (the object already carries a newer
    write) are the out-of-order reads of section 3.1: they succeed but
    charge the query's inconsistency counter, until the counter is
    exhausted and the query must wait for its turn in the global order.
    """

    def __init__(self) -> None:
        super().__init__()
        self._objects: Dict[str, _ObjectTimestamps] = {}
        self._ts_of: Dict[TransactionID, float] = {}

    def begin(
        self, et: EpsilonTransaction, timestamp: Optional[float] = None
    ) -> None:
        super().begin(et)
        self._ts_of[et.tid] = float(
            timestamp if timestamp is not None else et.tid
        )

    def timestamp_of(self, tid: TransactionID) -> float:
        return self._ts_of.get(tid, float(tid))

    def request(self, et: EpsilonTransaction, op: Operation) -> Decision:
        ts = self.timestamp_of(et.tid)
        cell = self._objects.setdefault(op.key, _ObjectTimestamps())
        if is_write(op):
            if ts < cell.read_ts or ts < cell.write_ts:
                return Decision(Admission.REJECT)
            cell.write_ts = ts
            cell.writer = et.tid
            return Decision(Admission.GRANT)
        # Read path.
        if et.is_update:
            if ts < cell.write_ts:
                return Decision(Admission.REJECT)
            cell.read_ts = max(cell.read_ts, ts)
            return Decision(Admission.GRANT)
        # Query read: out-of-order observation charges the counter.
        if ts < cell.write_ts and cell.writer is not None:
            charged = self._charge_query(et, {cell.writer})
            if charged is not None:
                return charged
        cell.read_ts = max(cell.read_ts, ts)
        return Decision(Admission.GRANT)

    def commit(self, et: EpsilonTransaction) -> None:
        self._ts_of.pop(et.tid, None)

    def abort(self, et: EpsilonTransaction) -> None:
        self._ts_of.pop(et.tid, None)


class OptimisticDC(DivergenceControl):
    """Validation-based (OCC) divergence control with ESR relaxation.

    Operations are always admitted; conflicts are detected at commit
    by backward validation against the transactions that committed
    during this ET's lifetime:

    * an **update ET** whose read set intersects a concurrently
      committed update's write set fails validation and must restart —
      updates stay strictly SR, as ESR requires;
    * a **query ET** in the same situation *charges its inconsistency
      counter* instead, one unit per conflicting committed update, and
      only fails validation once its epsilon budget is exhausted —
      the optimistic realization of bounded query inconsistency.

    This completes the classical triad next to :class:`TwoPhaseLockingDC`
    (blocking) and :class:`BasicTimestampDC` (ordering).
    """

    def __init__(self) -> None:
        super().__init__()
        self._serial = 0
        #: tid -> (start serial, read keys, write keys)
        self._active: Dict[TransactionID, Tuple[int, set, set]] = {}
        #: committed update write-sets, tagged with commit serial.
        self._committed: List[Tuple[int, TransactionID, set]] = []

    def begin(self, et: EpsilonTransaction) -> None:
        super().begin(et)
        self._active[et.tid] = (self._serial, set(), set())

    def request(self, et: EpsilonTransaction, op: Operation) -> Decision:
        entry = self._active.get(et.tid)
        if entry is None:
            self.begin(et)
            entry = self._active[et.tid]
        _, reads, writes = entry
        if is_write(op):
            writes.add(op.key)
        else:
            reads.add(op.key)
        return Decision(Admission.GRANT)

    def validate(self, et: EpsilonTransaction) -> bool:
        entry = self._active.get(et.tid)
        if entry is None:
            return True
        start_serial, reads, _ = entry
        conflicting = [
            (tid, wset)
            for serial, tid, wset in self._committed
            if serial > start_serial and reads & wset
        ]
        if not conflicting:
            return True
        if et.is_update:
            return False  # updates must be SR: restart
        # Query: absorb the conflicts into the epsilon budget.
        counter = self._counters.get(et.tid)
        if counter is None:
            return False
        sources = {tid for tid, _ in conflicting}
        new_sources = sorted(sources - counter.imported)
        if not counter.can_charge(len(new_sources)):
            return False
        for source in new_sources:
            counter.charge(1, source)
        return True

    def commit(self, et: EpsilonTransaction) -> None:
        entry = self._active.pop(et.tid, None)
        if entry is not None and et.is_update:
            self._serial += 1
            self._committed.append((self._serial, et.tid, entry[2]))

    def abort(self, et: EpsilonTransaction) -> None:
        self._active.pop(et.tid, None)
