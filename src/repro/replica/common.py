"""Shared runtime bookkeeping for replica control methods.

Every method needs the same three pieces of accounting:

* a global :class:`~repro.core.overlap.OverlapTracker` implementing the
  paper's overlap definition (an update ET is "in flight" from
  submission until its MSet has been applied at every replica),
* one :class:`~repro.core.inconsistency.InconsistencyCounter` per query
  ET,
* completion countdowns so a method knows when an update ET has fully
  propagated (used both for overlap bookkeeping and for quiescence).

Methods compose a :class:`MethodRuntime` rather than inheriting, keeping
each method file focused on its own MSet delivery/processing rules.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..core.inconsistency import InconsistencyCounter
from ..core.overlap import OverlapTracker
from ..core.transactions import EpsilonTransaction, TransactionID

__all__ = ["MethodRuntime"]


class MethodRuntime:
    """Overlap + inconsistency accounting shared by all methods."""

    def __init__(self, n_sites: int) -> None:
        self.n_sites = n_sites
        self.tracker = OverlapTracker()
        self.counters: Dict[TransactionID, InconsistencyCounter] = {}
        self._remaining: Dict[TransactionID, int] = {}
        #: worst-case value drift per update (None = unknown/unbounded).
        self._update_drift: Dict[TransactionID, Optional[float]] = {}
        #: callbacks fired when a specific update ET fully propagates.
        self._on_complete: Dict[TransactionID, List[Callable[[], None]]] = {}
        #: hooks installed before the update was submitted (deadline
        #: trackers wrap submission and register first).
        self._pre_hooks: Dict[TransactionID, List[Callable[[], None]]] = {}
        #: updates that have completed propagation.
        self._completed: Set[TransactionID] = set()

    # -- update lifecycle -----------------------------------------------------

    def update_submitted(
        self, et: EpsilonTransaction, copies: Optional[int] = None
    ) -> None:
        """An update ET enters the system; ``copies`` MSets must apply."""
        self.tracker.update_started(et)
        self._remaining[et.tid] = copies if copies is not None else self.n_sites
        if et.tid in self._pre_hooks:
            self._on_complete.setdefault(et.tid, []).extend(
                self._pre_hooks.pop(et.tid)
            )
        drift: Optional[float] = 0.0
        for op in et.writes():
            delta = op.value_delta()
            if delta is None:
                drift = None
                break
            drift += delta
        self._update_drift[et.tid] = drift

    def update_applied_at_site(self, tid: TransactionID) -> bool:
        """One replica finished applying; True when fully propagated."""
        left = self._remaining.get(tid)
        if left is None:
            return True
        left -= 1
        if left <= 0:
            self._remaining.pop(tid, None)
            self._completed.add(tid)
            self.tracker.update_finished(tid)
            for hook in self._on_complete.pop(tid, ()):  # completion hooks
                hook()
            return True
        self._remaining[tid] = left
        return False

    def when_update_complete(
        self, tid: TransactionID, hook: Callable[[], None]
    ) -> None:
        """Run ``hook`` once ``tid`` has fully propagated.

        May be called before the update is submitted (the hook is
        parked and attached at submission), while it is in flight, or
        after completion (the hook fires immediately).
        """
        if tid in self._remaining:
            self._on_complete.setdefault(tid, []).append(hook)
        elif tid in self._completed:
            hook()
        else:
            self._pre_hooks.setdefault(tid, []).append(hook)

    def in_flight_updates(self) -> int:
        return len(self._remaining)

    # -- query lifecycle ----------------------------------------------------------

    def query_started(self, et: EpsilonTransaction) -> InconsistencyCounter:
        self.tracker.query_started(et)
        counter = InconsistencyCounter(et.tid, et.spec)
        self.counters[et.tid] = counter
        return counter

    def query_finished(self, et: EpsilonTransaction) -> None:
        self.tracker.query_finished(et.tid)
        self.counters.pop(et.tid, None)

    # -- charging helpers -------------------------------------------------------------

    def try_charge(
        self, tid: TransactionID, sources: Set[TransactionID]
    ) -> bool:
        """Charge a query for each *new* source; False when over budget.

        Charges are atomic across both budgets — the count limit
        (inconsistency counter) and the value limit (worst-case drift
        of the imported updates).  On False the counter is left
        untouched — the caller must take the consistent path (wait /
        ordered re-run / visible version).
        """
        counter = self.counters.get(tid)
        if counter is None:
            return True
        new_sources = sorted(sources - counter.imported)
        if not new_sources:
            return True
        total_drift: Optional[float] = 0.0
        for source in new_sources:
            delta = self._update_drift.get(source, 0.0)
            if delta is None:
                total_drift = None
                break
            total_drift += delta
        if not counter.can_charge(len(new_sources), total_drift):
            return False
        for source in new_sources:
            drift = self._update_drift.get(source, 0.0)
            counter.charge(1, source, drift=drift if drift is not None else 0.0)
        return True

    def inconsistency_of(self, tid: TransactionID) -> int:
        counter = self.counters.get(tid)
        return counter.value if counter else 0
