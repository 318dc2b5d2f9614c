"""Shared runtime bookkeeping for replica control methods: a global
:class:`~repro.core.overlap.OverlapTracker` implementing the paper's
overlap definition (an update ET is "in flight" from submission until
its MSets have applied at every replica), and the completion countdowns
that tell a method when an update ET has fully propagated (overlap
bookkeeping and quiescence).  A query's inconsistency is charged by
its site's engine (:mod:`repro.replica.engine`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..core.overlap import OverlapTracker
from ..core.transactions import EpsilonTransaction, TransactionID

__all__ = ["MethodRuntime"]


class MethodRuntime:
    """Overlap and propagation accounting shared by all methods."""

    def __init__(self, n_sites: int) -> None:
        self.n_sites = n_sites
        self.tracker = OverlapTracker()
        self._remaining: Dict[TransactionID, int] = {}
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
