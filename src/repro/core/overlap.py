"""Overlap tracking: the paper's bound on query-ET inconsistency.

Paper section 2.1: "We define the overlap of a query ET as the set of
all update ETs that had not finished at the first operation of the
query ET, plus all the update ETs that started during the query ET
[restricted to] update ETs that actually affect objects that the query
ET seeks to access.  The overlap is an upper bound of error on the
amount of inconsistency that a query ET may accumulate.  If a query
ET's overlap is empty, then it is SR."

:class:`OverlapTracker` is an *online* tracker sites use while ETs
run, so divergence control can consult the current overlap before
admitting each read, and the audit can check every query's error
against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from .transactions import EpsilonTransaction, TransactionID

__all__ = ["OverlapTracker", "OverlapRecord"]


@dataclass
class OverlapRecord:
    """Overlap bookkeeping for one in-flight query ET."""

    et: EpsilonTransaction
    #: Update tids concurrent with the query that touch its key set.
    members: Set[TransactionID] = field(default_factory=set)


class OverlapTracker:
    """Online overlap accounting for one site (or one logical system).

    The site notifies the tracker when update ETs begin and finish and
    when query ETs begin and finish; the tracker maintains, per active
    query, the set of conflicting concurrent updates.  This is exactly
    the quantity the paper's inconsistency counters are compared
    against, so divergence control methods read it to decide whether a
    query may proceed out of order.
    """

    def __init__(self) -> None:
        #: tid -> key set of currently active update ETs.
        self._active_updates: Dict[TransactionID, Tuple[str, ...]] = {}
        #: tid -> record of currently active query ETs.
        self._active_queries: Dict[TransactionID, OverlapRecord] = {}

    # -- update ET lifecycle -------------------------------------------

    def update_started(self, et: EpsilonTransaction) -> None:
        """Register an update ET as in-flight.

        Every active query whose key set intersects the update's keys
        gains the update in its overlap (case two of the definition:
        updates that started during the query).
        """
        keys = et.keys
        self._active_updates[et.tid] = keys
        key_set = set(keys)
        for record in self._active_queries.values():
            if key_set.intersection(record.et.keys):
                record.members.add(et.tid)

    def update_finished(self, tid: TransactionID) -> None:
        """Mark an update ET as complete (its MSet fully applied here)."""
        self._active_updates.pop(tid, None)

    # -- query ET lifecycle --------------------------------------------

    def query_started(self, et: EpsilonTransaction) -> OverlapRecord:
        """Register a query ET; seeds its overlap with active updates.

        Case one of the definition: all update ETs that had not
        finished at the query's first operation.
        """
        record = OverlapRecord(et)
        q_keys = set(et.keys)
        for utid, ukeys in self._active_updates.items():
            if q_keys.intersection(ukeys):
                record.members.add(utid)
        self._active_queries[et.tid] = record
        return record

    def query_finished(self, tid: TransactionID) -> Optional[OverlapRecord]:
        """Close out a query's overlap record and return it: a finished
        query is forgotten (its result already carries its overlap)."""
        return self._active_queries.pop(tid, None)

    # -- inspection ------------------------------------------------------

    def current_overlap(self, tid: TransactionID) -> int:
        """Current overlap size of an active query (0 if unknown)."""
        record = self._active_queries.get(tid)
        return len(record.members) if record else 0

    def overlap_members(self, tid: TransactionID) -> Set[TransactionID]:
        """Members of an active query's overlap set."""
        record = self._active_queries.get(tid)
        return set(record.members) if record else set()

    @property
    def active_update_count(self) -> int:
        return len(self._active_updates)

    @property
    def active_query_count(self) -> int:
        return len(self._active_queries)

    def queries_touching(self, keys: Tuple[str, ...]) -> Set[TransactionID]:
        """Active query tids whose key sets intersect ``keys``.

        Used by export-limit enforcement (section 3.2's update-side
        bounding): an update ET may be deferred while too many live
        queries would import its intermediate state.
        """
        key_set = set(keys)
        return {
            tid
            for tid, record in self._active_queries.items()
            if key_set.intersection(record.et.keys)
        }
