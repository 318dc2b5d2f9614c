"""Inconsistency accounting: the per-query inconsistency counter.

The paper bounds query-ET error with two bookkeeping devices:

* An **inconsistency counter** per query ET (sections 3.1 and 3.3):
  incremented each time the query observes the effect of a conflicting
  concurrent update; when it reaches the epsilon limit the query must
  fall back to serializable behavior (wait for global order / refuse
  versions newer than the VTNC).

* A **lock-counter** per object (section 3.2, COMMU): incremented while
  an update ET holds the object, decremented when the update ET ends.
  A non-zero lock-counter tells a reading query that it is importing
  that much potential inconsistency.  Sagas (section 4.2) keep the
  counter raised for the whole saga so queries see a conservative
  estimate of potential compensation.

The counter lives here; the lock-counters are
:class:`~repro.replica.base.LockCounterSiteState`, the table the
engines share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set, Tuple

from .transactions import EpsilonSpec, TransactionID, UNLIMITED

__all__ = [
    "InconsistencyCounter",
    "EpsilonExceeded",
    "COUNT_BUCKETS",
]

#: histogram buckets for per-query inconsistency counts: small
#: integers, so the common values 0-3 get a bucket each.
COUNT_BUCKETS: Tuple[float, ...] = (0, 1, 2, 3, 5, 10, 20, 50, 100)


class EpsilonExceeded(Exception):
    """Raised when admitting an access would break the epsilon spec.

    Divergence control catches this and forces the serializable path
    (block until in global order, or read only VTNC-visible versions)
    rather than failing the transaction.
    """

    def __init__(self, tid: TransactionID, counter: int, limit: float) -> None:
        super().__init__(
            "query %s inconsistency counter %d would exceed limit %s"
            % (tid, counter, limit)
        )
        self.tid = tid
        self.counter = counter
        self.limit = limit


@dataclass
class InconsistencyCounter:
    """Per-query-ET error budget tracking.

    ``charge()`` is called by divergence control each time the query is
    about to observe one unit of inconsistency (one conflicting
    concurrent update, one out-of-order read, one version newer than
    the VTNC).  It either admits the charge or raises
    :class:`EpsilonExceeded`, in which case the caller must take the
    consistent path instead.
    """

    tid: TransactionID
    spec: EpsilonSpec
    value: int = 0
    #: accumulated worst-case value drift (value-based epsilon).
    value_drift: float = 0.0
    #: tids of the updates whose effects were actually imported.
    imported: Set[TransactionID] = field(default_factory=set)

    @property
    def limit(self) -> float:
        return self.spec.import_limit

    @property
    def exhausted(self) -> bool:
        """True when no further inconsistency may be admitted."""
        return (
            self.value >= self.limit
            or self.value_drift >= self.spec.value_limit
        )

    def can_charge(self, units: int = 1, drift: float = 0.0) -> bool:
        """Would charging ``units`` (and ``drift`` value units) fit?

        ``drift=None`` (unknown delta) only fits an unlimited value
        budget.
        """
        if self.value + units > self.limit:
            return False
        if drift is None:  # unknown delta needs an unlimited budget
            return self.spec.value_limit == UNLIMITED
        return self.value_drift + drift <= self.spec.value_limit

    def charge(
        self,
        units: int = 1,
        source: Optional[TransactionID] = None,
        drift: float = 0.0,
    ) -> int:
        """Admit ``units`` of inconsistency or raise.

        Returns the new counter value.  ``source`` (when known) records
        which update ET the inconsistency came from, enabling the
        error-vs-overlap assertion in tests.  ``drift`` adds to the
        value-based budget.
        """
        if not self.can_charge(units, drift):
            raise EpsilonExceeded(self.tid, self.value + units, self.limit)
        self.value += units
        if drift is not None:
            self.value_drift += drift
        if source is not None:
            self.imported.add(source)
        return self.value
