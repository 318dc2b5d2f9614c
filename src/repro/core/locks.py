"""Lock manager with the paper's ET lock classes and compatibility tables.

Section 3 refines two-phase locking for epsilon-transactions by
splitting the classical R/W lock modes into three classes:

* ``R_U`` — read lock taken by an *update* ET,
* ``W_U`` — write lock taken by an *update* ET,
* ``R_Q`` — read lock taken by a *query* ET.

Three compatibility tables are provided:

* :data:`CLASSIC_2PL` — the standard table (R/R compatible, all other
  combinations conflict), the baseline the paper compares against.
* :data:`ORDUP_TABLE` — the paper's Table 2: query read locks are
  compatible with everything, update locks keep classical conflicts.
* :data:`COMMU_TABLE` — the paper's Table 3: additionally, update/update
  conflicts relax to "Comm" — compatible when the two operations
  commute.

The :class:`LockManager` grants or refuses at once (a refused ET
waits in the scheduler, whose wait timeout also breaks deadlocks), and
reports *compatibility-with-charge*: a query read that is admitted over
a concurrent update write is granted but flagged, so divergence control
can charge the query's inconsistency counter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .operations import Operation, commutes
from .transactions import TransactionID

__all__ = [
    "LockMode",
    "Compatibility",
    "CompatibilityTable",
    "CLASSIC_2PL",
    "ORDUP_TABLE",
    "COMMU_TABLE",
    "LockManager",
    "LockGrant",
]


class LockMode(enum.Enum):
    """ET lock classes (paper section 3.1)."""

    R_U = "RU"  #: read lock held by an update ET
    W_U = "WU"  #: write lock held by an update ET
    R_Q = "RQ"  #: read lock held by a query ET


class Compatibility(enum.Enum):
    """Outcome of comparing a requested lock with a held lock."""

    OK = "OK"  #: always compatible
    CONFLICT = "conflict"  #: never compatible
    COMM = "Comm"  #: compatible iff the two operations commute
    #: compatible, but the requester imports one unit of inconsistency
    #: (query read over an uncommitted update write).
    OK_WITH_CHARGE = "OK+charge"


class CompatibilityTable:
    """A named mapping (held mode, requested mode) -> compatibility."""

    def __init__(
        self,
        name: str,
        entries: Dict[Tuple[LockMode, LockMode], Compatibility],
    ) -> None:
        self.name = name
        self._entries = dict(entries)

    def lookup(self, held: LockMode, requested: LockMode) -> Compatibility:
        """Raw table entry for (held, requested)."""
        return self._entries[(held, requested)]

    def compatible(
        self,
        held: LockMode,
        held_op: Operation,
        requested: LockMode,
        requested_op: Operation,
    ) -> Tuple[bool, bool]:
        """Resolve compatibility for concrete operations.

        Returns ``(granted, charges_inconsistency)``.  ``COMM`` entries
        are resolved through the operation algebra; ``OK_WITH_CHARGE``
        grants but tells divergence control to charge a counter.
        """
        entry = self.lookup(held, requested)
        if entry is Compatibility.OK:
            return True, False
        if entry is Compatibility.OK_WITH_CHARGE:
            return True, True
        if entry is Compatibility.COMM:
            return commutes(held_op, requested_op), False
        return False, False

    def rows(self) -> List[Tuple[str, List[str]]]:
        """Render the table in the paper's row/column layout.

        Used by the Table 2 / Table 3 reproduction benchmarks: the rows
        are derived from the live table object, not hand-copied.
        """
        order = [LockMode.R_U, LockMode.W_U, LockMode.R_Q]
        out = []
        for held in order:
            cells = []
            for requested in order:
                entry = self.lookup(held, requested)
                if entry in (Compatibility.OK, Compatibility.OK_WITH_CHARGE):
                    cells.append("OK")
                elif entry is Compatibility.COMM:
                    cells.append("Comm")
                else:
                    cells.append("")
                # empty string == conflict, matching the paper's blanks
            out.append((held.value, cells))
        return out


def _table(
    name: str, spec: Dict[Tuple[LockMode, LockMode], Compatibility]
) -> CompatibilityTable:
    for held in LockMode:
        for req in LockMode:
            if (held, req) not in spec:
                raise ValueError(
                    "table %s missing entry (%s, %s)" % (name, held, req)
                )
    return CompatibilityTable(name, spec)


_RU, _WU, _RQ = LockMode.R_U, LockMode.W_U, LockMode.R_Q
_OK, _NO = Compatibility.OK, Compatibility.CONFLICT
_COMM, _CHARGE = Compatibility.COMM, Compatibility.OK_WITH_CHARGE

#: Standard 2PL mapped onto ET modes: reads compatible with reads,
#: every combination involving a write conflicts.  Queries get no
#: special treatment — this is the synchronous baseline.
CLASSIC_2PL = _table(
    "classic-2pl",
    {
        (_RU, _RU): _OK, (_RU, _WU): _NO, (_RU, _RQ): _OK,
        (_WU, _RU): _NO, (_WU, _WU): _NO, (_WU, _RQ): _NO,
        (_RQ, _RU): _OK, (_RQ, _WU): _NO, (_RQ, _RQ): _OK,
    },
)

#: Paper Table 2 (ORDUP): R_Q is compatible with everything; a query
#: read admitted over a held W_U imports inconsistency, hence the
#: OK_WITH_CHARGE refinement on (W_U, R_Q).
ORDUP_TABLE = _table(
    "ordup",
    {
        (_RU, _RU): _OK, (_RU, _WU): _NO, (_RU, _RQ): _OK,
        (_WU, _RU): _NO, (_WU, _WU): _NO, (_WU, _RQ): _CHARGE,
        (_RQ, _RU): _OK, (_RQ, _WU): _OK, (_RQ, _RQ): _OK,
    },
)

#: Paper Table 3 (COMMU): update/update entries relax to "Comm".
COMMU_TABLE = _table(
    "commu",
    {
        (_RU, _RU): _OK, (_RU, _WU): _COMM, (_RU, _RQ): _OK,
        (_WU, _RU): _COMM, (_WU, _WU): _COMM, (_WU, _RQ): _CHARGE,
        (_RQ, _RU): _OK, (_RQ, _WU): _OK, (_RQ, _RQ): _OK,
    },
)


@dataclass
class LockGrant:
    """A granted lock instance."""

    tid: TransactionID
    key: str
    mode: LockMode
    op: Operation
    #: True when the grant imported inconsistency (OK_WITH_CHARGE) —
    #: the set of update holders it was charged against.
    charged_against: Set[TransactionID] = field(default_factory=set)


class LockManager:
    """Lock manager parameterized by a compatibility table.

    A request is granted when it is compatible with every current
    holder of the key, and refused otherwise; nothing queues here.
    """

    def __init__(self, table: CompatibilityTable) -> None:
        self.table = table
        self._holders: Dict[str, List[LockGrant]] = {}
        self._locks_of: Dict[TransactionID, List[LockGrant]] = {}

    def try_acquire(
        self,
        tid: TransactionID,
        key: str,
        mode: LockMode,
        op: Operation,
    ) -> Optional[LockGrant]:
        """Grant immediately or return ``None`` (the caller waits).

        Re-entrant: a transaction already holding the key in the same
        or a stronger mode gets its existing grant back.
        """
        holders = self._holders.get(key, ())
        for grant in holders:
            if grant.tid == tid and (
                grant.mode == mode
                or (grant.mode is LockMode.W_U and mode is LockMode.R_U)
            ):
                return grant  # held; a write lock subsumes the read
        charged: Set[TransactionID] = set()
        for grant in holders:
            if grant.tid == tid:
                continue
            ok, charge = self.table.compatible(grant.mode, grant.op, mode, op)
            if not ok:
                return None
            if charge:
                charged.add(grant.tid)
        new = LockGrant(tid, key, mode, op, charged)
        self._holders.setdefault(key, []).append(new)
        self._locks_of.setdefault(tid, []).append(new)
        return new

    def release_all(self, tid: TransactionID) -> None:
        """Drop every lock of ``tid``."""
        for grant in self._locks_of.pop(tid, ()):
            holders = self._holders[grant.key]
            holders.remove(grant)
            if not holders:
                del self._holders[grant.key]

    def holders_of(self, key: str) -> List[LockGrant]:
        return list(self._holders.get(key, ()))
