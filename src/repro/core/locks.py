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

The :class:`LockManager` implements queued acquisition with FIFO
fairness, waits-for deadlock detection, and youngest-victim abort, and
reports *compatibility-with-charge*: a query read that is admitted over
a concurrent update write is granted but flagged, so divergence control
can charge the query's inconsistency counter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

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
    "DeadlockError",
]


class LockMode(enum.Enum):
    """ET lock classes (paper section 3.1)."""

    R_U = "RU"  #: read lock held by an update ET
    W_U = "WU"  #: write lock held by an update ET
    R_Q = "RQ"  #: read lock held by a query ET

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


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


class DeadlockError(Exception):
    """Raised against the victim transaction of a detected deadlock."""

    def __init__(self, tid: TransactionID) -> None:
        super().__init__("transaction %s aborted to break a deadlock" % tid)
        self.tid = tid


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


@dataclass
class _Waiter:
    tid: TransactionID
    key: str
    mode: LockMode
    op: Operation
    wake: Callable[[Optional[LockGrant]], None]


class LockManager:
    """Queued lock manager parameterized by a compatibility table.

    Grant policy: a request is granted when it is compatible with every
    current holder of the key *and* no earlier waiter is still queued
    for that key (FIFO fairness prevents starvation of W_U requests
    behind streams of R_U).  Query (R_Q) requests skip the fairness
    check — the whole point of Tables 2/3 is that queries never queue.

    Deadlocks among update ETs are detected on the waits-for graph at
    each enqueue; the youngest transaction in the cycle is aborted via
    :class:`DeadlockError` delivered through its wake callback.
    """

    def __init__(self, table: CompatibilityTable) -> None:
        self.table = table
        self._holders: Dict[str, List[LockGrant]] = {}
        self._waiters: Dict[str, List[_Waiter]] = {}
        self._locks_of: Dict[TransactionID, List[LockGrant]] = {}

    # -- acquisition -------------------------------------------------------

    def try_acquire(
        self,
        tid: TransactionID,
        key: str,
        mode: LockMode,
        op: Operation,
    ) -> Optional[LockGrant]:
        """Grant immediately or return ``None`` (caller may queue).

        Re-entrant: a transaction already holding the key in the same
        or a stronger mode gets its existing grant back.
        """
        existing = self._find_grant(tid, key, mode)
        if existing is not None:
            return existing
        if not self._grantable(tid, key, mode, op):
            return None
        return self._grant(tid, key, mode, op)

    def acquire(
        self,
        tid: TransactionID,
        key: str,
        mode: LockMode,
        op: Operation,
        wake: Callable[[Optional[LockGrant]], None],
    ) -> Optional[LockGrant]:
        """Grant now, or enqueue and deliver the grant through ``wake``.

        Returns the grant when immediate, ``None`` when queued.  On
        deadlock the victim's ``wake`` receives ``None`` after a
        :class:`DeadlockError` is raised at the requester if the
        requester itself is the victim.
        """
        grant = self.try_acquire(tid, key, mode, op)
        if grant is not None:
            return grant
        waiter = _Waiter(tid, key, mode, op, wake)
        self._waiters.setdefault(key, []).append(waiter)
        victim = self._detect_deadlock()
        if victim is not None:
            self._abort_waiter(victim)
            if victim == tid:
                raise DeadlockError(tid)
        return None

    def _find_grant(
        self, tid: TransactionID, key: str, mode: LockMode
    ) -> Optional[LockGrant]:
        for grant in self._holders.get(key, ()):  # re-entrancy check
            if grant.tid != tid:
                continue
            if grant.mode == mode:
                return grant
            if grant.mode is LockMode.W_U and mode is LockMode.R_U:
                return grant  # write lock subsumes the read lock
        return None

    def _grantable(
        self, tid: TransactionID, key: str, mode: LockMode, op: Operation
    ) -> bool:
        for grant in self._holders.get(key, ()):  # pairwise compatibility
            if grant.tid == tid:
                continue
            ok, _ = self.table.compatible(grant.mode, grant.op, mode, op)
            if not ok:
                return False
        if mode is not LockMode.R_Q:
            for waiter in self._waiters.get(key, ()):  # FIFO fairness
                if waiter.tid != tid:
                    return False
        return True

    def _grant(
        self, tid: TransactionID, key: str, mode: LockMode, op: Operation
    ) -> LockGrant:
        charged: Set[TransactionID] = set()
        for grant in self._holders.get(key, ()):  # collect charge sources
            if grant.tid == tid:
                continue
            ok, charge = self.table.compatible(grant.mode, grant.op, mode, op)
            if ok and charge:
                charged.add(grant.tid)
        new = LockGrant(tid, key, mode, op, charged)
        self._holders.setdefault(key, []).append(new)
        self._locks_of.setdefault(tid, []).append(new)
        return new

    # -- release -----------------------------------------------------------

    def release_all(self, tid: TransactionID) -> None:
        """Drop every lock of ``tid`` and wake newly grantable waiters."""
        for grant in self._locks_of.pop(tid, ()):  # drop each held lock
            holders = self._holders.get(grant.key, [])
            if grant in holders:
                holders.remove(grant)
            if not holders:
                self._holders.pop(grant.key, None)
        self._cancel_waits(tid)
        self._wake_waiters()

    def _cancel_waits(self, tid: TransactionID) -> None:
        for key in list(self._waiters):
            queue = [w for w in self._waiters[key] if w.tid != tid]
            if queue:
                self._waiters[key] = queue
            else:
                self._waiters.pop(key)

    def _wake_waiters(self) -> None:
        woke = True
        while woke:
            woke = False
            for key in list(self._waiters):
                queue = self._waiters.get(key, [])
                for waiter in list(queue):
                    if not self._grantable_as_waiter(waiter):
                        continue
                    queue.remove(waiter)
                    if not queue:
                        self._waiters.pop(key, None)
                    grant = self._grant(
                        waiter.tid, waiter.key, waiter.mode, waiter.op
                    )
                    waiter.wake(grant)
                    woke = True

    def _grantable_as_waiter(self, waiter: _Waiter) -> bool:
        """Waiter grant check: only holders matter, plus queue position."""
        for grant in self._holders.get(waiter.key, ()):  # holder check
            if grant.tid == waiter.tid:
                continue
            ok, _ = self.table.compatible(
                grant.mode, grant.op, waiter.mode, waiter.op
            )
            if not ok:
                return False
        queue = self._waiters.get(waiter.key, [])
        for other in queue:
            if other is waiter:
                return True
            incompatible, _ = self.table.compatible(
                other.mode, other.op, waiter.mode, waiter.op
            )
            if not incompatible:
                return False  # an earlier conflicting waiter goes first
        return True

    def _abort_waiter(self, tid: TransactionID) -> None:
        victims: List[_Waiter] = []
        for key in list(self._waiters):
            remaining = []
            for waiter in self._waiters[key]:
                if waiter.tid == tid:
                    victims.append(waiter)
                else:
                    remaining.append(waiter)
            if remaining:
                self._waiters[key] = remaining
            else:
                self._waiters.pop(key)
        self.release_all(tid)
        for waiter in victims:
            waiter.wake(None)

    # -- deadlock detection --------------------------------------------------

    def _waits_for_edges(self) -> Dict[TransactionID, Set[TransactionID]]:
        edges: Dict[TransactionID, Set[TransactionID]] = {}
        for key, queue in self._waiters.items():
            for waiter in queue:
                blockers: Set[TransactionID] = set()
                for grant in self._holders.get(key, ()):  # blocked by holders
                    if grant.tid == waiter.tid:
                        continue
                    ok, _ = self.table.compatible(
                        grant.mode, grant.op, waiter.mode, waiter.op
                    )
                    if not ok:
                        blockers.add(grant.tid)
                if blockers:
                    edges.setdefault(waiter.tid, set()).update(blockers)
        return edges

    def _detect_deadlock(self) -> Optional[TransactionID]:
        """Find a waits-for cycle; return the youngest member or None."""
        edges = self._waits_for_edges()
        visited: Set[TransactionID] = set()
        for start in edges:
            if start in visited:
                continue
            path: List[TransactionID] = []
            on_path: Set[TransactionID] = set()

            def dfs(node: TransactionID) -> Optional[List[TransactionID]]:
                visited.add(node)
                path.append(node)
                on_path.add(node)
                for succ in edges.get(node, ()):  # follow waits-for
                    if succ in on_path:
                        return path[path.index(succ):]
                    if succ not in visited:
                        cycle = dfs(succ)
                        if cycle is not None:
                            return cycle
                path.pop()
                on_path.discard(node)
                return None

            cycle = dfs(start)
            if cycle:
                return max(cycle)  # youngest = largest tid
        return None

    # -- inspection ----------------------------------------------------------

    def holders_of(self, key: str) -> List[LockGrant]:
        return list(self._holders.get(key, ()))

    def locks_of(self, tid: TransactionID) -> List[LockGrant]:
        return list(self._locks_of.get(tid, ()))

    def waiting_count(self, key: Optional[str] = None) -> int:
        if key is not None:
            return len(self._waiters.get(key, ()))
        return sum(len(q) for q in self._waiters.values())
