"""Histories (logs) of ET operations and their dependency structure.

Paper section 2.1: a history or *log* is a sequence of operations; a
log is serializable (an SRlog) when its operations can be rearranged
into a serial log without moving one operation past another it has a
read-write or write-write dependency on.

A :class:`History` records ``(transaction, operation)`` events in
execution order and derives:

* the conflict pairs (dependencies) between transactions,
* the serialization graph whose acyclicity decides conflict-SR,
* the query-deleted projection used by the epsilon-serial test.

Dependencies are semantic: commuting writes (COMMU/RITU operations) do
not create edges, matching the paper's divergence-control relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .operations import Operation, conflicts, is_write
from .transactions import EpsilonTransaction, TransactionID

__all__ = ["Event", "History", "SerializationGraph"]


@dataclass(frozen=True)
class Event:
    """One operation execution in a history.

    Attributes:
        tid: transaction the operation belongs to.
        op: the operation.
        site: site at which it executed (``None`` for single-site logs).
        time: simulated time of execution (ties broken by log position).
    """

    tid: TransactionID
    op: Operation
    site: Optional[str] = None
    time: float = 0.0


class SerializationGraph:
    """Directed conflict graph over transactions.

    An edge ``a -> b`` means some operation of ``a`` conflicts with and
    precedes some operation of ``b``; the history is conflict-SR iff the
    graph is acyclic (the classical serializability theorem, which the
    paper inherits for its update-ET projection).
    """

    def __init__(self) -> None:
        self._edges: Dict[TransactionID, Set[TransactionID]] = {}
        self._nodes: Set[TransactionID] = set()

    def add_node(self, tid: TransactionID) -> None:
        self._nodes.add(tid)
        self._edges.setdefault(tid, set())

    def add_edge(self, a: TransactionID, b: TransactionID) -> None:
        if a == b:
            return
        self.add_node(a)
        self.add_node(b)
        self._edges[a].add(b)

    @property
    def nodes(self) -> Set[TransactionID]:
        return set(self._nodes)

    def successors(self, tid: TransactionID) -> Set[TransactionID]:
        return set(self._edges.get(tid, ()))

    def has_edge(self, a: TransactionID, b: TransactionID) -> bool:
        return b in self._edges.get(a, ())

    def is_acyclic(self) -> bool:
        """Cycle test via iterative three-color DFS."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n: WHITE for n in self._nodes}
        for start in self._nodes:
            if color[start] != WHITE:
                continue
            stack: List[Tuple[TransactionID, Iterator[TransactionID]]] = [
                (start, iter(self._edges.get(start, ())))
            ]
            color[start] = GRAY
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if color[succ] == GRAY:
                        return False
                    if color[succ] == WHITE:
                        color[succ] = GRAY
                        stack.append((succ, iter(self._edges.get(succ, ()))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return True

    def topological_order(self) -> Optional[List[TransactionID]]:
        """A serial order witnessing SR, or ``None`` if cyclic.

        Kahn's algorithm with deterministic (sorted) tie-breaking so
        tests and experiments are reproducible.
        """
        indegree: Dict[TransactionID, int] = {n: 0 for n in self._nodes}
        for a, outs in self._edges.items():
            for b in outs:
                indegree[b] += 1
        ready = sorted(n for n, d in indegree.items() if d == 0)
        order: List[TransactionID] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            inserted = []
            for succ in self._edges.get(node, ()):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    inserted.append(succ)
            if inserted:
                ready.extend(inserted)
                ready.sort()
        if len(order) != len(self._nodes):
            return None
        return order


class History:
    """An append-only log of :class:`Event` items with derived structure."""

    def __init__(self, events: Optional[Iterable[Event]] = None) -> None:
        self._events: List[Event] = []
        self._transactions: Dict[TransactionID, Optional[EpsilonTransaction]] = {}
        if events:
            for ev in events:
                self.append(ev)

    def append(self, event: Event) -> None:
        """Record one executed operation."""
        self._events.append(event)
        self._transactions.setdefault(event.tid, None)

    def record(
        self,
        tid: TransactionID,
        op: Operation,
        site: Optional[str] = None,
        time: float = 0.0,
        et: Optional[EpsilonTransaction] = None,
    ) -> None:
        """Convenience: append an event and remember its ET, if given."""
        self.append(Event(tid, op, site, time))
        if et is not None:
            self._transactions[tid] = et

    def register(self, et: EpsilonTransaction) -> None:
        """Associate an ET object with its tid (for query/update class)."""
        self._transactions[et.tid] = et

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    @property
    def events(self) -> Tuple[Event, ...]:
        return tuple(self._events)

    @property
    def tids(self) -> List[TransactionID]:
        """Transaction ids in first-appearance order."""
        seen: Dict[TransactionID, None] = {}
        for ev in self._events:
            seen.setdefault(ev.tid, None)
        return list(seen)

    def operations_of(self, tid: TransactionID) -> List[Operation]:
        return [ev.op for ev in self._events if ev.tid == tid]

    def is_update_tid(self, tid: TransactionID) -> bool:
        """Classify a transaction as update by its ET or logged writes."""
        et = self._transactions.get(tid)
        if et is not None:
            return et.is_update
        return any(is_write(ev.op) for ev in self._events if ev.tid == tid)

    def update_tids(self) -> List[TransactionID]:
        return [t for t in self.tids if self.is_update_tid(t)]

    def query_tids(self) -> List[TransactionID]:
        return [t for t in self.tids if not self.is_update_tid(t)]

    def project(self, tids: Iterable[TransactionID]) -> "History":
        """Sub-history containing only the given transactions.

        The epsilon-serial test (paper section 2.1) projects away query
        ETs and checks the update remainder for SR.
        """
        keep = set(tids)
        sub = History(ev for ev in self._events if ev.tid in keep)
        for tid in keep:
            et = self._transactions.get(tid)
            if et is not None:
                sub._transactions[tid] = et
        return sub

    def without_queries(self) -> "History":
        """The update-ET projection used by the epsilon-serial test."""
        return self.project(self.update_tids())

    def conflict_pairs(self) -> List[Tuple[Event, Event]]:
        """Ordered pairs of conflicting events (earlier, later).

        Conflicts follow operation semantics (:func:`conflicts`), so
        commutative updates do not generate pairs.
        """
        pairs: List[Tuple[Event, Event]] = []
        # Group by key to avoid the quadratic scan across unrelated keys.
        by_key: Dict[str, List[Event]] = {}
        for ev in self._events:
            by_key.setdefault(ev.op.key, []).append(ev)
        for events in by_key.values():
            for i, first in enumerate(events):
                for second in events[i + 1 :]:
                    if first.tid == second.tid:
                        continue
                    if conflicts(first.op, second.op):
                        pairs.append((first, second))
        return pairs

    def serialization_graph(self) -> SerializationGraph:
        """Conflict graph over the transactions of this history."""
        graph = SerializationGraph()
        for tid in self.tids:
            graph.add_node(tid)
        for first, second in self.conflict_pairs():
            graph.add_edge(first.tid, second.tid)
        return graph

    def render(self) -> str:
        """The paper's log notation: ``R1(a) W1(b) W2(b) ...``.

        Reads render as ``R``, every write-class operation as ``W``
        (the subscript is the transaction id).  Handy in test failure
        messages and when eyeballing miniature histories.
        """
        parts = []
        for ev in self._events:
            letter = "R" if ev.op.is_read_op else "W"
            parts.append("%s%d(%s)" % (letter, ev.tid, ev.op.key))
        return " ".join(parts)

    def is_serial(self) -> bool:
        """True when transactions run one at a time (no interleaving)."""
        last_tid: Optional[TransactionID] = None
        finished: Set[TransactionID] = set()
        for ev in self._events:
            if ev.tid != last_tid:
                if ev.tid in finished:
                    return False
                if last_tid is not None:
                    finished.add(last_tid)
                last_tid = ev.tid
        return True
