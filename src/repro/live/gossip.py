"""Gossip-based membership and adaptive failure detection.

Three pieces, all transport-agnostic (the server piggybacks the table
on its existing heartbeat frames):

``MembershipTable``
    A SWIM-style versioned membership table.  Each node record carries
    an *incarnation* number owned by the node it describes plus a
    liveness status (``alive``/``suspect``/``dead``/``left``), its
    address, shard, and the node's locally applied frontier (a digest
    used to trigger anti-entropy catch-up).  Merge rules:

    * a record with a **higher incarnation** always wins;
    * at **equal incarnation** the more severe status wins
      (alive < suspect < dead < left) and frontiers take the max;
    * lower incarnations are ignored.

    A node that sees itself suspected or declared dead at an
    incarnation >= its own *refutes* by bumping its incarnation and
    re-asserting ``alive`` — the refutation then out-versions the stale
    rumor everywhere it gossips.  The table lives in the site's control
    log (one ``member`` record per change a restart must remember) and
    bumps its own incarnation on every boot so a restarted node's fresh
    records dominate its former life's.

``FailureDetector``
    An adaptive detector.  Instead of one fixed
    staleness threshold (which flaps on high-jitter WAN links), it
    tracks observed heartbeat inter-arrival times per peer and suspects
    a peer only when current staleness exceeds
    ``max(floor, mean + 4*stddev)`` of its recent history; a peer is
    declared *dead* at three times that bound.  With fewer than
    ``min_samples`` observations it falls back to the configured floor,
    which matches the fixed-threshold behaviour of earlier revisions.
    A peer is stale from its start mark (``watch``) until it is first
    heard from.

``Membership``
    One replica's view of its group over the two: the peer set, one
    address lookup, liveness and its suspicion edges, the quorum and
    the election's candidate ranking.  It holds no socket and no clock;
    every step takes ``now``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import (
    TYPE_CHECKING, Any, Deque, Dict, Iterable, List, Optional, Set, Tuple,
)

if TYPE_CHECKING:
    from .durable_queue import ControlLog

__all__ = [
    "ALIVE",
    "SUSPECT",
    "DEAD",
    "LEFT",
    "STATUS_SEVERITY",
    "NodeRecord",
    "MembershipTable",
    "FailureDetector",
    "Membership",
]

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"
LEFT = "left"

#: Equal-incarnation conflicts resolve toward the more severe status.
STATUS_SEVERITY = {ALIVE: 0, SUSPECT: 1, DEAD: 2, LEFT: 3}


class NodeRecord:
    """One gossiped membership record, owned by the node it names."""

    __slots__ = (
        "name", "host", "port", "incarnation", "status", "frontier",
        "shard", "applied",
    )

    def __init__(
        self,
        name: str,
        host: str = "",
        port: int = 0,
        incarnation: int = 1,
        status: str = ALIVE,
        frontier: int = 0,
        shard: Optional[int] = None,
        applied: int = 0,
    ) -> None:
        self.name = name
        self.host = host
        self.port = int(port)
        self.incarnation = int(incarnation)
        self.status = status
        self.frontier = int(frontier)
        self.shard = shard
        #: total MSets the node has applied (its own plus every
        #: peer's) — the staleness signal read fan-out balances on: a
        #: replica whose ``applied`` trails the group's max is lagging
        #: by that many updates.
        self.applied = int(applied)

    def wire(self) -> Dict[str, Any]:
        rec: Dict[str, Any] = {
            "name": self.name,
            "host": self.host,
            "port": self.port,
            "incarnation": self.incarnation,
            "status": self.status,
            "frontier": self.frontier,
            "applied": self.applied,
        }
        if self.shard is not None:
            rec["shard"] = self.shard
        return rec

    @classmethod
    def from_wire(cls, rec: Dict[str, Any]) -> "NodeRecord":
        return cls(
            name=str(rec["name"]),
            host=str(rec.get("host", "")),
            port=int(rec.get("port", 0)),
            incarnation=int(rec.get("incarnation", 1)),
            status=str(rec.get("status", ALIVE)),
            frontier=int(rec.get("frontier", 0)),
            shard=rec.get("shard"),
            applied=int(rec.get("applied", 0)),
        )

    def clone(self) -> "NodeRecord":
        return NodeRecord(
            self.name, self.host, self.port, self.incarnation,
            self.status, self.frontier, self.shard, self.applied,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NodeRecord(%s@%s:%d inc=%d %s f=%d)" % (
            self.name, self.host, self.port, self.incarnation, self.status, self.frontier,
        )


class MembershipTable:
    """Membership table with SWIM-style merge semantics.

    ``merge`` returns the list of record names whose entries changed,
    so its caller can react to joins / address changes / frontier
    advances without diffing the whole table.
    """

    def __init__(
        self, self_name: str, log: Optional["ControlLog"] = None
    ) -> None:
        self.self_name = self_name
        self._log = log
        self._records: Dict[str, NodeRecord] = {
            name: rec.clone()
            for name, rec in (log.nodes if log else {}).items()
        }
        # A boot: our incarnation out-versions our former life's.
        mine = self._records.setdefault(
            self_name, NodeRecord(self_name, incarnation=0)
        )
        mine.incarnation += 1
        mine.status = ALIVE
        self._persist([self_name])

    def _persist(self, names: Iterable[str]) -> None:
        """Append the named records to the control log, one write and
        one sync; an error raises."""
        if self._log is not None:
            self._log.members([self._records[name] for name in names])

    # ------------------------------------------------------------------
    # local mutation

    def self_record(self) -> NodeRecord:
        return self._records[self.self_name]

    def update_self(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        frontier: Optional[int] = None,
        shard: Optional[int] = None,
        applied: Optional[int] = None,
    ) -> None:
        rec = self.self_record()
        # Frontiers are not worth an append: gossip re-learns them.
        if frontier is not None:
            rec.frontier = int(frontier)
        if applied is not None:
            rec.applied = int(applied)
        changed = False  # something a restart must remember
        if host is not None and rec.host != host:
            rec.host = host
            changed = True
        if port is not None and rec.port != int(port):
            rec.port = int(port)
            changed = True
        if shard is not None and rec.shard != shard:
            rec.shard = shard
            changed = True
        if rec.status != ALIVE:
            rec.status = ALIVE
            rec.incarnation += 1
            changed = True
        if changed:
            self._persist([self.self_name])

    def observe(self, name: str, host: str = "", port: int = 0) -> None:
        """Seed a record for a statically configured peer (incarnation 0).

        Incarnation 0 never beats a gossiped record from the node
        itself (those start at 1), so static wiring only fills gaps.
        """
        if name in self._records:
            rec = self._records[name]
            if not rec.host and host:
                rec.host, rec.port = host, int(port)
            return
        self._records[name] = NodeRecord(name, host, port, incarnation=0)
        self._persist([name])

    def set_status(self, name: str, status: str) -> bool:
        """Locally assert a status for a peer (e.g. from failure detection).

        Keeps the peer's incarnation — the assertion rides the current
        incarnation and loses to the peer's own refutation at a higher
        one.  Returns True if the record changed.
        """
        rec = self._records.get(name)
        if rec is None or rec.status == status:
            return False
        if STATUS_SEVERITY.get(status, 0) <= STATUS_SEVERITY.get(rec.status, 0):
            # only escalate at same incarnation; de-escalation needs a
            # higher incarnation from the node itself
            return False
        rec.status = status
        self._persist([name])
        return True

    # ------------------------------------------------------------------
    # merge

    def merge(self, records: Iterable[Dict[str, Any]]) -> List[str]:
        """Merge gossiped records; returns names whose entries changed.

        Self-refutation: if the incoming gossip claims *we* are suspect
        or dead at an incarnation >= ours, bump our incarnation and
        re-assert alive — the refutation dominates the rumor.
        """
        changed: List[str] = []
        durable: List[str] = []  # frontier-only progress is not worth an fsync
        for raw in records:
            try:
                incoming = NodeRecord.from_wire(raw)
            except (KeyError, ValueError, TypeError):
                continue
            if incoming.name == self.self_name:
                mine = self.self_record()
                if (
                    incoming.status in (SUSPECT, DEAD)
                    and incoming.incarnation >= mine.incarnation
                ):
                    mine.incarnation = incoming.incarnation + 1
                    mine.status = ALIVE
                    changed.append(mine.name)
                    durable.append(mine.name)
                continue
            current = self._records.get(incoming.name)
            if current is None:
                self._records[incoming.name] = incoming
                changed.append(incoming.name)
                durable.append(incoming.name)
                continue
            if incoming.incarnation > current.incarnation:
                durable.append(incoming.name)
                self._records[incoming.name] = incoming
                if incoming.frontier < current.frontier:
                    incoming.frontier = current.frontier
                if incoming.applied < current.applied:
                    incoming.applied = current.applied
                changed.append(incoming.name)
            elif incoming.incarnation == current.incarnation:
                rec_changed = rec_durable = False
                if (
                    STATUS_SEVERITY.get(incoming.status, 0)
                    > STATUS_SEVERITY.get(current.status, 0)
                ):
                    current.status = incoming.status
                    rec_changed = rec_durable = True
                if incoming.frontier > current.frontier:
                    current.frontier = incoming.frontier
                    rec_changed = True
                if incoming.applied > current.applied:
                    current.applied = incoming.applied
                    rec_changed = True
                if incoming.host and (current.host, current.port) != (
                    incoming.host, incoming.port,
                ):
                    current.host, current.port = incoming.host, incoming.port
                    rec_changed = rec_durable = True
                if rec_changed:
                    changed.append(current.name)
                if rec_durable:
                    durable.append(current.name)
            # lower incarnation: stale rumor, ignore
        if durable:
            self._persist(durable)
        return changed

    # ------------------------------------------------------------------
    # views

    def get(self, name: str) -> Optional[NodeRecord]:
        return self._records.get(name)

    def records(self) -> List[NodeRecord]:
        return [rec.clone() for rec in self._records.values()]

    def wire(self) -> List[Dict[str, Any]]:
        return [rec.wire() for rec in self._records.values()]

    def address(self, name: str) -> Optional[Tuple[str, int]]:
        rec = self._records.get(name)
        if rec is None or not rec.host or not rec.port:
            return None
        return (rec.host, rec.port)

    def member_names(self, include_left: bool = False) -> List[str]:
        return sorted(
            name
            for name, rec in self._records.items()
            if include_left or rec.status != LEFT
        )

    def active_count(self) -> int:
        """Members not known to have permanently left the group."""
        return sum(1 for rec in self._records.values() if rec.status != LEFT)

    def frontier_lag(self, local_frontiers: Dict[str, int]) -> int:
        """Updates gossiped to exist that ``local_frontiers`` lacks.

        For every member, its record's own-update ``frontier`` is
        compared with the local receive frontier for that member; the
        positive gaps sum to the number of updates this node can
        *prove* it has not yet received — the staleness estimate, in
        the paper's update-count units, that query replies report.
        """
        lag = 0
        for name, rec in self._records.items():
            if name == self.self_name or rec.status == LEFT:
                continue
            gap = rec.frontier - int(local_frontiers.get(name, 0))
            if gap > 0:
                lag += gap
        return lag


class _GapWindow:
    """The last ``size`` inter-arrival gaps of one peer, with the sums
    of their deviations from ``shift`` kept as they arrive: the mean and
    variance cost O(1) per arrival instead of a pass over the window.

    The sums are recomputed exactly — ``shift`` set to the window's
    mean, one pass — once per window wrap, so rounding from adding and
    removing terms cannot build up; and, sooner, whenever the variance
    has fallen so far below the largest squared deviation still summed
    (an outlier evicted from a steady stream) that the rounding left by
    that term could show in the standard deviation.
    """

    __slots__ = ("gaps", "shift", "s1", "s2", "largest", "since")

    #: variance, relative to the largest squared deviation summed, below
    #: which the running sums are recomputed exactly (their rounding is
    #: ~1e-13 of that deviation).
    EXACT_BELOW = 1e-4

    def __init__(self, size: int) -> None:
        self.gaps: Deque[float] = deque(maxlen=size)
        self.shift = 0.0
        self.s1 = 0.0
        self.s2 = 0.0
        self.largest = 0.0
        self.since = 0

    def add(self, gap: float) -> None:
        gaps = self.gaps
        if not gaps:
            self.shift = gap
        elif len(gaps) == gaps.maxlen:
            gone = gaps[0] - self.shift
            self.s1 -= gone
            self.s2 -= gone * gone
        gaps.append(gap)
        d = gap - self.shift
        self.s1 += d
        self.s2 += d * d
        if d * d > self.largest:
            self.largest = d * d
        self.since += 1
        if self.since >= gaps.maxlen:
            self._recompute()

    def _recompute(self) -> None:
        gaps = self.gaps
        shift = sum(gaps) / len(gaps)
        s1 = s2 = largest = 0.0
        for gap in gaps:
            d = gap - shift
            s1 += d
            s2 += d * d
            if d * d > largest:
                largest = d * d
        self.shift, self.s1, self.s2 = shift, s1, s2
        self.largest, self.since = largest, 0

    def bound(self) -> float:
        """``mean + 4 * stddev`` of the window."""
        n = len(self.gaps)
        mean = self.s1 / n
        var = self.s2 / n - mean * mean
        if var < self.EXACT_BELOW * self.largest and self.since:
            self._recompute()
            mean = self.s1 / n
            var = self.s2 / n - mean * mean
        return self.shift + mean + 4.0 * math.sqrt(max(var, 0.0))


class FailureDetector:
    """Adaptive suspicion-then-dead detector over heartbeat arrivals.

    ``watch(peer, now)`` starts the clock on a peer not yet heard from,
    ``heartbeat(peer, now)`` records an arrival.  ``timeout(peer)``
    returns the current adaptive suspicion bound for that peer:
    ``max(floor, mean + 4*stddev)`` over the recent inter-arrival
    window once at least ``min_samples`` gaps have been observed, else
    just ``floor``.  ``suspect(peer, now)`` / ``dead(peer, now)`` test
    staleness against 1x / ``dead_multiple``x that bound.
    """

    def __init__(
        self,
        floor: float,
        window: int = 64,
        min_samples: int = 8,
        dead_multiple: float = 3.0,
    ) -> None:
        self.floor = float(floor)
        self.min_samples = int(min_samples)
        self.dead_multiple = float(dead_multiple)
        self._window = int(window)
        self._gaps: Dict[str, _GapWindow] = {}
        #: peer -> its last arrival, or its start mark until then.
        self._last: Dict[str, float] = {}
        #: watched peers not yet heard from.
        self._unheard: Set[str] = set()
        #: peer -> suspicion bound over its current window: recomputed
        #: when the window changes, read on every query response.
        self._timeouts: Dict[str, float] = {}

    def watch(self, peer: str, now: float) -> None:
        """Start the clock on ``peer`` unless it is already watched or
        heard from: it is alive for ``floor`` from ``now``, dead after
        ``dead_multiple`` times that.  The start mark is no arrival, so
        the first heartbeat's gap from it is not a sample."""
        if peer not in self._last:
            self._last[peer] = now
            self._unheard.add(peer)

    def heartbeat(self, peer: str, now: float) -> None:
        last = self._last.get(peer)
        self._last[peer] = now
        if last is None or peer in self._unheard:
            self._unheard.discard(peer)
            return
        gap = now - last
        if gap <= 0:
            return
        window = self._gaps.get(peer)
        if window is None:
            window = self._gaps[peer] = _GapWindow(self._window)
        window.add(gap)
        if len(window.gaps) >= self.min_samples:
            self._timeouts[peer] = max(self.floor, window.bound())

    def forget(self, peer: str) -> None:
        self._gaps.pop(peer, None)
        self._last.pop(peer, None)
        self._unheard.discard(peer)
        self._timeouts.pop(peer, None)

    def last_seen(self, peer: str) -> Optional[float]:
        """The peer's last arrival, else its start mark; None while it
        is neither watched nor heard from."""
        return self._last.get(peer)

    def timeout(self, peer: str) -> float:
        return self._timeouts.get(peer, self.floor)

    def staleness(self, peer: str, now: float) -> float:
        """Seconds since the peer's last arrival (or start mark); 0
        while it is neither watched nor heard from."""
        last = self._last.get(peer)
        return 0.0 if last is None else max(0.0, now - last)

    def suspect(self, peer: str, now: float) -> bool:
        return self.staleness(peer, now) > self.timeout(peer)

    def dead(self, peer: str, now: float) -> bool:
        bound = self.dead_multiple * self.timeout(peer)
        return self.staleness(peer, now) > bound


class Membership:
    """One replica's view of its group: the peer set, where each peer
    listens, who is alive, the quorum and the candidate ranking.

    It owns the :class:`MembershipTable` (opened over the control log
    by :meth:`open`) and the :class:`FailureDetector`.  Its steps take
    ``now`` and do no I/O but the table's control-log appends; the
    server dials, traces and counts around it.
    """

    def __init__(
        self, name: str, peers: Iterable[str], suspect_after: float,
        shard: Optional[int] = None,
    ) -> None:
        self.name = name
        #: the replica group's shard: a gossiped member of another
        #: shard is never wired in.
        self.shard = shard
        #: the peers this replica replicates with, sorted: the
        #: configured ones plus every member gossip joined.
        self.peers: Tuple[str, ...] = tuple(sorted(set(peers) - {name}))
        self.detector = FailureDetector(floor=suspect_after)
        #: peer -> the address it was configured at, or gossip moved
        #: it to; :meth:`address` falls back to the table's record.
        self.configured: Dict[str, Tuple[str, int]] = {}
        #: peers suspected at the last :meth:`check`.
        self._suspected: Set[str] = set()
        self.table: MembershipTable

    def open(self, log: Optional["ControlLog"]) -> None:
        """Load the table from ``log``: one boot, so this node's
        incarnation rises."""
        self.table = MembershipTable(self.name, log)

    # ------------------------------------------------------------------
    # addresses

    def address(self, peer: str) -> Optional[Tuple[str, int]]:
        """Where ``peer`` listens: its configured (or gossip-moved)
        address, else its table record's; None while neither is known."""
        return self.configured.get(peer) or self.table.address(peer)

    def configure(self, addrs: Dict[str, Tuple[str, int]]) -> None:
        """Install (or update) statically configured peer addresses."""
        for peer, (host, port) in addrs.items():
            if peer != self.name:
                self.configured[peer] = (host, int(port))
                self.table.observe(peer, host, int(port))

    def merge(
        self, records: Iterable[Dict[str, Any]]
    ) -> Tuple[List[str], List[str]]:
        """Merge gossiped records; return the members that joined the
        peer set and the peers whose address moved.  A record of this
        node, of a member that left, of another shard's member or
        without an address changes neither."""
        joined: List[str] = []
        moved: List[str] = []
        for name in self.table.merge(records):
            rec = self.table._records[name]
            if name == self.name or rec.status == LEFT or (
                rec.shard != self.shard or not (rec.host and rec.port)
            ):
                continue
            addr = (rec.host, rec.port)
            if name not in self.peers:
                self.peers = tuple(sorted(self.peers + (name,)))
                joined.append(name)
            elif self.configured.get(name) != addr:
                moved.append(name)
            self.configured[name] = addr
        return joined, moved

    # ------------------------------------------------------------------
    # liveness

    def alive(self, peer: str, now: float) -> bool:
        """True while ``peer`` is watched and its staleness is within
        its adaptive bound (mean + 4 sigma of its recent heartbeat
        gaps, floored at ``suspect_after``)."""
        return self.detector.last_seen(peer) is not None and not (
            self.detector.suspect(peer, now)
        )

    def dead(self, peer: str, now: float) -> bool:
        """True once staleness passes the dead escalation (3x the
        adaptive bound): the trigger for elections."""
        return self.detector.dead(peer, now)

    def suspected(self, now: float) -> Tuple[str, ...]:
        """Peers currently failing their heartbeat deadline."""
        return tuple(p for p in self.peers if not self.alive(p, now))

    def check(self, now: float) -> List[Tuple[str, str]]:
        """The liveness edges since the last check, as ``(peer,
        status)``: each newly suspected peer once (``SUSPECT``), and a
        suspected peer's first ``DEAD`` escalation in the table.  A peer
        heard from again needs no local de-escalation: it sees our rumor
        in gossip and refutes it at a higher incarnation."""
        edges: List[Tuple[str, str]] = []
        for peer in self.peers:
            if self.alive(peer, now):
                self._suspected.discard(peer)
                continue
            if peer not in self._suspected:
                self._suspected.add(peer)
                self.table.set_status(peer, SUSPECT)
                edges.append((peer, SUSPECT))
            if self.dead(peer, now) and self.table.set_status(peer, DEAD):
                edges.append((peer, DEAD))
        return edges

    # ------------------------------------------------------------------
    # agreement

    def quorum(self) -> int:
        """Majority of the *full* membership (left members excluded).

        The denominator is everyone, not just reachable members — two
        disjoint 'majorities' of reachable subsets is exactly the
        split-brain this fences out.  Floored at the peer set so a
        not-yet-gossiped table cannot shrink the quorum."""
        return max(self.table.active_count(), len(self.peers) + 1) // 2 + 1

    def best_candidate(self, now: float, exclude: Tuple[str, ...] = ()) -> str:
        """Deterministic candidate ranking: highest incarnation among
        this node and its live peers, ties to the lexicographically
        smallest name.  Every replica computes the same answer from
        converged gossip, so normally exactly one campaigns."""
        best, best_inc = self.name, self.table.self_record().incarnation
        for peer in self.peers:
            if peer in exclude or not self.alive(peer, now):
                continue
            rec = self.table.get(peer)
            inc = rec.incarnation if rec is not None else 0
            if inc > best_inc or (inc == best_inc and peer < best):
                best, best_inc = peer, inc
        return best
