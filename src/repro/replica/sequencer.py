"""The ORDUP sequencer: one global order, and who may grant it.

ORDUP (paper section 3.1) needs one global execution order, which "can
be generated easily by a centralized order server".  :class:`Sequencer`
is that server for both hosts, synchronous and socket-free: the live
``ReplicaServer`` keeps the asyncio shell around it (election loop, vote
round, epoch probe, order retries); the simulator's ``EngineHost`` keeps
one at its first site, which never campaigns.

Safety argument (one leader per epoch): a candidate needs promises
from a majority of the full membership before adopting an epoch, and a
replica promises each epoch at most once (monotonic ``promised``,
durable).  Two leaders in the same epoch would need two disjoint
majorities — impossible.  Fencing then stops a deposed leader's grants
above the handover point: anything above the new leader's ``base``
carries a stale epoch that every fenced replica refuses.

What this does *not* give: ``base`` (:func:`resume_base`) is the
largest order frontier the new leader's majority has *seen*, not what
the old sequencer *granted*.  A grant the old sequencer made durable
only in its own log, and acked, can sit above ``base``; every replica
that adopts the new epoch before applying it then fences it for good —
an acknowledged update lost there, and the replicas diverge (ROADMAP:
"Close the ORDUP safety bug"; its strict xfails are
``tests/live/test_election.py::TestSequencerFailover::
test_an_acked_update_survives_a_handover`` and, without sockets,
``tests/replica/test_sequencer.py::test_an_acked_grant_survives_a_handover``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim.clocks import GlobalOrder

__all__ = ["LeaseLost", "Sequencer", "SequencerLog", "resume_base"]


class LeaseLost(RuntimeError):
    """The leader has not heard a quorum gossip its epoch lately."""

    code = "UNAVAILABLE"


class SequencerLog:
    """The sequencer's records — ``promise`` (epoch), ``adopt`` (epoch,
    leader, base), ``grant`` (next, epoch; ``src`` and ``rid`` when the
    requester named itself) — folded in memory as they are appended.
    The server's ``ControlLog`` writes each to a file first."""

    #: whether a grant record is synced before it returns.
    sync_grants = False

    def __init__(self) -> None:
        #: the max epoch promised or adopted.
        self.promised = 0
        #: epoch -> (leader, base), for every epoch adopted.
        self.adopts: Dict[int, Tuple[str, int]] = {}
        #: (epoch, leader, base) of the newest adopt.
        self.adopted: Tuple[int, Optional[str], int] = (0, None, 0)
        #: the last token granted.
        self.next = self.grant_epoch = 0
        #: src -> (request id, token) of its last grant: the memo.
        self.granted: Dict[Any, Tuple[Any, GlobalOrder]] = {}

    def _fold(self, record: Dict[str, Any]) -> bool:
        """Apply one record; raises, changing nothing, if its fields do
        not decode.  False for a kind it does not know."""
        kind = record.get("meta")
        if kind == "promise":
            self.promised = max(self.promised, int(record["epoch"]))
        elif kind == "adopt":
            epoch, leader = int(record["epoch"]), str(record["leader"])
            self.adopts[epoch] = (leader, int(record["base"]))
            if epoch >= self.adopted[0]:
                self.adopted = (epoch, *self.adopts[epoch])
            self.promised = max(self.promised, epoch)
        elif kind == "grant":
            token = (int(record["next"]), int(record["epoch"]))
            if "src" in record:
                self.granted[record["src"]] = (record["rid"], token)
            self.next, self.grant_epoch = token
        else:
            return False
        return True

    def _append(
        self, records: Sequence[Dict[str, Any]], durable: bool = True
    ) -> None:
        for record in records:
            self._fold(record)

    def promise(self, epoch: int) -> None:
        self._append([{"meta": "promise", "epoch": epoch}])

    def adopt(self, epoch: int, leader: str, base: int) -> None:
        self._append(
            [{"meta": "adopt", "epoch": epoch, "leader": leader, "base": base}]
        )

    def grant(
        self, next_token: int, epoch: int, src: Any = None, rid: Any = None
    ) -> None:
        """Move the counter up to ``next_token``, in the log before the
        caller hands the token out — as ``src``'s grant for its request
        ``rid``, when given."""
        record = {"meta": "grant", "next": next_token, "epoch": epoch}
        if src is not None:
            record.update(src=src, rid=rid)
        self._append([record], durable=self.sync_grants)

    def records(self) -> List[Dict[str, Any]]:
        """The fold as records: one promise, every adopt, each memo
        grant in token order, then the counter."""
        state: List[Dict[str, Any]] = []
        if self.promised:
            state.append({"meta": "promise", "epoch": self.promised})
        state += [
            {"meta": "adopt", "epoch": epoch, "leader": leader, "base": base}
            for epoch, (leader, base) in sorted(self.adopts.items())
        ]
        state += [
            {"meta": "grant", "next": seq, "epoch": epoch, "src": src,
             "rid": rid}
            for src, (rid, (seq, epoch)) in sorted(
                self.granted.items(), key=lambda memo: memo[1][1]
            )
        ]
        if self.next or self.grant_epoch:
            state.append(
                {"meta": "grant", "next": self.next, "epoch": self.grant_epoch}
            )
        return state


def resume_base(promises: Iterable[Dict[str, Any]]) -> int:
    """The base rule, a pure function of a winner's promises (its own
    among them): it resumes sequencing above the highest order
    ``frontier`` any promiser has seen — the rule the gap above is in."""
    return max(int(promise.get("frontier", 0)) for promise in promises)


class Sequencer:
    """One replica's side of the order authority: its promises and
    adoptions, the lease evidence (memory only: a restarted leader earns
    it again), and — while it leads — the grants.  The rest is ``log``'s
    fold, and each transition is one append to it."""

    def __init__(self, log: Optional[SequencerLog] = None) -> None:
        self.log = log if log is not None else SequencerLog()
        #: peer -> (the epoch it last gossiped, when): the lease.
        self._peer_epochs: Dict[str, Tuple[int, float]] = {}

    @property
    def promised(self) -> int:
        return self.log.promised

    @property
    def epoch(self) -> int:
        return self.log.adopted[0]

    @property
    def leader(self) -> Optional[str]:
        return self.log.adopted[1]

    @property
    def base(self) -> int:
        return self.log.adopted[2]

    @property
    def bases(self) -> Dict[int, int]:
        """epoch -> base, for every epoch adopted here."""
        return {epoch: base for epoch, (_, base) in self.log.adopts.items()}

    def wire(self) -> Dict[str, Any]:
        """The leadership digest gossip carries, and ``stats`` shows."""
        return {
            "epoch": self.epoch,
            "leader": self.leader,
            "base": self.base,
            "promised": self.promised,
        }

    # -- promises and adoptions ---------------------------------------------

    def promise(self, epoch: int) -> bool:
        """Promise ``epoch`` iff it is higher than any prior promise, in
        the log before returning True: the reply must not outrun the
        disk, or a crashed replica could re-promise the same epoch to a
        second candidate."""
        if epoch <= self.promised:
            return False
        self.log.promise(epoch)
        return True

    def adopt(self, epoch: int, leader: str, base: int) -> bool:
        """Adopt ``leader`` for ``epoch`` (monotonic; logged), as the
        winner or as a replica learning the outcome.  It implies a
        promise of ``epoch``: no later candidate gets that epoch here."""
        if epoch < self.epoch or (epoch, leader) == (self.epoch, self.leader):
            return False
        self.log.adopt(epoch, leader, int(base))
        return True

    def vote(self, epoch: int, frontier: int) -> Dict[str, Any]:
        """The reply to a candidate's ``elect`` request for ``epoch``
        (0 reads the adopted state): a promise iff ``epoch`` is new
        here, the adopted leadership, and the max order ``frontier``
        this replica has seen, from which a winner computes its base."""
        return {
            "promised": self.promise(epoch),
            "promised_epoch": self.promised,
            "epoch": self.epoch,
            "leader": self.leader,
            "base": self.base,
            "frontier": frontier,
        }

    def campaign(self) -> int:
        """Promise this replica a fresh epoch, and return it."""
        self.promise(self.promised + 1)
        return self.promised

    def win(
        self,
        epoch: int,
        frontier: int,
        replies: Iterable[Dict[str, Any]],
        quorum: int,
    ) -> Tuple[int, Optional[int]]:
        """``(votes, base)`` of a campaign for ``epoch``: our vote (with
        our ``frontier``) and every reply that promised.  With a
        ``quorum`` the caller adopts ``epoch`` at ``base``
        (:func:`resume_base`); without one ``base`` is None."""
        promises = [{"promised": True, "frontier": frontier}]
        promises += [reply for reply in replies if reply.get("promised")]
        if len(promises) < quorum:
            return len(promises), None
        return len(promises), resume_base(promises)

    def newest(
        self, replies: Iterable[Dict[str, Any]]
    ) -> Optional[Tuple[int, str, int]]:
        """The newest ``(epoch, leader, base)`` the ``elect`` replies
        name, if it is newer than the one adopted here."""
        best = max((
            (int(r.get("epoch", 0)), str(r["leader"]), int(r.get("base", 0)))
            for r in replies if r.get("leader")
        ), key=lambda found: found[0], default=None)
        return best if best is not None and best[0] > self.epoch else None

    def fence(self, engine: Any) -> None:
        """Merge every epoch adopted here into ``engine``'s fence, after
        a restore and before any replay: a fence that shrank to an old
        checkpoint's would pass a deposed leader's stale grants."""
        for epoch, base in sorted(self.bases.items()):
            engine.adopt_epoch(epoch, base)

    # -- the lease and the grants -------------------------------------------

    def heard(self, peer: str, epoch: int, now: float) -> None:
        """``peer`` gossiped ``epoch`` at ``now``: lease evidence."""
        self._peer_epochs[peer] = (epoch, now)

    def lease_held(self, now: float, quorum: int, window: float) -> bool:
        """The leader's lease: a ``quorum`` of the *full* membership,
        this replica included, gossiped the adopted epoch within
        ``window`` of ``now``.  A leader on the minority side of a
        partition loses it, so it never acks updates the majority's new
        leader will fence."""
        fresh = 1 + sum(
            1 for epoch, at in self._peer_epochs.values()
            if epoch == self.epoch and now - at < window
        )
        return fresh >= quorum

    def next_order(self, src: Any = None, rid: Any = None) -> GlobalOrder:
        """The next gap-free token at the adopted epoch, above its base,
        in the log before it is returned.  A re-sent request (same
        ``src`` and ``rid``, same epoch) gets the token it got."""
        epoch = self.epoch
        last = self.log.granted.get(src) if src is not None else None
        if last is not None and last[0] == rid and last[1][1] == epoch:
            return last[1]
        self.log.grant(max(self.log.next, self.base) + 1, epoch, src, rid)
        return (self.log.next, epoch)

    def grant(
        self, name: str, leader: str, lease: bool,
        src: Any = None, rid: Any = None,
    ) -> GlobalOrder:
        """:meth:`next_order`, if ``name`` may grant: it is the
        ``leader`` and holds its ``lease``."""
        if name != leader:
            raise ValueError("order tokens are issued by %s" % leader)
        if not lease:
            raise LeaseLost(
                "order authority lease not held at %s (epoch %d)"
                % (name, self.epoch)
            )
        return self.next_order(src, rid)
