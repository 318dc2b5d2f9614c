"""Durable epoch-fenced election state for the ORDUP sequencer.

The live ORDUP engine needs a single order authority.  Historically
that was the lexicographically-first site name — a fixed single point
of failure.  This module holds the small durable state machine that
lets the authority move:

* ``promised`` — the highest epoch this replica has promised to (it
  will never promise a lower epoch, nor accept a leader announcement
  for one).  Appended to the site's control log and synced *before*
  the promise reply is sent, so a crash and restart cannot un-promise.
* ``epoch`` / ``leader`` / ``base`` — the currently adopted leadership:
  the leader of ``epoch`` resumed sequencing from ``base`` (the max
  durable order frontier across the majority that elected it); every
  sequence number it grants is > ``base`` and travels with the epoch as
  a ``(seq, epoch)`` token.
* ``bases`` — per-epoch bases for every epoch this replica has adopted.
  The engine fences stale-epoch tokens from its own copy of this table
  (a token from old epoch ``e`` is admissible only if its seq is <= the
  base of every adopted epoch newer than ``e``: it was granted before
  the handover point and is merely late).  That copy travels in the
  engine checkpoint, so after every restore the server merges
  ``bases`` back into it before anything replays: a snapshot older
  than an adoption must not shrink the fence.

Safety argument (one leader per epoch): a candidate needs promises
from a majority of the full membership before adopting an epoch, and a
replica promises each epoch at most once (monotonic ``promised``,
durable).  Two leaders in the same epoch would need two disjoint
majorities — impossible.  Fencing then stops a deposed leader's grants
above the handover point: anything above the new leader's ``base``
carries a stale epoch that every fenced replica refuses.

What this does *not* give: ``base`` is the largest order frontier the
new leader's majority has *seen*, not what the old sequencer *granted*.
A grant the old sequencer made durable only in its own log, and acked,
can sit above ``base``; every replica that adopts the new epoch before
applying it then fences it for good — an acknowledged update lost
there, and the replicas diverge (ROADMAP: "Close the ORDUP safety bug";
``tests/live/test_election.py::TestSequencerFailover::
test_an_acked_update_survives_a_handover`` is its strict xfail).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:
    from .durable_queue import ControlLog

__all__ = ["ElectionState"]


class ElectionState:
    """Durable promise/adopt record for epoch-fenced leadership.

    ``log`` (the site's :class:`~repro.live.durable_queue.ControlLog`)
    holds it: the state starts as the log's fold, and each transition
    ends in one append, synced before it returns.  Without one the
    state is in memory only."""

    def __init__(self, log: Optional["ControlLog"] = None) -> None:
        self._log = log
        self.promised = 0
        self.epoch = 0
        self.leader: Optional[str] = None
        self.base = 0
        #: epoch -> base, for every epoch adopted at this replica.
        self.bases: Dict[int, int] = {}
        if log is not None:
            self.promised = log.promised
            for epoch, (leader, base) in sorted(log.adopts.items()):
                self.epoch, self.leader, self.base = epoch, leader, base
                self.bases[epoch] = base

    # ------------------------------------------------------------------
    # transitions

    def promise(self, epoch: int) -> bool:
        """Promise ``epoch`` iff it is higher than any prior promise.

        Durable before returning True — the reply must not outrun the
        disk, or a crashed replica could re-promise the same epoch to a
        second candidate.
        """
        if epoch <= self.promised:
            return False
        if self._log is not None:
            self._log.promise(epoch)
        self.promised = epoch
        return True

    def adopt(self, epoch: int, leader: str, base: int) -> bool:
        """Adopt ``leader`` for ``epoch`` (monotonic; durable).

        Used both by the winning candidate itself and by replicas
        learning the outcome.  Adoption implies a promise at least as
        high — a replica that adopts epoch ``e`` will never promise
        ``e`` to a later candidate.
        """
        if epoch < self.epoch:
            return False
        if epoch == self.epoch and self.leader == leader:
            return False
        base = int(base)
        if self._log is not None:
            self._log.adopt(epoch, leader, base)
        self.epoch = epoch
        self.leader = leader
        self.base = base
        self.bases[epoch] = base
        if self.promised < epoch:
            self.promised = epoch
        return True

    # ------------------------------------------------------------------
    # views

    def wire(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "leader": self.leader,
            "base": self.base,
            "promised": self.promised,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "ElectionState(epoch=%d leader=%r base=%d promised=%d)" % (
            self.epoch, self.leader, self.base, self.promised,
        )
