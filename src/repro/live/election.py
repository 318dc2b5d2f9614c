"""Durable epoch-fenced election state for the ORDUP sequencer.

The live ORDUP engine needs a single order authority.  Historically
that was the lexicographically-first site name — a fixed single point
of failure.  This module holds the small durable state machine that
lets the authority move:

* ``promised`` — the highest epoch this replica has promised to (it
  will never promise a lower epoch, nor accept a leader announcement
  for one).  Persisted *before* the promise reply is sent, so a crash
  and restart cannot un-promise.
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

import json
import logging
from pathlib import Path
from typing import Any, Dict, Optional

from .snapshot import write_atomic

__all__ = ["ElectionState"]

log = logging.getLogger(__name__)


class ElectionState:
    """Durable promise/adopt record for epoch-fenced leadership."""

    def __init__(self, path: Optional[Path] = None) -> None:
        self.path = path
        self.promised = 0
        self.epoch = 0
        self.leader: Optional[str] = None
        self.base = 0
        #: epoch -> base, for every epoch adopted at this replica.
        self.bases: Dict[int, int] = {}
        #: loads that found the record present but unreadable.
        self.load_errors = 0

    # ------------------------------------------------------------------
    # persistence

    def load(self) -> None:
        if self.path is None or not self.path.exists():
            return
        try:
            raw = json.loads(self.path.read_text())
            promised = int(raw.get("promised", 0))
            epoch = int(raw.get("epoch", 0))
            base = int(raw.get("base", 0))
            bases = {int(k): int(v) for k, v in raw.get("bases", {}).items()}
        except (ValueError, AttributeError, TypeError, OSError) as exc:
            # The atomic rewrite never leaves such a file: this is
            # outside damage, and restarting from zero forgets promises
            # the fence depends on — never do it silently.
            self.load_errors += 1
            log.error("election record %s unreadable: %r", self.path, exc)
            return
        self.promised, self.epoch, self.base = promised, epoch, base
        self.leader, self.bases = raw.get("leader"), bases

    def _persist(self) -> None:
        """Durable on return (temp file + fsync + rename): a crash at
        any instant keeps the previous record or this one, whole."""
        if self.path is None:
            return
        payload = {
            "promised": self.promised,
            "epoch": self.epoch,
            "leader": self.leader,
            "base": self.base,
            "bases": {str(k): v for k, v in self.bases.items()},
        }
        write_atomic(self.path, json.dumps(payload).encode("utf-8"))

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
        self.promised = epoch
        self._persist()
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
        self.epoch = epoch
        self.leader = leader
        self.base = int(base)
        self.bases[epoch] = int(base)
        if self.promised < epoch:
            self.promised = epoch
        self._persist()
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
