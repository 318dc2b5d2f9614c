"""Model-based test of :class:`DurableOutbox`.

The outbox keeps its pending records as one dense window and its ack
frontier as markers in the log stream.  This drives it with random
operation sequences — appends, cumulative acks (fresh, stale,
duplicate, beyond everything assigned), rewinds, compactions, resets
and close-and-reopen — side by side with a reference object that
spells the same contract out the slow way (seq-keyed dicts, scans and
sorts, one number for the persisted frontier), and requires both to
agree on everything a caller can observe after every step.
"""

import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.live.durable_queue import DurableOutbox


def _blob(payload):
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


class ReferenceOutbox:
    """The contract, with dicts: ``log`` is what the file holds,
    ``pending`` what is owed to the receiver."""

    def __init__(self):
        self.log = {}
        self.pending = {}
        self.frontier = self.base = self.seq = 0
        self.regressed_acks = 0

    def append_many(self, payloads):
        seqs = []
        for payload in payloads:
            self.seq += 1
            self.log[self.seq] = self.pending[self.seq] = payload
            seqs.append(self.seq)
        return seqs

    def ack_through(self, seqno):
        if seqno > self.seq:
            self.regressed_acks += 1
            seqno = self.seq
        covered = sorted(s for s in self.pending if s <= seqno)
        self.frontier = max(self.frontier, seqno)
        return [(s, self.pending.pop(s)) for s in covered]

    def rewind_to(self, ack_seq):
        if ack_seq >= self.frontier:
            return True
        if ack_seq < self.base:
            return False
        for seq, payload in self.log.items():
            if seq > ack_seq:
                self.pending.setdefault(seq, payload)
        self.frontier = ack_seq
        return True

    def compact(self, through_seq):
        through = min(through_seq, self.frontier)
        if through <= self.base:
            return 0
        dropped = [s for s in self.log if s <= through]
        for seq in dropped:
            del self.log[seq]
        self.base = through
        return len(dropped)

    def reset_to(self, seqno):
        self.log.clear()
        self.pending.clear()
        self.base = self.frontier = self.seq = seqno

    def reopen(self):
        self.pending = {
            s: p for s, p in self.log.items() if s > self.frontier
        }
        self.regressed_acks = 0


payloads = st.lists(
    st.fixed_dictionaries(
        {"mset": st.fixed_dictionaries({"tid": st.text(max_size=4)})}
    ),
    min_size=1,
    max_size=5,
)


class OutboxMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="outbox-model-"))
        self.path = self.dir / "peer.log"
        self.real = DurableOutbox(self.path)
        self.ref = ReferenceOutbox()

    def teardown(self):
        self.real.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    @rule(batch=payloads, with_blobs=st.booleans())
    def append_many(self, batch, with_blobs):
        blobs = [_blob(p) for p in batch] if with_blobs else None
        assert self.real.append_many(batch, blobs=blobs) == (
            self.ref.append_many(batch)
        )

    @rule(data=st.data())
    def ack_through(self, data):
        # Stale, duplicate, fresh, and beyond anything assigned.
        seqno = data.draw(st.integers(0, self.ref.seq + 3))
        assert self.real.ack_through(seqno) == self.ref.ack_through(seqno)

    @rule(data=st.data())
    def rewind_to(self, data):
        ack_seq = data.draw(st.integers(0, self.ref.frontier + 1))
        assert self.real.rewind_to(ack_seq) == self.ref.rewind_to(ack_seq)

    @rule(data=st.data())
    def compact(self, data):
        through = data.draw(st.integers(0, self.ref.seq + 2))
        assert self.real.compact(through) == self.ref.compact(through)

    @rule(data=st.data())
    def reset_to(self, data):
        seqno = data.draw(st.integers(0, self.ref.seq + 5))
        self.real.reset_to(seqno)
        self.ref.reset_to(seqno)

    @rule()
    def close_and_reopen(self):
        self.real.close()
        self.real = DurableOutbox(self.path)
        self.ref.reopen()

    @precondition(lambda self: self.ref.pending)
    @rule(data=st.data())
    def sender_fetch(self, data):
        floor = data.draw(st.integers(0, self.ref.seq + 1))
        limit = data.draw(st.integers(1, 8))
        want = [
            (s, p) for s, p in sorted(self.ref.pending.items()) if s > floor
        ][:limit]
        assert self.real.pending_after(floor, limit) == want

    @invariant()
    def observably_equal(self):
        real, ref = self.real, self.ref
        assert real.frontier == ref.frontier
        assert real.base == ref.base
        assert real._seq == ref.seq
        assert real.pending() == sorted(ref.pending.items())
        assert real.backlog == len(ref.pending)
        assert real.drained() == (not ref.pending)
        assert real.regressed_acks == ref.regressed_acks
        for seq, payload in ref.pending.items():
            assert real.wire_blob(seq) == _blob(payload)
        # The dense-window invariant itself.
        assert real.backlog == real._seq - real.frontier
        assert not list(self.dir.glob("*.ack"))


TestOutboxModel = OutboxMachine.TestCase
