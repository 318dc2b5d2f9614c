"""Model-based test of :class:`DurableOutbox`, the replication log.

The log holds every record once, in one window shared by N per-peer
cursors, and keeps each cursor as markers in the log stream.  The
oracle is the contract it replaced: N *independent* single-channel
outboxes, one per peer, each fed the same appends and spelled out the
slow way (seq-keyed dicts, scans and sorts, one number for the
persisted frontier).  Random operation sequences — appends, per-peer
cumulative acks (fresh, stale, duplicate, beyond everything assigned),
per-peer rewinds (also below the slowest cursor), compactions, resets,
a cursor added mid-stream, close-and-reopen with and without a torn
tail — run against both, and after every step each cursor must agree
with its own reference on everything a caller can observe.  On top of
that the log's one extra promise is checked against the references
taken together: ``ack_through`` hands back exactly the records that
just became acknowledged by *all* peers, each exactly once, as what the
server's ``release`` makes of them — the same whether the record was
appended (with or without its blob, its release passed or derived),
reloaded after a restart or brought back by a rewind — while the
window holds each owed record as its wire blob and that release, never
the payload.

The references differ from free-standing outboxes in one deliberate
way: there is one file, so a compaction cuts all of them at the same
place — never past the slowest cursor.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.live.durable_queue import DurableOutbox
from repro.live.protocol import payload_blob
from repro.live.server import _full_ack_release

PEERS = ("p0", "p1", "p2")


def _blob(payload):
    return payload_blob(payload)


class ReferenceOutbox:
    """One channel's contract, with dicts: ``log`` is what the file
    holds, ``pending`` what is owed to the receiver."""

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


ops = st.lists(
    st.tuples(st.just("inc"), st.sampled_from("xyz"), st.integers(0, 9)).map(
        list
    ),
    max_size=3,
)
payloads = st.lists(
    st.fixed_dictionaries(
        {
            "mset": st.fixed_dictionaries(
                {"tid": st.text(max_size=4), "ops": ops}
            )
        }
    ),
    min_size=1,
    max_size=5,
)


def _outbox(path):
    return DurableOutbox(path, release=_full_ack_release)


class OutboxMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="outbox-model-"))
        self.path = self.dir / "replication.log"
        self.real = _outbox(self.path)
        self.refs = {}
        #: sequence numbers already handed back as acknowledged by all.
        self.released = set()

    def teardown(self):
        self.real.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    @property
    def seq(self):
        return self.real._seq

    def acked_by_all(self):
        return set(range(1, self.seq + 1)).difference(
            *(ref.pending for ref in self.refs.values())
        )

    def _add(self, peer):
        ref = self.refs[peer] = ReferenceOutbox()
        # A new channel is owed what is appended from here on; the
        # file it points into is the one everyone shares.
        ref.reset_to(self.seq)
        others = [r for p, r in self.refs.items() if p != peer]
        if others:
            ref.log, ref.base = dict(others[0].log), others[0].base
        assert self.real.add_cursor(peer) is True
        assert self.real.add_cursor(peer) is False

    @initialize(n=st.integers(1, 3))
    def open_cursors(self, n):
        for peer in PEERS[:n]:
            self._add(peer)

    @precondition(lambda self: len(self.refs) < len(PEERS))
    @rule()
    def add_cursor(self):
        self._add(PEERS[len(self.refs)])

    @rule(batch=payloads, with_blobs=st.booleans(), passed=st.booleans())
    def append_many(self, batch, with_blobs, passed):
        blobs = [_blob(p) for p in batch] if with_blobs else None
        # The origin's group passes each record's release; else the
        # log derives it.
        releases = list(map(_full_ack_release, batch)) if passed else None
        seqs = self.real.append_many(batch, blobs=blobs, releases=releases)
        for ref in self.refs.values():
            assert ref.append_many(batch) == seqs

    @rule(data=st.data())
    def ack_through(self, data):
        peer = data.draw(st.sampled_from(sorted(self.refs)))
        # Stale, duplicate, fresh, and beyond anything assigned.
        seqno = data.draw(st.integers(0, self.seq + 3))
        payload_of = dict(self.refs[peer].pending)
        self.refs[peer].ack_through(seqno)
        fresh = sorted(self.acked_by_all() - self.released)
        released = self.real.ack_through(peer, seqno)
        hi = self.real.released_hi
        assert list(zip(range(hi - len(released) + 1, hi + 1), released)) == [
            (seq, _full_ack_release(payload_of[seq])) for seq in fresh
        ]
        self.released.update(fresh)

    @rule(data=st.data())
    def rewind_to(self, data):
        peer = data.draw(st.sampled_from(sorted(self.refs)))
        ref = self.refs[peer]
        ack_seq = data.draw(st.integers(0, ref.frontier + 1))
        assert self.real.rewind_to(peer, ack_seq) == ref.rewind_to(ack_seq)

    @rule(data=st.data())
    def compact(self, data):
        through = data.draw(st.integers(0, self.seq + 2))
        through = min(
            [through] + [ref.frontier for ref in self.refs.values()]
        )
        dropped = {ref.compact(through) for ref in self.refs.values()}
        assert dropped == {self.real.compact(through)}

    @rule(data=st.data())
    def reset_to(self, data):
        seqno = data.draw(st.integers(0, self.seq + 5))
        self.real.reset_to(seqno)
        for ref in self.refs.values():
            ref.reset_to(seqno)
        self.released = set(range(1, seqno + 1))

    @rule(torn=st.booleans())
    def close_and_reopen(self, torn):
        self.real.close()
        if torn:
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write('{"seq": %d, "payl' % (self.seq + 1))
        self.real = _outbox(self.path)
        for ref in self.refs.values():
            ref.reopen()
        # What every peer held before the restart is recovery's to
        # release, not a later ack's.
        self.released = self.acked_by_all()

    @rule(data=st.data())
    def sender_fetch(self, data):
        peer = data.draw(st.sampled_from(sorted(self.refs)))
        floor = data.draw(st.integers(0, self.seq + 1))
        limit = data.draw(st.integers(1, 8))
        want = [
            (s, _blob(p))
            for s, p in sorted(self.refs[peer].pending.items())
            if s > floor
        ][:limit]
        first, blobs = self.real.pending_after(peer, floor, limit)
        assert first == max(floor, self.refs[peer].frontier) + 1
        assert list(enumerate(blobs, first)) == want

    @invariant()
    def observably_equal(self):
        real = self.real
        owed = {}
        for peer, ref in self.refs.items():
            assert real.frontier(peer) == ref.frontier
            assert real.pending(peer) == [
                (s, _blob(p)) for s, p in sorted(ref.pending.items())
            ]
            assert real.backlog(peer) == len(ref.pending)
            assert real.regressed_acks.get(peer, 0) == ref.regressed_acks
            assert (real.base, real._seq) == (ref.base, ref.seq)
            owed.update(ref.pending)
        # Each owed record is held as its wire blob and its release.
        held = real._window[real._start:]
        assert held == [
            (_blob(owed[seq]), _full_ack_release(owed[seq]))
            for seq in range(real._head + 1, real._seq + 1)
        ]
        assert real.drained() == (not owed)
        assert real.released_hi == max(self.released, default=0)
        # One dense window, anchored at the slowest cursor.
        slowest = min(ref.frontier for ref in self.refs.values())
        assert real._head == slowest
        assert len(real._window) - real._start == real._seq - slowest
        assert [p.name for p in self.dir.iterdir()] == [self.path.name]


TestOutboxModel = OutboxMachine.TestCase
