"""Model-based test of :class:`DurableInbox`.

Drives the inbox with random operation sequences — single records
(fresh, duplicate, past a gap), batch records of the next run,
compactions, resets,
close-and-reopen with and without a torn tail — side by side with a
list that spells the contract out, and requires both to agree on
everything a caller can observe after every step, ``replay()``
included.
"""

import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.live.durable_queue import DurableInbox


def _blob(payload):
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


class ReferenceInbox:
    """The contract, with a list: ``log`` is what recovery replays."""

    def __init__(self):
        self.log = []
        self.frontier = self.base = self.compacted = 0

    def record(self, seqno, payload):
        if seqno != self.frontier + 1:
            return False
        self.log.append((seqno, payload))
        self.frontier = seqno
        return True

    def compact(self, through_seq):
        through = min(through_seq, self.frontier)
        if through <= self.base:
            return 0
        kept = [(s, p) for s, p in self.log if s > through]
        dropped = len(self.log) - len(kept)
        self.log, self.base = kept, through
        self.compacted += dropped
        return dropped

    def reset_to(self, seqno):
        self.log = []
        self.base = self.frontier = seqno


payload = st.fixed_dictionaries(
    {"mset": st.fixed_dictionaries({"tid": st.text(max_size=4)})}
)
#: where a delivery starts relative to the next expected record:
#: a duplicate, the expected one, or one past a gap.
offsets = st.sampled_from([-1, 0, 0, 0, 1])


class InboxMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="inbox-model-"))
        self.path = self.dir / "peer.log"
        self.real = DurableInbox(self.path)
        self.ref = ReferenceInbox()

    def teardown(self):
        self.real.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    @rule(item=payload, offset=offsets, with_blob=st.booleans())
    def record(self, item, offset, with_blob):
        seqno = self.ref.frontier + 1 + offset
        blob = _blob(item) if with_blob else None
        assert self.real.record(seqno, item, blob) == (
            self.ref.record(seqno, item)
        )

    @rule(batch=st.lists(payload, min_size=1, max_size=5))
    def record_many(self, batch):
        # The receive path hands over the run past the frontier only.
        first = self.ref.frontier + 1
        blobs = [_blob(p) for p in batch]
        assert self.real.record_many(blobs=blobs) == len(batch)
        for seqno, item in enumerate(batch, first):
            assert self.ref.record(seqno, item)

    @rule(data=st.data())
    def compact(self, data):
        through = data.draw(st.integers(0, self.ref.frontier + 2))
        assert self.real.compact(through) == self.ref.compact(through)

    @rule(data=st.data())
    def reset_to(self, data):
        seqno = data.draw(st.integers(0, self.ref.frontier + 5))
        self.real.reset_to(seqno)
        self.ref.reset_to(seqno)

    @rule(torn=st.sampled_from([b"", b'{"seq":', b'{"seq":1,"payload":{}}']))
    def close_and_reopen(self, torn):
        self.real.close()
        if torn:
            # A crash mid-append: bytes of a record, never its newline.
            with self.path.open("ab") as handle:
                handle.write(torn)
        self.real = DurableInbox(self.path)

    @invariant()
    def observably_equal(self):
        real, ref = self.real, self.ref
        assert real.frontier == ref.frontier
        assert real.base == ref.base
        assert list(real.replay()) == ref.log
        assert real.duplicate(ref.frontier)
        assert not real.duplicate(ref.frontier + 1)

    @invariant()
    def file_is_the_state(self):
        # What a restart would see is what the running inbox reports.
        again = DurableInbox(self.path)
        try:
            assert again.frontier == self.ref.frontier
            assert again.base == self.ref.base
            assert list(again.replay()) == self.ref.log
        finally:
            again.close()


TestInboxModel = InboxMachine.TestCase
