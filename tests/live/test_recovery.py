"""``Recovery``'s rules, checked against a reference.

One replica's recovery state is driven with no socket and no event
loop: its channel frontiers move, recoveries start, absorb triggers and
end, batch gaps arrive, boot surveys hear from any subset of the peers,
and peer images are translated and judged.  After every step its
answers are checked against the slow, obvious account a ``Reference``
keeps:

* an image is installed only when it is at or ahead of this site on
  every channel and its ``_local`` frontier reaches the highest tid any
  answering peer holds from this site; one at or behind everywhere is
  current, anything else diverged;
* a boot survey concludes fresh only once every peer has answered with
  no evidence of a former life; evidence (a peer holding this site's
  updates or its acks, or a batch past the empty inbox) turns it into an
  install from that peer first;
* translation swaps ``_local`` and the source's channel, and is the
  identity for a same-named source.

``TestImage`` runs the adopt and persist steps over real logs.
"""

import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.operations import IncrementOp
from repro.live.durable_queue import ControlLog, DurableInbox, DurableOutbox
from repro.live.engine import make_engine
from repro.live.protocol import encode_mset
from repro.live.snapshot import (
    CURRENT,
    DIVERGED,
    INSTALL,
    LOCAL_CHANNEL as LOCAL,
    SURVEY,
    Recovery,
    SnapshotError,
    SnapshotStore,
)
from repro.replica.mset import MSet, MSetKind
from repro.replica.sequencer import Sequencer

SELF = "siteA"
PEERS = ("siteB", "siteC")
CHANNELS = (LOCAL,) + PEERS
REASONS = ("boot", "peer-reset", "regressed-ack")


class Reference:
    """What the recovery rules must answer, the slow way."""

    state, preferred, clean = None, None, frozenset()

    def judge(self, mine, image, required):
        if image[LOCAL] >= required and all(image[c] >= mine[c] for c in mine):
            return INSTALL
        return CURRENT if all(image[c] <= mine[c] for c in mine) else DIVERGED

    def survey(self, held, acked, local):
        """None: fresh; "wait": undecided; else the tid floor."""
        proof = [p for p in held if held[p] or acked[p]]
        if self.state == SURVEY and not proof:
            self.clean |= set(held)
            return None if self.clean == set(PEERS) else "wait"
        if self.state == SURVEY:
            self.state, self.preferred = INSTALL, proof[0]
        return max([local, *held.values()]) if held else "wait"

    def translate(self, source, frontiers):
        names = {LOCAL: SELF, source: LOCAL} if source != SELF else {}
        return {c: frontiers[names.get(c, c)] for c in CHANNELS}


seqs = st.integers(0, 4)


class RecoveryMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="recovery-model-"))
        self.log = SimpleNamespace(assigned=0, base=0)
        self.inboxes = {p: SimpleNamespace(frontier=0, base=0) for p in PEERS}
        self.real = Recovery(
            SELF, "commu", self.dir / "snapshot.json", None,
            self.log, self.inboxes, None,
        )
        self.ref = Reference()

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def mine(self):
        return {LOCAL: self.log.assigned, **{
            p: box.frontier for p, box in self.inboxes.items()
        }}

    @rule(channel=st.sampled_from(CHANNELS), seq=seqs)
    def move(self, channel, seq):
        if channel == LOCAL:
            self.log.assigned = seq
        else:
            self.inboxes[channel].frontier = seq

    @rule(reason=st.sampled_from(REASONS),
          preferred=st.none() | st.sampled_from(PEERS))
    def enter(self, reason, preferred):
        started = self.real.enter(reason, preferred)
        ref = self.ref
        assert started == (ref.state is None)
        if started:
            ref.state = SURVEY if reason == "boot" else INSTALL
            ref.preferred, ref.clean = preferred, frozenset()
        elif ref.state == SURVEY:
            ref.state, ref.preferred = INSTALL, preferred

    @rule(peer=st.sampled_from(PEERS))
    def batch_gap(self, peer):
        self.real.evidence(peer)
        if self.ref.state == SURVEY:
            self.ref.state, self.ref.preferred = INSTALL, peer

    @rule()
    def leave(self):
        self.real.leave()
        self.ref.state = None

    @rule(data=st.data())
    def survey(self, data):
        if self.ref.state is None:
            return
        answering = data.draw(st.lists(
            st.sampled_from(PEERS), unique=True, max_size=len(PEERS)
        ))
        held = {p: data.draw(st.sampled_from([0, 0, 0, 3])) for p in answering}
        acked = {p: data.draw(st.sampled_from([0, 0, 0, 2])) for p in answering}
        replies = {p: {"stats": {
            "inbox_frontier": {SELF: held[p], "siteZ": data.draw(seqs)},
            "ack_high_water": {SELF: acked[p]},
        }} for p in answering}
        want = self.ref.survey(held, acked, self.log.assigned)
        if want == "wait":
            with pytest.raises(ConnectionError):
                self.real.survey(replies)
            return
        got = self.real.survey(replies)
        if want is None:
            assert got is None
            return
        candidates, required = got
        assert required == want
        assert sorted(candidates) == sorted(answering)
        if self.ref.preferred in answering:
            assert candidates[0] == self.ref.preferred
        rest = [held[p] for p in candidates if p != self.ref.preferred]
        assert rest == sorted(rest, reverse=True)

    @rule(source=st.sampled_from(PEERS + (SELF,)), data=st.data())
    def translate(self, source, data):
        names = CHANNELS + (SELF,)
        frontiers = {c: data.draw(seqs) for c in names}
        assert self.real.translate(source, frontiers) == self.ref.translate(
            source, frontiers
        )

    @rule(data=st.data(), required=seqs)
    def judge(self, data, required):
        mine = self.mine()
        image = {c: max(0, mine[c] + data.draw(st.integers(-1, 1)))
                 for c in CHANNELS}
        assert self.real.judge(image, required) == self.ref.judge(
            mine, image, required
        )

    @invariant()
    def same_state(self):
        assert self.real.state == self.ref.state
        if self.ref.state == INSTALL:
            assert self.real.preferred == self.ref.preferred


TestRecoveryModel = RecoveryMachine.TestCase


def _mset(origin, seq, amount):
    return MSet(
        "%s:%d" % (origin, seq), MSetKind.UPDATE, (IncrementOp("k", amount),),
        origin=origin,
    )


def _replica(path, name=SELF):
    """A replica's recovery over real logs, an engine and a sequencer."""
    peers = sorted({SELF, *PEERS} - {name})
    engine = make_engine("commu", name)
    log = DurableOutbox(path / "replication.log")
    inboxes = {p: DurableInbox(path / ("%s.log" % p)) for p in peers}
    for peer in peers:
        log.add_cursor(peer)
    election = Sequencer(ControlLog(path / "control.log"))
    return Recovery(
        name, "commu", path / "snapshot.json", engine, log, inboxes,
        election,
    )


class TestImage:
    def test_capture_then_recover_skips_what_the_image_holds(self, tmp_path):
        """Boot adopts the image and replays only the tails above it."""
        first = _replica(tmp_path)
        inbox = first.inboxes["siteB"]
        for seq in (1, 2, 3):
            mset = _mset("siteB", seq, seq)
            inbox.record(seq, {"mset": encode_mset(mset)})
            first.engine.accept(mset)
            if seq == 2:
                frontiers, size = first.capture(now=1.0)
        assert frontiers == {LOCAL: 0, "siteB": 2, "siteC": 0}
        assert size > 0 and first.image_at == 1.0
        assert first.compact(frontiers) == [("inbox/siteB", 2, 2)]
        want = first.engine.snapshot()

        again = _replica(tmp_path)
        assert not again.blank()
        again.recover(now=5.0)
        assert again.engine.snapshot() == want == {"k": 6}
        assert again.image_frontiers == frontiers
        assert again.stats(now=6.0)["snapshot"]["age"] == 1.0

    def test_install_moves_every_lagging_log_up_and_persists(self, tmp_path):
        source = _replica(tmp_path / "b", "siteB")
        mset = _mset("siteB", 1, 7)
        source.log.append({"mset": encode_mset(mset)})
        source.engine.accept(mset, local=True)
        source.capture(now=0.0)
        raw = source.store.path.read_text()

        target = _replica(tmp_path / "a")
        assert target.blank()
        image, frontiers = target.receive("siteB", raw, len(raw))
        assert frontiers == {LOCAL: 0, "siteB": 1, "siteC": 0}
        assert target.judge(frontiers) == INSTALL
        assert target.install(frontiers, image, now=2.0) > 0
        assert target.inboxes["siteB"].frontier == 1
        assert target.engine.snapshot() == {"k": 7}
        assert target.installs == 1
        assert target.judge(frontiers) == INSTALL  # equal everywhere
        assert target.judge({**frontiers, "siteB": 0}) == CURRENT
        assert SnapshotStore(target.store.path).load()["site"] == SELF
        with pytest.raises(SnapshotError, match="truncated"):
            target.receive("siteB", raw[:-1], len(raw))
        with pytest.raises(SnapshotError, match="site"):
            target.receive("siteC", raw, len(raw))
