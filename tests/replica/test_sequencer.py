"""The sequencer's contract, each part checked against a reference.

As Ivy's replicated-store examples state the interface between primary
and secondary (``mid_spec``) apart from either implementation, each
model here keeps the slow, obvious account of what the sequencer
promised, adopted and granted, and every step is checked against it:

* a promise is monotonic and survives a reopen of its log;
* two candidates that need intersecting majorities never both adopt
  one epoch;
* the tokens granted within one epoch are gap-free, and a re-sent
  request gets the token it got;
* every grant after an adopt is above that epoch's base.

The last test drives three sequencers and three ORDUP engines by hand
through the handover that loses an acked update (ROADMAP item 1), with
no socket and no sleep.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.operations import IncrementOp
from repro.live.durable_queue import ControlLog
from repro.replica.engine import OrdupLiveEngine
from repro.replica.mset import MSet
from repro.replica.sequencer import LeaseLost, Sequencer, SequencerLog

NAMES = ("siteA", "siteB", "siteC", "siteD", "siteE")
QUORUM = len(NAMES) // 2 + 1


class PromiseMachine(RuleBasedStateMachine):
    """One replica's promises and adoptions over its ``control.log``,
    reopened at random: ``promised`` is the max epoch ever promised or
    adopted, and a promise succeeds iff its epoch is above it."""

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="sequencer-model-"))
        self.path = self.dir / "control.log"
        self.seq = Sequencer(ControlLog(self.path))
        #: every epoch promised or adopted, as returned.
        self.epochs = []

    def teardown(self):
        self.seq.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def _promised(self):
        return max(self.epochs, default=0)

    @rule(epoch=st.integers(0, 9))
    def promise(self, epoch):
        expected = epoch > self._promised()
        assert self.seq.promise(epoch) is expected
        if expected:
            self.epochs.append(epoch)

    @rule(epoch=st.integers(0, 9), leader=st.sampled_from(NAMES))
    def adopt(self, epoch, leader):
        if self.seq.adopt(epoch, leader, base=epoch):
            self.epochs.append(epoch)

    @rule()
    def campaign(self):
        epoch = self.seq.campaign()
        assert epoch == self._promised() + 1
        self.epochs.append(epoch)

    @rule()
    def reopen(self):
        self.seq.log.close()
        self.seq = Sequencer(ControlLog(self.path))

    @invariant()
    def promised_is_the_max_returned(self):
        assert self.seq.promised == self._promised()
        assert self.seq.log.load_errors == 0


TestPromiseModel = PromiseMachine.TestCase


class Reference:
    """What the sequencers have done, the slow way."""

    def __init__(self):
        #: epoch -> the one candidate that adopted it as its winner.
        self.winners = {}
        #: epoch -> the base its winner resumed at.
        self.bases = {}
        #: epoch -> every fresh seq granted in it, in order.
        self.grants = {}
        #: (src, rid, epoch) -> the token that request got.
        self.memo = {}


class ClusterMachine(RuleBasedStateMachine):
    """Five sequencers in memory.  A campaign is started, asked of
    voters and finished as separate steps, so two candidates' rounds
    for one epoch interleave; replicas restart from their logs and learn
    newer leaders; whoever leads grants."""

    def __init__(self):
        super().__init__()
        self.logs = {name: SequencerLog() for name in NAMES}
        self.seqs = {name: Sequencer(log) for name, log in self.logs.items()}
        #: candidate -> (epoch, the replies gathered so far).
        self.rounds = {}
        self.ref = Reference()

    @rule(candidate=st.sampled_from(NAMES))
    def start_campaign(self, candidate):
        self.rounds[candidate] = (self.seqs[candidate].campaign(), [])

    @precondition(lambda self: self.rounds)
    @rule(data=st.data(), voter=st.sampled_from(NAMES),
          frontier=st.integers(0, 20))
    def ask(self, data, voter, frontier):
        candidate = data.draw(st.sampled_from(sorted(self.rounds)))
        epoch, replies = self.rounds[candidate]
        if voter != candidate:
            replies.append(self.seqs[voter].vote(epoch, frontier))

    @precondition(lambda self: self.rounds)
    @rule(data=st.data(), frontier=st.integers(0, 20))
    def finish_campaign(self, data, frontier):
        candidate = data.draw(st.sampled_from(sorted(self.rounds)))
        self._tally(candidate, frontier)

    @rule(candidate=st.sampled_from(NAMES),
          voters=st.sets(st.sampled_from(NAMES)),
          frontier=st.integers(0, 20))
    def campaign(self, candidate, voters, frontier):
        """A whole round at once: start, ask ``voters``, finish."""
        self.start_campaign(candidate)
        epoch, replies = self.rounds[candidate]
        replies += [
            self.seqs[voter].vote(epoch, frontier)
            for voter in sorted(voters - {candidate})
        ]
        self._tally(candidate, frontier)

    def _tally(self, candidate, frontier):
        epoch, replies = self.rounds.pop(candidate)
        seq = self.seqs[candidate]
        votes, base = seq.win(epoch, frontier, replies, QUORUM)
        assert votes == 1 + sum(1 for r in replies if r["promised"])
        if base is None:
            assert votes < QUORUM
            return
        assert base == max(
            [frontier] + [r["frontier"] for r in replies if r["promised"]]
        )
        assert epoch not in self.ref.winners, (
            "%s and %s both won epoch %d"
            % (self.ref.winners.get(epoch), candidate, epoch)
        )
        self.ref.winners[epoch] = candidate
        if seq.adopt(epoch, candidate, base):
            self.ref.bases[epoch] = base

    @rule(name=st.sampled_from(NAMES), source=st.sampled_from(NAMES))
    def learn(self, name, source):
        """``name`` hears ``source``'s gossiped leadership."""
        newer = self.seqs[name].newest([self.seqs[source].wire()])
        if newer is not None:
            assert self.seqs[name].adopt(*newer)

    @rule(name=st.sampled_from(NAMES))
    def restart(self, name):
        self.seqs[name] = Sequencer(self.logs[name])

    @rule(src=st.sampled_from(NAMES[:2]), rid=st.integers(0, 1),
          data=st.data())
    def order(self, src, rid, data):
        leaders = [n for n, s in self.seqs.items() if s.leader == n]
        if not leaders:
            return
        seq = self.seqs[data.draw(st.sampled_from(leaders))]
        epoch = seq.epoch
        token = seq.next_order(src, rid)
        assert token[1] == epoch
        key = (src, rid, epoch)
        if key in self.ref.memo:  # a re-sent request: answered as before
            assert token == self.ref.memo[key]
            return
        fresh = self.ref.grants.setdefault(epoch, [])
        if fresh:
            assert token[0] == fresh[-1] + 1, "a gap in epoch %d" % epoch
        assert token[0] > self.ref.bases.get(epoch, 0)
        fresh.append(token[0])
        # The leader remembers only the requester's last request.
        for old in [k for k in self.ref.memo if k[::2] == (src, epoch)]:
            del self.ref.memo[old]
        self.ref.memo[key] = token

    @invariant()
    def every_adopted_epoch_has_one_leader(self):
        for seq in self.seqs.values():
            for epoch, (leader, _) in seq.log.adopts.items():
                if epoch in self.ref.winners:
                    assert leader == self.ref.winners[epoch]


TestClusterModel = ClusterMachine.TestCase


def test_a_grant_needs_the_leader_and_its_lease():
    seq = Sequencer()
    seq.adopt(1, "siteA", base=4)
    with pytest.raises(ValueError, match="issued by siteA"):
        seq.grant("siteB", "siteA", lease=True)
    with pytest.raises(LeaseLost):
        seq.grant("siteA", "siteA", lease=False)
    assert seq.grant("siteA", "siteA", lease=True) == (5, 1)


def test_the_lease_counts_fresh_peers_at_the_adopted_epoch():
    seq = Sequencer()
    seq.adopt(2, "siteA", base=0)
    seq.heard("siteB", 2, now=10.0)
    seq.heard("siteC", 1, now=10.0)  # an older epoch: no evidence
    assert seq.lease_held(now=10.5, quorum=2, window=0.75)
    assert not seq.lease_held(now=10.5, quorum=3, window=0.75)
    assert not seq.lease_held(now=11.0, quorum=2, window=0.75)


def test_a_re_sent_request_survives_a_reopen(tmp_path):
    path = tmp_path / "control.log"
    seq = Sequencer(ControlLog(path))
    seq.next_order("siteB", 7)
    token = seq.next_order("siteC", 3)
    seq.log.close()
    reborn = Sequencer(ControlLog(path))
    assert reborn.next_order("siteC", 3) == token
    assert reborn.next_order("siteC", 4) == (token[0] + 1, 0)


def _increment(seq, epoch):
    return MSet(
        tid="site0:%d" % seq,
        ops=(IncrementOp("acct", 1),),
        origin="site0",
        order=(seq, epoch),
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1, close the ORDUP safety bug: a new leader's "
    "base is what a majority has seen, not what the old sequencer "
    "granted, so an acked grant is fenced",
)
def test_an_acked_grant_survives_a_handover():
    """site0 grants 1-4 and acks 4 once it applies there; its peers
    have seen 1-3 when site2 wins epoch 1 with site1's promise.  Once
    every site adopts epoch 1 and seq 4 arrives, all must hold 4."""
    names = ("site0", "site1", "site2")
    seqs = {name: Sequencer() for name in names}
    engines = {name: OrdupLiveEngine(name, clock=lambda: 0.0)
               for name in names}
    for _ in range(4):
        mset = _increment(*seqs["site0"].next_order())
        engines["site0"].accept(mset, local=True)  # applied: acked
        if mset.order[0] < 4:
            for peer in ("site1", "site2"):
                engines[peer].accept(mset)

    epoch = seqs["site2"].campaign()
    reply = seqs["site1"].vote(epoch, engines["site1"].max_order_seen())
    _, base = seqs["site2"].win(
        epoch, engines["site2"].max_order_seen(), [reply], quorum=2
    )
    for name in names:
        seqs[name].adopt(epoch, "site2", base)
        engines[name].adopt_epoch(epoch, base)
    for peer in ("site1", "site2"):
        engines[peer].accept(mset)  # seq 4 arrives late

    assert {name: e.store.get("acct", 0) for name, e in engines.items()} == {
        name: 4 for name in names
    }
