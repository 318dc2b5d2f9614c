"""``Membership``'s contract, checked against a reference.

One replica's membership is driven with no socket and no event loop:
heartbeats, time passing, gossiped records of any incarnation, status
and address (for a known or a new name), configured addresses, and
reopens over the same control log.  After every step its answers are
checked against the slow, obvious account a ``Reference`` keeps:

* a peer is alive exactly when it is watched and its staleness is
  within its timeout, and a dead peer is not alive;
* each suspicion edge is reported once;
* a peer's address is its configured (or gossip-moved) one, else its
  table record's; a gossiped wildcard host never replaces a known one;
* the quorum is a majority of the non-``LEFT`` records, floored at the
  peer set plus this node;
* the election's candidate ranking;
* this node's incarnation rises on every reopen.

The detector's adaptive bound is read from ``FailureDetector.timeout``:
``test_gossip.py`` checks that bound.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.live.durable_queue import ControlLog
from repro.live.gossip import (
    ALIVE,
    DEAD,
    LEFT,
    STATUS_SEVERITY,
    SUSPECT,
    Membership,
    NodeRecord,
)

SELF = "siteA"
STATIC = ("siteB", "siteC")
NAMES = (SELF,) + STATIC + ("siteD", "siteE", "siteF")
FLOOR = 0.5
ADDRS = (("127.0.0.1", 7001), ("127.0.0.1", 7002), ("10.0.0.2", 7001))
WILDCARDS = (("0.0.0.0", 7001), ("::", 7002))


class Reference:
    """What one replica's membership must answer, the slow way."""

    def __init__(self):
        self.peers, self.addrs, self.last = set(STATIC), {}, {}
        self.suspected = set()

    def alive(self, peer, now, timeout):
        return peer in self.last and now - self.last[peer] <= timeout

    def merged(self, table, changed):
        for rec in map(table.get, changed):
            if rec.name != SELF and rec.status != LEFT and rec.shard is None:
                if rec.host and rec.port:
                    self.peers.add(rec.name)
                    wildcard = rec.host in ("0.0.0.0", "::")
                    if not (wildcard and rec.name in self.addrs):
                        self.addrs[rec.name] = (rec.host, rec.port)

    def quorum(self, table):
        members = sum(rec.status != LEFT for rec in table.records())
        return max(members, len(self.peers) + 1) // 2 + 1

    def best(self, table, live):
        incarnation = {rec.name: rec.incarnation for rec in table.records()}
        return min([SELF, *live], key=lambda n: (-incarnation.get(n, 0), n))


class MembershipMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="membership-model-"))
        self.path = self.dir / "control.log"
        self.now = 100.0
        self._open()

    def _open(self):
        self.log = ControlLog(self.path)
        self.m = Membership(SELF, (SELF,) + STATIC, FLOOR)
        self.m.open(self.log)
        self.ref = Reference()

    def teardown(self):
        self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def _alive(self, peer):
        return self.ref.alive(peer, self.now, self.m.detector.timeout(peer))

    @rule(data=st.data())
    def heartbeat(self, data):
        peer = data.draw(st.sampled_from(self.m.peers))
        self.m.detector.heartbeat(peer, self.now)
        self.ref.last[peer] = self.now

    @rule(data=st.data())
    def watch(self, data):
        peer = data.draw(st.sampled_from(self.m.peers))
        self.m.detector.watch(peer, self.now)
        self.ref.last.setdefault(peer, self.now)

    @rule(dt=st.sampled_from([0.0625, 0.125, 0.25, 0.5, 1.0, 2.0]))
    def advance(self, dt):
        self.now += dt

    @rule()
    def check(self):
        edges = self.m.check(self.now)
        down = {p for p in self.ref.peers if not self._alive(p)}
        assert [p for p, s in edges if s == SUSPECT] == sorted(
            down - self.ref.suspected
        )
        for peer, status in edges:
            if status == DEAD:
                assert peer in down and self.m.dead(peer, self.now)
                assert self.m.table.get(peer).status == DEAD
        self.ref.suspected = down

    @rule(
        name=st.sampled_from(NAMES),
        incarnation=st.integers(0, 4),
        status=st.sampled_from(sorted(STATUS_SEVERITY)),
        addr=st.sampled_from(ADDRS + WILDCARDS + (("", 0),)),
        shard=st.sampled_from([None, None, 1]),
        frontier=st.integers(0, 3),
    )
    def merge(self, name, incarnation, status, addr, shard, frontier):
        record = NodeRecord(
            name, *addr, incarnation=incarnation, status=status,
            frontier=frontier, shard=shard,
        )
        before = {rec.name: rec.wire() for rec in self.m.table.records()}
        peers, addrs = set(self.ref.peers), dict(self.ref.addrs)
        joined, moved = self.m.merge([record.wire()])
        changed = [
            rec.name for rec in self.m.table.records()
            if rec.wire() != before.get(rec.name)
        ]
        self.ref.merged(self.m.table, changed)
        assert sorted(joined) == sorted(self.ref.peers - peers)
        assert sorted(moved) == sorted(
            p for p in peers if self.ref.addrs.get(p) != addrs.get(p)
        )

    @rule(peer=st.sampled_from(NAMES), addr=st.sampled_from(ADDRS))
    def configure(self, peer, addr):
        self.m.configure({peer: addr})
        if peer != SELF:
            self.ref.addrs[peer] = addr

    @rule()
    def reopen(self):
        before = self.m.table.self_record().incarnation
        self.log.close()
        self._open()
        assert self.m.table.self_record().incarnation > before
        assert self.m.table.self_record().status == ALIVE

    @invariant()
    def liveness(self):
        for peer in NAMES:
            alive = self.m.alive(peer, self.now)
            assert alive == self._alive(peer), peer
            if self.m.dead(peer, self.now):
                assert not alive
        assert self.m.suspected(self.now) == tuple(
            sorted(p for p in self.ref.peers if not self._alive(p))
        )

    @invariant()
    def peers_and_addresses(self):
        assert self.m.peers == tuple(sorted(self.ref.peers))
        for peer in NAMES:
            assert self.m.address(peer) == (
                self.ref.addrs.get(peer) or self.m.table.address(peer)
            ), peer

    @invariant()
    def quorum(self):
        assert self.m.quorum() == self.ref.quorum(self.m.table)

    @invariant()
    def ranking(self):
        live = {p for p in self.ref.peers if self._alive(p)}
        for exclude in [()] + [(p,) for p in self.m.peers]:
            assert self.m.best_candidate(self.now, exclude) == self.ref.best(
                self.m.table, live - set(exclude)
            ), exclude


TestMembershipModel = MembershipMachine.TestCase


def test_a_wildcard_announcement_keeps_the_configured_address(tmp_path):
    """A peer bound to 0.0.0.0 gossips that host: it is not where the
    peer can be dialed, so the configured address stays."""
    log = ControlLog(tmp_path / "control.log")
    try:
        m = Membership("site1", ("site0", "site1"), FLOOR)
        m.open(log)
        m.configure({"site0": ("10.0.0.1", 7000)})
        record = NodeRecord("site0", "0.0.0.0", 7000, incarnation=1)
        assert m.merge([record.wire()]) == ([], [])
        assert m.address("site0") == ("10.0.0.1", 7000)
    finally:
        log.close()
