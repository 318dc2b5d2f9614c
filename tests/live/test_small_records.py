"""The small durable records — election promise and adoptions, the
order-token counter, membership incarnations — are durable in fact.

All of them are typed records in one appended log
(:class:`repro.live.durable_queue.ControlLog`, ``<data>/control.log``),
folded on reload and rewritten to the current state at snapshot time.
The crash tests kill each kind of change at every append boundary and
a compaction at every rewrite boundary, then reload: ``promised``, the
adopted ``epoch``, the grant counter and our incarnation never fall
below the last value the dying process returned.  A record that is
present but unusable is outside damage, and loading it is loud.

A model-based test drives promises, adoptions, grants, member changes,
compactions and crash-and-reopen (with and without a torn tail) in
random order against a reference that keeps every returned change in
a list.
"""

import logging
import os
import pathlib
import shutil
import tempfile

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro.live.durable_queue as durable_queue
from repro.live.durable_queue import ControlLog
from repro.live.gossip import ALIVE, DEAD, SUSPECT, MembershipTable, NodeRecord
from repro.replica.sequencer import Sequencer


class _Crash(Exception):
    """Stands in for the process dying at a chosen instant."""


def _die(*args, **kwargs):
    raise _Crash


class _DyingWriter:
    """The open log, dying ``keep`` characters into its next write."""

    def __init__(self, real, keep):
        self.real, self.keep = real, keep

    def write(self, data):
        self.real.write(data[: self.keep])
        self.real.flush()
        raise _Crash


class _Site:
    """One site's control log and the two views over it, as ``bind``
    opens them."""

    def __init__(self, path, fsync=False):
        self.log = ControlLog(path, fsync=fsync)
        self.election = Sequencer(self.log)
        self.table = MembershipTable("siteA", self.log)


def _lines(path):
    return path.read_text().splitlines()


APPEND_BOUNDARIES = ["before-write", "torn-line", "before-fsync"]


def _arm_append(boundary, log, monkeypatch):
    """Make the log's next append die at ``boundary``."""
    if boundary == "before-fsync":
        monkeypatch.setattr(durable_queue.os, "fsync", _die)
    else:
        keep = 0 if boundary == "before-write" else 9
        log._log = _DyingWriter(log._log, keep)


def _refute(site, n):
    """Gossip that suspects us just below incarnation ``n``: we refute
    it at ``n``."""
    rumor = NodeRecord("siteA", incarnation=n - 1, status=SUSPECT)
    site.table.merge([rumor.wire()])


#: kind -> (move the value to ``n``, the value that must not regress,
#: what a reboot adds to it).
CHANGES = {
    "promise": (
        lambda site, n: site.election.promise(n),
        lambda site: site.election.promised,
        0,
    ),
    "member": (
        _refute,
        lambda site: site.table.self_record().incarnation,
        1,
    ),
    "grant": (
        lambda site, n: site.log.grant(n, epoch=2),
        lambda site: site.log.next,
        0,
    ),
}


@pytest.mark.parametrize("boundary", APPEND_BOUNDARIES)
@pytest.mark.parametrize("kind", sorted(CHANGES))
def test_a_killed_append_never_regresses(
    kind, boundary, tmp_path, monkeypatch
):
    change, value, boot = CHANGES[kind]
    path = tmp_path / "control.log"
    site = _Site(path, fsync=True)
    for n in (3, 4, 5):
        change(site, n)  # returned: acknowledged to someone
    returned = value(site)

    _arm_append(boundary, site.log, monkeypatch)
    with pytest.raises(_Crash):
        change(site, 8)  # dies before it can return
    monkeypatch.undo()

    reborn = _Site(path)
    assert reborn.log.load_errors == 0
    assert value(reborn) >= returned
    # The whole line reached the file only at the last boundary; a
    # change that was never returned may or may not survive.
    whole = boundary == "before-fsync"
    assert value(reborn) == (8 if whole else returned) + boot
    # A torn tail is cut, not buried: the next change survives too.
    change(reborn, 20)
    again = _Site(path)
    assert value(again) == value(reborn) + boot
    assert all(line.startswith('{"meta":') for line in _lines(path))


def test_a_killed_adoption_never_regresses(tmp_path, monkeypatch):
    path = tmp_path / "control.log"
    site = _Site(path)
    assert site.election.adopt(2, "siteB", base=9)
    _arm_append("torn-line", site.log, monkeypatch)
    with pytest.raises(_Crash):
        site.election.adopt(3, "siteC", base=14)
    monkeypatch.undo()
    reborn = _Site(path)
    election = reborn.election
    assert (election.epoch, election.leader, election.base) == (2, "siteB", 9)
    assert election.promised == 2 and election.bases == {2: 9}


REWRITE_BOUNDARIES = [
    "before-temp-write", "torn-temp", "before-rename", "after-rename",
]


def _arm_rewrite(boundary, path, monkeypatch):
    """Make the log's next tail-verified rewrite die at ``boundary``."""
    tmp = path.with_suffix(path.suffix + ".compact")
    if boundary == "before-temp-write":
        real_open = pathlib.Path.open

        def dying_open(self, *args, **kwargs):
            if self == tmp:
                raise _Crash
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "open", dying_open)
    elif boundary == "torn-temp":
        # Half a temp file, never fsynced, never renamed.
        def torn(fd):
            os.truncate(tmp, 7)
            raise _Crash

        monkeypatch.setattr(durable_queue.os, "fsync", torn)
    elif boundary == "before-rename":
        monkeypatch.setattr(durable_queue.os, "replace", _die)
    elif boundary == "after-rename":
        # The rename is the commit point; die in the directory fsync.
        monkeypatch.setattr(durable_queue, "fsync_dir", _die)


def _state(site):
    """Everything a reload must give back (our incarnation aside)."""
    election = site.election
    return (
        election.promised, election.epoch, election.leader, election.base,
        election.bases, site.log.next, site.log.grant_epoch,
        {
            rec.name: rec.wire() for rec in site.table.records()
            if rec.name != "siteA"
        },
    )


@pytest.mark.parametrize("boundary", REWRITE_BOUNDARIES)
def test_a_killed_compaction_never_regresses(boundary, tmp_path, monkeypatch):
    path = tmp_path / "control.log"
    site = _Site(path, fsync=True)
    site.election.promise(3)
    site.election.adopt(3, "siteB", base=7)
    site.election.adopt(4, "siteA", base=12)
    site.election.promise(6)
    for token in range(13, 18):
        site.log.grant(token, epoch=4)
    site.table.observe("siteB", "127.0.0.1", 7001)
    site.table.set_status("siteB", DEAD)
    _refute(site, 2)
    before = _state(site)
    incarnation = site.table.self_record().incarnation
    lines = len(_lines(path))

    _arm_rewrite(boundary, path, monkeypatch)
    with pytest.raises(_Crash):
        site.log.compact()
    monkeypatch.undo()

    compacted = boundary == "after-rename"
    # base marker, promise, two adopts, grant, siteA and siteB
    assert len(_lines(path)) == (7 if compacted else lines)
    reborn = _Site(path)
    assert reborn.log.load_errors == 0
    assert _state(reborn) == before
    assert reborn.table.self_record().incarnation == incarnation + 1
    # Whichever file won compacts (again) to the same state.
    assert reborn.log.compact() > 0
    assert _state(_Site(path)) == before


def test_a_fresh_or_compacted_log_is_not_rewritten(tmp_path, monkeypatch):
    path = tmp_path / "control.log"
    site = _Site(path)
    monkeypatch.setattr(durable_queue.os, "replace", _die)
    assert site.log.compact() == 0  # one member record: already compact
    monkeypatch.undo()
    site.election.promise(2)
    site.election.promise(3)
    site.log.grant(1, epoch=0)
    site.log.grant(2, epoch=0)
    assert site.log.compact() == 2
    assert site.log.compaction_count == 1 and site.log.compacted_records == 2
    monkeypatch.setattr(durable_queue.os, "replace", _die)
    assert site.log.compact() == 0
    head, member = _lines(path)[:3], _lines(path)[3:]
    assert head == [
        '{"meta":"base","base":0}',
        '{"meta":"promise","epoch":3}',
        '{"meta":"grant","next":2,"epoch":0}',
    ]
    assert len(member) == 1
    assert member[0].startswith('{"meta":"member","name":"siteA",')


def test_a_promise_is_one_append_and_one_fsync(tmp_path, monkeypatch):
    """No temp file, no rename, no directory fsync — and synced in
    every mode, while a grant is synced only under ``fsync=True``."""
    path = tmp_path / "control.log"
    site = _Site(path)  # fsync=False
    monkeypatch.setattr(durable_queue.os, "replace", _die)
    monkeypatch.setattr(durable_queue, "fsync_dir", _die)
    fsyncs, lines = site.log.fsync_count, len(_lines(path))
    assert site.election.promise(1)
    assert site.log.fsync_count == fsyncs + 1
    assert len(_lines(path)) == lines + 1
    assert not site.log.dirty
    site.log.grant(1, epoch=0)
    assert site.log.fsync_count == fsyncs + 1
    assert [p.name for p in tmp_path.iterdir()] == ["control.log"]

    durable = ControlLog(tmp_path / "durable.log", fsync=True)
    durable.grant(1, epoch=0)
    assert durable.fsync_count == 1


@pytest.mark.parametrize("garbage", [
    b'{"meta":"promise","epoch":"x"}\n',
    b'{"meta":"adopt","epoch":2,"base":0}\n',
    b'{"meta":"grant","next":null,"epoch":0}\n',
    b'{"meta":"member","incarnation":3}\n',
])
def test_an_undecodable_record_is_loud(garbage, tmp_path, caplog):
    path = tmp_path / "control.log"
    path.write_bytes(
        b'{"meta":"promise","epoch":3}\n' + garbage
        + b'{"meta":"grant","next":4,"epoch":1}\n'
    )
    with caplog.at_level(logging.ERROR, logger="repro.live.durable_queue"):
        log = ControlLog(path)
    assert log.load_errors == 1
    assert str(path) in caplog.text
    # The records around it still count.
    assert (log.promised, log.next) == (3, 4)


def test_a_cut_past_the_last_line_is_loud(tmp_path, caplog):
    path = tmp_path / "control.log"
    path.write_bytes(
        b'{"meta":"promise","epoch":3}\n{"meta":"prom\n'
        b'{"meta":"promise","epoch":9}\n'
    )
    with caplog.at_level(logging.ERROR, logger="repro.live.durable_queue"):
        log = ControlLog(path)
    assert log.load_errors == 1 and log.promised == 3
    assert str(path) in caplog.text


def test_a_torn_final_line_is_quiet(tmp_path, caplog):
    path = tmp_path / "control.log"
    path.write_bytes(b'{"meta":"promise","epoch":3}\n{"meta":"prom')
    with caplog.at_level(logging.ERROR, logger="repro.live.durable_queue"):
        log = ControlLog(path)
    assert log.load_errors == 0 and log.promised == 3
    assert not caplog.text
    assert path.read_bytes() == b'{"meta":"promise","epoch":3}\n'


def test_a_missing_log_is_a_first_boot_not_an_error(tmp_path):
    site = _Site(tmp_path / "control.log")
    assert site.log.load_errors == 0
    assert site.table.self_record().incarnation == 1
    assert (site.election.promised, site.log.next) == (0, 0)


def test_frontier_progress_does_not_append(tmp_path):
    """Frontiers advance with every heartbeat and gossip re-learns
    them, so only what a restart must remember (members, addresses,
    statuses, our incarnation) reaches the log."""
    path = tmp_path / "control.log"
    site = _Site(path)
    table = site.table
    peer = NodeRecord("siteB", "127.0.0.1", 7001, incarnation=2)
    table.merge([peer.wire()])
    settled = len(_lines(path))

    table.update_self(frontier=5, applied=5)
    peer.frontier = peer.applied = 9
    assert table.merge([peer.wire()]) == ["siteB"]
    assert len(_lines(path)) == settled

    peer.status = SUSPECT
    table.merge([peer.wire()])
    assert len(_lines(path)) == settled + 1
    reborn = _Site(path)
    assert reborn.table.get("siteB").status == SUSPECT
    assert reborn.table.get("siteB").frontier == 9  # rode along


# -- the model -------------------------------------------------------------


class Reference:
    """What a reload must fold to, the slow way: every returned change
    kept in order, the state read off the lists."""

    def __init__(self):
        self.promises, self.adopts, self.grants = [], [], []
        #: src -> (request id, token) of its last order request.
        self.orders = {}
        #: name -> the wire form of its last change, as the table made it.
        self.members = {}

    def promised(self):
        return max(self.promises + [e for e, _, _ in self.adopts], default=0)

    def adopted(self):
        """The last adoption, and the base of every epoch adopted."""
        last = self.adopts[-1] if self.adopts else (0, None, 0)
        return last, {epoch: base for epoch, _, base in self.adopts}

    def grant(self):
        return self.grants[-1] if self.grants else (0, 0)

    def boot(self, name):
        mine = self.members.get(name)
        if mine is None:
            self.members[name] = NodeRecord(name).wire()
        else:
            mine.update(incarnation=mine["incarnation"] + 1, status=ALIVE)


NAMES = ("siteA", "siteB", "siteC")


class ControlLogMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = pathlib.Path(tempfile.mkdtemp(prefix="control-model-"))
        self.path = self.dir / "control.log"
        self.ref = Reference()
        #: the highest value of each watched state seen so far.
        self.high = {}
        self._boot()

    def _boot(self):
        self.site = _Site(self.path)
        self.ref.boot("siteA")

    def teardown(self):
        self.site.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    @rule(epoch=st.integers(0, 12))
    def promise(self, epoch):
        if self.site.election.promise(epoch):
            self.ref.promises.append(epoch)

    @rule(
        epoch=st.integers(0, 12),
        leader=st.sampled_from(NAMES),
        base=st.integers(0, 50),
    )
    def adopt(self, epoch, leader, base):
        if self.site.election.adopt(epoch, leader, base):
            self.ref.adopts.append((epoch, leader, base))

    @rule(step=st.integers(0, 3))
    def grant(self, step):
        token = (self.site.log.next + step, self.site.election.epoch)
        self.site.log.grant(*token)
        self.ref.grants.append(token)

    @rule(src=st.sampled_from(NAMES), rid=st.integers(0, 2))
    def order(self, src, rid):
        """A re-sent ``(src, rid)`` in the same epoch gets the token it
        got — across ``crash_and_reopen`` and compactions too."""
        (epoch, _, base), _ = self.ref.adopted()
        token = self.site.election.next_order(src, rid)
        last = self.ref.orders.get(src)
        if last is not None and last[0] == rid and last[1][1] == epoch:
            assert token == last[1]
            return
        assert token == (max(self.ref.grant()[0], base) + 1, epoch)
        self.ref.grants.append(token)
        self.ref.orders[src] = (rid, token)

    @rule(
        name=st.sampled_from(NAMES),
        incarnation=st.integers(0, 6),
        status=st.sampled_from([ALIVE, SUSPECT, DEAD]),
        port=st.integers(7000, 7003),
    )
    def member_change(self, name, incarnation, status, port):
        rumor = NodeRecord(name, "127.0.0.1", port, incarnation, status)
        self.site.table.merge([rumor.wire()])
        # Every change a frontier-free rumor makes is durable.
        self.ref.members = {
            rec.name: rec.wire() for rec in self.site.table.records()
        }

    @rule()
    def compact(self):
        self.site.log.compact()
        assert self.site.log.compact() == 0

    @rule(torn=st.booleans())
    def crash_and_reopen(self, torn):
        self.site.log._log.close()  # no sync, no compaction
        if torn:
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write('{"meta":"grant","next":99')
        self._boot()

    @invariant()
    def folds_to_the_reference(self):
        site, ref = self.site, self.ref
        election = site.election
        last, bases = ref.adopted()
        assert election.promised == site.log.promised == ref.promised()
        assert (election.epoch, election.leader, election.base) == last
        assert election.bases == bases
        assert (site.log.next, site.log.grant_epoch) == ref.grant()
        assert {rec.name: rec.wire() for rec in site.table.records()} == (
            ref.members
        )
        assert {n: r.wire() for n, r in site.log.nodes.items()} == (
            ref.members
        )
        assert site.log.load_errors == 0

    @invariant()
    def never_regresses(self):
        site = self.site
        now = {
            "promised": site.election.promised,
            "epoch": site.election.epoch,
            "next": site.log.next,
        }
        for rec in site.table.records():
            now["incarnation/" + rec.name] = rec.incarnation
        for key, value in now.items():
            assert value >= self.high.get(key, 0), key
            self.high[key] = value


TestControlLogModel = ControlLogMachine.TestCase
