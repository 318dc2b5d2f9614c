"""The small durable records — election promise, membership
incarnation, order-token counter — are durable in fact.

The first two rewrite one JSON file through
:func:`repro.live.snapshot.write_atomic` (temp file + fsync + rename).
The crash test kills that rewrite at every boundary and reloads: the
record is whole, and ``promised`` / ``incarnation`` never fall below
the last value the dying process could have acknowledged.  A file that
is present but unreadable is outside damage, and loading it is loud.

The order-token counter changes with every ORDUP update, so it is an
appended line per grant (:class:`repro.live.durable_queue.GrantLog`)
folded to one line, through the same ``write_atomic``, at snapshot
time.  Both halves are killed at every boundary too: the reloaded
counter is never below a token that was handed out.
"""

import logging
import os
import pathlib

import pytest

import repro.live.durable_queue as durable_queue
import repro.live.snapshot as snapshot
from repro.live.durable_queue import GrantLog
from repro.live.election import ElectionState
from repro.live.gossip import MembershipTable


class _Crash(Exception):
    """Stands in for the process dying at a chosen instant."""


BOUNDARIES = ["before-temp-write", "torn-temp", "before-rename", "after-rename"]


def _die(*args, **kwargs):
    raise _Crash


def _arm(boundary, path, monkeypatch):
    """Make the next ``write_atomic(path, ...)`` die at ``boundary``."""
    tmp = path.with_suffix(path.suffix + ".tmp")
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

        monkeypatch.setattr(snapshot.os, "fsync", torn)
    elif boundary == "before-rename":
        monkeypatch.setattr(snapshot.os, "replace", _die)
    elif boundary == "after-rename":
        # The rename is the commit point; die in the directory fsync.
        monkeypatch.setattr(snapshot, "fsync_dir", _die)


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_promise_never_regresses_across_a_crash(
    boundary, tmp_path, monkeypatch
):
    path = tmp_path / "election.json"
    state = ElectionState(path)
    assert state.promise(4)  # acknowledged: must survive anything
    state.adopt(4, "siteB", base=11)

    _arm(boundary, path, monkeypatch)
    with pytest.raises(_Crash):
        state.promise(7)  # dies before it can return True
    monkeypatch.undo()

    reborn = ElectionState(path)
    reborn.load()
    assert reborn.load_errors == 0
    committed = boundary == "after-rename"
    assert reborn.promised == (7 if committed else 4)
    assert (reborn.epoch, reborn.leader, reborn.base) == (4, "siteB", 11)
    # Whatever was on disk, epoch 4 can never be promised twice, and
    # the record still takes (and keeps) a later promise.
    assert not reborn.promise(4)
    assert reborn.promise(9)
    again = ElectionState(path)
    again.load()
    assert again.promised == 9


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_incarnation_never_regresses_across_a_crash(
    boundary, tmp_path, monkeypatch
):
    path = tmp_path / "membership.json"
    table = MembershipTable("siteA", path)
    table.load()
    table.update_self(host="127.0.0.1", port=7000)
    alive_at = table.self_record().incarnation

    _arm(boundary, path, monkeypatch)
    with pytest.raises(_Crash):
        table.update_self(port=7001)
    monkeypatch.undo()

    reborn = MembershipTable("siteA", path)
    reborn.load()
    assert reborn.load_errors == 0
    # The reboot out-versions everything the dead process gossiped.
    assert reborn.self_record().incarnation == alive_at + 1
    committed = boundary == "after-rename"
    assert reborn.address("siteA") == (
        "127.0.0.1", 7001 if committed else 7000
    )


@pytest.mark.parametrize(
    "garbage", [b"", b'{"promised": 3, "epo', b"[1, 2]", b'{"promised": "x"}']
)
def test_unreadable_election_record_is_loud(garbage, tmp_path, caplog):
    path = tmp_path / "election.json"
    path.write_bytes(garbage)
    state = ElectionState(path)
    with caplog.at_level(logging.ERROR, logger="repro.live.election"):
        state.load()
    assert state.load_errors == 1
    assert "unreadable" in caplog.text
    assert (state.promised, state.epoch, state.leader) == (0, 0, None)


def test_unreadable_membership_table_is_loud(tmp_path, caplog):
    path = tmp_path / "membership.json"
    path.write_bytes(b'{"nodes": [{"name": "siteA", "incarn')
    table = MembershipTable("siteA", path)
    with caplog.at_level(logging.ERROR, logger="repro.live.gossip"):
        table.load()
    assert table.load_errors == 1
    assert "unreadable" in caplog.text
    assert table.self_record().incarnation == 1


def test_a_missing_record_is_a_first_boot_not_an_error(tmp_path):
    state = ElectionState(tmp_path / "election.json")
    state.load()
    table = MembershipTable("siteA", tmp_path / "membership.json")
    table.load()
    assert state.load_errors == 0 and table.load_errors == 0


def test_frontier_progress_does_not_rewrite_the_table(tmp_path, monkeypatch):
    """A durable rewrite costs two fsyncs on the event loop; frontiers
    advance with every heartbeat and gossip re-learns them, so only
    what a restart must remember (members, addresses, statuses, our
    incarnation) reaches the disk."""
    import repro.live.gossip as gossip

    writes = []
    real = gossip.write_atomic
    monkeypatch.setattr(
        gossip, "write_atomic",
        lambda path, data: (writes.append(path), real(path, data)),
    )
    path = tmp_path / "membership.json"
    table = MembershipTable("siteA", path)
    table.load()
    peer = gossip.NodeRecord("siteB", "127.0.0.1", 7001, incarnation=2)
    table.merge([peer.wire()])
    settled, version = len(writes), table.version

    table.update_self(frontier=5, applied=5)
    peer.frontier = peer.applied = 9
    assert table.merge([peer.wire()]) == ["siteB"]
    assert len(writes) == settled and table.version == version + 2

    peer.status = gossip.SUSPECT
    table.merge([peer.wire()])
    assert len(writes) == settled + 1
    reborn = MembershipTable("siteA", path)
    reborn.load()
    assert reborn.get("siteB").status == gossip.SUSPECT
    assert reborn.get("siteB").frontier == 9  # rode along with the status


class _DyingWriter:
    """The open log, dying ``keep`` characters into its next write."""

    def __init__(self, real, keep):
        self.real, self.keep = real, keep

    def write(self, data):
        self.real.write(data[: self.keep])
        self.real.flush()
        raise _Crash


@pytest.mark.parametrize(
    "boundary", ["before-write", "torn-line", "before-fsync"]
)
def test_order_counter_never_regresses_below_a_granted_token(
    boundary, tmp_path, monkeypatch
):
    path = tmp_path / "order.log"
    log = GrantLog(path, fsync=True)
    for token in (1, 2, 3):
        log.grant(token, epoch=2)  # returned: handed out
    assert log.fsync_count == 3

    if boundary == "before-fsync":
        monkeypatch.setattr(durable_queue.os, "fsync", _die)
    else:
        log._log = _DyingWriter(log._log, 0 if boundary == "before-write" else 9)
    with pytest.raises(_Crash):
        log.grant(4, epoch=2)  # dies before the token can leave
    monkeypatch.undo()

    reborn = GrantLog(path, fsync=True)
    # The whole line reached the file only at the last boundary; a
    # skipped token is harmless, a re-issued one is not.
    assert reborn.next == (4 if boundary == "before-fsync" else 3)
    # A torn tail is cut, not buried: the next grant survives too.
    reborn.grant(reborn.next + 1, epoch=3)
    reborn.close()
    again = GrantLog(path)
    assert again.next == reborn.next
    assert all(
        line.startswith('{"meta":"grant","next":')
        for line in path.read_text().splitlines()
    )


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_folding_the_order_log_is_atomic(boundary, tmp_path, monkeypatch):
    path = tmp_path / "order.log"
    log = GrantLog(path, fsync=True)
    for token in range(1, 6):
        log.grant(token, epoch=1)

    _arm(boundary, path, monkeypatch)
    with pytest.raises(_Crash):
        log.fold()
    monkeypatch.undo()

    folded = boundary == "after-rename"
    assert len(path.read_text().splitlines()) == (1 if folded else 5)
    assert GrantLog(path).next == 5
    # The surviving process keeps granting into whichever file won.
    log.grant(6, epoch=1)
    assert GrantLog(path).next == 6
    log.fold()
    assert path.read_text() == '{"meta":"grant","next":6,"epoch":1}\n'
    log.grant(7, epoch=1)
    assert GrantLog(path).next == 7


def test_a_fresh_or_folded_order_log_is_not_rewritten(tmp_path, monkeypatch):
    path = tmp_path / "order.log"
    log = GrantLog(path)
    assert log.next == 0
    monkeypatch.setattr(durable_queue, "write_atomic", _die)
    log.fold()  # nothing granted
    log.grant(1, epoch=0)
    log.fold()  # already one line
    assert path.read_text() == '{"meta":"grant","next":1,"epoch":0}\n'
