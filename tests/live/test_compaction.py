"""Log compaction tests: snapshot-covered prefixes drop crash-safely.

Compaction rewrites a durable channel log without its covered prefix
(everything a persisted site snapshot already reconstructs).  The
rewrite must be atomic against crashes: at *every* instant during the
rewrite, a restart recovers either the complete old log or the
complete new one — never a half-dropped prefix.  The parameterized
crash test below kills the rewrite at each internal boundary and
asserts exactly that.
"""

import json
import os
import pathlib

import pytest

from repro.live import durable_queue as dq
from repro.live.durable_queue import DurableInbox
from repro.live.protocol import encode_line, payload_blob

from .test_durable_queue import PEER, _outbox


class TestOutboxCompaction:
    def test_compact_drops_acked_prefix(self, tmp_path):
        outbox = _outbox(tmp_path / "peer.log")
        for i in range(6):
            outbox.append({"n": i})
        outbox.ack_through(PEER, 4)
        assert outbox.compact(4) == 4
        assert outbox.base == 4
        assert outbox.frontier(PEER) == 4
        assert [seq for seq, _ in outbox.pending(PEER)] == [5, 6]
        assert outbox.compaction_count == 1
        assert outbox.compacted_records == 4
        outbox.close()

    def test_compact_never_passes_the_ack_frontier(self, tmp_path):
        outbox = _outbox(tmp_path / "peer.log")
        for i in range(6):
            outbox.append({"n": i})
        outbox.ack_through(PEER, 2)
        # Asking past the frontier clamps: pending records must
        # survive for re-sends.
        assert outbox.compact(6) == 2
        assert outbox.base == 2
        assert [seq for seq, _ in outbox.pending(PEER)] == [3, 4, 5, 6]
        outbox.close()

    def test_compact_below_base_is_a_noop(self, tmp_path):
        outbox = _outbox(tmp_path / "peer.log")
        for i in range(4):
            outbox.append({"n": i})
        outbox.ack_through(PEER, 3)
        assert outbox.compact(3) == 3
        assert outbox.compact(3) == 0
        assert outbox.compact(2) == 0
        assert outbox.compaction_count == 1
        outbox.close()

    def test_compacted_log_survives_restart(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = _outbox(path)
        for i in range(6):
            outbox.append({"n": i})
        outbox.ack_through(PEER, 4)
        outbox.compact(4)
        outbox.close()

        reloaded = _outbox(path)
        assert reloaded.base == 4
        assert reloaded.frontier(PEER) == 4
        assert [seq for seq, _ in reloaded.pending(PEER)] == [5, 6]
        # Sequence assignment continues above the survivors.
        assert reloaded.append("later") == 7
        reloaded.close()

    def test_base_marker_backstops_a_log_with_no_ack_marker(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = _outbox(path)
        for i in range(5):
            outbox.append({"n": i})
        outbox.ack_through(PEER, 3)
        outbox.compact(3)
        outbox.close()
        # Outside damage: the rewritten log's marker says less than
        # its floor does.
        text = path.read_text()
        assert '"base":3' in text and '"seq":3}' in text
        path.write_text(text.replace('"seq":3}', '"seq":1}'))

        reloaded = _outbox(path)
        # Compaction only drops records every cursor has passed, so
        # the floor is a lower bound on each of them.
        assert reloaded.frontier(PEER) == 3
        assert [seq for seq, _ in reloaded.pending(PEER)] == [4, 5]
        reloaded.close()

    def test_rewind_fails_below_the_compaction_floor(self, tmp_path):
        outbox = _outbox(tmp_path / "peer.log")
        for i in range(6):
            outbox.append({"n": i})
        outbox.ack_through(PEER, 6)
        outbox.compact(4)
        # A receiver regressed to 5: still servable from the log.
        assert outbox.rewind_to(PEER, 5) is True
        assert [seq for seq, _ in outbox.pending(PEER)] == [6]
        outbox.ack_through(PEER, 6)
        # A receiver regressed below the floor: the records are gone,
        # it needs a snapshot.
        assert outbox.rewind_to(PEER, 2) is False
        outbox.close()

    def test_reset_to_reseeds_floor_frontier_and_counter(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = _outbox(path)
        outbox.append("stale")
        outbox.reset_to(40)
        assert (outbox.base, outbox.frontier(PEER)) == (40, 40)
        assert outbox.pending(PEER) == []
        assert outbox.append("fresh") == 41
        outbox.close()

        reloaded = _outbox(path)
        assert (reloaded.base, reloaded.frontier(PEER)) == (40, 40)
        assert [seq for seq, _ in reloaded.pending(PEER)] == [41]
        reloaded.close()


class TestInboxCompaction:
    def test_compact_drops_covered_receipts(self, tmp_path):
        inbox = DurableInbox(tmp_path / "peer.log")
        for i in range(1, 7):
            inbox.record(i, {"n": i})
        assert inbox.compact(4) == 4
        assert inbox.base == 4
        assert inbox.frontier == 6
        assert [seq for seq, _ in inbox.replay()] == [5, 6]
        inbox.close()

    def test_compacted_inbox_survives_restart(self, tmp_path):
        path = tmp_path / "peer.log"
        inbox = DurableInbox(path)
        for i in range(1, 7):
            inbox.record(i, {"n": i})
        inbox.compact(4)
        inbox.close()

        reloaded = DurableInbox(path)
        assert reloaded.base == 4
        assert reloaded.frontier == 6
        assert [seq for seq, _ in reloaded.replay()] == [5, 6]
        # The next acceptable receipt continues the tail.
        assert reloaded.record(7, {"n": 7}) is True
        assert reloaded.record(4, {"n": 4}) is False  # covered duplicate
        reloaded.close()

    def test_reset_to_discards_the_tail(self, tmp_path):
        path = tmp_path / "peer.log"
        inbox = DurableInbox(path)
        for i in range(1, 4):
            inbox.record(i, {"n": i})
        inbox.reset_to(10)
        assert (inbox.base, inbox.frontier) == (10, 10)
        assert list(inbox.replay()) == []
        assert inbox.record(11, "next") is True
        inbox.close()

        reloaded = DurableInbox(path)
        assert reloaded.frontier == 11
        assert [seq for seq, _ in reloaded.replay()] == [11]
        reloaded.close()


class _Crash(Exception):
    """Stands in for the process dying at a chosen instant."""


#: every internal boundary of the compaction rewrite.  "torn-tmp"
#: simulates dying mid-write of the temporary file (a torn tail);
#: the others kill the real code path at the named call.
BOUNDARIES = [
    "before-rewrite",
    "torn-tmp",
    "after-tmp-fsync",
    "before-rename",
    "after-rename",
]


def _crash_compact(outbox, through, boundary, monkeypatch, tmp_path):
    """Run ``outbox.compact(through)``, dying at ``boundary``."""
    if boundary == "before-rewrite":
        raise _Crash  # nothing on disk changed at all
    if boundary == "torn-tmp":
        # A torn temporary file from a crash mid-write: the rename
        # never ran, so the stale .compact file must be ignored (and
        # harmlessly overwritten) by any later compaction.
        tmp = outbox.path.with_suffix(outbox.path.suffix + ".compact")
        tmp.write_text('{"meta":"base","ba')
        raise _Crash
    if boundary == "after-tmp-fsync":
        real_replace = os.replace

        def die(*args, **kwargs):
            raise _Crash

        monkeypatch.setattr(os, "replace", die)
        try:
            outbox.compact(through)
        finally:
            monkeypatch.setattr(os, "replace", real_replace)
        raise AssertionError("compact survived a crashed rename")
    if boundary == "before-rename":
        # Same on-disk state as after-tmp-fsync (the fsync of the tmp
        # file is the last durable action before the rename), but die
        # from inside the verification re-parse instead.
        calls = {"n": 0}
        import repro.live.durable_queue as dq

        real_reader = dq._read_json_lines

        def dying_reader(path):
            if path.suffix == ".compact":
                calls["n"] += 1
                raise _Crash
            return real_reader(path)

        monkeypatch.setattr(dq, "_read_json_lines", dying_reader)
        try:
            outbox.compact(through)
        finally:
            monkeypatch.setattr(dq, "_read_json_lines", real_reader)
        raise AssertionError("compact survived a crashed verify")
    if boundary == "after-rename":
        # The rename is the commit point; dying in the directory fsync
        # afterwards must leave the *new* log.
        def die(self):
            raise _Crash

        monkeypatch.setattr(
            "repro.live.durable_queue._DurableLog._fsync_dir", die
        )
        outbox.compact(through)
        raise AssertionError("compact survived a crashed dir fsync")
    raise AssertionError("unknown boundary %r" % boundary)


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_outbox_compaction_crash_recovers_old_or_new(
    boundary, tmp_path, monkeypatch
):
    """Crash the rewrite at every boundary: a reload sees exactly the
    old log or exactly the new one, and the channel still works."""
    path = tmp_path / "peer.log"
    outbox = _outbox(path)
    for i in range(8):
        outbox.append({"n": i})
    outbox.ack_through(PEER, 5)

    with pytest.raises(_Crash):
        _crash_compact(outbox, 5, boundary, monkeypatch, tmp_path)
    monkeypatch.undo()
    # Simulated crash: abandon the live object, reload from disk.

    reloaded = _outbox(path)
    compacted = boundary == "after-rename"
    assert reloaded.base == (5 if compacted else 0)
    assert reloaded.frontier(PEER) == 5
    # Never half-dropped: the unacked tail is intact either way.
    assert [seq for seq, _ in reloaded.pending(PEER)] == [6, 7, 8]
    assert [json.loads(b)["n"] for _, b in reloaded.pending(PEER)] == [
        5, 6, 7
    ]
    # The channel still serves a regressed receiver from its floor.
    assert reloaded.rewind_to(PEER, reloaded.base) is True
    # And still assigns fresh sequence numbers above everything.
    assert reloaded.append("fresh") == 9
    # A later compaction succeeds regardless of leftover tmp files.
    reloaded.ack_through(PEER, 9)
    assert reloaded.compact(9) > 0
    assert reloaded.base == 9
    reloaded.close()


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_inbox_compaction_crash_recovers_old_or_new(
    boundary, tmp_path, monkeypatch
):
    path = tmp_path / "peer.log"
    inbox = DurableInbox(path)
    for i in range(1, 9):
        inbox.record(i, {"n": i})

    with pytest.raises(_Crash):
        _crash_compact(inbox, 5, boundary, monkeypatch, tmp_path)
    monkeypatch.undo()

    reloaded = DurableInbox(path)
    compacted = boundary == "after-rename"
    assert reloaded.base == (5 if compacted else 0)
    assert reloaded.frontier == 8
    tail = [seq for seq, _ in reloaded.replay()]
    assert tail == ([6, 7, 8] if compacted else [1, 2, 3, 4, 5, 6, 7, 8])
    # The channel keeps its exactly-once contract after the crash.
    assert reloaded.record(9, {"n": 9}) is True
    assert reloaded.record(9, {"n": 9}) is False
    assert reloaded.compact(9) > 0
    reloaded.close()


def _lines(text):
    """``text``'s lines, split on ``"\n"`` alone: a log line may hold a
    raw U+2028, which ``str.splitlines`` would split on."""
    return text.split("\n")[:-1]


def _redumped(path, through, header=()):
    """The log ``json.loads``-ed line by line and its survivors encoded
    again by the codec — the compaction this module used to have."""
    def dump(record):
        return encode_line(record).decode("utf-8")

    records = [json.loads(line) for line in _lines(path.read_text())]
    return "".join(
        [dump({"meta": "base", "base": through})]
        + [dump(marker) for marker in header]
        + [
            dump({"seq": r["seq"], "payload": r["payload"]})
            for r in records
            if "meta" not in r and r["seq"] > through
        ]
    )


#: payloads whose canonical rendering is easy to get wrong.
AWKWARD = [
    {"n": 0},
    "plain",
    {"mset": {"tid": "s0:3", "ops": [["inc", "k\u00e9", 0.1]]}},
    {"nested": {"seq": 99, "payload": [1e-9, -2.5, None, True]}},
    ["a,b", '{"seq":7,'],
    {"text": "line\nbreak \\ \"quoted\" \u2028"},
]


@pytest.mark.parametrize("kind", ["outbox", "inbox"])
def test_compaction_copies_survivors_byte_for_byte(kind, tmp_path):
    """Survivors are filtered on their ``{"seq":N,`` prefix and copied
    unparsed; the result is exactly what parsing and re-dumping gives,
    whether a line was spliced around a blob, dumped whole, or written
    by some other hand."""
    path = tmp_path / "peer.log"
    blobs = [payload_blob(p) for p in AWKWARD]
    if kind == "outbox":
        box = _outbox(path)
        box.append_many(AWKWARD[:3], blobs=blobs[:3])
        box.append_many(AWKWARD[3:])
        box.ack_through(PEER, 4)
        header = [{"meta": "ack", "peer": PEER, "seq": 4}]
    else:
        box = DurableInbox(path)
        box.record_many(blobs=blobs[:3])
        for seq, payload in enumerate(AWKWARD[3:], 4):
            box.record(seq, payload)
        header = []
    box.close()
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"seq": 7, "payload": {"spaced": "out"}}\n')
        handle.write('{"payload":"keys reversed","seq":8}\n')
    box = _outbox(path) if kind == "outbox" else DurableInbox(path)
    want = _redumped(path, 2, header)
    assert box.compact(2) == 2
    box.close()
    assert path.read_text() == want
    survivors = [
        json.loads(line) for line in _lines(want)[1 + len(header):]
    ]
    assert [r["seq"] for r in survivors] == [3, 4, 5, 6, 7, 8]
    assert [r["payload"] for r in survivors[:4]] == AWKWARD[2:]


class _Counted:
    """A log opened for reading that counts the bytes read from it."""

    def __init__(self, handle, reads):
        self.handle, self.reads = handle, reads

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def seek(self, offset):
        return self.handle.seek(offset)

    def __iter__(self):
        for line in self.handle:
            self.reads.append(len(line))
            yield line


def _read_by_compaction(box, through, monkeypatch):
    """``box.compact(through)`` and the bytes it read of the old log."""
    reads = []
    log, real_open = box.path, pathlib.Path.open

    def counted(path, mode="r", *args, **kwargs):
        handle = real_open(path, mode, *args, **kwargs)
        if path == log and mode == "rb":
            return _Counted(handle, reads)
        return handle

    monkeypatch.setattr(pathlib.Path, "open", counted)
    try:
        dropped = box.compact(through)
    finally:
        monkeypatch.undo()
    return dropped, sum(reads)


def _runs(box, first, sizes):
    """Append (or record) runs of ``sizes`` records numbered from
    ``first``; returns the log's size before each run."""
    starts = []
    for size in sizes:
        starts.append(box.path.stat().st_size)
        blobs = [payload_blob({"n": first + i}) for i in range(size)]
        if isinstance(box, DurableInbox):
            box.record_many(blobs)
        else:
            box.append_many(None, blobs=blobs, releases=[None] * size)
        first += size
    return starts


@pytest.mark.parametrize("kind", ["outbox", "inbox"])
def test_a_cut_at_the_last_record_reads_nothing_of_the_old_log(
    kind, tmp_path, monkeypatch
):
    """A quiescent snapshot's cut: every record goes, so compaction
    seeks to the log's end and reads zero bytes — once a reload has
    scanned it, and again after a rewrite."""
    path = tmp_path / "peer.log"
    box = _outbox(path) if kind == "outbox" else DurableInbox(path)
    _runs(box, 1, [4, 4, 4])
    if kind == "outbox":
        box.ack_through(PEER, 12)
    assert _read_by_compaction(box, 12, monkeypatch) == (12, 0)
    _runs(box, 13, [3, 5])
    if kind == "outbox":
        box.ack_through(PEER, 20)
    box.close()
    box = _outbox(path) if kind == "outbox" else DurableInbox(path)
    assert _read_by_compaction(box, 20, monkeypatch) == (8, 0)
    box.close()


@pytest.mark.parametrize("kind", ["outbox", "inbox"])
def test_a_partial_cut_reads_only_from_its_mark(kind, tmp_path, monkeypatch):
    """A cut inside the log reads from the first line of the group
    holding its first survivor, and writes what parsing and re-dumping
    the whole log gives, with the same dropped count."""
    path = tmp_path / "peer.log"
    box = _outbox(path) if kind == "outbox" else DurableInbox(path)
    header = []
    starts = _runs(box, 1, [4, 4, 4])
    if kind == "outbox":
        box.ack_through(PEER, 12)
        header = [{"meta": "ack", "peer": PEER, "seq": 12}]
    want = _redumped(path, 8, header)
    size = path.stat().st_size
    assert _read_by_compaction(box, 8, monkeypatch) == (8, size - starts[2])
    assert path.read_text() == want

    # A cut mid-group seeks to that group's first line.
    starts = _runs(box, 13, [5, 5])
    if kind == "outbox":
        box.ack_through(PEER, 22)
        header = [{"meta": "ack", "peer": PEER, "seq": 22}]
    want = _redumped(path, 15, header)
    size = path.stat().st_size
    assert _read_by_compaction(box, 15, monkeypatch) == (7, size - starts[0])
    assert path.read_text() == want
    box.close()


def test_a_log_keeps_a_bounded_number_of_marks(tmp_path, monkeypatch):
    """Past ``_MARKS`` the oldest marks thin out: memory stays bounded,
    a cut far behind the end reads a little more, and the rewrite is
    still exactly the re-dumped log."""
    path = tmp_path / "peer.log"
    inbox = DurableInbox(path)
    starts = _runs(inbox, 1, [2] * (2 * dq._MARKS))
    assert len(inbox._marks) <= dq._MARKS
    want = _redumped(path, 100)
    size = path.stat().st_size
    dropped, read = _read_by_compaction(inbox, 100, monkeypatch)
    assert dropped == 100
    assert size - starts[50] <= read < size - starts[25]
    assert path.read_text() == want
    # The newest marks are all kept: a cut near the end reads one group.
    starts = _runs(inbox, 4 * dq._MARKS + 1, [2] * 8)
    size = path.stat().st_size
    assert _read_by_compaction(inbox, 4 * dq._MARKS + 14, monkeypatch) == (
        4 * dq._MARKS + 14 - 100, size - starts[7]
    )
    inbox.close()
