"""Durable queue tests: exactly-once FIFO channels that survive restarts."""

import asyncio
import functools
import gc
import json
import pathlib
import shutil
import tempfile
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.operations import DecrementOp, IncrementOp, WriteOp
from repro.live import FaultPlan, LiveCluster
from repro.live.durable_queue import DurableInbox, DurableOutbox, _record_line
from repro.live.protocol import (
    ProtocolError,
    loads,
    payload_blob,
    plain_update_blob,
)
from repro.live.server import _full_ack_release
from repro.replica.mset import MSet, MSetKind, encode_mset, encode_op

PEER = "peer"


def _owed(*pairs):
    """``pending`` of these ``(seq, payload)`` pairs: the log's window
    hands each payload out as its wire blob."""
    return [(seq, payload_blob(payload)) for seq, payload in pairs]


def _run(first, *payloads):
    """``pending_after`` of these payloads, numbered ``first`` onwards:
    the first seq and each payload's wire blob."""
    return first, [payload_blob(payload) for payload in payloads]


def _released(log, peer, seqno):
    """``log.ack_through(peer, seqno)``'s releases, each with its seq:
    the last one released is the log's ``released_hi``."""
    released = log.ack_through(peer, seqno)
    return list(enumerate(released, log.released_hi - len(released) + 1))


def _decoded(pending):
    """``(seq, payload)`` of each ``(seq, blob)`` that ``pending`` lists."""
    return [(seq, json.loads(blob)) for seq, blob in pending]


def _outbox(path, **options):
    """The replication log with one cursor: a single (src, dst) channel."""
    outbox = DurableOutbox(path, **options)
    outbox.add_cursor(PEER)
    return outbox


class TestOutbox:
    def test_append_assigns_sequence_numbers(self, tmp_path):
        outbox = _outbox(tmp_path / "peer.log")
        assert outbox.append("a") == 1
        assert outbox.append("b") == 2
        assert outbox.pending(PEER) == _owed((1, "a"), (2, "b"))
        outbox.close()

    def test_ack_advances_frontier(self, tmp_path):
        outbox = _outbox(tmp_path / "peer.log")
        for payload in "abc":
            outbox.append(payload)
        outbox.ack_through(PEER, 1)
        assert outbox.pending(PEER) == _owed((2, "b"), (3, "c"))
        assert outbox.frontier(PEER) == 1
        outbox.ack_through(PEER, 2)
        outbox.ack_through(PEER, 3)
        assert outbox.drained()
        outbox.close()

    def test_pending_survives_restart(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = _outbox(path)
        for i in range(5):
            outbox.append({"n": i})
        outbox.ack_through(PEER, 1)
        outbox.ack_through(PEER, 2)
        outbox.close()

        reloaded = _outbox(path)
        assert reloaded.frontier(PEER) == 2
        assert [seq for seq, _ in reloaded.pending(PEER)] == [3, 4, 5]
        # New appends continue the sequence, no reuse.
        assert reloaded.append("later") == 6
        reloaded.close()

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = _outbox(path)
        outbox.append("whole")
        outbox.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "payl')  # crash mid-append

        reloaded = _outbox(path)
        assert reloaded.pending(PEER) == _owed((1, "whole"))
        # The torn record's seqno is reused because it was never durable.
        assert reloaded.append("retry") == 2
        reloaded.close()


class TestCursors:
    def test_a_log_without_cursors_holds_nothing(self, tmp_path):
        """A single-site replica has no peers: its log is written and
        replayable, and nothing stays resident for anybody."""
        path = tmp_path / "replication.log"
        log = DurableOutbox(path)
        assert log.append_many(list("abc")) == [1, 2, 3]
        assert log.drained() and log.released_hi == 3
        assert log._window == []
        log.close()

        reloaded = DurableOutbox(path)
        assert (reloaded.assigned, reloaded.released_hi) == (3, 3)
        assert reloaded._window == []
        assert list(reloaded.replay()) == [(1, "a"), (2, "b"), (3, "c")]
        # A cursor starts at the end of the log: owed what follows.
        assert reloaded.add_cursor("late") is True
        reloaded.append("d")
        assert reloaded.pending("late") == _owed((4, "d"))
        assert reloaded.rewind_to("late", 1) is True  # one shared file
        assert [seq for seq, _ in reloaded.pending("late")] == [2, 3, 4]
        reloaded.close()

    def test_each_cursor_is_owed_its_own_suffix(self, tmp_path):
        path = tmp_path / "replication.log"
        log = DurableOutbox(path)
        log.add_cursor("a")
        log.add_cursor("b")
        log.append_many(list("vwxyz"), blobs=[b'"%c"' % c for c in b"vwxyz"])
        assert log.ack_through("a", 4) == []  # "b" still holds the tail
        assert _released(log, "b", 2) == [(1, "v"), (2, "w")]
        assert _released(log, "b", 5) == [(3, "x"), (4, "y")]
        assert (log.backlog("a"), log.backlog("b")) == (1, 0)
        assert log.rewind_to("b", 1) is True
        assert log.ack_through("b", 5) == []  # released once, not twice
        assert _released(log, "a", 5) == [(5, "z")]
        assert log.drained()
        log.rewind_to("a", 3)
        log.close()

        reloaded = DurableOutbox(path)
        assert (reloaded.frontier("a"), reloaded.frontier("b")) == (3, 5)
        assert reloaded.pending("a") == _owed((4, "y"), (5, "z"))
        assert reloaded.pending("b") == []
        assert reloaded.pending("a")[-1] == (5, b'"z"')
        reloaded.close()


class TestCrashAtomicity:
    """A replica killed mid-append leaves a truncated or corrupt tail
    record; recovery must skip exactly that record and keep every
    previously acknowledged entry."""

    def test_inbox_truncated_tail_keeps_acked_entries(self, tmp_path):
        path = tmp_path / "peer.log"
        inbox = DurableInbox(path)
        for i in range(1, 4):
            inbox.record(i, {"n": i})  # all three were acked upstream
        inbox.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": 4, "payload": {"n"')  # killed here

        recovered = DurableInbox(path)
        assert recovered.frontier == 3
        assert [p["n"] for _, p in recovered.replay()] == [1, 2, 3]
        # The torn seqno was never acked, so its reuse is correct.
        assert recovered.record(4, {"n": 4}) is True
        recovered.close()

    def test_inbox_corrupt_json_tail_is_skipped(self, tmp_path):
        path = tmp_path / "peer.log"
        inbox = DurableInbox(path)
        inbox.record(1, "kept")
        inbox.close()
        with path.open("ab") as handle:
            handle.write(b"\x00\xffgarbage not json\n")

        recovered = DurableInbox(path)
        assert list(recovered.replay()) == [(1, "kept")]
        assert recovered.frontier == 1
        recovered.close()

    def test_structurally_corrupt_tail_is_skipped(self, tmp_path):
        """Valid JSON that is not a whole queue record (e.g. a partial
        buffer flush) must be treated like a torn tail, not crash
        recovery."""
        path = tmp_path / "peer.log"
        outbox = _outbox(path)
        outbox.append("kept")
        outbox.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": "not-an-int"}\n')

        recovered = _outbox(path)
        assert recovered.pending(PEER) == _owed((1, "kept"))
        assert recovered.append("next") == 2
        recovered.close()

    def test_outbox_truncated_tail_keeps_acked_frontier(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = _outbox(path)
        for i in range(3):
            outbox.append({"n": i})
        outbox.ack_through(PEER, 1)
        outbox.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": 4, "pa')  # crash mid-append

        recovered = _outbox(path)
        assert recovered.frontier(PEER) == 1  # acked work survives
        assert [seq for seq, _ in recovered.pending(PEER)] == [2, 3]
        assert recovered.append({"n": "retry"}) == 4
        recovered.close()


class TestInbox:
    def test_record_and_replay(self, tmp_path):
        inbox = DurableInbox(tmp_path / "peer.log")
        assert inbox.record(1, "a") is True
        assert inbox.record(2, "b") is True
        assert list(inbox.replay()) == [(1, "a"), (2, "b")]
        inbox.close()

    def test_duplicates_refused_but_flagged(self, tmp_path):
        inbox = DurableInbox(tmp_path / "peer.log")
        inbox.record(1, "a")
        assert inbox.record(1, "a") is False
        assert inbox.duplicate(1) is True
        assert inbox.duplicate(2) is False
        # The log holds exactly one copy.
        lines = (tmp_path / "peer.log").read_text().splitlines()
        assert len(lines) == 1
        inbox.close()

    def test_gap_refused(self, tmp_path):
        inbox = DurableInbox(tmp_path / "peer.log")
        inbox.record(1, "a")
        assert inbox.record(3, "c") is False  # 2 was never received
        assert inbox.frontier == 1
        inbox.close()

    def test_replay_after_restart(self, tmp_path):
        path = tmp_path / "peer.log"
        inbox = DurableInbox(path)
        for i in range(1, 4):
            inbox.record(i, {"n": i})
        inbox.close()

        reloaded = DurableInbox(path)
        assert reloaded.frontier == 3
        assert [payload["n"] for _, payload in reloaded.replay()] == [1, 2, 3]
        assert reloaded.duplicate(3) is True
        assert reloaded.record(4, {"n": 4}) is True
        reloaded.close()


class TestGroupCommit:
    def test_append_many_assigns_contiguous_seqs(self, tmp_path):
        outbox = _outbox(tmp_path / "peer.log")
        assert outbox.append_many(["a", "b", "c"]) == [1, 2, 3]
        assert outbox.append("d") == 4
        assert [seq for seq, _ in outbox.pending(PEER)] == [1, 2, 3, 4]
        outbox.close()

    def test_append_many_is_durable_as_one_batch(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = _outbox(path)
        outbox.append_many([{"n": i} for i in range(5)])
        outbox.close()

        reloaded = _outbox(path)
        assert [p["n"] for _, p in _decoded(reloaded.pending(PEER))] == [
            0, 1, 2, 3, 4
        ]
        reloaded.close()

    def test_record_many_advances_frontier(self, tmp_path):
        inbox = DurableInbox(tmp_path / "peer.log")
        assert inbox.record_many(blobs=[b'"a"', b'"b"', b'"c"']) == 3
        assert inbox.frontier == 3
        assert list(inbox.replay()) == [(1, "a"), (2, "b"), (3, "c")]
        inbox.close()


_PAYLOADS = st.dictionaries(
    st.text(max_size=3),
    st.integers(-(2**63), 2**64 - 1) | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.lists(st.booleans() | st.none(), max_size=2),
    max_size=3,
)


def _data_lines(path):
    """The data-record lines of a log, byte for byte."""
    return [
        line for line in path.read_bytes().splitlines(True)
        if line.startswith(b'{"seq":')
    ]


@given(
    st.lists(_PAYLOADS, min_size=1, max_size=5),
    st.integers(0, 2**40),
    st.booleans(),
)
def test_a_run_is_logged_as_the_lines_of_its_records(payloads, base, blobs):
    """``append_many`` and ``record_many`` render a run's lines in one
    go; each is the line :func:`_record_line` renders for its record —
    with the record's blob and without one (the codec's own encoding of
    the record) — in both logs, wherever the run starts."""
    wire = list(map(payload_blob, payloads))
    seqs = range(base + 1, base + 1 + len(payloads))
    want = list(map(_record_line, seqs, payloads, wire))
    assert want == [
        _record_line(seq, payload, None)
        for seq, payload in zip(seqs, payloads)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        outbox = _outbox(pathlib.Path(tmp) / "out.log")
        outbox.reset_to(base)
        assert outbox.append_many(
            payloads, blobs=wire if blobs else None
        ) == list(seqs)
        outbox.close()
        inbox = DurableInbox(pathlib.Path(tmp) / "in.log")
        inbox.reset_to(base)
        assert inbox.record_many(blobs=wire) == len(payloads)
        assert inbox.frontier == seqs[-1]
        inbox.close()
        assert _data_lines(pathlib.Path(tmp) / "out.log") == want
        assert _data_lines(pathlib.Path(tmp) / "in.log") == want


class TestCumulativeAck:
    def test_ack_through_truncates_covered_range(self, tmp_path):
        outbox = _outbox(tmp_path / "peer.log")
        outbox.append_many(list("abcde"))
        assert _released(outbox, PEER, 3) == [(1, "a"), (2, "b"), (3, "c")]
        assert outbox.frontier(PEER) == 3
        assert [seq for seq, _ in outbox.pending(PEER)] == [4, 5]
        outbox.close()

    def test_ack_through_is_idempotent(self, tmp_path):
        outbox = _outbox(tmp_path / "peer.log")
        outbox.append_many(list("abc"))
        outbox.ack_through(PEER, 2)
        assert outbox.ack_through(PEER, 2) == []
        assert outbox.ack_through(PEER, 1) == []  # stale ack: no regression
        assert outbox.frontier(PEER) == 2
        outbox.close()

    def test_ack_through_never_passes_appended_work(self, tmp_path):
        outbox = _outbox(tmp_path / "peer.log")
        outbox.append_many(list("ab"))
        outbox.ack_through(PEER, 99)  # a confused peer cannot fast-forward us
        assert outbox.frontier(PEER) == 2
        assert outbox.append("c") == 3
        outbox.close()

    def test_cumulative_frontier_survives_restart(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = _outbox(path)
        outbox.append_many([{"n": i} for i in range(6)])
        outbox.ack_through(PEER, 4)
        outbox.close()

        reloaded = _outbox(path)
        assert reloaded.frontier(PEER) == 4
        assert [seq for seq, _ in reloaded.pending(PEER)] == [5, 6]
        reloaded.close()


class TestGroupCommitCrash:
    """Kill the receiver between the sender's batch append and the
    acknowledgement: recovery must re-send the whole batch, and the
    receiver-side dedup must keep the application at exactly-once."""

    def test_unacked_batch_is_resent_never_dropped(self, tmp_path):
        out_path = tmp_path / "out.log"
        outbox = _outbox(out_path)
        outbox.append_many([{"n": i} for i in range(8)])
        # Receiver durably recorded the first half of the window, then
        # died before any ack made it back.
        inbox = DurableInbox(tmp_path / "in.log")
        inbox.record_many(
            blobs=[blob for _, blob in outbox.pending(PEER)[:4]]
        )
        inbox.close()
        # Sender crashes too (no volatile state survives).
        outbox.close()

        recovered_out = _outbox(out_path)
        recovered_in = DurableInbox(tmp_path / "in.log")
        # Everything unacked is pending again: at-least-once.
        assert [seq for seq, _ in recovered_out.pending(PEER)] == list(
            range(1, 9)
        )
        # The re-sent batch dedups its first half, applies the rest.
        applied = []
        fresh = []
        for seq, payload in _decoded(recovered_out.pending(PEER)):
            if recovered_in.duplicate(seq):
                continue
            fresh.append((seq, payload))
        recovered_in.record_many(
            blobs=[payload_blob(payload) for _, payload in fresh]
        )
        applied = [p["n"] for _, p in fresh]
        assert applied == [4, 5, 6, 7]  # second half only: exactly-once
        # The receiver's cumulative frontier now acks the whole window.
        covered = _released(recovered_out, PEER, recovered_in.frontier)
        assert covered == [(n + 1, {"n": n}) for n in range(8)]
        assert recovered_out.drained()
        recovered_out.close()
        recovered_in.close()

    def test_torn_tail_inside_group_append_drops_whole_suffix(
        self, tmp_path
    ):
        """A crash mid-group-write can tear the last record; recovery
        keeps the intact prefix and the sender re-sends the rest."""
        path = tmp_path / "in.log"
        inbox = DurableInbox(path)
        inbox.record_many(blobs=[b'"a"', b'"b"'])
        inbox.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "payload": "c"}\n{"seq": 4, "pa')

        recovered = DurableInbox(path)
        assert recovered.frontier == 3  # intact prefix of the torn batch
        assert recovered.record_many(blobs=[b'"d"']) == 1
        recovered.close()


class TestChannelContract:
    def test_at_least_once_plus_dedup_is_exactly_once(self, tmp_path):
        """Retry storms deliver each payload to the application once."""
        outbox = _outbox(tmp_path / "out.log")
        inbox = DurableInbox(tmp_path / "in.log")
        applied = []
        for i in range(10):
            outbox.append(i)
        # The sender retries everything three times (acks were lost).
        for _ in range(3):
            for seq, payload in _decoded(outbox.pending(PEER)):
                if inbox.duplicate(seq):
                    outbox.ack_through(PEER, seq)
                elif inbox.record(seq, payload):
                    applied.append(payload)
                    outbox.ack_through(PEER, seq)
        assert applied == list(range(10))
        assert outbox.drained()
        outbox.close()
        inbox.close()


class TestFsyncWindow:
    """Written is not yet durable: an append leaves the log dirty and
    ``sync()`` — the one fsync site — closes the window before any
    acknowledgement."""

    def test_appends_inside_window_leave_log_dirty(self, tmp_path):
        outbox = _outbox(tmp_path / "out.log", fsync=True)
        outbox.append("a")
        outbox.append("b")
        assert outbox.dirty
        assert outbox.fsync_count == 0  # however many appends: none yet
        assert outbox.sync() is True
        assert outbox.fsync_count == 1  # ... and one covers them all
        assert not outbox.dirty
        # Nothing new since the forced fsync: sync is now a no-op.
        assert outbox.sync() is False
        outbox.close()

    def test_sync_actually_calls_os_fsync(self, tmp_path, monkeypatch):
        import repro.live.durable_queue as dq

        calls = []
        real_fsync = dq.os.fsync
        monkeypatch.setattr(
            dq.os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))
        )
        inbox = DurableInbox(tmp_path / "in.log", fsync=True)
        baseline = len(calls)
        inbox.record(1, "a")
        inbox.record(2, "b")
        n_before = len(calls)
        assert inbox.sync() is True
        assert len(calls) == n_before + 1
        assert inbox.fsync_count >= baseline + 1
        inbox.close()

    def test_sync_noop_without_fsync(self, tmp_path):
        outbox = _outbox(tmp_path / "out.log", fsync=False)
        outbox.append("a")
        assert outbox.sync() is False
        assert not outbox.dirty
        assert outbox.fsync_count == 0
        outbox.close()

    def test_observability_counters_accumulate(self, tmp_path):
        outbox = _outbox(tmp_path / "out.log", fsync=True)
        outbox.append({"k": 1})
        outbox.sync()
        outbox.append_many([{"k": 2}, {"k": 3}])
        outbox.sync()
        assert outbox.fsync_count == 2  # one per synced group append
        assert outbox.fsync_seconds >= 0.0
        assert outbox.bytes_written > 0
        outbox.close()

    def test_close_syncs_dirty_tail(self, tmp_path):
        path = tmp_path / "out.log"
        outbox = _outbox(path, fsync=True)
        outbox.append("a")
        outbox.append("b")
        before = outbox.fsync_count
        assert outbox.dirty
        outbox.close()
        assert outbox.fsync_count == before + 1
        assert not outbox.dirty


class TestTornTailSecondRestart:
    """A torn tail must not swallow the *next* append: reopening in
    append mode behind torn bytes would glue the new line onto them,
    and the reload after that would drop it — acknowledged or not."""

    def test_outbox_append_after_torn_tail_survives_next_restart(
        self, tmp_path
    ):
        path = tmp_path / "peer.log"
        outbox = _outbox(path)
        outbox.append("a")
        outbox.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "pay')  # crash mid-append

        second = _outbox(path)
        assert second.append("b") == 2  # acknowledged to a client
        second.close()

        third = _outbox(path)
        assert third.pending(PEER) == _owed((1, "a"), (2, "b"))
        third.close()
        # The torn bytes are gone, not buried mid-file.
        assert [
            record["seq"] for record in _log_lines(path) if "meta" not in record
        ] == [1, 2]

    def test_inbox_record_after_torn_tail_survives_next_restart(
        self, tmp_path
    ):
        path = tmp_path / "peer.log"
        inbox = DurableInbox(path)
        inbox.record(1, "a")
        inbox.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "pay')

        second = DurableInbox(path)
        assert second.record(2, "b") is True  # acked upstream
        second.close()

        third = DurableInbox(path)
        assert list(third.replay()) == [(1, "a"), (2, "b")]
        assert third.frontier == 2
        third.close()

    def test_line_without_newline_is_torn_even_if_it_parses(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = _outbox(path)
        outbox.append("a")
        outbox.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq":2,"payload":"never-flushed-whole"}')

        second = _outbox(path)
        assert second.pending(PEER) == _owed((1, "a"))
        assert second.append("b") == 2
        second.close()
        third = _outbox(path)
        assert third.pending(PEER) == _owed((1, "a"), (2, "b"))
        third.close()


class TestUnknownMeta:
    """Loaders skip control records of a kind they do not know."""

    FUTURE = '{"meta":"future-kind","note":"no seq, no payload"}\n'

    def test_outbox_load_rewind_and_compact_skip_unknown_meta(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = _outbox(path)
        outbox.append_many(list("abc"))
        outbox.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write(self.FUTURE)

        reloaded = _outbox(path)
        assert reloaded.pending(PEER) == _owed((1, "a"), (2, "b"), (3, "c"))
        assert reloaded.append("d") == 4
        reloaded.ack_through(PEER, 4)
        assert reloaded.rewind_to(PEER, 1) is True
        assert [seq for seq, _ in reloaded.pending(PEER)] == [2, 3, 4]
        reloaded.ack_through(PEER, 3)
        assert reloaded.compact(2) == 2
        assert reloaded.pending(PEER) == _owed((4, "d"))
        reloaded.close()

    def test_inbox_skips_unknown_meta_and_the_outbox_ack_marker(
        self, tmp_path
    ):
        path = tmp_path / "peer.log"
        inbox = DurableInbox(path)
        inbox.record(1, "a")
        inbox.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write(self.FUTURE)
            handle.write('{"meta":"ack","seq":1}\n')
            handle.write('{"seq":2,"payload":"b"}\n')

        reloaded = DurableInbox(path)
        assert list(reloaded.replay()) == [(1, "a"), (2, "b")]
        reloaded.close()


def _log_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _mark(seq, peer=PEER):
    return {"meta": "ack", "peer": peer, "seq": seq}


class TestAckMarker:
    """Each cursor is persisted in the log's own stream."""

    def test_frontier_advance_appends_one_marker_and_no_sidecar(
        self, tmp_path
    ):
        path = tmp_path / "peer.log"
        outbox = _outbox(path)
        outbox.append_many(list("abcd"))
        outbox.ack_through(PEER, 2)
        outbox.ack_through(PEER, 2)  # duplicate: no second marker
        outbox.ack_through(PEER, 1)  # stale: no marker
        outbox.ack_through(PEER, 3)
        outbox.close()
        markers = [r for r in _log_lines(path) if "meta" in r]
        # The cursor's creation, then one marker per advance.
        assert markers == [_mark(0), _mark(2), _mark(3)]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["peer.log"]

    def test_marker_is_flushed_but_never_fsynced(self, tmp_path):
        outbox = _outbox(tmp_path / "peer.log", fsync=True)
        outbox.append_many(list("ab"))
        outbox.sync()
        fsyncs = outbox.fsync_count
        outbox.ack_through(PEER, 2)
        assert outbox.fsync_count == fsyncs
        assert not outbox.dirty
        # Flushed: a second handle already sees it.
        assert _log_lines(tmp_path / "peer.log")[-1] == _mark(2)
        outbox.close()

    def test_last_marker_wins_across_a_rewind(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = _outbox(path)
        outbox.append_many(list("abcde"))
        outbox.ack_through(PEER, 4)
        assert outbox.rewind_to(PEER, 1) is True
        outbox.close()

        reloaded = _outbox(path)
        assert reloaded.frontier(PEER) == 1
        assert reloaded.pending(PEER) == _owed(
            (2, "b"),
            (3, "c"),
            (4, "d"),
            (5, "e"),
        )
        reloaded.ack_through(PEER, 3)
        reloaded.close()
        again = _outbox(path)
        assert again.frontier(PEER) == 3
        again.close()

    def test_compact_folds_markers_into_one(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = _outbox(path)
        outbox.append_many(list("abcde"))
        for seq in (1, 2, 3, 4):
            outbox.ack_through(PEER, seq)
        outbox.compact(3)
        outbox.close()
        assert [r for r in _log_lines(path) if "meta" in r] == [
            {"meta": "base", "base": 3},
            _mark(4),
        ]
        reloaded = _outbox(path)
        assert (reloaded.base, reloaded.frontier(PEER)) == (3, 4)
        assert reloaded.pending(PEER) == _owed((5, "e"))
        reloaded.close()

    def test_lost_markers_only_age_the_frontier(self, tmp_path):
        """A crash may lose the newest (unsynced) markers: the reload
        then sees a lower bound and re-sends, never skips."""
        path = tmp_path / "peer.log"
        outbox = _outbox(path)
        outbox.append_many(list("abcd"))
        outbox.ack_through(PEER, 2)
        size_before_last_marker = path.stat().st_size
        outbox.ack_through(PEER, 4)
        outbox.close()
        with path.open("r+b") as handle:
            handle.truncate(size_before_last_marker)

        reloaded = _outbox(path)
        assert reloaded.frontier(PEER) == 2
        assert reloaded.pending(PEER) == _owed((3, "c"), (4, "d"))
        assert _released(reloaded, PEER, 4) == [(3, "c"), (4, "d")]
        reloaded.close()

    def test_an_acked_record_is_no_longer_handed_out(self, tmp_path):
        outbox = _outbox(tmp_path / "peer.log")
        outbox.append_many(list("ab"), blobs=[b'"a"', b'"b"'])
        outbox.ack_through(PEER, 1)
        assert outbox.pending_after(PEER, 0, 2) == (2, [b'"b"'])
        outbox.close()


class _CountingWindow(list):
    """The log's window with every element access counted: ``read``
    elements handed out (a slice counts its length), ``moved`` slots
    shifted down by a bulk trim of the dead prefix."""

    read = moved = 0

    def __getitem__(self, index):
        got = super().__getitem__(index)
        self.read += len(got) if isinstance(index, slice) else 1
        return got

    def __iter__(self):
        self.read += len(self)
        return super().__iter__()

    def __delitem__(self, index):
        assert isinstance(index, slice) and index.start is None
        self.moved += len(self) - index.stop
        super().__delitem__(index)


class TestAckCostIsIndependentOfBacklog:
    """Counts, not clocks: a cumulative ack touches the records it
    releases and one log line, a sender's fetch touches the records it
    returns — nothing proportional to a backlog, its own or another
    cursor's, and no file but the open log."""

    BACKLOG = 16384
    STEP = 32

    def test_ack_touches_only_what_it_retires(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = _outbox(path)
        outbox.append_many([{"n": n} for n in range(self.BACKLOG)])
        window = outbox._window = _CountingWindow(outbox._window)
        listing = sorted(p.name for p in tmp_path.iterdir())
        inode = path.stat().st_ino
        size = path.stat().st_size
        lines = len(path.read_bytes().splitlines())

        for upto in range(self.STEP, self.BACKLOG + 1, self.STEP):
            read = window.read
            covered = outbox.ack_through(PEER, upto)
            assert len(covered) == self.STEP
            # Same cost at 16k behind as at nothing behind.
            assert window.read - read == self.STEP
            grown = path.stat().st_size
            assert grown > size  # appended to, never truncated
            size = grown

        assert outbox.drained() and outbox.frontier(PEER) == self.BACKLOG
        assert window.read == self.BACKLOG
        # Trimming the dead prefix is amortised: over the whole drain
        # it moves fewer slots than were retired.
        assert window.moved <= self.BACKLOG
        assert len(outbox._window) - outbox._start == 0
        # One marker line per frontier advance, in the same file.
        advances = self.BACKLOG // self.STEP
        assert len(path.read_bytes().splitlines()) == lines + advances
        assert path.stat().st_ino == inode  # never replaced
        assert sorted(p.name for p in tmp_path.iterdir()) == listing
        outbox.close()

    def test_a_lagging_cursor_costs_the_others_nothing(self, tmp_path):
        """One peer 50 k records behind anchors the shared window; the
        healthy peer's fetches and acks still touch only their own."""
        behind, limit = 50_000, 64
        outbox = DurableOutbox(tmp_path / "replication.log")
        outbox.add_cursor("slow")
        outbox.add_cursor("fast")
        outbox.append_many([{"n": n} for n in range(behind)])
        outbox.ack_through("fast", behind)
        window = outbox._window = _CountingWindow(outbox._window)

        for round_ in range(8):
            outbox.append_many([{"n": n} for n in range(limit)])
            sent_hi = outbox.frontier("fast")
            read = window.read
            first, fetched = outbox.pending_after("fast", sent_hi, limit)
            assert list(range(first, first + len(fetched))) == list(
                range(sent_hi + 1, sent_hi + limit + 1)
            )
            assert window.read - read == limit
            # Everyone else's ack releases nothing while "slow" holds
            # the tail: no element read, nothing moved.
            read = window.read
            assert outbox.ack_through("fast", sent_hi + limit) == []
            assert window.read == read and window.moved == 0
        assert outbox.backlog("fast") == 0
        assert outbox.backlog("slow") == behind + 8 * limit

        # The slow peer's own acks release exactly what they cover.
        read = window.read
        released = _released(outbox, "slow", self.STEP)
        assert [seq for seq, _ in released] == list(range(1, self.STEP + 1))
        assert window.read - read == self.STEP
        outbox.close()

    def test_sender_fetch_slices_the_window(self, tmp_path):
        outbox = _outbox(tmp_path / "peer.log")
        outbox.append_many(list(range(self.BACKLOG)))
        outbox.ack_through(PEER, 100)
        assert outbox.pending_after(PEER, 0, 3) == _run(101, 100, 101, 102)
        assert outbox.pending_after(PEER, 150, 2) == _run(151, 150, 151)
        assert outbox.pending_after(PEER, self.BACKLOG - 1, 5) == _run(
            self.BACKLOG, self.BACKLOG - 1
        )
        assert outbox.pending_after(PEER, self.BACKLOG, 5) == _run(
            self.BACKLOG + 1
        )
        assert outbox.backlog(PEER) == self.BACKLOG - 100
        outbox.close()


class TestBytesWritten:
    """``bytes_written`` (``repro_log_bytes_total``) counts the UTF-8
    bytes a log wrote, not the characters: after a non-ASCII record it
    is still the file's size."""

    PAYLOAD = {
        "mset": {
            "tid": "site1:1",
            "ops": [["append", "k", "héllo wörld"]],
            "origin": "site1",
        }
    }

    @pytest.mark.parametrize("how", ["record", "blobs"])
    def test_inbox_counter_is_the_file_size(self, tmp_path, how):
        path = tmp_path / "peer.log"
        inbox = DurableInbox(path)
        if how == "record":
            inbox.record(1, self.PAYLOAD)
        else:
            inbox.record_many(blobs=[payload_blob(self.PAYLOAD)])
        inbox.close()
        assert path.stat().st_size > len(path.read_text("utf-8"))
        assert inbox.bytes_written == path.stat().st_size

    def test_outbox_counter_counts_appends_and_rewrites(self, tmp_path):
        path = tmp_path / "out.log"
        outbox = _outbox(path)
        outbox.append(self.PAYLOAD)
        appended = outbox.bytes_written
        assert appended == path.stat().st_size
        outbox.ack_through(PEER, 1)
        before = outbox.bytes_written
        outbox.compact(1)
        assert outbox.bytes_written == before + path.stat().st_size
        outbox.close()


class TestResidentWindow:
    """What a held record costs while a partitioned peer is owed it:
    its wire blob plus a small fixed overhead (window slot, entry,
    release ``(tid, keys)``), never the payload's tree — a dict tree
    alone cost ~700 B for a one-operation update."""

    HELD = 6144
    #: bytes per record beyond its blob's length: the entry and release
    #: tuples, the bytes object's header, the tid and key strings.
    OVERHEAD = 384

    def test_held_records_cost_their_blob_and_a_small_overhead(
        self, tmp_path
    ):
        outbox = DurableOutbox(
            tmp_path / "replication.log",
            release=functools.partial(_full_ack_release, "site0"),
        )
        outbox.add_cursor("partitioned")
        gc.collect()
        tracemalloc.start()
        try:
            payloads = [
                [["inc", "acct%d" % (i % 4096), 1]]
                for i in range(1, self.HELD + 1)
            ]
            blobs = [plain_update_blob(payload) for payload in payloads]
            blob_bytes = sum(map(len, blobs))
            outbox.append_many(payloads, blobs=blobs)
            del payloads, blobs
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert outbox.backlog("partitioned") == self.HELD
        assert held <= blob_bytes + self.HELD * self.OVERHEAD
        outbox.close()


class TestCallersRelease:
    """A record's release — the ``(tid, keys)`` an ack hands back — is
    what the appender passed, from the commit group that holds it, and
    what ``_full_ack_release`` derives from the payload and its seq
    when the record is read back (reload, rewind): the two must be the
    same entry, for a plain update's array and an MSet's object."""

    @staticmethod
    def _payload(mset):
        """The payload the origin logs for ``mset``: its operations'
        arrays for a plain update, else its encoding."""
        if mset.kind == MSetKind.UPDATE:
            return [encode_op(op) for op in mset.ops]
        return {"mset": encode_mset(mset)}

    @staticmethod
    def _group():
        """A commit group's MSets: one key, a transfer, a key written
        twice, and a decision without operations."""
        return [
            MSet("s:1", ops=(IncrementOp("a", 1),), origin="s"),
            MSet(
                "s:2",
                ops=(DecrementOp("b", 1), IncrementOp("c", 1),
                     IncrementOp("a", 1)),
                origin="s",
            ),
            MSet(
                "s:3", ops=(IncrementOp("a", 1), IncrementOp("a", 2)),
                origin="s",
            ),
            MSet("s:4", MSetKind.COMMIT, (), origin="s",
                 info=(("decides", "s:3"),)),
        ]

    def test_a_callers_release_is_the_one_a_reload_derives(self, tmp_path):
        msets = self._group()
        payloads = list(map(self._payload, msets))
        assert [type(payload) for payload in payloads] == [list] * 3 + [dict]
        pairs = [(mset.tid, mset.keys) for mset in msets]
        assert pairs[1][1] == ("b", "c", "a") and pairs[2][1] == ("a",)
        path = tmp_path / "replication.log"
        release = functools.partial(_full_ack_release, "s")
        live = DurableOutbox(path, release=release)
        live.add_cursor("p")
        live.add_cursor("q")
        live.append_many(payloads, releases=pairs)
        held = [
            (payload_blob(payload), pair)
            for payload, pair in zip(payloads, pairs)
        ]
        assert live._window[live._start:] == held
        # The same file, read back by a restarted replica.
        shutil.copyfile(path, tmp_path / "restarted.log")
        restarted = DurableOutbox(tmp_path / "restarted.log", release=release)
        assert restarted._window[restarted._start:] == held
        for log in (live, restarted):
            assert log.ack_through("q", 2) == []
            assert _released(log, "p", 4) == [(1, pairs[0]), (2, pairs[1])]
            # A rewind reads released records back into the window.
            assert log.rewind_to("p", 0) is True
            assert log._window[log._start:] == held
            assert log.ack_through("q", 4) == []
            assert _released(log, "p", 4) == [(3, pairs[2]), (4, pairs[3])]
            log.close()

    @pytest.mark.parametrize(
        "payload", [7, "x", None, [["inc", "k"]], {"mset": {"ops": 1}}]
    )
    def test_a_record_no_release_reads_names_its_file_and_seq(
        self, payload, tmp_path
    ):
        """A record read back into the window whose payload is no entry
        — neither form, or a malformed one — refuses the reload with
        the log's path and the record's seq, as recovery names an
        unreadable record."""
        path = tmp_path / "replication.log"
        path.write_bytes(
            b'{"meta":"ack","peer":"p","seq":0}\n'
            + _record_line(1, [["inc", "a", 1]], None)
            + _record_line(2, payload, None)
        )
        with pytest.raises(ProtocolError) as refused:
            DurableOutbox(
                path, release=functools.partial(_full_ack_release, "s")
            )
        assert str(refused.value).startswith("%s: record 2: " % path)

    @pytest.mark.parametrize("method", ["commu", "ritu", "compe"])
    def test_the_commit_path_derives_no_release(self, method, tmp_path):
        """The origin's groups — plain updates (COMMU), MSets (RITU),
        updates and their decisions (COMPE) — hand ``append_many`` each
        record's release: ``release`` runs for none of them, and the
        window holds what it would have derived."""
        update = (
            [WriteOp("a", 1), WriteOp("b", 2)] if method == "ritu"
            else [DecrementOp("a", 1), IncrementOp("b", 1),
                  IncrementOp("c", 1)]
        )
        twice = (
            [WriteOp("a", 3)] if method == "ritu"
            else [IncrementOp("a", 1), IncrementOp("a", 2)]
        )

        async def scenario():
            cluster = LiveCluster(
                n_sites=3, method=method, data_dir=tmp_path,
                faults=FaultPlan(0),
            )
            await cluster.start()
            try:
                client = await cluster.client("site0")
                origin = cluster.servers["site0"]
                calls = []
                real = origin.log._release

                def release(seq, payload):
                    calls.append(payload)
                    return real(seq, payload)

                origin.log._release = release
                cluster.partition([["site0"], ["site1", "site2"]])
                await asyncio.gather(
                    client.update(update),
                    client.update(twice),
                    *(client.update(update) for _ in range(4)),
                )
                await client.update(twice)
                assert calls == []
                log = origin.log
                held = log._window[log._start:]
                assert len(held) == log.assigned >= 7
                assert held == [
                    (blob, _full_ack_release("site0", seq, loads(blob)))
                    for seq, (blob, _) in enumerate(held, log._head + 1)
                ]
                cluster.heal()
                await cluster.settle(timeout=30)
                assert calls == []
            finally:
                await cluster.stop()

        asyncio.run(scenario())
