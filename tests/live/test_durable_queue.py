"""Durable queue tests: exactly-once FIFO channels that survive restarts."""

import json
from collections import deque

import pytest

from repro.live.durable_queue import DurableInbox, DurableOutbox


class TestOutbox:
    def test_append_assigns_sequence_numbers(self, tmp_path):
        outbox = DurableOutbox(tmp_path / "peer.log")
        assert outbox.append("a") == 1
        assert outbox.append("b") == 2
        assert outbox.pending() == [(1, "a"), (2, "b")]
        outbox.close()

    def test_ack_advances_frontier(self, tmp_path):
        outbox = DurableOutbox(tmp_path / "peer.log")
        for payload in "abc":
            outbox.append(payload)
        outbox.ack_through(1)
        assert outbox.pending() == [(2, "b"), (3, "c")]
        assert outbox.frontier == 1
        outbox.ack_through(2)
        outbox.ack_through(3)
        assert outbox.drained()
        outbox.close()

    def test_pending_survives_restart(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = DurableOutbox(path)
        for i in range(5):
            outbox.append({"n": i})
        outbox.ack_through(1)
        outbox.ack_through(2)
        outbox.close()

        reloaded = DurableOutbox(path)
        assert reloaded.frontier == 2
        assert [seq for seq, _ in reloaded.pending()] == [3, 4, 5]
        # New appends continue the sequence, no reuse.
        assert reloaded.append("later") == 6
        reloaded.close()

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = DurableOutbox(path)
        outbox.append("whole")
        outbox.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "payl')  # crash mid-append

        reloaded = DurableOutbox(path)
        assert reloaded.pending() == [(1, "whole")]
        # The torn record's seqno is reused because it was never durable.
        assert reloaded.append("retry") == 2
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
        outbox = DurableOutbox(path)
        outbox.append("kept")
        outbox.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": "not-an-int"}\n')

        recovered = DurableOutbox(path)
        assert recovered.pending() == [(1, "kept")]
        assert recovered.append("next") == 2
        recovered.close()

    def test_outbox_truncated_tail_keeps_acked_frontier(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = DurableOutbox(path)
        for i in range(3):
            outbox.append({"n": i})
        outbox.ack_through(1)
        outbox.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": 4, "pa')  # crash mid-append

        recovered = DurableOutbox(path)
        assert recovered.frontier == 1  # acked work survives
        assert [seq for seq, _ in recovered.pending()] == [2, 3]
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
        outbox = DurableOutbox(tmp_path / "peer.log")
        assert outbox.append_many(["a", "b", "c"]) == [1, 2, 3]
        assert outbox.append("d") == 4
        assert [seq for seq, _ in outbox.pending()] == [1, 2, 3, 4]
        outbox.close()

    def test_append_many_is_durable_as_one_batch(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = DurableOutbox(path)
        outbox.append_many([{"n": i} for i in range(5)])
        outbox.close()

        reloaded = DurableOutbox(path)
        assert [p["n"] for _, p in reloaded.pending()] == [0, 1, 2, 3, 4]
        reloaded.close()

    def test_record_many_advances_frontier(self, tmp_path):
        inbox = DurableInbox(tmp_path / "peer.log")
        assert inbox.record_many([(1, "a"), (2, "b"), (3, "c")]) == 3
        assert inbox.frontier == 3
        assert list(inbox.replay()) == [(1, "a"), (2, "b"), (3, "c")]
        inbox.close()

    def test_record_many_rejects_gaps(self, tmp_path):
        """The batch receive path filters duplicates and stops at the
        first gap *before* calling; a non-contiguous batch reaching
        the log is a programming error, refused before any write."""
        inbox = DurableInbox(tmp_path / "peer.log")
        inbox.record(1, "a")
        with pytest.raises(ValueError):
            inbox.record_many([(2, "b"), (4, "d")])
        assert inbox.frontier == 1
        # Nothing from the refused batch hit the log.
        assert len((tmp_path / "peer.log").read_text().splitlines()) == 1
        inbox.close()

    def test_fsync_interval_rate_limits(self, tmp_path):
        """With a long interval only the first group append syncs; the
        queue keeps working and stays durable via flush."""
        outbox = DurableOutbox(
            tmp_path / "peer.log", fsync=True, fsync_interval=3600.0
        )
        outbox.append_many(["a", "b"])
        outbox.append_many(["c", "d"])
        outbox.close()  # close fsyncs unconditionally

        reloaded = DurableOutbox(tmp_path / "peer.log")
        assert [seq for seq, _ in reloaded.pending()] == [1, 2, 3, 4]
        reloaded.close()


class TestCumulativeAck:
    def test_ack_through_truncates_covered_range(self, tmp_path):
        outbox = DurableOutbox(tmp_path / "peer.log")
        outbox.append_many(list("abcde"))
        assert outbox.ack_through(3) == [(1, "a"), (2, "b"), (3, "c")]
        assert outbox.frontier == 3
        assert [seq for seq, _ in outbox.pending()] == [4, 5]
        outbox.close()

    def test_ack_through_is_idempotent(self, tmp_path):
        outbox = DurableOutbox(tmp_path / "peer.log")
        outbox.append_many(list("abc"))
        outbox.ack_through(2)
        assert outbox.ack_through(2) == []
        assert outbox.ack_through(1) == []  # stale ack: no regression
        assert outbox.frontier == 2
        outbox.close()

    def test_ack_through_never_passes_appended_work(self, tmp_path):
        outbox = DurableOutbox(tmp_path / "peer.log")
        outbox.append_many(list("ab"))
        outbox.ack_through(99)  # a confused peer cannot fast-forward us
        assert outbox.frontier == 2
        assert outbox.append("c") == 3
        outbox.close()

    def test_cumulative_frontier_survives_restart(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = DurableOutbox(path)
        outbox.append_many([{"n": i} for i in range(6)])
        outbox.ack_through(4)
        outbox.close()

        reloaded = DurableOutbox(path)
        assert reloaded.frontier == 4
        assert [seq for seq, _ in reloaded.pending()] == [5, 6]
        reloaded.close()


class TestGroupCommitCrash:
    """Kill the receiver between the sender's batch append and the
    acknowledgement: recovery must re-send the whole batch, and the
    receiver-side dedup must keep the application at exactly-once."""

    def test_unacked_batch_is_resent_never_dropped(self, tmp_path):
        out_path = tmp_path / "out.log"
        outbox = DurableOutbox(out_path)
        outbox.append_many([{"n": i} for i in range(8)])
        # Receiver durably recorded the first half of the window, then
        # died before any ack made it back.
        inbox = DurableInbox(tmp_path / "in.log")
        inbox.record_many(
            [(seq, payload) for seq, payload in outbox.pending()[:4]]
        )
        inbox.close()
        # Sender crashes too (no volatile state survives).
        outbox.close()

        recovered_out = DurableOutbox(out_path)
        recovered_in = DurableInbox(tmp_path / "in.log")
        # Everything unacked is pending again: at-least-once.
        assert [seq for seq, _ in recovered_out.pending()] == list(
            range(1, 9)
        )
        # The re-sent batch dedups its first half, applies the rest.
        applied = []
        fresh = []
        for seq, payload in recovered_out.pending():
            if recovered_in.duplicate(seq):
                continue
            fresh.append((seq, payload))
        recovered_in.record_many(fresh)
        applied = [p["n"] for _, p in fresh]
        assert applied == [4, 5, 6, 7]  # second half only: exactly-once
        # The receiver's cumulative frontier now acks the whole window.
        covered = recovered_out.ack_through(recovered_in.frontier)
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
        inbox.record_many([(1, "a"), (2, "b")])
        inbox.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "payload": "c"}\n{"seq": 4, "pa')

        recovered = DurableInbox(path)
        assert recovered.frontier == 3  # intact prefix of the torn batch
        assert recovered.record_many([(4, "d")]) == 1
        recovered.close()


class TestChannelContract:
    def test_at_least_once_plus_dedup_is_exactly_once(self, tmp_path):
        """Retry storms deliver each payload to the application once."""
        outbox = DurableOutbox(tmp_path / "out.log")
        inbox = DurableInbox(tmp_path / "in.log")
        applied = []
        for i in range(10):
            outbox.append(i)
        # The sender retries everything three times (acks were lost).
        for _ in range(3):
            for seq, payload in outbox.pending():
                if inbox.duplicate(seq):
                    outbox.ack_through(seq)
                elif inbox.record(seq, payload):
                    applied.append(payload)
                    outbox.ack_through(seq)
        assert applied == list(range(10))
        assert outbox.drained()
        outbox.close()
        inbox.close()


class TestFsyncWindow:
    """The fsync_interval rate limit must never weaken a durability
    claim: ``sync()`` closes the window before any acknowledgement."""

    def test_appends_inside_window_leave_log_dirty(self, tmp_path):
        outbox = DurableOutbox(
            tmp_path / "out.log", fsync=True, fsync_interval=3600.0
        )
        outbox.append("a")  # may ride the initial fsync or not;
        outbox.append("b")  # a second append inside the window cannot.
        assert outbox.dirty
        assert outbox.sync() is True
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
        inbox = DurableInbox(
            tmp_path / "in.log", fsync=True, fsync_interval=3600.0
        )
        baseline = len(calls)
        inbox.record(1, "a")
        inbox.record(2, "b")
        n_before = len(calls)
        assert inbox.sync() is True
        assert len(calls) == n_before + 1
        assert inbox.fsync_count >= baseline + 1
        inbox.close()

    def test_sync_noop_without_fsync(self, tmp_path):
        outbox = DurableOutbox(tmp_path / "out.log", fsync=False)
        outbox.append("a")
        assert outbox.sync() is False
        assert not outbox.dirty
        assert outbox.fsync_count == 0
        outbox.close()

    def test_observability_counters_accumulate(self, tmp_path):
        outbox = DurableOutbox(tmp_path / "out.log", fsync=True)
        outbox.append({"k": 1})
        outbox.append_many([{"k": 2}, {"k": 3}])
        assert outbox.fsync_count >= 2  # one per group append
        assert outbox.fsync_seconds >= 0.0
        assert outbox.bytes_written > 0
        outbox.close()

    def test_close_syncs_dirty_tail(self, tmp_path):
        path = tmp_path / "out.log"
        outbox = DurableOutbox(path, fsync=True, fsync_interval=3600.0)
        outbox.append("a")
        outbox.append("b")
        before = outbox.fsync_count
        dirty = outbox.dirty
        outbox.close()
        assert not dirty or outbox.fsync_count > before
        assert not outbox.dirty


class TestTornTailSecondRestart:
    """A torn tail must not swallow the *next* append: reopening in
    append mode behind torn bytes would glue the new line onto them,
    and the reload after that would drop it — acknowledged or not."""

    def test_outbox_append_after_torn_tail_survives_next_restart(
        self, tmp_path
    ):
        path = tmp_path / "peer.log"
        outbox = DurableOutbox(path)
        outbox.append("a")
        outbox.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "pay')  # crash mid-append

        second = DurableOutbox(path)
        assert second.append("b") == 2  # acknowledged to a client
        second.close()

        third = DurableOutbox(path)
        assert third.pending() == [(1, "a"), (2, "b")]
        third.close()
        # The torn bytes are gone, not buried mid-file.
        assert [record["seq"] for record in _log_lines(path)] == [1, 2]

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
        outbox = DurableOutbox(path)
        outbox.append("a")
        outbox.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq":2,"payload":"never-flushed-whole"}')

        second = DurableOutbox(path)
        assert second.pending() == [(1, "a")]
        assert second.append("b") == 2
        second.close()
        third = DurableOutbox(path)
        assert third.pending() == [(1, "a"), (2, "b")]
        third.close()


class TestUnknownMeta:
    """Loaders skip control records of a kind they do not know."""

    FUTURE = '{"meta":"future-kind","note":"no seq, no payload"}\n'

    def test_outbox_load_rewind_and_compact_skip_unknown_meta(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = DurableOutbox(path)
        outbox.append_many(list("abc"))
        outbox.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write(self.FUTURE)

        reloaded = DurableOutbox(path)
        assert reloaded.pending() == [(1, "a"), (2, "b"), (3, "c")]
        assert reloaded.append("d") == 4
        reloaded.ack_through(4)
        assert reloaded.rewind_to(1) is True
        assert [seq for seq, _ in reloaded.pending()] == [2, 3, 4]
        reloaded.ack_through(3)
        assert reloaded.compact(2) == 2
        assert reloaded.pending() == [(4, "d")]
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


class TestAckMarker:
    """The ack frontier is persisted in the outbox's own log stream."""

    def test_frontier_advance_appends_one_marker_and_no_sidecar(
        self, tmp_path
    ):
        path = tmp_path / "peer.log"
        outbox = DurableOutbox(path)
        outbox.append_many(list("abcd"))
        outbox.ack_through(2)
        outbox.ack_through(2)  # duplicate: no second marker
        outbox.ack_through(1)  # stale: no marker
        outbox.ack_through(3)
        outbox.close()
        markers = [r for r in _log_lines(path) if "meta" in r]
        assert markers == [
            {"meta": "ack", "seq": 2},
            {"meta": "ack", "seq": 3},
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["peer.log"]

    def test_marker_is_flushed_but_never_fsynced(self, tmp_path):
        outbox = DurableOutbox(tmp_path / "peer.log", fsync=True)
        outbox.append_many(list("ab"))
        fsyncs = outbox.fsync_count
        outbox.ack_through(2)
        assert outbox.fsync_count == fsyncs
        assert not outbox.dirty
        # Flushed: a second handle already sees it.
        assert _log_lines(tmp_path / "peer.log")[-1] == {
            "meta": "ack",
            "seq": 2,
        }
        outbox.close()

    def test_last_marker_wins_across_a_rewind(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = DurableOutbox(path)
        outbox.append_many(list("abcde"))
        outbox.ack_through(4)
        assert outbox.rewind_to(1) is True
        outbox.close()

        reloaded = DurableOutbox(path)
        assert reloaded.frontier == 1
        assert reloaded.pending() == [
            (2, "b"),
            (3, "c"),
            (4, "d"),
            (5, "e"),
        ]
        reloaded.ack_through(3)
        reloaded.close()
        again = DurableOutbox(path)
        assert again.frontier == 3
        again.close()

    def test_compact_folds_markers_into_one(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = DurableOutbox(path)
        outbox.append_many(list("abcde"))
        for seq in (1, 2, 3, 4):
            outbox.ack_through(seq)
        outbox.compact(3)
        outbox.close()
        assert [r for r in _log_lines(path) if "meta" in r] == [
            {"meta": "base", "base": 3},
            {"meta": "ack", "seq": 4},
        ]
        reloaded = DurableOutbox(path)
        assert (reloaded.base, reloaded.frontier) == (3, 4)
        assert reloaded.pending() == [(5, "e")]
        reloaded.close()

    def test_lost_markers_only_age_the_frontier(self, tmp_path):
        """A crash may lose the newest (unsynced) markers: the reload
        then sees a lower bound and re-sends, never skips."""
        path = tmp_path / "peer.log"
        outbox = DurableOutbox(path)
        outbox.append_many(list("abcd"))
        outbox.ack_through(2)
        size_before_last_marker = path.stat().st_size
        outbox.ack_through(4)
        outbox.close()
        with path.open("r+b") as handle:
            handle.truncate(size_before_last_marker)

        reloaded = DurableOutbox(path)
        assert reloaded.frontier == 2
        assert reloaded.pending() == [(3, "c"), (4, "d")]
        assert reloaded.ack_through(4) == [(3, "c"), (4, "d")]
        reloaded.close()

    def test_wire_blob_of_an_acked_record_is_a_key_error(self, tmp_path):
        outbox = DurableOutbox(tmp_path / "peer.log")
        outbox.append_many(list("ab"), blobs=[b'"a"', b'"b"'])
        outbox.ack_through(1)
        assert outbox.wire_blob(2) == b'"b"'
        with pytest.raises(KeyError):
            outbox.wire_blob(1)
        outbox.close()


class TestLegacySidecar:
    """A data dir written before the marker existed: the frontier sits
    in ``<log>.ack``, the log has no markers."""

    @staticmethod
    def _legacy_dir(tmp_path, n_records, acked):
        path = tmp_path / "peer.log"
        path.write_text(
            "".join(
                '{"seq":%d,"payload":{"n":%d}}\n' % (seq, seq)
                for seq in range(1, n_records + 1)
            )
        )
        sidecar = tmp_path / "peer.log.ack"
        sidecar.write_text(str(acked))
        return path, sidecar

    def test_reopens_with_the_same_frontier_and_pending(self, tmp_path):
        path, _ = self._legacy_dir(tmp_path, 5, acked=3)
        outbox = DurableOutbox(path)
        assert outbox.frontier == 3
        assert outbox.pending() == [(4, {"n": 4}), (5, {"n": 5})]
        assert outbox.append("later") == 6
        outbox.close()

    def test_sidecar_is_never_written_and_markers_supersede_it(
        self, tmp_path
    ):
        path, sidecar = self._legacy_dir(tmp_path, 5, acked=3)
        outbox = DurableOutbox(path)
        outbox.ack_through(4)
        outbox.close()
        assert sidecar.read_text() == "3"
        reloaded = DurableOutbox(path)
        assert reloaded.frontier == 4
        # A rewind below the sidecar's value sticks too.
        assert reloaded.rewind_to(1) is True
        reloaded.close()
        assert sidecar.read_text() == "3"
        again = DurableOutbox(path)
        assert again.frontier == 1
        assert [seq for seq, _ in again.pending()] == [2, 3, 4, 5]
        # So does a snapshot install below it.
        again.reset_to(2)
        again.close()
        final = DurableOutbox(path)
        assert final.frontier == 2
        final.close()

    def test_sidecar_ahead_of_a_log_that_lost_its_tail(self, tmp_path):
        """The sender's log regressed but its sidecar did not: nothing
        is pending, numbering resumes above the sidecar, and a
        receiver regressed into the hole cannot be served by replay."""
        path, _ = self._legacy_dir(tmp_path, 3, acked=5)
        outbox = DurableOutbox(path)
        assert outbox.frontier == 5 and outbox.drained()
        assert outbox.append("next") == 6
        assert outbox.rewind_to(2) is False  # 4 and 5 are gone
        assert outbox.frontier == 5
        assert outbox.pending() == [(6, "next")]
        outbox.close()
        reloaded = DurableOutbox(path)
        assert reloaded.pending() == [(6, "next")]
        reloaded.close()


class _CountingWindow(deque):
    """The outbox's window with every element access counted."""

    def __init__(self, items):
        super().__init__(items)
        self.pops = 0
        self.other_touches = 0

    def popleft(self):
        self.pops += 1
        return super().popleft()

    def __iter__(self):
        self.other_touches += len(self)
        return super().__iter__()

    def __getitem__(self, index):
        self.other_touches += 1
        return super().__getitem__(index)


class TestAckCostIsIndependentOfBacklog:
    """Counts, not clocks: retiring a cumulative ack touches the
    records it covers and one log line — nothing proportional to the
    backlog behind them, and no file but the open log."""

    BACKLOG = 16384
    STEP = 32

    def test_ack_touches_only_what_it_retires(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = DurableOutbox(path)
        outbox.append_many([{"n": n} for n in range(self.BACKLOG)])
        window = outbox._window = _CountingWindow(outbox._window)
        listing = sorted(p.name for p in tmp_path.iterdir())
        inode = path.stat().st_ino
        size = path.stat().st_size
        lines = len(path.read_bytes().splitlines())

        for upto in range(self.STEP, self.BACKLOG + 1, self.STEP):
            pops = window.pops
            covered = outbox.ack_through(upto)
            assert len(covered) == self.STEP
            # Same cost at 16k behind as at nothing behind.
            assert window.pops - pops == self.STEP
            grown = path.stat().st_size
            assert grown > size  # appended to, never truncated
            size = grown

        assert outbox.drained() and outbox.frontier == self.BACKLOG
        assert window.pops == self.BACKLOG
        assert window.other_touches == 0
        # One marker line per frontier advance, in the same file.
        advances = self.BACKLOG // self.STEP
        assert len(path.read_bytes().splitlines()) == lines + advances
        assert path.stat().st_ino == inode  # never replaced
        assert sorted(p.name for p in tmp_path.iterdir()) == listing
        assert not list(tmp_path.glob("*.ack"))
        outbox.close()

    def test_sender_fetch_slices_the_window(self, tmp_path):
        outbox = DurableOutbox(tmp_path / "peer.log")
        outbox.append_many(list(range(self.BACKLOG)))
        outbox.ack_through(100)
        assert outbox.pending_after(0, 3) == [
            (101, 100),
            (102, 101),
            (103, 102),
        ]
        assert outbox.pending_after(150, 2) == [(151, 150), (152, 151)]
        assert outbox.pending_after(self.BACKLOG - 1, 5) == [
            (self.BACKLOG, self.BACKLOG - 1)
        ]
        assert outbox.pending_after(self.BACKLOG, 5) == []
        assert outbox.backlog == self.BACKLOG - 100
        outbox.close()
