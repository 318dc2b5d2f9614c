"""Trace recorder tests: event stamping, bounds, JSONL round-trip."""

import itertools

from repro.obs.trace import (
    TraceRecorder,
    UPDATE_SPAN_KINDS,
    dump_events_jsonl,
    load_trace_jsonl,
    merge_traces,
)


def _fake_clock(start=0.0, step=1.0):
    counter = itertools.count()
    return lambda: start + step * next(counter)


class TestRecorder:
    def test_events_are_stamped(self):
        rec = TraceRecorder(site="site0", clock=_fake_clock())
        rec.event("update-submit", tid="site0:1")
        rec.event("update-apply", tid="site0:1")
        first, second = rec.snapshot()
        assert first == {
            "ts": 0.0,
            "kind": "update-submit",
            "site": "site0",
            "tid": "site0:1",
        }
        assert second["ts"] > first["ts"]

    def test_disabled_recorder_is_free(self):
        rec = TraceRecorder(enabled=False)
        rec.event("query")
        assert len(rec) == 0
        assert rec.recorded == 0

    def test_bounded_buffer_counts_drops(self):
        rec = TraceRecorder(maxlen=2, clock=_fake_clock())
        for i in range(5):
            rec.event("drain", i=i)
        assert len(rec) == 2
        assert rec.recorded == 5
        assert rec.dropped == 3
        # Oldest events were evicted; the latest survive.
        assert [e["i"] for e in rec.snapshot()] == [3, 4]

    def test_event_each_is_one_event_per_value_at_one_instant(self):
        """What ``event`` records per value, all with one ``ts``; the
        bound drops and counts exactly as ``event`` would."""
        rec = TraceRecorder(site="s", maxlen=3, clock=_fake_clock(5.0))
        rec.event("drain")
        rec.event_each("update-ack", "tid", ["s:1", "s:2", "s:3"])
        rec.event_each("update-ack", "tid", [])
        assert rec.snapshot() == [
            {"ts": 6.0, "kind": "update-ack", "site": "s", "tid": tid}
            for tid in ("s:1", "s:2", "s:3")
        ]
        assert (rec.recorded, rec.dropped) == (4, 1)
        off = TraceRecorder(enabled=False)
        off.event_each("update-ack", "tid", ["x"])
        assert (len(off), off.recorded) == (0, 0)

    def test_event_rows_zip_the_names_with_each_row_at_one_instant(self):
        """A commit group's events: one per row, its fields named by
        ``names``, all with one ``ts``; a disabled recorder never reads
        the rows."""
        rec = TraceRecorder(site="s", clock=_fake_clock(2.0))
        rec.event_rows(
            "update-apply", ("tid", "held"), [("s:1", False), ("s:2", True)]
        )
        assert rec.snapshot() == [
            {"ts": 2.0, "kind": "update-apply", "site": "s", "tid": "s:1",
             "held": False},
            {"ts": 2.0, "kind": "update-apply", "site": "s", "tid": "s:2",
             "held": True},
        ]
        assert (rec.recorded, rec.dropped) == (2, 0)

        def unread():
            raise AssertionError("rows read while disabled")
            yield

        off = TraceRecorder(enabled=False)
        off.event_rows("update-submit", ("tid",), unread())

    def test_span_kinds_cover_update_lifecycle(self):
        assert UPDATE_SPAN_KINDS == (
            "update-submit",
            "update-apply",
            "update-ack",
            "drain",
        )


class TestJsonlRoundTrip:
    def test_recorder_dump_and_load(self, tmp_path):
        rec = TraceRecorder(site="s1", clock=_fake_clock())
        rec.event("update-submit", tid="s1:1", keys=["x"])
        rec.event("query", method="commu", inconsistency=2, limit=5)
        path = tmp_path / "trace.jsonl"
        assert dump_events_jsonl(rec.events, path) == 2
        loaded = load_trace_jsonl(path)
        assert loaded == rec.snapshot()

    def test_merged_dump_round_trips_in_timestamp_order(self, tmp_path):
        clock = _fake_clock()  # shared: interleaves the two recorders
        a = TraceRecorder(site="a", clock=clock)
        b = TraceRecorder(site="b", clock=clock)
        a.event("update-submit")
        b.event("update-apply")
        a.event("update-ack")
        merged = merge_traces([a, b])
        assert [e["ts"] for e in merged] == sorted(
            e["ts"] for e in merged
        )
        path = tmp_path / "merged.jsonl"
        assert dump_events_jsonl(merged, path) == 3
        loaded = load_trace_jsonl(path)
        assert loaded == merged
        assert [e["site"] for e in loaded] == ["a", "b", "a"]

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"ts": 1, "kind": "drain"}\n\n')
        assert load_trace_jsonl(path) == [{"ts": 1, "kind": "drain"}]
