"""Trace recorder tests: event stamping, bounds, JSONL round-trip,
equivalence with a dict-per-event recorder, and the ring's memory."""

import gc
import itertools
import json
import pathlib
import tempfile
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

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


class DictRecorder:
    """The oracle: one flat dict per event, built when it is recorded —
    what every reader of a :class:`TraceRecorder` must see."""

    def __init__(self, site, clock, maxlen):
        self.site, self.clock, self.maxlen = site, clock, maxlen
        self.events, self.recorded, self.dropped = [], 0, 0

    def _append(self, ts, kind, fields):
        record = {"ts": ts, "kind": kind}
        if self.site is not None:
            record["site"] = self.site
        record.update(fields)
        self.events.append(record)
        self.recorded += 1
        if self.maxlen is not None and len(self.events) > self.maxlen:
            del self.events[0]
            self.dropped += 1

    def event(self, kind, names=(), *values, **fields):
        self._append(self.clock(), kind, fields or zip(names, values))

    def event_each(self, kind, field, values):
        ts = self.clock()
        for value in values:
            self._append(ts, kind, {field: value})

    def event_rows(self, kind, names, rows):
        ts = self.clock()
        for row in rows:
            self._append(ts, kind, zip(names, row))


values = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=3),
    st.lists(st.text(max_size=2), max_size=2),
)
field_names = st.sampled_from(["tid", "keys", "held", "peer", "site"])
calls = st.one_of(
    st.tuples(
        st.just("event"),
        st.dictionaries(field_names, values, max_size=3),
    ),
    st.tuples(
        st.just("row"),
        st.lists(field_names, max_size=3, unique=True).flatmap(
            lambda names: st.tuples(
                st.just(tuple(names)),
                st.tuples(*[values] * len(names)),
            )
        ),
    ),
    st.tuples(st.just("each"), st.lists(values, max_size=4)),
    st.tuples(
        st.just("rows"),
        st.lists(st.tuples(values, values), max_size=4),
    ),
)


class TestEquivalence:
    """Rows are only a representation: ``snapshot()``, ``events``,
    ``merge_traces``, the JSONL export, ``recorded`` and ``dropped``
    are exactly those of a recorder that builds each event's dict."""

    @settings(max_examples=150, deadline=None)
    @given(
        script=st.lists(st.tuples(st.sampled_from("ab"), calls), max_size=25),
        maxlen=st.sampled_from([None, 1, 3, 8]),
        site=st.sampled_from([None, "s0"]),
    )
    def test_a_scripted_mix_reads_back_as_dicts(self, script, maxlen, site):
        # Two sites per side, each side on its own clock: the same
        # script reads each clock in the same order.
        clock, ref_clock = _fake_clock(), _fake_clock()
        twins = {
            name: (
                TraceRecorder(site=site, clock=clock, maxlen=maxlen),
                DictRecorder(site, ref_clock, maxlen),
            )
            for name in "ab"
        }
        for name, (how, arg) in script:
            for rec in twins[name]:
                if how == "event":
                    rec.event("k-%s" % how, **arg)
                elif how == "row":
                    rec.event("k-%s" % how, arg[0], *arg[1])
                elif how == "each":
                    rec.event_each("k-%s" % how, "tid", arg)
                else:
                    rec.event_rows("k-%s" % how, ("tid", "held"), iter(arg))
        for rec, ref in twins.values():
            assert rec.snapshot() == rec.events == ref.events
            assert (rec.recorded, rec.dropped) == (ref.recorded, ref.dropped)
            assert len(rec) == len(ref.events)
        merged = merge_traces(rec for rec, _ in twins.values())
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "trace.jsonl"
            dump_events_jsonl(merged, path)
            assert path.read_text().splitlines() == [
                json.dumps(e, separators=(",", ":"), sort_keys=True)
                for e in sorted(
                    (e for _, ref in twins.values() for e in ref.events),
                    key=lambda e: e["ts"],
                )
            ]


def _ring_bytes_per_event(fill):
    """What a full default-size ring holds per event, as tracemalloc
    counts it: the rows, their timestamps and the ring itself."""
    rec = TraceRecorder(site="site0")
    gc.collect()
    tracemalloc.start()
    try:
        fill(rec)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rec) == 16384  # the default bound, reached
    return held / len(rec)


class TestRingMemory:
    """The ring is always on: a full one must stay small.  The hot kinds
    record one flat row each — no dict — so a full ring of them holds
    at most ~160 B per event (a dict per event held ~300 B)."""

    BOUND = 160

    def test_read_and_query_rows(self):
        def fill(rec):
            for i in range(16384 // 2):
                rec.event(
                    "read", ("keys", "strict", "session"), 1, False, i % 2
                )
                rec.event(
                    "query",
                    ("method", "inconsistency", "limit", "waits"),
                    "COMMU", i % 3, None, 0,
                )

        assert _ring_bytes_per_event(fill) <= self.BOUND

    def test_update_lifecycle_rows(self):
        """One update per commit group and per ack, the worst case: its
        submit, apply and ack rows.  The tids and keys are the MSets'
        own, made before the ring sees them."""
        n = 16384 // 3 + 1
        tids = ["site0:%d" % i for i in range(n)]
        keys = [("acct%d" % (i % 512),) for i in range(n)]

        def fill(rec):
            for tid, written in zip(tids, keys):
                rec.event_rows(
                    "update-submit", ("tid", "keys"), [(tid, written)]
                )
                rec.event_rows("update-apply", ("tid", "held"), [(tid, False)])
                rec.event_each("update-ack", "tid", [tid])

        assert _ring_bytes_per_event(fill) <= self.BOUND
