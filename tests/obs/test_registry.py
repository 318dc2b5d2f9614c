"""Registry tests: instrument semantics and Prometheus exposition.

The exposition tests pin the text-format invariants a scraper relies
on: label-value escaping, cumulative (monotone) histogram buckets
ending in ``+Inf``, and counters that never move backwards between
scrapes.
"""

import json
import math
import re

import pytest

from repro.obs.registry import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Registry,
)


class TestCounter:
    def test_inc_accumulates(self):
        reg = Registry()
        c = reg.counter("ops_total", "ops")
        c.inc()
        c.inc(2)
        assert reg.get_sample("ops_total") == 3

    def test_negative_inc_rejected(self):
        reg = Registry()
        c = reg.counter("ops_total", "ops")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_set_to_never_goes_backwards(self):
        reg = Registry()
        c = reg.counter("fsync_total", "fsyncs")
        c.set_to(10)
        c.set_to(7)  # a stale mirror read must not regress the series
        assert reg.get_sample("fsync_total") == 10

    def test_monotonic_across_scrapes(self):
        """A counter sample never decreases from one scrape to the next."""
        reg = Registry()
        c = reg.counter("events_total", "events", labels=("kind",))
        child = c.labels(kind="x")
        previous = -1.0
        for step in (1, 3, 0, 5):  # 0: scrape with no traffic in between
            for _ in range(step):
                child.inc()
            text = reg.render_prometheus()
            match = re.search(
                r'repro_events_total\{kind="x"\} (\d+)', text
            )
            assert match, text
            value = float(match.group(1))
            assert value >= previous
            previous = value

    def test_labels_validated(self):
        reg = Registry()
        c = reg.counter("errs_total", "errors", labels=("peer",))
        for wrong in (
            {"host": "x"},  # wrong label name
            {},  # a label missing
            {"peer": "a", "host": "x"},  # one too many
        ):
            with pytest.raises(ValueError, match="takes labels"):
                c.labels(**wrong)
        two = reg.counter("pairs_total", "pairs", labels=("a", "b"))
        with pytest.raises(ValueError, match="takes labels"):
            two.labels(a=1, c=2)  # right count, wrong name
        assert two.labels(b=2, a=1) is two.labels(a="1", b="2")

    def test_kind_collision_rejected(self):
        reg = Registry()
        reg.counter("thing", "as counter")
        with pytest.raises(ValueError):
            reg.gauge("thing", "as gauge")


class TestGauge:
    def test_set_and_dec(self):
        reg = Registry()
        g = reg.gauge("depth", "queue depth")
        g.set(5)
        g.dec(2)
        assert reg.get_sample("depth") == 3

    def test_set_max_ratchets(self):
        reg = Registry()
        g = reg.gauge("epsilon_max", "high water")
        g.set_max(4)
        g.set_max(2)
        assert reg.get_sample("epsilon_max") == 4


class TestHistogram:
    def test_observations_land_in_buckets(self):
        reg = Registry()
        h = reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 2.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]
        assert h.cumulative() == [1, 2, 3]
        assert h.count == 3
        assert h.sum == pytest.approx(2.55)

    def test_bucket_counts_are_monotone_in_exposition(self):
        """_bucket values must be cumulative: non-decreasing in le order
        and the +Inf bucket must equal _count."""
        reg = Registry()
        h = reg.histogram(
            "waits", "wait counts", buckets=DEFAULT_COUNT_BUCKETS
        )
        for v in (0, 0, 1, 4, 7, 30, 1000):
            h.observe(v)
        text = reg.render_prometheus()
        counts = [
            int(m.group(2))
            for m in re.finditer(
                r'repro_waits_bucket\{le="([^"]+)"\} (\d+)', text
            )
        ]
        assert counts, text
        assert counts == sorted(counts)
        inf = re.search(r'repro_waits_bucket\{le="\+Inf"\} (\d+)', text)
        total = re.search(r"repro_waits_count (\d+)", text)
        assert inf and total
        assert inf.group(1) == total.group(1) == "7"

    def test_unsorted_buckets_rejected(self):
        reg = Registry()
        with pytest.raises(ValueError):
            reg.histogram("bad", "bad", buckets=(1.0, 0.5))


class TestPrometheusExposition:
    def test_help_and_type_lines(self):
        reg = Registry()
        reg.counter("ops_total", "operations processed").inc()
        text = reg.render_prometheus()
        assert "# HELP repro_ops_total operations processed\n" in text
        assert "# TYPE repro_ops_total counter\n" in text

    def test_label_value_escaping(self):
        """Backslash, double quote, and newline must all be escaped —
        any of them raw would corrupt the exposition line."""
        reg = Registry()
        c = reg.counter("odd_total", "odd labels", labels=("name",))
        c.labels(name='a"b\\c\nd').inc()
        text = reg.render_prometheus()
        assert 'name="a\\"b\\\\c\\nd"' in text
        # The sample must still be one well-formed line: the raw
        # newline in the label value may not split it.
        sample_lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_odd_total")
        ]
        assert len(sample_lines) == 1
        assert re.fullmatch(
            r'repro_odd_total\{name="(?:[^"\\]|\\.)*"\} 1',
            sample_lines[0],
        )

    def test_help_escaping(self):
        reg = Registry()
        reg.gauge("g", "line one\nline two").set(1)
        text = reg.render_prometheus()
        assert "# HELP repro_g line one\\nline two\n" in text

    def test_const_labels_on_every_sample(self):
        reg = Registry(const_labels={"site": "site0"})
        reg.gauge("depth", "d").set(1)
        h = reg.histogram("lat", "l", buckets=(1.0,))
        h.observe(0.5)
        text = reg.render_prometheus()
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            assert 'site="site0"' in line, line

    def test_empty_registry_renders_empty(self):
        assert Registry().render_prometheus() == ""

    def test_to_dict_round_trips_as_json(self):
        reg = Registry(const_labels={"site": "s"})
        reg.counter("c_total", "c", labels=("peer",)).labels(
            peer="p"
        ).inc()
        reg.histogram("h", "h", buckets=(1.0,)).observe(0.2)
        data = json.loads(json.dumps(reg.to_dict()))
        assert data["repro_c_total"]["type"] == "counter"
        sample = data["repro_c_total"]["samples"][0]
        assert sample["labels"] == {"peer": "p", "site": "s"}
        assert sample["value"] == 1
        hist = data["repro_h"]["samples"][0]
        assert hist["count"] == 1
        assert hist["buckets"]["1"] == 1


class TestNullRegistry:
    def test_absorbs_every_call_shape(self):
        c = NULL_REGISTRY.counter("x_total", "x", labels=("a",))
        c.labels(a="1").inc()
        c.inc()  # also callable without labels
        g = NULL_REGISTRY.gauge("g", "g")
        g.set(3)
        g.set_max(4)
        h = NULL_REGISTRY.histogram("h", "h")
        h.observe(0.5)
        assert NULL_REGISTRY.render_prometheus() == ""
        assert NULL_REGISTRY.to_dict() == {}

    def test_default_latency_buckets_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            DEFAULT_LATENCY_BUCKETS
        )
        assert not any(math.isinf(b) for b in DEFAULT_LATENCY_BUCKETS)
