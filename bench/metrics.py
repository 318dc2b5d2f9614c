"""Metric definitions and the statistics every reported value uses.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names; ``BENCHMARK.json`` repeats them (``test_bench.py`` checks the
two agree).  An end-to-end value is the median over a run's measured
segments; a latency is a per-segment percentile first.  Every time and
rate is stated at the reference host's speed (``harness.HostSampler``):
the measured value over the host factor of the window it was taken in.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, NamedTuple, Sequence

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "Metric",
    "per_layer",
    "percentile",
    "quartiles",
    "spread",
]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: end-to-end: how far the median may worsen, as a share of the
    #: parent's; per-layer metrics carry 0 (they have no bound).  As
    #: measured, wall and CPU times on the reference VM move by 15-35 %
    #: (inter-quartile) from run to run with the host's own speed; at
    #: the reference host's speed they hold 2-8 %, and every time
    #: carries the largest bound the driver admits, three times that
    #: (README, "Repeatability").
    bound: float
    #: what the metric is (end-to-end) or which end-to-end metric it
    #: should move, and on which workload (per-layer).
    note: str


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25,
           "fresh data dir to first measured request: boot, connect, "
           "preload, settle, snapshot_all, two warm-up segments; median "
           "of the run's three set-ups"),
    Metric("ops_s", "1/s", "higher", 0.25,
           "work units per wall second of a segment (ETs or requests "
           "committed and settled; on drain_backlog, MSets delivered and "
           "acked per second of drain)"),
    Metric("p50_ms", "ms", "lower", 0.25,
           "per-segment median latency of the workload's primary "
           "operation, around the public client call"),
    Metric("p95_ms", "ms", "lower", 0.25,
           "per-segment p95 of the same"),
    Metric("cpu_us_per_op", "us", "lower", 0.25,
           "process CPU (user+sys, clients and replicas) per work unit "
           "in the timed windows"),
    Metric("rss_mb", "MiB", "lower", 0.10,
           "peak resident set of the workload's process"),
]

def _PL(name: str, unit: str, better: str, note: str) -> Metric:
    return Metric(name, unit, better, 0.0, note)


PER_LAYER: List[Metric] = [
    # client
    _PL("client.request_self_us", "us", "lower",
        "cpu_us_per_op, ops_s on read_mix and write_stream"),
    _PL("client.route_self_us", "us", "lower",
        "cpu_us_per_op on read_mix"),
    _PL("client.update_p50_ms", "ms", "lower", "p50_ms"),
    _PL("client.update_p95_ms", "ms", "lower", "p95_ms"),
    _PL("client.read_p50_ms", "ms", "lower", "p50_ms on read_mix"),
    _PL("client.read_p95_ms", "ms", "lower", "p95_ms on read_mix"),
    _PL("client.strict_read_p50_ms", "ms", "lower",
        "p95_ms on read_mix (strict reads wait out in-flight updates)"),
    _PL("client.strict_read_p95_ms", "ms", "lower",
        "ops_s on ordup_sharded (the strict-read convoy)"),
    _PL("client.p99_ms", "ms", "lower", "p95_ms (tail beyond it)"),
    _PL("client.fanout_nonprimary_ratio", "ratio", "higher",
        "p50_ms on read_mix (reads moved off the primary)"),
    _PL("client.session_stale_retries_per_kop", "count", "lower",
        "p95_ms on read_mix"),
    # read_cache
    _PL("read_cache.hit_ratio", "ratio", "higher",
        "ops_s, p50_ms on read_mix"),
    _PL("read_cache.lookup_self_us", "us", "lower",
        "cpu_us_per_op on read_mix"),
    _PL("read_cache.evictions_per_kop", "count", "lower",
        "ops_s on read_mix"),
    _PL("read_cache.over_budget_miss_ratio", "ratio", "lower",
        "ops_s on read_mix"),
    # consistency
    _PL("consistency.self_us_per_read", "us", "lower",
        "cpu_us_per_op on read_mix"),
    # router
    _PL("router.self_us_per_op", "us", "lower",
        "cpu_us_per_op, p50_ms on ordup_sharded"),
    _PL("router.subrequests_per_op", "count", "lower",
        "cpu_us_per_op on ordup_sharded"),
    # protocol
    _PL("protocol.frame_encode_us_per_op", "us", "lower",
        "cpu_us_per_op on write_stream, read_mix"),
    _PL("protocol.frame_decode_us_per_op", "us", "lower",
        "cpu_us_per_op on write_stream, read_mix"),
    _PL("protocol.payload_blob_us_per_op", "us", "lower",
        "cpu_us_per_op on write_stream"),
    _PL("protocol.bin_encode_us_per_mset", "us", "lower",
        "ops_s on drain_backlog"),
    _PL("protocol.bin_decode_us_per_mset", "us", "lower",
        "ops_s on drain_backlog"),
    _PL("protocol.mset_decode_us_per_mset", "us", "lower",
        "ops_s on drain_backlog"),
    # server
    _PL("server.update_us_per_op", "us", "lower",
        "ops_s, p50_ms on write_stream"),
    _PL("server.update_self_us", "us", "lower",
        "ops_s on write_stream"),
    _PL("server.query_us_per_read", "us", "lower",
        "p50_ms on read_mix"),
    _PL("server.send_self_us_per_mset", "us", "lower",
        "ops_s on drain_backlog"),
    _PL("server.recv_self_us_per_mset", "us", "lower",
        "ops_s on drain_backlog"),
    _PL("server.ack_self_us_per_mset", "us", "lower",
        "ops_s on drain_backlog"),
    _PL("server.msets_per_frame", "count", "higher",
        "cpu_us_per_op; p95_ms the other way"),
    _PL("server.frames_per_op", "count", "lower", "cpu_us_per_op"),
    _PL("server.ack_ms_mean", "ms", "lower",
        "p95_ms on write_stream"),
    _PL("server.settle_ms", "ms", "lower", "ops_s"),
    # engine
    _PL("engine.accept_self_us_per_op", "us", "lower",
        "ops_s on write_stream"),
    _PL("engine.accept_batch_us_per_mset", "us", "lower",
        "ops_s on drain_backlog"),
    _PL("engine.apply_batch_ms_mean", "ms", "lower",
        "p95_ms (lock hold)"),
    _PL("engine.acked_self_us_per_op", "us", "lower",
        "ops_s on write_stream"),
    _PL("engine.query_us_per_read", "us", "lower",
        "p50_ms on read_mix, ordup_sharded"),
    _PL("engine.query_waits_per_read", "count", "lower",
        "p95_ms on read_mix, ordup_sharded"),
    # durable_queue
    _PL("durable_queue.append_us_per_op", "us", "lower",
        "ops_s, cpu_us_per_op on write_stream"),
    _PL("durable_queue.record_us_per_mset", "us", "lower",
        "ops_s on drain_backlog"),
    _PL("durable_queue.ack_us_per_mset", "us", "lower",
        "ops_s on drain_backlog"),
    _PL("durable_queue.fsyncs_per_op", "count", "lower",
        "cpu_us_per_op; p50_ms on a real disk"),
    _PL("durable_queue.fsync_ms_mean", "ms", "lower",
        "p50_ms on a real disk"),
    _PL("durable_queue.bytes_per_op", "B", "lower", "cpu_us_per_op"),
    # election
    _PL("election.order_us_per_update", "us", "lower",
        "p50_ms, ops_s on ordup_sharded"),
    _PL("election.order_waits_per_update", "count", "lower",
        "p50_ms on ordup_sharded"),
    # snapshot
    _PL("snapshot.take_ms", "ms", "lower",
        "none by design (outside timed windows); setup_s if it grows"),
    _PL("snapshot.compacted_records", "count", "higher",
        "rss_mb if it falls"),
    # host
    _PL("host.factor", "ratio", "lower",
        "median host factor of the windows (1 = the reference host): "
        "what every reported time was divided by"),
    _PL("host.gc_ms_per_kop", "ms", "lower", "explains spread"),
    _PL("host.gc_gen2_collections", "count", "lower", "explains spread"),
    _PL("host.loop_lag_p95_ms", "ms", "lower", "explains p95_ms"),
    _PL("host.traced_cpu_share", "ratio", "higher",
        "share of traced CPU attributed to a wrapped layer"),
    _PL("host.trace_overhead_pct", "%", "lower",
        "1 - ops_s(traced) / ops_s(untraced), same run"),
]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``loadgen``'s convention); 0 if empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median with quartiles and the sample count, as reported."""
    if not values:
        return {"q1": 0.0, "median": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q2 = q3 = float(values[0])
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q = quartiles(values)
    return (q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0


# -- per-layer derivation --------------------------------------------------------

# slots of a span aggregate (see trace.py)
_COUNT, _WALL, _RUN, _SELF, _STEPS = range(5)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(workload, measurement) -> Dict[str, float]:
    """Every per-layer metric of one traced run (0 where a layer did
    nothing on this workload).

    Span times and counter deltas come from the run's *traced* windows
    only and are divided by the work done in those windows; latency
    percentiles come from its untraced windows, which tracing did not
    slow down.
    """
    traced = [w for w in measurement.windows if w.traced]
    untraced = [w for w in measurement.windows if not w.traced]
    spans: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    for window in traced:
        for name, values in window.spans.items():
            total = spans.setdefault(name, [0.0] * 5)
            for slot, value in enumerate(values):
                total[slot] += value
        for name, value in window.counters.items():
            counters[name] = counters.get(name, 0.0) + value

    def span(name: str, slot: int) -> float:
        return spans.get(name, (0.0,) * 5)[slot]

    def layer_self(layer: str, skip: Sequence[str] = ()) -> float:
        return sum(
            values[_SELF]
            for name, values in spans.items()
            if name.startswith(layer + ".") and name not in skip
        )

    def us_per(seconds: float, denominator: float) -> float:
        return _ratio(seconds * 1e6, denominator)

    def per_call(name: str, slot: int) -> float:
        return us_per(span(name, slot), span(name, _COUNT))

    drain = workload.unit == "MSet"
    ops = sum(w.ops for w in traced)
    acked = sum(w.attempted - w.failed for w in traced)
    reads_served = sum(sum(w.reads_by_site.values()) for w in traced)
    n_reads = sum(
        len(samples)
        for w in traced
        for cls, samples in w.latencies.items()
        if cls != "update"
    )
    # MSets that crossed a peer channel inside the traced windows: on
    # drain_backlog that is the work unit itself, elsewhere it is what
    # the channel senders relayed.
    msets = ops if drain else counters.get("frames_sum", 0.0)
    cpu = sum(w.cpu for w in traced)

    def latency(cls: str, q: float) -> float:
        return quartiles([w.latency_ms(cls, q) for w in untraced])["median"]

    primaries = {group.names[0] for group in measurement.bench.groups}
    primary_reads = sum(
        count
        for w in measurement.windows
        for site, count in w.reads_by_site.items()
        if site in primaries
    )
    all_reads = sum(sum(w.reads_by_site.values()) for w in measurement.windows)
    lookups = counters.get("cache_hits", 0.0) + counters.get("cache_misses", 0.0)
    traced_rate = quartiles([w.ops_s for w in traced])["median"]
    untraced_rate = quartiles([w.ops_s for w in untraced])["median"]
    lag = measurement.loop_lag.lag_ms
    values = {
        "client.request_self_us": us_per(
            layer_self("client", skip=("client.route",)), acked
        ),
        "client.route_self_us": us_per(span("client.route", _SELF), acked),
        "client.update_p50_ms": latency("update", 0.50),
        "client.update_p95_ms": latency("update", 0.95),
        "client.read_p50_ms": latency("read", 0.50),
        "client.read_p95_ms": latency("read", 0.95),
        "client.strict_read_p50_ms": latency("strict", 0.50),
        "client.strict_read_p95_ms": latency("strict", 0.95),
        "client.p99_ms": latency(workload.primary, 0.99),
        "client.fanout_nonprimary_ratio": _ratio(
            all_reads - primary_reads, all_reads
        ),
        "client.session_stale_retries_per_kop": _ratio(
            counters.get("session_stale_retries", 0.0) * 1e3, acked
        ),
        "read_cache.hit_ratio": _ratio(counters.get("cache_hits", 0.0), lookups),
        "read_cache.lookup_self_us": per_call("read_cache.lookup", _SELF),
        "read_cache.evictions_per_kop": _ratio(
            counters.get("cache_evictions", 0.0) * 1e3, acked
        ),
        "read_cache.over_budget_miss_ratio": _ratio(
            counters.get("cache_over_budget", 0.0), lookups
        ),
        "consistency.self_us_per_read": us_per(
            layer_self("consistency"), n_reads
        ),
        "router.self_us_per_op": us_per(layer_self("router"), acked),
        "router.subrequests_per_op": _ratio(span("router.call", _COUNT), acked),
        "protocol.frame_encode_us_per_op": us_per(
            span("protocol.encode_frame", _SELF), acked
        ),
        "protocol.frame_decode_us_per_op": us_per(
            span("protocol.read_frame", _SELF), acked
        ),
        "protocol.payload_blob_us_per_op": us_per(
            span("protocol.payload_blob", _SELF), acked
        ),
        "protocol.bin_encode_us_per_mset": us_per(
            span("protocol.encode_bin_batch_frame", _SELF), msets
        ),
        "protocol.bin_decode_us_per_mset": us_per(
            span("protocol.decode_bin_frame", _SELF), msets
        ),
        "protocol.mset_decode_us_per_mset": us_per(
            span("protocol.decode_mset", _SELF), msets
        ),
        "server.update_us_per_op": per_call("server.handle_update", _RUN),
        "server.update_self_us": per_call("server.handle_update", _SELF),
        "server.query_us_per_read": per_call("server.handle_query", _RUN),
        "server.send_self_us_per_mset": us_per(
            span("server.send_batches", _SELF), msets
        ),
        "server.recv_self_us_per_mset": us_per(
            span("server.on_mset_batch_frame", _SELF), msets
        ),
        "server.ack_self_us_per_mset": us_per(
            span("server.on_peer_ack", _SELF), msets
        ),
        "server.msets_per_frame": _ratio(
            counters.get("frames_sum", 0.0), counters.get("frames_count", 0.0)
        ),
        "server.frames_per_op": _ratio(counters.get("frames_count", 0.0), ops),
        "server.ack_ms_mean": _ratio(
            counters.get("acks_sum", 0.0) * 1e3, counters.get("acks_count", 0.0)
        ),
        "server.settle_ms": quartiles(
            [w.settle_ms for w in measurement.windows]
        )["median"],
        "engine.accept_self_us_per_op": per_call("engine.accept", _SELF),
        "engine.accept_batch_us_per_mset": us_per(
            span("engine.accept_batch", _RUN), msets
        ),
        "engine.apply_batch_ms_mean": _ratio(
            counters.get("applies_sum", 0.0) * 1e3,
            counters.get("applies_count", 0.0),
        ),
        "engine.acked_self_us_per_op": us_per(
            span("engine.fully_acked_many", _SELF), ops
        ),
        "engine.query_us_per_read": per_call("engine.query", _RUN),
        "engine.query_waits_per_read": _ratio(
            sum(w.query_waits for w in traced), reads_served
        ),
        "durable_queue.append_us_per_op": us_per(
            span("durable_queue.append_many", _RUN)
            + span("durable_queue.record", _RUN)
            + span("durable_queue.sync", _RUN),
            ops,
        ),
        "durable_queue.record_us_per_mset": us_per(
            span("durable_queue.record_many", _RUN), msets
        ),
        "durable_queue.ack_us_per_mset": us_per(
            span("durable_queue.ack_through", _RUN), msets
        ),
        "durable_queue.fsyncs_per_op": _ratio(counters.get("fsyncs", 0.0), ops),
        "durable_queue.fsync_ms_mean": _ratio(
            counters.get("fsync_seconds", 0.0) * 1e3, counters.get("fsyncs", 0.0)
        ),
        "durable_queue.bytes_per_op": _ratio(counters.get("log_bytes", 0.0), ops),
        "election.order_us_per_update": per_call("election.acquire_order", _WALL),
        "election.order_waits_per_update": _ratio(
            span("election.acquire_order", _STEPS)
            - span("election.acquire_order", _COUNT),
            span("election.acquire_order", _COUNT),
        ),
        "snapshot.take_ms": quartiles(measurement.snapshot_ms)["median"],
        "snapshot.compacted_records": quartiles(measurement.compacted)["median"],
        "host.factor": quartiles(
            [w.host for w in measurement.windows]
        )["median"],
        "host.gc_ms_per_kop": _ratio(
            sum(w.gc_seconds for w in measurement.windows) * 1e6,
            sum(w.ops for w in measurement.windows),
        ),
        "host.gc_gen2_collections": _ratio(
            sum(w.gc_gen2 for w in measurement.windows),
            len(measurement.windows),
        ),
        "host.loop_lag_p95_ms": percentile(lag, 0.95),
        "host.traced_cpu_share": _ratio(
            sum(values[_SELF] for values in spans.values()), cpu
        ),
        "host.trace_overhead_pct": (
            100.0 * (1.0 - _ratio(traced_rate, untraced_rate))
        ),
    }
    assert set(values) == {metric.name for metric in PER_LAYER}
    return values
