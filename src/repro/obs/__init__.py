"""Unified observability layer: metrics registry + lifecycle tracing.

Both runtimes report through the same two primitives:

* :mod:`repro.obs.registry` — an in-process metrics registry
  (counters, gauges, fixed-bucket histograms) with Prometheus-text and
  JSON exposition.  Zero third-party dependencies and no lock: both
  runtimes are single-threaded (the live one is one asyncio loop).
* :mod:`repro.obs.trace` — structured ET/MSet lifecycle tracing
  (``submit -> apply -> ack -> drain`` span events with monotonic
  timestamps) exportable as JSONL.

See ``docs/OBSERVABILITY.md`` for the metric and trace schemas.
"""

from .registry import (
    Counter,
    Gauge,
    Histogram,
    NULL_REGISTRY,
    Registry,
)
from .trace import (
    TraceRecorder,
    dump_events_jsonl,
    load_trace_jsonl,
    merge_traces,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_REGISTRY",
    "Registry",
    "TraceRecorder",
    "dump_events_jsonl",
    "load_trace_jsonl",
    "merge_traces",
]
