"""Unified observability layer: metrics registry + lifecycle tracing.

The live runtime reports through two primitives (the simulator
summarizes its runs from their ET results and imports neither):

* :mod:`repro.obs.registry` — an in-process metrics registry
  (counters, gauges, fixed-bucket histograms) with Prometheus-text and
  JSON exposition.  Zero third-party dependencies and no lock: each
  live replica runs on one asyncio loop.
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
