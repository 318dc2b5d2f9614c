"""Structured lifecycle tracing: span events with monotonic timestamps.

One :class:`TraceRecorder` accumulates flat events describing the
life of ETs and MSets as they move through a runtime —
``submit -> apply -> ack -> drain`` for updates, one event per query
outcome, plus state transitions (``degraded`` gauge flips).  Each
event is read back as one flat dict, schema-free except for three
reserved keys:

* ``ts`` — monotonic timestamp (``time.monotonic`` by default), so
  durations within one recorder are exact even when the wall clock
  steps;
* ``kind`` — the event type (``update-submit``, ``update-apply``,
  ``update-ack``, ``drain``, ``query``, ``degraded``, ...);
* ``site`` — the recording site, stamped automatically when the
  recorder was built with one.

The ring is always on, so recording is cheap in time and in memory:
an event is held as one flat row ``(ts, kind, names, *values)``,
``names`` being the field-name tuple its call site passes — a literal,
so one tuple object is shared by every event of that site — and the
dict is built only when the ring is read (:attr:`TraceRecorder.events`,
:meth:`~TraceRecorder.snapshot`, :func:`merge_traces`, the JSONL
export).  An event recorded by keyword (the cold kinds) is held as
``(ts, kind, fields)``, the call's own keyword dict.

Export is JSONL (one JSON object per line), the format every log
pipeline ingests; :func:`load_trace_jsonl` round-trips it.
"""

from __future__ import annotations

import json
import pathlib
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Union

__all__ = ["TraceRecorder", "load_trace_jsonl"]

#: canonical update lifecycle span kinds, in order.
UPDATE_SPAN_KINDS = (
    "update-submit",
    "update-apply",
    "update-ack",
    "drain",
)


class TraceRecorder:
    """Bounded in-memory recorder of lifecycle span events."""

    def __init__(
        self,
        site: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
        maxlen: Optional[int] = 16384,
        enabled: bool = True,
    ) -> None:
        self.site = site
        self.clock = clock
        self.enabled = enabled
        #: one ``(ts, kind, names, *values)`` row per event, oldest
        #: first: ``names`` zipped with ``values`` are its fields (or
        #: ``(ts, kind, fields)`` when recorded by keyword).
        self._ring: Deque[tuple] = deque(maxlen=maxlen)
        #: total events ever recorded (survives ring eviction).
        self.recorded = 0
        #: events lost to the maxlen bound.
        self.dropped = 0

    def event(
        self, kind: str, names: tuple = (), *values: Any, **fields: Any
    ) -> None:
        """Record one span event; a no-op when disabled.

        ``event(kind, names, *values)`` is the hot path: ``names`` a
        literal tuple of field names, ``values`` the fields in that
        order.  ``event(kind, **fields)`` names them by keyword.
        """
        if not self.enabled:
            return
        ring = self._ring
        if len(ring) == ring.maxlen:
            self.dropped += 1
        if fields:
            ring.append((self.clock(), kind, fields))
        else:
            ring.append((self.clock(), kind, names) + values)
        self.recorded += 1

    def event_each(
        self, kind: str, field: str, values: List[Any]
    ) -> None:
        """One ``kind`` event per value of ``field``, all stamped with
        one clock read: what one step did to many items at once."""
        self.event_rows(kind, (field,), zip(values))

    def event_rows(
        self, kind: str, names: tuple, rows: Iterable[tuple]
    ) -> None:
        """One ``kind`` event per row, fields ``names`` zipped with the
        row, all at one clock read; ``rows`` is read only if enabled."""
        if not self.enabled:
            return
        head = (self.clock(), kind, names)
        held = list(map(head.__add__, rows))
        ring = self._ring
        if ring.maxlen is not None:
            self.dropped += max(0, len(ring) + len(held) - ring.maxlen)
        ring.extend(held)
        self.recorded += len(held)

    def _record(self, row: tuple) -> Dict[str, Any]:
        """One row as the flat event dict it stands for."""
        record: Dict[str, Any] = {"ts": row[0], "kind": row[1]}
        if self.site is not None:
            record["site"] = self.site
        fields = row[2]
        record.update(
            fields if type(fields) is dict else zip(fields, row[3:])
        )
        return record

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The held events as flat dicts, oldest first."""
        return list(map(self._record, self._ring))

    def __len__(self) -> int:
        return len(self._ring)

    def snapshot(self) -> List[Dict[str, Any]]:
        """A stable copy of the current event buffer."""
        return self.events

    def clear(self) -> None:
        self._ring.clear()


def merge_traces(
    recorders: Iterable[TraceRecorder],
) -> List[Dict[str, Any]]:
    """All events of several recorders, globally ordered by timestamp.

    Recorders sharing one process share ``time.monotonic``, so the
    merged order is the real interleaving.
    """
    merged: List[Dict[str, Any]] = []
    for recorder in recorders:
        merged.extend(recorder.events)
    merged.sort(key=lambda record: record.get("ts", 0.0))
    return merged


def dump_events_jsonl(
    events: Iterable[Dict[str, Any]], path: Union[str, pathlib.Path]
) -> int:
    """Write pre-merged events to ``path`` as JSONL."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for record in events:
            handle.write(
                json.dumps(record, separators=(",", ":"), sort_keys=True)
            )
            handle.write("\n")
            count += 1
    return count


def load_trace_jsonl(
    path: Union[str, pathlib.Path]
) -> List[Dict[str, Any]]:
    """Round-trip a JSONL trace file back into event dicts."""
    out: List[Dict[str, Any]] = []
    with pathlib.Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            out.append(json.loads(line))
    return out
