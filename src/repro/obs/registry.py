"""In-process metrics registry: counters, gauges, histograms.

Deliberately tiny and dependency-free, and single-threaded: the live
runtime's one asyncio loop is the only caller, so an instrument call
is its arithmetic and nothing else (no lock).  A
tier-1 guard (``tests/obs/test_no_threads.py``) fails as soon as a
module under ``repro`` starts a thread, so the first one to do so has
to revisit this.

Model (a strict subset of Prometheus semantics):

* every metric is a *family* with a fixed tuple of label names; the
  child instruments are keyed by label values
  (``family.labels(peer="site1").inc()``);
* **counters** only go up (``inc``); ``set_to`` exists for mirroring
  an external monotonic source (e.g. a durable log's fsync count) and
  refuses to go backwards;
* **gauges** go anywhere (``set`` / ``inc`` / ``set_max``);
* **histograms** have fixed, immutable bucket bounds chosen at
  registration; observation is two float adds and a linear bucket
  scan (bucket lists are short).

Exposition: :meth:`Registry.render_prometheus` emits the Prometheus
text format (HELP/TYPE lines, escaped label values, cumulative
``_bucket`` counts ending in ``+Inf``, ``_sum``/``_count``);
:meth:`Registry.to_dict` emits the same data as JSON-able dicts.

A disabled registry (``Registry(enabled=False)``, or the shared
:data:`NULL_REGISTRY`) hands out no-op instruments so instrumented
code needs no ``if metrics:`` branches and benchmarks can measure the
instrumentation's cost honestly.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.inconsistency import COUNT_BUCKETS

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
]

#: seconds-scale latency buckets (ack / apply / fsync paths).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)
#: batch-size-scale buckets (MSets per frame, records per group).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256,
)
#: small-count buckets (inconsistency counters, wait counts).
DEFAULT_COUNT_BUCKETS = COUNT_BUCKETS


def _escape_label_value(value: str) -> str:
    """Prometheus text-format label value escaping."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )

def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_suffix(names: Tuple[str, ...], values: Tuple[str, ...],
                   extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = list(zip(names, values)) + list(extra)
    if not pairs:
        return ""
    return "{%s}" % ",".join(
        '%s="%s"' % (name, _escape_label_value(str(value)))
        for name, value in pairs
    )


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up (inc by %r)" % amount)
        self.value += amount

    def set_to(self, value: float) -> None:
        """Mirror an external monotonic source; never goes backwards."""
        if value > self.value:
            self.value = value


class Gauge:
    """Point-in-time value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_max(self, value: float) -> None:
        """Ratchet: keep the largest value ever set (high-water mark)."""
        if value > self.value:
            self.value = float(value)


class Histogram:
    """Fixed-bucket histogram; buckets are set by the family."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> List[int]:
        """Per-bucket cumulative counts, ending with the +Inf total."""
        out: List[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric family: fixed label names, children by value."""

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        label_names: Tuple[str, ...],
        buckets: Tuple[float, ...] = (),
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.label_names = label_names
        self.buckets = tuple(float(b) for b in buckets)
        if self.buckets != tuple(sorted(set(self.buckets))):
            raise ValueError(
                "histogram buckets must be sorted and distinct: %r"
                % (buckets,)
            )
        self._children: Dict[Tuple[str, ...], Any] = {}

    def labels(self, **labels: Any) -> Any:
        names = self.label_names
        try:
            # One pass, no sets: a missing name is the KeyError, an
            # extra one the length.
            key = tuple([str(labels[name]) for name in names])
        except KeyError:
            key = None
        if key is None or len(labels) != len(names):
            raise ValueError(
                "metric %s takes labels %r, got %r"
                % (self.name, names, tuple(sorted(labels)))
            )
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = (
                Histogram(self.buckets) if self.kind == "histogram"
                else _KINDS[self.kind]()
            )
        return child

    def default(self) -> Any:
        """The single unlabeled child (families with no label names)."""
        if self.label_names:
            raise ValueError(
                "metric %s is labeled (%r); use .labels()"
                % (self.name, self.label_names)
            )
        return self.labels()

    def children(self) -> Iterator[Tuple[Tuple[str, ...], Any]]:
        return iter(sorted(self._children.items()))


class _NullInstrument:
    """Absorbs every instrument call; returned by a disabled registry."""

    def labels(self, **labels: Any) -> "_NullInstrument":
        return self

    def default(self) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_to(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    value = 0.0
    sum = 0.0
    count = 0


_NULL_INSTRUMENT = _NullInstrument()


class Registry:
    """A namespace of metric families with text/JSON exposition."""

    def __init__(
        self,
        namespace: str = "repro",
        enabled: bool = True,
        const_labels: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.namespace = namespace
        self.enabled = enabled
        #: labels stamped onto every exposed sample (e.g. site name).
        self.const_labels: Tuple[Tuple[str, str], ...] = tuple(
            (str(k), str(v)) for k, v in sorted((const_labels or {}).items())
        )
        self._families: Dict[str, _Family] = {}

    # -- registration --------------------------------------------------------

    def _register(
        self,
        name: str,
        help_text: str,
        kind: str,
        labels: Sequence[str],
        buckets: Tuple[float, ...] = (),
    ) -> Any:
        if not self.enabled:
            return _NULL_INSTRUMENT
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(
                name, help_text, kind, tuple(labels), buckets
            )
        if family.kind != kind:
            raise ValueError(
                "metric %s already registered as a %s" % (name, family.kind)
            )
        return family if family.label_names else family.default()

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> Any:
        """A counter family (or, unlabeled, the counter itself)."""
        return self._register(name, help_text, "counter", labels)

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> Any:
        return self._register(name, help_text, "gauge", labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Any:
        return self._register(
            name, help_text, "histogram", labels, tuple(buckets)
        )

    # -- exposition ----------------------------------------------------------

    def _full_name(self, family: _Family) -> str:
        if self.namespace:
            return "%s_%s" % (self.namespace, family.name)
        return family.name

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for _name, family in sorted(self._families.items()):
            full = self._full_name(family)
            lines.append("# HELP %s %s" % (full, _escape_help(family.help)))
            lines.append("# TYPE %s %s" % (full, family.kind))
            for values, child in family.children():
                suffix = _labels_suffix(
                    family.label_names, values, self.const_labels
                )
                if family.kind == "histogram":
                    cumulative = child.cumulative()
                    for bound, count in zip(family.buckets, cumulative):
                        le = _labels_suffix(
                            family.label_names,
                            values,
                            self.const_labels
                            + (("le", _format_value(bound)),),
                        )
                        lines.append(
                            "%s_bucket%s %d" % (full, le, count)
                        )
                    inf = _labels_suffix(
                        family.label_names,
                        values,
                        self.const_labels + (("le", "+Inf"),),
                    )
                    lines.append(
                        "%s_bucket%s %d" % (full, inf, cumulative[-1])
                    )
                    lines.append(
                        "%s_sum%s %s"
                        % (full, suffix, _format_value(child.sum))
                    )
                    lines.append(
                        "%s_count%s %d" % (full, suffix, child.count)
                    )
                else:
                    lines.append(
                        "%s%s %s"
                        % (full, suffix, _format_value(child.value))
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form: one entry per family, children by labels."""
        out: Dict[str, Any] = {}
        for name, family in sorted(self._families.items()):
            samples: List[Dict[str, Any]] = []
            for values, child in family.children():
                labels = dict(zip(family.label_names, values))
                labels.update(dict(self.const_labels))
                if family.kind == "histogram":
                    samples.append(
                        {
                            "labels": labels,
                            "sum": child.sum,
                            "count": child.count,
                            "buckets": {
                                _format_value(bound): cum
                                for bound, cum in zip(
                                    family.buckets, child.cumulative()
                                )
                            },
                        }
                    )
                else:
                    samples.append(
                        {"labels": labels, "value": child.value}
                    )
            out[self._full_name(family)] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return out

    # -- introspection (tests / in-process assertions) -----------------------

    def get_sample(
        self, name: str, **labels: Any
    ) -> Optional[float]:
        """Current value of one counter/gauge child, or None."""
        family = self._families.get(name)
        if family is None:
            return None
        key = tuple(str(labels.get(n, "")) for n in family.label_names)
        child = family._children.get(key)
        if child is None:
            return None
        return child.value


#: shared disabled registry: every instrument is a no-op.
NULL_REGISTRY = Registry(enabled=False)
