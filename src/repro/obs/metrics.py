"""Process-wide metrics: counters, gauges, log-scale histograms.

Stdlib-only reimplementation of the Prometheus client model, sized for
this repo's serving stack (primary, replicas, router — see
:mod:`repro.service`):

* A :class:`MetricsRegistry` holds metric *families*; each family has a
  name, a help string, a fixed tuple of label names, and one *child*
  (the actual number) per distinct label-value combination.
* Families are **get-or-create**: asking the registry for an existing
  name returns the existing family (with a type/label check), so every
  subsystem can declare the metrics it touches at import time without
  coordinating ownership.  This mirrors the process-global registry of
  the official clients — and means two engines in one test process
  share counters, which is exactly what "process-wide" promises.
* :meth:`MetricsRegistry.render` emits the Prometheus text exposition
  format (``text/plain; version=0.0.4``): ``# HELP`` / ``# TYPE``
  comments, escaped label values, children sorted by label values so
  the output is deterministic, and for histograms the cumulative
  ``_bucket`` / ``_sum`` / ``_count`` series.  The HTTP front-ends
  serve it as ``GET /metrics``.

Everything is thread-safe: one lock per family serializes child
creation and updates (handler threads, the batcher flush loop and the
replica tail thread all write concurrently).

Histograms use fixed **log-scale latency buckets**
(:data:`LATENCY_BUCKETS`, ~1 ms to ~2 min in half-decade steps) unless
a caller passes its own; bucket bounds are validated strictly
increasing at construction, and counts are kept per-bucket and summed
cumulatively at render time so ``observe`` is O(1) plus one bisect.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Fixed log-scale duration buckets (seconds): 1-2.5-5 per decade from
#: 1 ms to 100 s.  Wide enough for a cold align, fine enough for a
#: cached ``GET /pair``.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelValues = Tuple[str, ...]


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format: backslash,
    double-quote and newline must be escaped, everything else is raw."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def escape_help(text: str) -> str:
    """``# HELP`` lines escape backslash and newline (not quotes)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0`` (the
    common case for counters), floats via ``repr`` round-tripping."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_int = int(value)
    if as_int == value:
        return str(as_int)
    return repr(value)


class _Family:
    """Shared machinery of one metric family (name, labels, children)."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[LabelValues, object] = {}

    def _key(self, labels: Dict[str, object]) -> LabelValues:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: got labels {sorted(labels)}, "
                f"declared {sorted(self.labelnames)}"
            )
        # Values keyed in *declared label order*, not call order — the
        # exposition prints labels in declaration order, so two call
        # sites naming the labels differently still hit one child.
        return tuple(str(labels[name]) for name in self.labelnames)

    def _labels_text(self, values: LabelValues) -> str:
        if not self.labelnames:
            return ""
        pairs = ",".join(
            f'{name}="{escape_label_value(value)}"'
            for name, value in zip(self.labelnames, values)
        )
        return "{" + pairs + "}"

    def samples(self) -> Iterable[Tuple[str, str, float]]:
        """``(suffix, labels-text, value)`` rows, sorted by labels."""
        raise NotImplementedError

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for suffix, labels_text, value in self.samples():
            lines.append(f"{self.name}{suffix}{labels_text} {format_value(value)}")
        return lines


class Counter(_Family):
    """Monotonically increasing count (per label combination)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up, got {amount}")
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._children.get(self._key(labels), 0.0))

    def samples(self) -> Iterable[Tuple[str, str, float]]:
        with self._lock:
            children = sorted(self._children.items())
        for values, count in children:
            yield "", self._labels_text(values), float(count)


class Gauge(_Family):
    """A value that can go up and down — or be computed at scrape time
    via :meth:`set_callback` (offsets, queue depths, lags)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._children[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            current = self._children.get(key, 0.0)
            if callable(current):
                raise ValueError(f"{self.name}: gauge child is callback-backed")
            self._children[key] = float(current) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def set_callback(self, fn: Callable[[], float], **labels: object) -> None:
        """Compute this child at scrape time.  Re-registering replaces
        the previous callback (a restarted subsystem wins)."""
        key = self._key(labels)
        with self._lock:
            self._children[key] = fn

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            current = self._children.get(key, 0.0)
        return float(current() if callable(current) else current)

    def samples(self) -> Iterable[Tuple[str, str, float]]:
        with self._lock:
            children = sorted(self._children.items())
        for values, current in children:
            if callable(current):
                try:
                    current = float(current())
                except Exception:  # noqa: BLE001 - a dead callback must
                    continue  # not take the whole scrape down
            yield "", self._labels_text(values), float(current)


class _HistogramChild:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * num_buckets  # per-bucket, not cumulative
        self.total = 0.0
        self.count = 0


class Histogram(_Family):
    """Distribution over fixed buckets (cumulative at render time)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ValueError(f"{name}: need at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"{name}: bucket bounds must be strictly increasing")
        if bounds[-1] == float("inf"):
            bounds = bounds[:-1]  # +Inf is implicit
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _HistogramChild(len(self.buckets) + 1)
            child.bucket_counts[index] += 1
            child.total += value
            child.count += 1

    def snapshot(self, **labels: object) -> Tuple[List[int], float, int]:
        """Cumulative bucket counts (incl. +Inf), sum, count."""
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                return [0] * (len(self.buckets) + 1), 0.0, 0
            raw = list(child.bucket_counts)
            total, count = child.total, child.count
        cumulative: List[int] = []
        running = 0
        for bucket_count in raw:
            running += bucket_count
            cumulative.append(running)
        return cumulative, total, count

    def samples(self) -> Iterable[Tuple[str, str, float]]:
        with self._lock:
            keys = sorted(self._children)
        for values in keys:
            labels = dict(zip(self.labelnames, values))
            cumulative, total, count = self.snapshot(**labels)
            for bound, running in zip((*self.buckets, float("inf")), cumulative):
                le = format_value(bound)
                if self.labelnames:
                    base = self._labels_text(values)
                    bucket_labels = base[:-1] + f',le="{le}"}}'
                else:
                    bucket_labels = f'{{le="{le}"}}'
                yield "_bucket", bucket_labels, float(running)
            yield "_sum", self._labels_text(values), total
            yield "_count", self._labels_text(values), float(count)


class MetricsRegistry:
    """Get-or-create registry of metric families (module docstring)."""

    #: Content type of :meth:`render` output.
    CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if type(family) is not cls or family.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels {family.labelnames}"
                    )
                return family
            family = cls(name, help, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    def names(self) -> List[str]:
        """All registered family names, sorted — the documentation
        coverage test walks this to keep the metrics table honest."""
        with self._lock:
            return sorted(self._families)

    def render(self) -> str:
        """The full exposition: families in name order, one trailing
        newline — what ``GET /metrics`` serves."""
        with self._lock:
            families = [self._families[name] for name in sorted(self._families)]
        lines: List[str] = []
        for family in families:
            lines.extend(family.render())
        return "\n".join(lines) + "\n" if lines else ""


#: The process-wide default registry every subsystem feeds; the HTTP
#: servers expose it as ``GET /metrics``.  Tests that need isolation
#: construct their own :class:`MetricsRegistry`.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
