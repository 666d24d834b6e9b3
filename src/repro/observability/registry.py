"""The metrics registry: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` is a thread-safe container of named metric
*families*.  A family without labels is itself the single instrument; a
family declared with label names hands out one child instrument per label
combination (``family.labels(stage="expire").add(1.2)``), the shape
Prometheus clients use.  Three instrument kinds:

* :class:`Counter` -- a monotonically increasing ``float`` (``inc``/``add``),
* :class:`Gauge` -- a settable value (``set``/``inc``/``dec``),
* :class:`Histogram` -- fixed cumulative buckets plus ``count`` and ``sum``
  (``observe``); bucket bounds are frozen at declaration, so recording one
  observation is a bisect plus three integer adds -- cheap enough for the
  ingest path.

Lazy *collectors* complement the eager instruments: a registered callable
is invoked at snapshot/exposition time and returns sample dictionaries, so
state that already exists elsewhere (the engines'
:class:`~repro.observability.opcounters.OperationCounters` blocks, a
running ingestion lane's busy timer) is exposed with **zero** hot-path cost --
the registry reads it only when someone scrapes.

The registry renders itself two ways: :meth:`MetricsRegistry.snapshot`
(one JSON-compatible dictionary, the payload of
``MonitoringService.metrics()``) and
:meth:`MetricsRegistry.to_prometheus` (the text exposition format).  The
process-wide instance lives in :mod:`repro.observability.runtime`; hot
paths consult its ``active`` flag and skip every call here while metrics
are disabled, which is what keeps the disabled mode at zero overhead.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_MS_BUCKETS",
]

#: default histogram bounds for millisecond latencies: sub-100µs service
#: times up to multi-second recoveries, roughly logarithmic
DEFAULT_MS_BUCKETS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 10000.0,
)

#: a collector returns samples: metric name -> value, or for labelled
#: samples ``(name, (("label", "value"), ...))`` -> value
CollectorSamples = Dict[Any, float]
Collector = Callable[[], CollectorSamples]


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for ups and downs")
        self.value += amount

    #: alias reading better for accumulated durations
    add = inc


class Gauge:
    """A value that can go up and down (queue depths, utilizations)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed cumulative buckets plus count and sum.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``
    (non-cumulative storage; cumulation happens at render time), with one
    implicit ``+Inf`` bucket at the end.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(self, bounds: Sequence[float]) -> None:
        ordered = tuple(float(bound) for bound in bounds)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ValueError("histogram buckets must be non-empty and strictly increasing")
        self.bounds = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)  # + the +Inf bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def quantile(self, fraction: float) -> float:
        """Approximate quantile: the upper bound of the covering bucket."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(fraction * self.count + 0.999999))
        seen = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if seen >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.bounds[-1]  # +Inf bucket: clamp to the last bound
        return self.bounds[-1]  # pragma: no cover - unreachable


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and its per-label-combination children.

    An unlabelled family proxies its single child, so
    ``registry.counter("x").inc()`` and
    ``registry.counter("y", labels=("stage",)).labels(stage="a").inc()``
    are both natural.
    """

    __slots__ = ("name", "kind", "help", "label_names", "buckets", "_children", "_lock")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Sequence[float]],
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._lock = lock
        if not label_names:
            self._children[()] = self._make_child()

    def _make_child(self) -> Any:
        if self.kind == "histogram":
            return Histogram(self.buckets if self.buckets is not None else DEFAULT_MS_BUCKETS)
        return _KINDS[self.kind]()

    def labels(self, **label_values: str) -> Any:
        """The child instrument of one label combination (created on first use)."""
        if tuple(sorted(label_values)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        key = tuple(str(label_values[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def children(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """Every (label-values, instrument) pair, in creation order."""
        return list(self._children.items())

    # -- unlabelled families proxy their single instrument --------------- #
    def _single(self) -> Any:
        if self.label_names:
            raise ValueError(f"metric {self.name} is labelled; call .labels(...) first")
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._single().inc(amount)

    def add(self, amount: float) -> None:
        self._single().inc(amount)

    def set(self, value: float) -> None:
        self._single().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._single().dec(amount)

    def observe(self, value: float) -> None:
        self._single().observe(value)

    @property
    def value(self) -> float:
        return self._single().value

    @property
    def count(self) -> int:
        return self._single().count

    @property
    def sum(self) -> float:
        return self._single().sum

    def quantile(self, fraction: float) -> float:
        return self._single().quantile(fraction)


class MetricsRegistry:
    """A thread-safe collection of metric families plus lazy collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Collector] = []

    # ------------------------------------------------------------------ #
    # declaration (idempotent: re-declaring returns the existing family)
    # ------------------------------------------------------------------ #
    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Tuple[str, ...],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != labels:
                raise ValueError(
                    f"metric {name} already declared as {family.kind}"
                    f"{family.label_names}; cannot redeclare as {kind}{labels}"
                )
            return family
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help_text, labels, buckets, self._lock)
                self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "", labels: Tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, "counter", help_text, labels)

    def gauge(self, name: str, help_text: str = "", labels: Tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, "gauge", help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Tuple[str, ...] = (),
        buckets: Sequence[float] = DEFAULT_MS_BUCKETS,
    ) -> MetricFamily:
        return self._family(name, "histogram", help_text, labels, buckets)

    def families(self) -> List[MetricFamily]:
        return list(self._families.values())

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    # ------------------------------------------------------------------ #
    # collectors
    # ------------------------------------------------------------------ #
    def register_collector(self, collector: Collector) -> Callable[[], None]:
        """Register a scrape-time sample source; returns its unregisterer.

        Samples from several collectors under the same name are summed --
        e.g. every live engine contributes its own operation-counter block
        and the exposition shows the process-wide totals.
        """
        with self._lock:
            self._collectors.append(collector)

        def unregister() -> None:
            with self._lock:
                if collector in self._collectors:
                    self._collectors.remove(collector)

        return unregister

    def _collected(self) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
        merged: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            for key, value in collector().items():
                if isinstance(key, str):
                    normalised = (key, ())
                else:
                    name, labels = key
                    normalised = (name, tuple((str(k), str(v)) for k, v in labels))
                merged[normalised] = merged.get(normalised, 0.0) + float(value)
        return merged

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """One JSON-compatible dictionary of every family and collector."""
        families: Dict[str, Any] = {}
        for family in self.families():
            entries = []
            for label_values, instrument in family.children():
                labels = dict(zip(family.label_names, label_values))
                if family.kind == "histogram":
                    entries.append(
                        {
                            "labels": labels,
                            "count": instrument.count,
                            "sum": round(instrument.sum, 6),
                            "p50": instrument.quantile(0.50),
                            "p99": instrument.quantile(0.99),
                        }
                    )
                else:
                    entries.append({"labels": labels, "value": instrument.value})
            families[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "samples": entries,
            }
        collected: Dict[str, Any] = {}
        for (name, labels), value in sorted(self._collected().items()):
            entry = {"labels": dict(labels), "value": value}
            collected.setdefault(name, []).append(entry)
        return {"families": families, "collected": collected}

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for label_values, instrument in family.children():
                labels = tuple(zip(family.label_names, label_values))
                if family.kind == "histogram":
                    cumulative = 0
                    for bound, bucket_count in zip(
                        instrument.bounds, instrument.bucket_counts
                    ):
                        cumulative += bucket_count
                        lines.append(
                            f"{family.name}_bucket"
                            f"{_labels_text(labels + (('le', _format_bound(bound)),))}"
                            f" {cumulative}"
                        )
                    lines.append(
                        f"{family.name}_bucket{_labels_text(labels + (('le', '+Inf'),))}"
                        f" {instrument.count}"
                    )
                    lines.append(
                        f"{family.name}_sum{_labels_text(labels)} {_format_value(instrument.sum)}"
                    )
                    lines.append(f"{family.name}_count{_labels_text(labels)} {instrument.count}")
                else:
                    lines.append(
                        f"{family.name}{_labels_text(labels)} {_format_value(instrument.value)}"
                    )
        grouped: Dict[str, List[Tuple[Tuple[Tuple[str, str], ...], float]]] = {}
        for (name, labels), value in sorted(self._collected().items()):
            grouped.setdefault(name, []).append((labels, value))
        for name, samples in grouped.items():
            if name in self._families:
                continue  # eager family of the same name already rendered
            lines.append(f"# TYPE {name} gauge")
            for labels, value in samples:
                lines.append(f"{name}{_labels_text(labels)} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every family (collectors stay registered)."""
        with self._lock:
            self._families.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({len(self._families)} families)"


def _labels_text(labels: Iterable[Tuple[str, str]]) -> str:
    pairs = list(labels)
    if not pairs:
        return ""
    rendered = ",".join(
        f'{name}="' + str(value).replace("\\", r"\\").replace('"', r"\"") + '"'
        for name, value in pairs
    )
    return "{" + rendered + "}"


def _format_bound(bound: float) -> str:
    return repr(bound) if bound != int(bound) else str(int(bound)) + ".0"


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)
