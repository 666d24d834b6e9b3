"""Observability: metrics, tracing, slow-op log and operation counters.

The measurement substrate of the repro, in five parts:

* :mod:`~repro.observability.registry` -- the thread-safe
  :class:`MetricsRegistry` (counters, gauges, fixed-bucket histograms,
  scrape-time collectors) rendering as a JSON snapshot or the Prometheus
  text exposition format;
* :mod:`~repro.observability.trace` -- :func:`trace_span` span tracing
  with explicit context propagation and Chrome trace-event export;
* :mod:`~repro.observability.slowlog` -- the bounded slow-operation log;
* :mod:`~repro.observability.opcounters` /
  :mod:`~repro.observability.timing` -- the hardware-independent
  :class:`OperationCounters` cost proxies and the :class:`Timer` /
  :class:`TimingSummary` stopwatch helpers the experiment runner is built
  on;
* :mod:`~repro.observability.runtime` -- the process-wide on/off switch
  and singletons.  Everything here is inert until
  :func:`runtime.enable` (or :func:`runtime.observed`) flips it on, and
  the disabled mode costs the hot paths a single boolean check per batch.

See ``docs/OBSERVABILITY.md`` for the metric catalog and the trace and
dashboard formats.
"""

from repro.observability import runtime
from repro.observability.opcounters import OperationCounters, counters_collector
from repro.observability.registry import (
    DEFAULT_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.observability.slowlog import SlowOp, SlowOpLog, note_slow
from repro.observability.timing import (
    AggregatedCounters,
    PercentileSummary,
    Timer,
    TimingSummary,
    aggregate_counters,
)
from repro.observability.trace import NULL_SPAN, Span, Tracer, trace_span

__all__ = [
    "runtime",
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_MS_BUCKETS",
    "Tracer",
    "Span",
    "trace_span",
    "NULL_SPAN",
    "SlowOpLog",
    "SlowOp",
    "note_slow",
    "OperationCounters",
    "counters_collector",
    "Timer",
    "TimingSummary",
    "PercentileSummary",
    "aggregate_counters",
    "AggregatedCounters",
]
