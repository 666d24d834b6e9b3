"""Span tracing with explicit context propagation.

A :class:`Tracer` records completed spans into a bounded ring buffer.
Spans are opened with the :func:`trace_span` context manager (or
:meth:`Tracer.span`)::

    with trace_span("ingest", batch=len(docs)) as span:
        with trace_span("wal.append", parent=span):
            ...

Parent linkage is *explicit*: the inner call names its parent span instead
of relying on an ambient thread-local, which is what lets a span context
hop threads -- the async ingestion lane opens a span in ``submit()`` on
the caller's thread and passes it to its worker thread, so the
``pipeline.lane`` child span still nests correctly in the exported trace.
For asyncio paths the same object rides the coroutine's closure.

Completed spans export as Chrome trace-event JSON (``chrome://tracing`` /
Perfetto "X" complete events, microsecond timestamps), the de-facto
interchange format for this kind of flame chart.

Like the metrics registry, the process-wide tracer lives in
:mod:`repro.observability.runtime` and is a no-op while observability is
disabled: :func:`trace_span` then yields a shared inert span without
touching the clock.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "trace_span", "NULL_SPAN"]

DEFAULT_CAPACITY = 4096


class Span:
    """One timed operation; finished spans land in the tracer's ring."""

    __slots__ = ("tracer", "name", "args", "parent_id", "span_id", "start_us", "duration_us", "tid")

    def __init__(
        self,
        tracer: Optional["Tracer"],
        name: str,
        parent_id: Optional[int],
        args: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.args = args
        self.parent_id = parent_id
        self.span_id = tracer.next_id() if tracer is not None else 0
        self.start_us = time.perf_counter() * 1e6 if tracer is not None else 0.0
        self.duration_us = 0.0
        self.tid = threading.get_ident() if tracer is not None else 0

    def finish(self) -> None:
        if self.tracer is None:
            return
        self.duration_us = time.perf_counter() * 1e6 - self.start_us
        self.tracer.record(self)

    def set(self, **args: Any) -> None:
        """Attach extra arguments to the span (shown in the trace viewer)."""
        if self.tracer is not None:
            self.args.update(args)


#: the inert span handed out while tracing is disabled -- safe to pass as
#: ``parent=`` anywhere, never records anything
NULL_SPAN = Span(None, "", None, {})


class Tracer:
    """A bounded ring buffer of completed spans."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._ring: "deque[Span]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._next_id = 0
        self.dropped = 0

    def next_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def record(self, span: Span) -> None:
        with self._lock:
            if len(self._ring) == self._ring.maxlen:
                self.dropped += 1
            self._ring.append(span)

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None, **args: Any) -> Iterator[Span]:
        parent_id = parent.span_id if parent is not None and parent.tracer is not None else None
        current = Span(self, name, parent_id, args)
        try:
            yield current
        finally:
            current.finish()

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def to_chrome_events(self) -> List[Dict[str, Any]]:
        """Chrome trace-event "X" (complete) events, one per finished span."""
        events = []
        for span in self.spans():
            args = dict(span.args)
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args["span_id"] = span.span_id
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": round(span.start_us, 3),
                    "dur": round(span.duration_us, 3),
                    "pid": 1,
                    "tid": span.tid,
                    "args": args,
                }
            )
        events.sort(key=lambda event: event["ts"])
        return events

    def to_chrome_json(self) -> str:
        """The full ``chrome://tracing`` document as a JSON string."""
        return json.dumps(
            {"traceEvents": self.to_chrome_events(), "displayTimeUnit": "ms"},
            indent=None,
            separators=(",", ":"),
        )


@contextmanager
def trace_span(name: str, parent: Optional[Span] = None, **args: Any) -> Iterator[Span]:
    """Open a span on the process-wide tracer (inert while disabled)."""
    from repro.observability import runtime

    if not runtime.active:
        yield NULL_SPAN
        return
    with runtime.tracer.span(name, parent=parent, **args) as span:
        yield span
