"""In-memory span recorder for the traced benchmark run.

Spans are recorded *from the benchmark*, around the calls into each layer's
public functions: :meth:`Recorder.patch` replaces a bound method on one
instance with a wrapper that opens a span, calls the original, and closes
the span.  Nothing under ``src/`` is edited and nothing is recorded unless
a wrapper was installed, so the untraced run pays nothing.

The program under test is single-threaded on the caller's side, so spans
nest strictly: a span's parent is whatever span was open when it started.
Every root span (one per ``ingest()`` / ``subscribe()`` / ... call issued
by the benchmark) starts a new trace id.

A span's **self time** is its duration minus the durations of its direct
children; summed over all spans of a trace the self times equal the root's
duration exactly, which is what lets the per-layer numbers add up to the
traced wall time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List

__all__ = ["Recorder", "CHROME_TRACE_SPAN_CAP"]

#: spans written to the Chrome trace file; the recorder keeps (and the
#: self-time sums use) all of them, the file is for looking at a few
#: hundred requests, not for arithmetic
CHROME_TRACE_SPAN_CAP = 50_000

# span record layout: [name, start, end, parent index, trace id]
_NAME, _START, _END, _PARENT, _TRACE = range(5)


class Recorder:
    """Collects spans; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._traces = 0

    def wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``function`` wrapped in a span called ``name``."""
        spans = self.spans
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack:
                parent = stack[-1]
                trace = spans[parent][_TRACE]
            else:
                parent = -1
                self._traces += 1
                trace = self._traces
            record = [name, 0.0, 0.0, parent, trace]
            stack.append(len(spans))
            spans.append(record)
            record[_START] = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                record[_END] = perf_counter()
                stack.pop()

        return traced

    def patch(self, target: Any, attribute: str, name: str) -> None:
        """Shadow ``target.attribute`` (a bound method) with a traced wrapper.

        The wrapper lives in the instance dictionary, so only this one
        object is affected and every caller that looks the method up on
        the instance -- the benchmark and the program's own layers alike --
        goes through the span.
        """
        setattr(target, attribute, self.wrap(getattr(target, attribute), name))

    def mark(self) -> int:
        """A position in the span list; pass it to :meth:`self_times`."""
        return len(self.spans)

    def self_times(self, since: int = 0, until: int = -1) -> Dict[str, List[float]]:
        """``{span name: [total self seconds, span count]}`` for a slice.

        The slice must hold whole traces (take marks between root calls).
        """
        spans = self.spans[since:] if until < 0 else self.spans[since:until]
        child_time = [0.0] * len(spans)
        for record in spans:
            parent = record[_PARENT]
            if parent >= since:
                child_time[parent - since] += record[_END] - record[_START]
        totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for record, children in zip(spans, child_time):
            entry = totals[record[_NAME]]
            entry[0] += record[_END] - record[_START] - children
            entry[1] += 1
        return dict(totals)

    def durations(self, name: str, since: int = 0, until: int = -1) -> List[float]:
        """Inclusive durations (children counted) of the spans called ``name``."""
        spans = self.spans[since:] if until < 0 else self.spans[since:until]
        return [record[_END] - record[_START] for record in spans if record[_NAME] == name]

    def dump_chrome_trace(self, path: Path) -> None:
        """Write the first spans as Chrome trace events (``chrome://tracing``)."""
        events = [
            {
                "name": record[_NAME],
                "ph": "X",
                "ts": record[_START] * 1e6,
                "dur": (record[_END] - record[_START]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"trace": record[_TRACE], "parent": record[_PARENT]},
            }
            for record in self.spans[:CHROME_TRACE_SPAN_CAP]
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
