"""The ingestion lane: one worker thread behind a bounded number of batches.

:class:`IngestLane` is what
:class:`~repro.service.async_service.AsyncMonitoringService` runs an engine
on.  It buys exactly two properties, for every engine kind:

* **ingestion off the event loop** -- each batch is one
  ``engine.process_batch_events(batch)`` call on the lane's single worker
  thread (a sharded engine fans the batch out to its shards and merges
  inside that call, as it does synchronously);
* **bounded in-flight work** -- ``submit`` blocks (yielding to the event
  loop) while ``queue_depth`` batches are unresolved, so a fast producer
  waits for the engine instead of buffering without bound.

It is not parallelism: one thread applies one batch at a time, which is
also why it is **bit-identical** to the synchronous path -- a
single-thread executor is a FIFO, so the engine sees the batches in
submission order and the futures resolve in that order.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.core.base import MonitoringEngine, ResultChange
from repro.documents.document import StreamedDocument
from repro.exceptions import ConfigurationError, ServiceError
from repro.observability import runtime as obs
from repro.observability.timing import Timer
from repro.observability.trace import Span

__all__ = ["IngestLane", "LaneStats", "DEFAULT_QUEUE_DEPTH"]

#: default bound on submitted-but-unresolved batches
DEFAULT_QUEUE_DEPTH = 4

#: per-event result changes of one batch: ``result[i]`` belongs to the
#: batch's i-th document
BatchChanges = List[List[ResultChange]]


class LaneStats:
    """Progress and occupancy counters of one lane."""

    def __init__(self) -> None:
        self.batches = 0
        self.events = 0
        #: batches submitted but not yet resolved, now and at its peak
        self.inflight = 0
        self.max_inflight = 0
        #: producer time spent blocked on a full lane -- the backpressure,
        #: made visible
        self.submit_wait_ms = 0.0
        #: in-engine service time on the worker thread
        self.busy = Timer()

    @property
    def busy_ms(self) -> float:
        return self.busy.total_ms


class IngestLane:
    """One worker thread applying batches to ``engine`` in submission order.

    Parameters
    ----------
    engine:
        The engine to drive -- single, sharded or process-sharded.  While
        the lane is running the engine must not be mutated from another
        thread; :class:`~repro.service.async_service.AsyncMonitoringService`
        drains the lane before every registration, read and snapshot.
    queue_depth:
        How many submitted batches may be unresolved at once; ``submit``
        blocks beyond it.

    The lane is single-producer: ``submit`` must be called from one
    coroutine at a time.
    """

    def __init__(
        self, engine: MonitoringEngine, queue_depth: int = DEFAULT_QUEUE_DEPTH
    ) -> None:
        if queue_depth <= 0:
            raise ConfigurationError("queue_depth must be positive")
        self.engine = engine
        self.queue_depth = queue_depth
        self.stats = LaneStats()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._last: Optional[asyncio.Future] = None
        self._failure: Optional[BaseException] = None
        self._closed = False
        self._metrics_unregister: Optional[Callable[[], None]] = None

    # scrape-time collector; nothing on the batch path
    def _collect_metrics(self) -> Dict[Any, float]:
        stats = self.stats
        return {
            "repro_pipeline_batches_total": float(stats.batches),
            "repro_pipeline_events_total": float(stats.events),
            "repro_pipeline_max_inflight": float(stats.max_inflight),
            "repro_pipeline_queue_depth": float(stats.inflight),
            "repro_pipeline_submit_wait_ms_total": stats.submit_wait_ms,
            "repro_pipeline_busy_ms_total": stats.busy_ms,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Start the worker thread on the running event loop."""
        if self._closed:
            raise ServiceError("the lane has been closed")
        if self._executor is not None:
            raise ServiceError("the lane is already started")
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-lane"
        )
        self._slots = asyncio.Semaphore(self.queue_depth)
        if obs.active:
            self._metrics_unregister = obs.metrics.register_collector(
                self._collect_metrics
            )

    async def aclose(self) -> None:
        """Finish every submitted batch, then stop the worker thread.

        The futures of all batches submitted before the call are resolved;
        a lane cannot be restarted after closing.
        """
        if self._closed:
            return
        self._closed = True
        if self._metrics_unregister is not None:
            self._metrics_unregister()
            self._metrics_unregister = None
        if self._executor is None:
            return
        await self._idle()
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "IngestLane":
        await self.start()
        return self

    async def __aexit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        await self.aclose()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_running(self) -> None:
        if self._executor is None:
            raise ServiceError("the lane has not been started")
        if self._closed:
            raise ServiceError("the lane has been closed")
        if self._failure is not None:
            raise ServiceError(
                "the lane has failed and no longer accepts work"
            ) from self._failure

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        documents: Iterable[StreamedDocument],
        prepare: Optional[Callable[[List[StreamedDocument]], None]] = None,
    ) -> "asyncio.Future[BatchChanges]":
        """Queue one batch for the worker; future of its per-event changes.

        Blocks (yielding to the event loop) while ``queue_depth`` batches
        are unresolved -- the lane's backpressure.  The returned futures
        resolve in submission order, each with exactly what the
        synchronous ``engine.process_batch_events(batch)`` returns.

        ``prepare(batch)`` (the service's check and WAL append) runs once
        the batch holds its slot, with no ``await`` before the enqueue: a
        caller cancelled while it waits has logged nothing, a logged batch
        is always applied, and a batch it refuses is not queued.
        """
        self._check_running()
        assert self._loop is not None and self._slots is not None
        batch = list(documents)
        if not batch:
            empty: "asyncio.Future[BatchChanges]" = self._loop.create_future()
            empty.set_result([])
            return empty
        # The parent of this batch's lane span: created here on the
        # producer, finished after the enqueue, and handed to the worker
        # thread explicitly (a thread-local context could not follow the
        # batch across threads).
        parent: Optional[Span] = None
        if obs.active:
            parent = Span(obs.tracer, "pipeline.submit", None, {"events": len(batch)})
        stats = self.stats
        wait_started = time.perf_counter()
        await self._slots.acquire()
        stats.submit_wait_ms += (time.perf_counter() - wait_started) * 1000.0
        try:
            # A batch may have failed while this one waited for its slot.
            self._check_running()
            if prepare is not None:
                prepare(batch)
            work = self._loop.run_in_executor(
                self._executor, self._process, batch, parent
            )
        except BaseException:
            self._slots.release()
            raise
        if parent is not None:
            parent.finish()
        stats.batches += 1
        stats.events += len(batch)
        stats.inflight += 1
        stats.max_inflight = max(stats.max_inflight, stats.inflight)
        work.add_done_callback(self._resolved)
        self._last = work
        # The caller gets a shielded view: cancelling its await (say an
        # ``asyncio.wait_for`` around ingest) must not cancel a batch still
        # queued behind the worker -- every submitted batch is applied.
        result = asyncio.shield(work)
        # Retrieve the exception eagerly so an abandoned future of a failed
        # batch does not warn at garbage collection; awaiting callers still
        # observe it through the normal await path.
        result.add_done_callback(
            lambda future: future.exception() if not future.cancelled() else None
        )
        return result

    def _process(
        self, batch: List[StreamedDocument], parent: Optional[Span]
    ) -> BatchChanges:
        # Runs on the worker thread.  A failed batch poisons the lane: the
        # batches queued behind it are refused instead of being applied to
        # an engine in an unknown state.
        if self._failure is not None:
            raise ServiceError(
                "skipped: an earlier batch of the lane failed"
            ) from self._failure
        span: Optional[Span] = None
        if parent is not None and obs.active:
            span = Span(obs.tracer, "pipeline.lane", parent.span_id, {"events": len(batch)})
        try:
            with self.stats.busy:
                return self.engine.process_batch_events(batch)
        except BaseException as exc:
            self._failure = exc
            raise
        finally:
            if span is not None:
                span.finish()

    def _resolved(self, _work: asyncio.Future) -> None:
        assert self._slots is not None
        self.stats.inflight -= 1
        self._slots.release()

    async def _idle(self) -> None:
        # The worker is a FIFO: the last batch submitted finishes last.
        if self._last is not None and not self._last.done():
            await asyncio.wait([self._last])

    async def drain(self) -> None:
        """Wait until every submitted batch has been applied.

        Raises the first processing failure, if any batch failed.
        """
        await self._idle()
        if self._failure is not None:
            raise ServiceError("a lane batch failed") from self._failure

    async def advance_time(self, now: float) -> List[ResultChange]:
        """Advance the engine's clock after draining the lane.

        Runs on the worker thread, behind every submitted batch, so the
        advancement lands at the same stream position as it would
        synchronously.
        """
        self._check_running()
        await self.drain()
        assert self._loop is not None
        return await self._loop.run_in_executor(
            self._executor, self.engine.advance_time, now
        )
