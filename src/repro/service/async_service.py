"""The asynchronous service façade: :class:`AsyncMonitoringService`.

:class:`~repro.service.service.MonitoringService` is synchronous -- one
blocking ``ingest()`` call processes the whole stream chunk on the calling
thread.  This module wraps it for ``asyncio`` applications and runs the
engine on the single worker thread of :mod:`repro.service.lane`:

>>> import asyncio
>>> from repro.service import AsyncMonitoringService
>>> async def firehose():
...     async with AsyncMonitoringService("sharded-ita-2") as service:
...         handle = await service.subscribe("market news", k=2)
...         _ = await service.ingest(["breaking news about markets"])
...         return [entry.doc_id for entry in handle.result()]
>>> asyncio.run(firehose())
[0]

* ``ingest()`` runs the synchronous façade's steps in its order: each
  chunk of ``batch_size`` stamped documents is checked and logged on the
  event loop, applied by the engine's one batch call on the lane, and its
  alerts are delivered back on the loop in submission order -- so
  results, change streams and snapshots are **bit-identical** to the
  synchronous path (``tests/conformance/`` pins this down).  At most
  ``queue_depth`` batches are in flight: a fast producer waits in
  ``await`` instead of buffering without bound.  That is all the lane
  buys; it is one thread, not parallelism.
* query management (``subscribe``/``unsubscribe``), time advancement,
  reads and ``snapshot()`` first *drain* the lane, giving them the same
  sequential semantics they have on the synchronous façade.

The synchronous service stays the source of truth: ``service.service`` is
a fully functional :class:`~repro.service.service.MonitoringService`, and
closing the async wrapper returns it to synchronous use.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple, Union

from repro.alerting import Alert
from repro.core.base import MonitoringEngine, ResultChange, TopKResult
from repro.documents.document import StreamedDocument
from repro.exceptions import ServiceError
from repro.query.query import ContinuousQuery
from repro.service.service import Ingestible, MonitoringService, QueryHandle
from repro.service.spec import EngineSpec
from repro.service.lane import DEFAULT_QUEUE_DEPTH, BatchChanges, IngestLane, LaneStats

__all__ = ["AsyncMonitoringService", "DEFAULT_ASYNC_BATCH_SIZE"]

#: default number of documents grouped into one lane batch
DEFAULT_ASYNC_BATCH_SIZE = 32


class AsyncMonitoringService:
    """Asynchronous façade over a :class:`MonitoringService` and its engine.

    Parameters
    ----------
    service:
        What to serve: an existing :class:`MonitoringService` (wrapped
        as-is), or anything its constructor accepts -- an
        :class:`~repro.service.spec.EngineSpec`, a legacy engine name
        ("sharded-ita-4", ...), a prebuilt engine, or ``None`` for the
        default ITA engine -- in which case a fresh synchronous service is
        built with ``service_kwargs``.
    queue_depth:
        How many batches may be in flight on the lane; producers block in
        ``await`` when the engine falls that far behind.
    batch_size:
        How many documents ``ingest`` groups into one lane batch.

    The wrapper is an async context manager; entering starts the lane,
    leaving drains and closes it (the wrapped synchronous service remains
    open and usable -- call :meth:`close` to close it too).
    """

    def __init__(
        self,
        service: Union[MonitoringService, EngineSpec, MonitoringEngine, str, None] = None,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        batch_size: int = DEFAULT_ASYNC_BATCH_SIZE,
        **service_kwargs: Any,
    ) -> None:
        if isinstance(service, MonitoringService):
            if service_kwargs:
                raise ServiceError(
                    "service construction keywords only apply when the "
                    "AsyncMonitoringService builds the MonitoringService itself"
                )
            self.service = service
        else:
            self.service = MonitoringService(service, **service_kwargs)
        if batch_size <= 0:
            raise ServiceError("batch_size must be positive")
        self.batch_size = batch_size
        self._queue_depth = queue_depth
        self._lane: Optional[IngestLane] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "AsyncMonitoringService":
        """Start the ingestion lane (idempotent)."""
        if self._lane is not None:
            return self
        self.service._check_open()
        lane = IngestLane(self.service.engine, queue_depth=self._queue_depth)
        await lane.start()
        self._lane = lane
        return self

    async def aclose(self) -> None:
        """Drain and stop the lane; the synchronous service stays open."""
        if self._lane is None:
            return
        lane, self._lane = self._lane, None
        await lane.aclose()

    async def close(self) -> None:
        """Stop the lane *and* close the wrapped synchronous service."""
        await self.aclose()
        self.service.close()

    async def __aenter__(self) -> "AsyncMonitoringService":
        return await self.start()

    async def __aexit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        await self.aclose()

    def _check_started(self) -> IngestLane:
        if self._lane is None:
            raise ServiceError(
                "the async service is not started; enter it with 'async with' "
                "or await start() first"
            )
        return self._lane

    @property
    def started(self) -> bool:
        return self._lane is not None

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    async def ingest(
        self,
        source: Union[Ingestible, Iterable[Ingestible]],
        at: Optional[float] = None,
        batch_size: Optional[int] = None,
    ) -> List[ResultChange]:
        """Feed documents through the ingestion lane; the result changes.

        Accepts exactly what :meth:`MonitoringService.ingest` accepts; raw
        texts are analysed and stamped by the service clock on the event
        loop (in submission order, so ids and timestamps match the
        synchronous path), then grouped into batches of ``batch_size`` and
        applied on the lane's worker thread.  Alerts are delivered from
        the event loop in stream order as each batch completes; the
        returned change list is identical to the synchronous ``ingest`` of
        the same source.

        If the call fails part-way -- an element that is not ingestible, a
        batch the window or the WAL rejects, a callback that raises --
        every batch already handed to the lane is still applied and its
        alerts delivered, in order, before the first error propagates:
        subscribers, engine and WAL agree on the accepted prefix.
        """
        lane = self._check_started()
        service = self.service
        service._check_open()
        size = batch_size if batch_size is not None else self.batch_size
        if size <= 0:
            raise ServiceError("batch_size must be positive")
        started = time.perf_counter()
        delivered_before = service.dispatcher.delivered
        documents = 0
        changes: List[ResultChange] = []
        #: batches on the lane, oldest first, each with the time it was cut
        #: from the stream (the origin of its alerts' delivery lag)
        inflight: Deque[Tuple[List[StreamedDocument], "asyncio.Future[BatchChanges]", float]] = deque()

        async def submit(chunk: List[StreamedDocument]) -> None:
            # lane.submit takes the slot, then runs the service's check and
            # WAL append, then enqueues: the WAL order is the lane's FIFO
            # order, and a call cancelled while it waits has logged nothing.
            cut = time.perf_counter()
            inflight.append((chunk, await lane.submit(chunk, service._prepare), cut))

        async def flush() -> None:
            chunk, future, cut = inflight.popleft()
            changes.extend(service._deliver(chunk, await future, cut))

        error: Optional[Exception] = None
        try:
            chunk: List[StreamedDocument] = []
            for streamed in service._as_stream(source, at):
                chunk.append(streamed)
                documents += 1
                if len(chunk) >= size:
                    await submit(chunk)
                    chunk = []
                    # Deliver completed batches opportunistically so alert
                    # latency stays bounded on long streams, still in order.
                    while inflight and inflight[0][1].done():
                        await flush()
            if chunk:
                await submit(chunk)
        except Exception as exc:
            error = exc
        # What the lane holds is logged and (being) applied whatever went
        # wrong above or goes wrong in a callback below: deliver all of it,
        # in order, before the first error propagates -- dropping these
        # alerts would leave subscribers behind the engine and the WAL.
        while inflight:
            try:
                await flush()
            except Exception as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error
        # A due checkpoint snapshots the engine: not while the lane holds
        # batches of an overlapping call.
        await lane.drain()
        service._finish(documents, started, delivered_before)
        return changes

    async def advance_time(self, now: float) -> List[ResultChange]:
        """Advance the virtual clock (time-based windows); expiry changes.

        Drains the lane, advances the engine on the worker thread, and
        delivers the expiry alerts (with ``alert.document`` set to
        ``None``) exactly like the synchronous façade.
        """
        lane = self._check_started()
        self.service._check_open()
        return self.service._advance_deliver(now, await lane.advance_time(now))

    async def drain(self) -> None:
        """Wait until every submitted batch has been applied.

        Note that alerts are delivered by the ``ingest`` coroutine itself,
        so after ``await ingest(...)`` returns there is nothing left to
        drain; this exists for producers that overlap several ``ingest``
        calls with reads.
        """
        await self._check_started().drain()

    # ------------------------------------------------------------------ #
    # subscriptions (drain first: sequential semantics)
    # ------------------------------------------------------------------ #
    async def subscribe(
        self,
        query: Union[str, ContinuousQuery],
        k: int = 10,
        on_change: Optional[Callable[[Alert], None]] = None,
        query_id: Optional[int] = None,
        max_pending: Optional[int] = None,
    ) -> QueryHandle:
        """Install a standing query once all in-flight batches are applied.

        Draining first gives registration the same sequential position it
        has on the synchronous façade: the query's initial result covers
        exactly the documents ingested before this call.
        """
        await self.drain()
        return self.service.subscribe(
            query, k=k, on_change=on_change, query_id=query_id, max_pending=max_pending
        )

    async def unsubscribe(self, query_id: int) -> None:
        """Terminate ``query_id`` once all in-flight batches are applied."""
        await self.drain()
        self.service.unsubscribe(query_id)

    async def handle(
        self,
        query_id: int,
        on_change: Optional[Callable[[Alert], None]] = None,
        max_pending: Optional[int] = None,
    ) -> QueryHandle:
        """A handle for an already-installed query (see the sync façade)."""
        await self.drain()
        return self.service.handle(query_id, on_change=on_change, max_pending=max_pending)

    def on_change(self, callback) -> Callable[[], None]:
        """Register a global change subscriber (fires on the event loop)."""
        return self.service.on_change(callback)

    # ------------------------------------------------------------------ #
    # reads (drain first: read-your-writes)
    # ------------------------------------------------------------------ #
    async def result(self, query_id: int) -> TopKResult:
        """The query's top-k after every in-flight batch is applied."""
        await self.drain()
        return self.service.result(query_id)

    async def results(self) -> Dict[int, TopKResult]:
        """All queries' top-k after every in-flight batch is applied."""
        await self.drain()
        return self.service.results()

    async def snapshot(self) -> Dict[str, Any]:
        """Checkpoint the whole service after draining the lane.

        The snapshot is bit-identical to one taken by the synchronous
        façade at the same stream position.
        """
        await self.drain()
        return self.service.snapshot()

    async def checkpoint(self) -> Any:
        """Checkpoint the durable service after draining the lane.

        Requires a service built with
        :meth:`~repro.service.MonitoringService.open`; see its
        ``checkpoint()`` for the synchronous semantics.
        """
        await self.drain()
        return self.service.checkpoint()

    @property
    def durability(self):
        """The wrapped service's :class:`~repro.durability.DurabilityLog`."""
        return self.service.durability

    @classmethod
    async def restore(
        cls,
        snapshot: Dict[str, Any],
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        batch_size: int = DEFAULT_ASYNC_BATCH_SIZE,
        **restore_kwargs: Any,
    ) -> "AsyncMonitoringService":
        """Rebuild a service from a snapshot and start its lane."""
        service = MonitoringService.restore(snapshot, **restore_kwargs)
        wrapper = cls(service, queue_depth=queue_depth, batch_size=batch_size)
        return await wrapper.start()

    # ------------------------------------------------------------------ #
    # passthroughs
    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> MonitoringEngine:
        return self.service.engine

    @property
    def counters(self):
        """The engine's operation counters (cluster-aggregated if sharded)."""
        return self.service.counters

    @property
    def clock(self) -> float:
        return self.service.clock

    @property
    def stats(self) -> LaneStats:
        """The running lane's :class:`~repro.service.lane.LaneStats`."""
        return self._check_started().stats

    def query_ids(self) -> List[int]:
        return self.service.query_ids()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "started" if self._lane is not None else "stopped"
        return f"{type(self).__name__}({self.service!r}, {state})"
