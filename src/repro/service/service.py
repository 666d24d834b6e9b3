"""The :class:`MonitoringService` façade and :class:`QueryHandle`.

The paper's system is a *server* applications talk to: register a standing
query, stream documents at it, get told when the query's top-k changes.
The low-level library exposes that as separate parts -- analyzer,
vocabulary, window, engine, alert dispatcher, persistence -- that callers
hand-wire.  :class:`MonitoringService` owns that wiring:

>>> from repro.service import MonitoringService
>>> with MonitoringService() as service:
...     handle = service.subscribe("market news", k=2)
...     _ = service.ingest("breaking news about markets")
...     [entry.doc_id for entry in handle.result()]
[0]

* ``subscribe()`` accepts a raw query string (or a prebuilt
  :class:`~repro.query.query.ContinuousQuery`), auto-allocates the query
  id, and returns a :class:`QueryHandle` with ``result()``, ``changes()``
  and ``unsubscribe()``.
* ``ingest()`` accepts raw text, :class:`~repro.documents.document.Document`
  objects, :class:`~repro.documents.document.StreamedDocument` objects, or
  any iterable of those (including a
  :class:`~repro.documents.stream.DocumentStream`), and feeds the sliding
  window.
* ``snapshot()``/``restore()`` checkpoint the whole service -- routing to
  the single-engine or cluster persistence automatically and additionally
  preserving the vocabulary, so queries subscribed *after* a restore still
  agree with the indexed documents on term ids.

The engine behind the façade is described by an
:class:`~repro.service.spec.EngineSpec` (or a prebuilt engine for advanced
wiring), so one :class:`MonitoringService` call-site scales from a single
ITA engine to a sharded cluster by changing the spec only.
"""

from __future__ import annotations

import time
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
)

from repro.alerting import Alert, AlertDispatcher, AlertSubscriber
from repro.core.base import MonitoringEngine, ResultChange, TopKResult
from repro.documents.corpus import build_document
from repro.documents.document import Document, StreamedDocument
from repro.exceptions import (
    ConfigurationError,
    ServiceError,
    UnknownQueryError,
    WindowError,
)
from repro.observability import runtime as obs
from repro.observability.opcounters import counters_collector
from repro.observability.slowlog import note_slow
from repro.observability.trace import trace_span
from repro.persistence import _flat_snapshot, check_int64_ids, restore_into, snapshot_engine
from repro.query.query import ContinuousQuery
from repro.queryscale.manager import QueryScaleManager
from repro.service.spec import EngineSpec, spec_from_name
from repro.text.analyzer import Analyzer
from repro.text.vocabulary import Vocabulary
from repro.weighting.schemes import CosineWeighting, WeightingScheme

__all__ = ["MonitoringService", "QueryHandle"]

SERVICE_SNAPSHOT_VERSION = 1


def _implied_spec(snapshot: Dict[str, Any]) -> EngineSpec:
    """The spec a bare engine snapshot implies: ITA with the recorded
    configuration (``ITAEngine``'s own ``"bisect"`` storage when the
    snapshot predates that key), sharded when it records a shard count."""
    spec = EngineSpec.from_dict(
        {"storage": "bisect", **snapshot.get("config", {}), "window": snapshot["window"]}
    )
    num_shards = snapshot.get("num_shards")
    if num_shards is None:
        return spec
    return spec.with_overrides(kind="sharded", num_shards=int(num_shards), inner=spec)


#: anything ``ingest`` accepts as a single stream element
Ingestible = Union[str, Document, StreamedDocument]


def _check_max_pending(max_pending: Optional[int]) -> None:
    """Reject a change-buffer bound before anything is registered or logged."""
    if max_pending is not None and (type(max_pending) is not int or max_pending < 0):
        raise ConfigurationError(f"max_pending must be None or an int >= 0, not {max_pending!r}")


class QueryHandle:
    """A live subscription to one continuous query.

    Handles are created by :meth:`MonitoringService.subscribe` (or
    re-attached to an already-installed query with
    :meth:`MonitoringService.handle`).  A handle keeps a change buffer,
    drained with :meth:`changes`, only where a consumer asked for one:

    * a poll handle (no ``on_change``) buffers every change, unbounded
      unless ``max_pending`` bounds it;
    * a callback handle buffers nothing unless ``max_pending`` is given:
      the dispatcher calls its callback directly, and an alert outlives
      the ``ingest()`` call that built it only if the callback keeps it;
    * ``max_pending=N`` keeps the newest ``N`` undrained changes (the
      oldest is dropped first), and ``max_pending=0`` keeps none.
    """

    def __init__(
        self,
        service: "MonitoringService",
        query: ContinuousQuery,
        on_change: Optional[Callable[[Alert], None]] = None,
        max_pending: Optional[int] = None,
    ) -> None:
        self._service = service
        self._query = query
        self._on_change = on_change
        if max_pending is None and on_change is not None:
            max_pending = 0
        #: ``None`` when the handle keeps no buffer
        self._pending: Optional[Deque[Alert]] = deque(maxlen=max_pending) if max_pending != 0 else None
        self._active = True

    # ------------------------------------------------------------------ #
    @property
    def query_id(self) -> int:
        return self._query.query_id

    @property
    def query(self) -> ContinuousQuery:
        return self._query

    @property
    def active(self) -> bool:
        """Whether the subscription is still installed."""
        return self._active

    # ------------------------------------------------------------------ #
    def result(self) -> TopKResult:
        """The query's current top-k result.

        Returns
        -------
        list of :class:`~repro.query.result.ResultEntry`
            The reported top-k documents, best first (descending score,
            ties broken towards the older document).

        Raises
        ------
        UnknownQueryError
            If the handle has been unsubscribed.
        """
        if not self._active:
            raise UnknownQueryError(
                f"query id {self.query_id} is no longer subscribed"
            )
        return self._service.result(self.query_id)

    def changes(self) -> Iterator[Alert]:
        """Drain and yield the buffered result changes, oldest first.

        Returns
        -------
        iterator of :class:`~repro.alerting.Alert`
            The buffered changes; each yielded alert is removed from the
            buffer.  The iterator is non-blocking: it stops when the
            buffer is empty and can be called again after further
            ``ingest()`` calls.  A handle without a buffer yields nothing.
        """
        while self._pending:
            yield self._pending.popleft()

    @property
    def pending_changes(self) -> int:
        """Number of buffered, not-yet-drained changes (0 without a buffer)."""
        return len(self._pending) if self._pending is not None else 0

    def unsubscribe(self) -> None:
        """Terminate the query and detach the handle.

        Idempotent: unsubscribing an already-detached handle is a no-op.
        After the call :meth:`result` raises
        :class:`~repro.exceptions.UnknownQueryError`; already-buffered
        changes remain drainable via :meth:`changes`.
        """
        if self._active:
            self._service._unsubscribe(self)

    # ------------------------------------------------------------------ #
    def _deliver(self, alert: Alert) -> None:
        """Buffer ``alert`` and call the callback: buffered handles only."""
        self._pending.append(alert)
        if self._on_change is not None:
            self._on_change(alert)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self._active else "unsubscribed"
        return f"{type(self).__name__}(query_id={self.query_id}, {state})"


class MonitoringService:
    """High-level façade over a monitoring engine.

    Parameters
    ----------
    engine:
        What to run behind the façade: an
        :class:`~repro.service.spec.EngineSpec` (recommended), a legacy
        engine name ("ita", "sharded-ita-4", ...; the figure harness's
        names, which mean the paper-faithful ``"bisect"`` storage unless
        they say ``-columnar``), a prebuilt
        :class:`~repro.core.base.MonitoringEngine` (advanced wiring), or
        ``None`` for the default ITA engine (``"columnar"`` storage) over
        a count-based window of 1,000 documents.  The engine must track
        result changes
        (``track_changes=True``) -- change notification is the point of
        the façade.
    analyzer, vocabulary, weighting:
        The text pipeline shared by ingested documents and subscribed
        queries.  Defaults: a fresh :class:`~repro.text.analyzer.Analyzer`,
        a fresh :class:`~repro.text.vocabulary.Vocabulary`, and cosine
        weighting (the paper's Formula (1)).
    start_time, interarrival:
        The service's virtual clock: documents ingested without an
        explicit timestamp are stamped ``interarrival`` seconds apart
        starting ``interarrival`` after ``start_time``.

    The service is a context manager; leaving the ``with`` block closes
    it, after which ``ingest``/``subscribe`` raise
    :class:`~repro.exceptions.ServiceError` (results -- including through
    existing handles -- remain readable).
    """

    def __init__(
        self,
        engine: Union[EngineSpec, MonitoringEngine, str, None] = None,
        analyzer: Optional[Analyzer] = None,
        vocabulary: Optional[Vocabulary] = None,
        weighting: Optional[WeightingScheme] = None,
        start_time: float = 0.0,
        interarrival: float = 1.0,
    ) -> None:
        if interarrival <= 0:
            raise ConfigurationError("interarrival must be positive")
        self.spec: Optional[EngineSpec] = None
        if engine is None:
            engine = EngineSpec()
        if isinstance(engine, str):
            engine = spec_from_name(engine)
        if isinstance(engine, EngineSpec):
            self.spec = engine
            engine = engine.build()
        if not getattr(engine, "track_changes", False):
            raise ConfigurationError(
                "MonitoringService needs an engine with track_changes=True; "
                "build it from an EngineSpec (the default) or pass one "
                "constructed with change tracking enabled"
            )
        self.engine: MonitoringEngine = engine
        self.dispatcher = AlertDispatcher(engine)
        self.analyzer = analyzer if analyzer is not None else Analyzer()
        self.vocabulary = vocabulary if vocabulary is not None else Vocabulary()
        self.weighting = weighting if weighting is not None else CosineWeighting()
        self._interarrival = float(interarrival)
        self._clock = float(start_time)
        self._next_doc_id = 0
        # Wrapping an engine that already holds state (e.g. one restored
        # from a snapshot): continue its clock and id sequence.
        newest = engine.window.newest
        if newest is not None:
            self._clock = max(self._clock, newest.arrival_time)
        for streamed in engine.window:
            self._next_doc_id = max(self._next_doc_id, streamed.doc_id + 1)
        self._handles: Dict[int, QueryHandle] = {}
        self._handle_unsubscribers: Dict[int, Callable[[], None]] = {}
        #: attached by MonitoringService.open() / crash recovery; when set,
        #: every state-changing operation is written to the WAL first
        self._durability: Optional["Any"] = None
        self._closed = False
        # Metrics: the engine's operation counters join the registry as a
        # scrape-time collector (zero ingest-path cost).  The registry is
        # swapped on every runtime.enable(), so registration is lazy and
        # re-checked against the current registry (see _ensure_collector).
        self._collector_registry: Optional[Any] = None
        self._collector_unregister: Optional[Callable[[], None]] = None
        #: the query-scale layer (dedup/compaction); built when
        #: the spec carries a QueryScaleOptions block with dedup enabled
        self._queryscale: Optional[QueryScaleManager] = None
        self._setup_queryscale()

    def _setup_queryscale(self) -> None:
        """Build the query-scale layer when the spec asks for it.

        With the layer active the engine only ever sees *canonical*
        queries; subscriber-visible ids, results and change streams are
        produced by the manager's fan-out, and the alert dispatcher's
        transform hook re-labels every canonical change per subscriber
        before delivery.
        """
        spec = self.spec
        options = spec.queryscale if spec is not None else None
        if options is None or not options.dedup:
            return
        self._queryscale = QueryScaleManager(self.engine, options)
        self.dispatcher.set_transform(self._queryscale.expand_changes)

    @property
    def queryscale(self) -> Optional[QueryScaleManager]:
        """The active :class:`~repro.queryscale.QueryScaleManager` (or None)."""
        return self._queryscale

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def _ensure_collector(self) -> None:
        """Register the service's collectors on the active registry."""
        registry = obs.metrics
        if self._collector_registry is registry:
            return
        if self._collector_unregister is not None:
            self._collector_unregister()
        unregisters = [
            registry.register_collector(
                counters_collector(lambda: [self.engine.counters.copy()])
            ),
            registry.register_collector(self._text_samples),
        ]
        if hasattr(self.engine, "index"):
            unregisters.append(registry.register_collector(self._index_samples))
        if self._queryscale is not None:
            unregisters.append(
                registry.register_collector(self._queryscale.metrics_samples)
            )

        def unregister_all() -> None:
            for unregister in unregisters:
                unregister()

        self._collector_unregister = unregister_all
        self._collector_registry = registry

    def _text_samples(self) -> Dict[Any, float]:
        """Scrape-time samples of the analyzer's surface-form table."""
        stats = self.analyzer.surface_table_stats()
        return {
            "repro_text_surface_forms": float(stats["entries"]),
            "repro_text_tokens_total": float(stats["tokens"]),
            "repro_text_surface_misses_total": float(stats["misses"]),
        }

    def _index_samples(self) -> Dict[Any, float]:
        """Scrape-time sizes of the index's watched and cold term sets."""
        stats = self.engine.index.watch_stats()
        return {
            "repro_index_watched_terms": float(stats["watched"]),
            "repro_index_cold_terms": float(stats["cold"]),
        }

    def metrics(self) -> Dict[str, Any]:
        """A JSON snapshot of the process-wide metrics registry.

        Includes this service's engine operation counters (exposed as
        ``repro_engine_ops_total{op=...}``) next to every family recorded
        while observability was enabled -- see
        :func:`repro.observability.runtime.enable` and
        ``docs/OBSERVABILITY.md`` for the catalog.

        Returns
        -------
        dict
            ``{"families": {...}, "collected": {...}}``, JSON-compatible.
        """
        self._ensure_collector()
        return obs.metrics.snapshot()

    def metrics_prometheus(self) -> str:
        """The metrics registry in the Prometheus text exposition format."""
        self._ensure_collector()
        return obs.metrics.to_prometheus()

    def slow_ops(self) -> List[Dict[str, Any]]:
        """The slow-operation log entries, oldest first (JSON-compatible)."""
        return obs.slowlog.as_dicts()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls,
        path: Union[str, "Any"],
        engine: Union[EngineSpec, MonitoringEngine, str, None] = None,
        durability: Optional["Any"] = None,
        analyzer: Optional[Analyzer] = None,
        weighting: Optional[WeightingScheme] = None,
        start_time: float = 0.0,
        interarrival: float = 1.0,
    ) -> "MonitoringService":
        """A *durable* service persisted under the directory ``path``.

        If ``path`` holds durable state (a manifest written by a previous
        ``open``), the service is **recovered**: the last checkpoint is
        restored and the write-ahead-log tail is replayed through the
        normal event path, so on tie-free workloads the recovered state is
        bit-identical to the uninterrupted run (``engine`` is then ignored
        -- the persisted spec wins -- and the replay statistics are
        available as ``service.last_recovery``).  Otherwise a fresh
        service is built exactly like the constructor would, the
        durability directory is initialised, and an initial checkpoint is
        taken.

        Either way the returned service logs every state-changing call
        (``subscribe`` / ``unsubscribe`` / ``ingest`` / ``advance_time``)
        to the WAL before acknowledging it, and checkpoints automatically
        every ``durability.checkpoint_every`` records.

        Parameters
        ----------
        path:
            The durability directory (created if missing).
        engine:
            As for the constructor; only consulted when creating fresh.
            An :class:`~repro.service.spec.EngineSpec` carrying a
            ``durability`` policy supplies the policy implicitly.
        durability:
            A :class:`~repro.durability.DurabilityPolicy` overriding the
            spec's (fresh) or the manifest's (recovery) policy.

        Returns
        -------
        MonitoringService
            The durable (fresh or recovered) service.

        Raises
        ------
        DurabilityError
            If ``path`` holds unrecoverable or malformed durable state.
        """
        # Imported lazily: repro.durability.log imports the cluster, whose
        # cost-model placement imports repro.workloads (circular with the
        # spec module this module imports).
        from repro.durability.log import MANIFEST_NAME, DurabilityLog
        from repro.durability.recovery import recover_service
        from pathlib import Path

        path = Path(path)
        if (path / MANIFEST_NAME).is_file():
            service, report = recover_service(
                path,
                analyzer=analyzer,
                weighting=weighting,
                interarrival=interarrival,
                policy=durability,
            )
            service.last_recovery = report
            return service

        if engine is None:
            engine = EngineSpec()
        if isinstance(engine, str):
            engine = spec_from_name(engine)
        if durability is None and isinstance(engine, EngineSpec):
            durability = engine.durability
        service = cls(
            engine,
            analyzer=analyzer,
            weighting=weighting,
            start_time=start_time,
            interarrival=interarrival,
        )
        service._durability = DurabilityLog.create(service, path, durability)
        return service

    #: the :class:`~repro.durability.RecoveryReport` of the recovery that
    #: produced this service, when it was opened over existing state
    last_recovery: Optional["Any"] = None

    @property
    def durability(self) -> Optional["Any"]:
        """The attached :class:`~repro.durability.DurabilityLog` (or None)."""
        return self._durability

    def checkpoint(self) -> "Any":
        """Checkpoint the durable service and truncate its WAL.

        Returns
        -------
        pathlib.Path
            The written checkpoint file.

        Raises
        ------
        ServiceError
            If the service is closed or has no durability attached.
        """
        self._check_open()
        if self._durability is None:
            raise ServiceError(
                "this service has no durability log; build it with "
                "MonitoringService.open(path) to enable checkpoints"
            )
        return self._durability.checkpoint()

    def __enter__(self) -> "MonitoringService":
        self._check_open()
        return self

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        self.close()

    def close(self) -> None:
        """Close the service: stop alert delivery and refuse new work.

        Idempotent.  For in-process engines the engine, its results, and
        the existing handles (``handle.result()``, draining
        ``handle.changes()``) stay readable; only the mutating entry
        points (``ingest``, ``subscribe``, ``advance_time``) are disabled,
        and no further alerts are dispatched.  An engine owning external
        resources (the worker processes of a
        :class:`~repro.net.cluster.ProcessClusterEngine`) is shut down
        too -- its workers must not outlive the service.
        """
        if self._closed:
            return
        self._closed = True
        for unsubscribe in self._handle_unsubscribers.values():
            unsubscribe()
        self._handle_unsubscribers.clear()
        if self._collector_unregister is not None:
            self._collector_unregister()
            self._collector_unregister = None
            self._collector_registry = None
        if self._durability is not None:
            self._durability.close()
        engine_close = getattr(self.engine, "close", None)
        if engine_close is not None:
            engine_close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("the monitoring service is closed")

    # ------------------------------------------------------------------ #
    # subscriptions
    # ------------------------------------------------------------------ #
    def subscribe(
        self,
        query: Union[str, ContinuousQuery],
        k: int = 10,
        on_change: Optional[Callable[[Alert], None]] = None,
        query_id: Optional[int] = None,
        max_pending: Optional[int] = None,
    ) -> QueryHandle:
        """Install a standing query and return its :class:`QueryHandle`.

        ``query`` is either a raw search string (analysed with the
        service's shared text pipeline, so it agrees with the ingested
        documents on term ids) or a prebuilt
        :class:`~repro.query.query.ContinuousQuery` (whose own ``k`` and
        id win).  The query id is auto-allocated unless given.
        ``on_change`` is invoked with an :class:`~repro.alerting.Alert`
        every time the query's reported top-k changes.  ``max_pending``
        asks for a change buffer of that bound (oldest dropped first;
        ``0`` for none).  Without it a callback handle keeps no buffer --
        the callback is the consumer -- and a pure-poll handle buffers
        every change until ``changes()`` drains it.

        Returns
        -------
        QueryHandle
            The live subscription: poll it with ``result()``, drain its
            buffered changes with ``changes()``, terminate it with
            ``unsubscribe()``.

        Raises
        ------
        ServiceError
            If the service has been closed.
        DuplicateQueryError
            If a query with the same id is already installed.
        ConfigurationError
            If the query is malformed (no terms, non-positive ``k``) or
            ``max_pending`` is neither ``None`` nor an ``int >= 0``; the
            latter before anything is registered or logged.
        """
        self._check_open()
        _check_max_pending(max_pending)
        started = time.perf_counter() if obs.active else 0.0
        if isinstance(query, ContinuousQuery):
            continuous = query
        else:
            if query_id is None:
                query_id = (
                    self._queryscale.allocate_subscriber_id()
                    if self._queryscale is not None
                    else self.engine.registry.allocate_id()
                )
            continuous = ContinuousQuery.from_text(
                query_id,
                query,
                k=k,
                analyzer=self.analyzer,
                vocabulary=self.vocabulary,
                weighting=self.weighting,
            )
        if self._queryscale is not None:
            # Dedup: the engine sees one canonical query per distinct
            # normalised (k, weights); this subscription only fans out.
            _, _, shard = self._queryscale.subscribe(continuous)
        else:
            self.engine.register_query(continuous)
            shard = self._shard_of(continuous.query_id)
        handle = self._attach(continuous, on_change, max_pending)
        if self._durability is not None:
            self._durability.log_subscribe(continuous, shard)
            self._durability.maybe_checkpoint()
        if obs.active:
            self._ensure_collector()
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            obs.metrics.counter(
                "repro_service_subscribe_total", "standing queries installed"
            ).inc()
            obs.metrics.histogram(
                "repro_service_subscribe_ms", "subscribe() latency"
            ).observe(elapsed_ms)
            note_slow("service.subscribe", elapsed_ms, query_id=handle.query_id)
        return handle

    def handle(
        self,
        query_id: int,
        on_change: Optional[Callable[[Alert], None]] = None,
        max_pending: Optional[int] = None,
    ) -> QueryHandle:
        """A handle for a query already installed at the engine.

        Used after :meth:`restore` (subscription callbacks are not part of
        a snapshot) or when wrapping a prebuilt engine that has queries
        registered through the low-level API.  If a handle already exists
        for ``query_id`` it is returned as-is; passing a *new*
        ``on_change``/``max_pending`` alongside it is rejected rather than
        silently dropped -- register extra observers with
        :meth:`on_change` or the existing handle instead.  A new handle
        buffers changes as :meth:`subscribe`'s do: a callback handle only
        with ``max_pending``, a poll handle unless ``max_pending=0``.

        Returns
        -------
        QueryHandle
            The existing handle of ``query_id``, or a newly attached one.

        Raises
        ------
        ServiceError
            If the service has been closed.
        UnknownQueryError
            If no query with ``query_id`` is installed at the engine.
        ConfigurationError
            If ``max_pending`` is neither ``None`` nor an ``int >= 0``, or
            a handle already exists and ``on_change``/``max_pending`` were
            passed alongside it.
        """
        self._check_open()
        _check_max_pending(max_pending)
        existing = self._handles.get(query_id)
        if existing is not None:
            if on_change is not None or max_pending is not None:
                raise ConfigurationError(
                    f"query {query_id} already has a handle; its callback and "
                    "buffer bound cannot be replaced (use service.on_change() "
                    "for additional observers)"
                )
            return existing
        if self._queryscale is not None:
            query = self._queryscale.subscriber_query(query_id)
        else:
            query = self.engine.registry.get(query_id)
        return self._attach(query, on_change, max_pending)

    def _attach(
        self,
        query: ContinuousQuery,
        on_change: Optional[Callable[[Alert], None]],
        max_pending: Optional[int] = None,
    ) -> QueryHandle:
        handle = QueryHandle(self, query, on_change, max_pending=max_pending)
        self._handles[query.query_id] = handle
        # Only a buffered handle is on the delivery path; without a buffer
        # the dispatcher calls the callback itself (or nothing at all).
        deliver = handle._deliver if handle._pending is not None else on_change
        if deliver is not None:
            self._handle_unsubscribers[query.query_id] = self.dispatcher.subscribe(
                deliver, query_id=query.query_id
            )
        return handle

    def _shard_of(self, query_id: int) -> Optional[int]:
        """The shard hosting ``query_id`` (None for single engines)."""
        assignment = getattr(self.engine, "assignment", None)
        if assignment is None:
            return None
        return assignment().get(query_id)

    def _log_unsubscribe(self, query_id: int) -> None:
        if self._durability is not None:
            self._durability.log_unsubscribe(query_id)
            self._durability.maybe_checkpoint()

    def _unsubscribe(self, handle: QueryHandle) -> None:
        handle._active = False
        unsubscribe = self._handle_unsubscribers.pop(handle.query_id, None)
        if unsubscribe is not None:
            unsubscribe()
        self._handles.pop(handle.query_id, None)
        if self._queryscale is not None:
            if handle.query_id in self._queryscale:
                self._queryscale.unsubscribe(handle.query_id)
                self._log_unsubscribe(handle.query_id)
        elif handle.query_id in self.engine.registry:
            self.engine.unregister_query(handle.query_id)
            self._log_unsubscribe(handle.query_id)
        if obs.active:
            obs.metrics.counter(
                "repro_service_unsubscribe_total", "standing queries removed"
            ).inc()

    def unsubscribe(self, query_id: int) -> None:
        """Terminate ``query_id`` whether or not a handle exists for it.

        Raises
        ------
        UnknownQueryError
            If no query with ``query_id`` is installed.
        """
        handle = self._handles.get(query_id)
        if handle is not None:
            handle.unsubscribe()
            return
        if self._queryscale is not None:
            self._queryscale.unsubscribe(query_id)
            self._log_unsubscribe(query_id)
            return
        self.engine.unregister_query(query_id)
        self._log_unsubscribe(query_id)

    def on_change(self, callback: AlertSubscriber) -> Callable[[], None]:
        """Register a global subscriber for every query's result changes.

        Returns
        -------
        callable
            A zero-argument function that unsubscribes the callback.

        Raises
        ------
        ServiceError
            If the service has been closed.
        """
        self._check_open()
        return self.dispatcher.subscribe(callback)

    def query_ids(self) -> List[int]:
        """The ids of every installed query, in installation order."""
        if self._queryscale is not None:
            return self._queryscale.subscriber_ids()
        return self.engine.query_ids()

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def ingest(
        self,
        source: Union[Ingestible, Iterable[Ingestible]],
        at: Optional[float] = None,
    ) -> List[ResultChange]:
        """Feed documents into the sliding window; return the result changes.

        ``source`` may be a single raw text string, a
        :class:`~repro.documents.document.Document`, a
        :class:`~repro.documents.document.StreamedDocument`, or any
        iterable of those (a list of headlines, a
        :class:`~repro.documents.stream.DocumentStream`...).  Raw texts
        and bare documents are stamped by the service clock (``at``
        overrides the timestamp of a single element and fast-forwards the
        clock); streamed documents keep their own arrival times.

        Every call takes the same path: the elements are analysed and
        stamped, the batch is appended to the WAL (durable services), the
        engine applies it with one
        :meth:`~repro.core.base.MonitoringEngine.process_batch_events`
        call, and then the changes are dispatched event by event, in
        stream order, each alert carrying its triggering document and each
        event's changes ordered by query id.  Two consequences of applying
        the batch before dispatching it:

        * a callback that polls :meth:`result` during a multi-document
          ``ingest`` sees the post-batch state (as under
          :class:`~repro.service.async_service.AsyncMonitoringService`);
        * a callback that raises propagates out of ``ingest`` *after* the
          whole batch was logged and applied -- the WAL and the engine
          never disagree -- and the alerts after it are not delivered.

        Returns
        -------
        list of :class:`~repro.core.base.ResultChange`
            The per-query result changes of every ingested event, in
            event order (empty when the engine does not track changes).

        Raises
        ------
        ServiceError
            If the service has been closed.
        ConfigurationError
            If ``at`` is combined with an iterable or a streamed document,
            if ``at`` is before the service clock, or if an element of an
            iterable ``source`` is not an ingestible type.
        DocumentError
            On a durable service, for an id outside ``int64`` (nothing is logged).
        """
        self._check_open()
        observed = obs.active
        started = time.perf_counter()
        delivered_before = self.dispatcher.delivered
        durability = self._durability
        with trace_span("service.ingest") as span:
            batch = list(self._as_stream(source, at))
            if durability is not None:
                # A batch the engine would reject must fail before it
                # reaches the WAL.
                self._check_durable_batch(batch)
            if durability is not None and batch:
                # Write-ahead: no acknowledged document is ever lost, and a
                # crash between the append and the apply is healed by replay.
                durability.log_ingest(batch)
            per_event = self.engine.process_batch_events(batch)
            lag = obs.histogram_child(
                "repro_service_alert_delivery_lag_ms",
                "document arrival to last alert callback return",
            ) if observed else None
            changes: List[ResultChange] = []
            dispatch = self.dispatcher.dispatch_changes
            for streamed, event_changes in zip(batch, per_event):
                if event_changes:
                    # dispatch_changes returns the transform-rewritten list
                    # (per-subscriber under dedup): the stream callers see.
                    changes.extend(dispatch(event_changes, streamed))
                    if lag is not None:
                        lag.observe((time.perf_counter() - started) * 1000.0)
            if durability is not None:
                durability.maybe_checkpoint()
            span.set(documents=len(batch), changes=len(changes))
        if observed:
            self._ensure_collector()
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            # cached children (as in the kernel): no look-up by family name per call
            obs.counter_child("repro_service_ingest_calls_total", "ingest() calls").inc()
            obs.counter_child(
                "repro_service_ingest_documents_total", "documents ingested"
            ).inc(len(batch))
            obs.histogram_child("repro_service_ingest_ms", "ingest() latency").observe(elapsed_ms)
            delivered = self.dispatcher.delivered - delivered_before
            if delivered:
                obs.counter_child(
                    "repro_service_alerts_delivered_total", "alert callbacks invoked"
                ).inc(delivered)
            note_slow("service.ingest", elapsed_ms, documents=len(batch))
        return changes

    def _check_durable_batch(self, batch: List[StreamedDocument]) -> None:
        """Pre-check the window's acceptance rule before a batch is logged.

        A batch the engine would reject (arrival time behind the observed
        clock) must fail *before* it reaches the WAL -- a record that
        raises on replay would make the log unrecoverable.  The floor is
        the window clock or, if higher, the log's own high-water mark:
        the async lane may hold logged batches the engine has not
        applied yet, and a new batch must respect those too.  Ids outside
        ``int64``, which the record cannot hold, fail here as well.
        """
        check_int64_ids(batch)
        floor = self.window.clock
        logged = self._durability.logged_clock
        if logged is not None and (floor is None or logged > floor):
            floor = logged
        for streamed in batch:
            if floor is not None and streamed.arrival_time < floor:
                raise WindowError(
                    f"arrival time went backwards: {streamed.arrival_time} < {floor}"
                )
            floor = streamed.arrival_time

    def serve(
        self,
        queue_depth: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> "Any":
        """The asynchronous serving mode of this service.

        Returns an
        :class:`~repro.service.async_service.AsyncMonitoringService`
        wrapping *this* service; enter it with ``async with`` (or await
        its ``start()``) to start the ingestion lane -- one worker thread
        that keeps the engine off the event loop, behind a bound of
        ``queue_depth`` in-flight batches.  Results, change streams and
        snapshots are bit-identical to synchronous ``ingest``.

        Returns
        -------
        AsyncMonitoringService
            The unstarted async façade over this service.

        Raises
        ------
        ServiceError
            If the service has been closed.
        """
        self._check_open()
        # Imported lazily: the async façade imports this module.
        from repro.service.async_service import (
            DEFAULT_ASYNC_BATCH_SIZE,
            AsyncMonitoringService,
        )
        from repro.service.lane import DEFAULT_QUEUE_DEPTH

        return AsyncMonitoringService(
            self,
            queue_depth=queue_depth if queue_depth is not None else DEFAULT_QUEUE_DEPTH,
            batch_size=batch_size if batch_size is not None else DEFAULT_ASYNC_BATCH_SIZE,
        )

    def advance_time(self, now: float) -> List[ResultChange]:
        """Advance the clock without an arrival (time-based windows).

        Expiry-driven changes are dispatched to subscribers with
        ``alert.document`` set to ``None``.

        Returns
        -------
        list of :class:`~repro.core.base.ResultChange`
            The per-query result changes caused by the expirations.

        Raises
        ------
        ServiceError
            If the service has been closed.
        WindowError
            If ``now`` is before the last observed arrival time.
        """
        self._check_open()
        started = time.perf_counter() if obs.active else 0.0
        self._clock = max(self._clock, float(now))
        changes = self.dispatcher.advance_time(now)
        if self._durability is not None:
            # Logged after the engine accepted it: a rejected advance
            # (time going backwards) must not poison the replay.
            self._durability.log_advance_time(float(now))
            self._durability.maybe_checkpoint()
        if obs.active:
            self._ensure_collector()
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            obs.metrics.histogram(
                "repro_service_advance_time_ms", "advance_time() latency"
            ).observe(elapsed_ms)
            note_slow("service.advance_time", elapsed_ms, changes=len(changes))
        return changes

    def _as_stream(
        self,
        source: Union[Ingestible, Iterable[Ingestible]],
        at: Optional[float],
    ) -> Iterator[StreamedDocument]:
        if isinstance(source, (str, Document, StreamedDocument)):
            yield self._as_streamed_document(source, at)
            return
        if at is not None:
            raise ConfigurationError(
                "an explicit timestamp only applies to a single document; "
                "stream elements carry their own arrival times"
            )
        for element in source:
            if not isinstance(element, (str, Document, StreamedDocument)):
                raise ConfigurationError(
                    f"cannot ingest element of type {type(element).__name__}"
                )
            yield self._as_streamed_document(element, None)

    def _as_streamed_document(
        self, element: Ingestible, at: Optional[float]
    ) -> StreamedDocument:
        if isinstance(element, StreamedDocument):
            if at is not None:
                raise ConfigurationError(
                    "streamed documents carry their own arrival times; "
                    "an explicit timestamp cannot override them"
                )
            self._clock = max(self._clock, element.arrival_time)
            self._next_doc_id = max(self._next_doc_id, element.doc_id + 1)
            return element
        if isinstance(element, str):
            document = self._analyse(element)
        else:
            document = element
            self._next_doc_id = max(self._next_doc_id, document.doc_id + 1)
        return StreamedDocument(document=document, arrival_time=self._next_time(at))

    def _analyse(self, text: str) -> Document:
        """Turn raw text into a document, exactly like the corpora do."""
        document = build_document(
            self._next_doc_id, self.weighting, text=text, analyzer=self.analyzer, vocabulary=self.vocabulary
        )
        self._next_doc_id += 1
        return document

    def _next_time(self, at: Optional[float]) -> float:
        if at is not None:
            if at < self._clock:
                raise ConfigurationError(
                    f"timestamp {at} is before the service clock {self._clock}"
                )
            self._clock = float(at)
        else:
            self._clock += self._interarrival
        return self._clock

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def result(self, query_id: int) -> TopKResult:
        """The current top-k result of ``query_id``.

        Returns
        -------
        list of :class:`~repro.query.result.ResultEntry`
            The reported top-k documents, best first.

        Raises
        ------
        UnknownQueryError
            If no query with ``query_id`` is installed.
        """
        if self._queryscale is not None:
            return self._queryscale.result_for(query_id)
        return self.engine.current_result(query_id)

    def results(self) -> Dict[int, TopKResult]:
        """The current results of every installed query.

        Returns
        -------
        dict
            ``{query_id: top-k result}`` for every installed query.
        """
        if self._queryscale is not None:
            return self._queryscale.results()
        return self.engine.current_results()

    @property
    def counters(self):
        """The engine's operation counters (cluster-aggregated if sharded)."""
        return self.engine.counters

    @property
    def window(self):
        """The engine's sliding window (the cluster mirror if sharded)."""
        return self.engine.window

    @property
    def clock(self) -> float:
        """The service's current virtual time."""
        return self._clock

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """Serialise the whole service to a JSON-compatible dictionary.

        Wraps the engine snapshot (one format for every kind; a cluster's
        queries carry their shards) in a
        service envelope carrying the vocabulary (term strings in id
        order), the virtual clock, the document-id sequence and the engine
        spec.  The envelope holds the service's *data*; configuration that
        is code (a custom analyzer config or weighting scheme) is not
        serialised -- pass the same ``analyzer``/``weighting`` to
        :meth:`restore` that this service was built with, or late
        subscriptions will analyse text differently than the snapshotted
        documents.

        Returns
        -------
        dict
            A JSON-compatible envelope (``kind == "service"``) wrapping
            the engine snapshot; feed it back to :meth:`restore`.
        """
        envelope = {
            "kind": "service",
            "version": SERVICE_SNAPSHOT_VERSION,
            "vocabulary": list(self.vocabulary),
            "clock": self._clock,
            "next_doc_id": self._next_doc_id,
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "engine": snapshot_engine(self.engine),
        }
        if self._queryscale is not None:
            # The engine snapshot holds the canonical queries; the manager
            # envelope adds the subscriber fan-out map.
            envelope["queryscale"] = self._queryscale.snapshot_state()
        return envelope

    @classmethod
    def restore(
        cls,
        snapshot: Dict[str, Any],
        analyzer: Optional[Analyzer] = None,
        vocabulary: Optional[Vocabulary] = None,
        weighting: Optional[WeightingScheme] = None,
        interarrival: float = 1.0,
    ) -> "MonitoringService":
        """Rebuild a service from a snapshot.

        Accepts a full service snapshot (from :meth:`snapshot`) or a bare
        engine snapshot (from :func:`repro.persistence.snapshot_engine`).
        Every kind restores one way: the engine is built from the
        envelope's spec -- or, without one, from the spec the snapshot
        implies (ITA with the recorded configuration, sharded when it
        records a shard count) -- and filled by
        :func:`repro.persistence.restore_into`.  Subscription callbacks
        are not part of a snapshot; re-attach them with :meth:`handle`.

        A service snapshot carries its own vocabulary (passing one is
        rejected).  When restoring a *bare* engine snapshot, pass the
        vocabulary the documents were analysed with -- a fresh one would
        re-assign term ids from zero, so text subscribed after the restore
        would silently match the wrong documents.

        Returns
        -------
        MonitoringService
            A fresh service whose engine, window contents, clock, id
            sequence and (for service snapshots) vocabulary match the
            snapshotted state.

        Raises
        ------
        ConfigurationError
            If the snapshot version is unsupported, a vocabulary is
            passed alongside a service snapshot, the snapshot's
            vocabulary repeats a term, a recorded query state is not one
            the query can be in over the restored window, or the
            snapshot payload is malformed.
        """
        spec: Optional[EngineSpec] = None
        clock: Optional[float] = None
        next_doc_id: Optional[int] = None
        queryscale_state: Optional[Dict[str, Any]] = None
        engine_snapshot = snapshot
        if snapshot.get("kind") == "service":
            version = snapshot.get("version")
            if version != SERVICE_SNAPSHOT_VERSION:
                raise ConfigurationError(
                    f"unsupported service snapshot version {version!r}"
                )
            if vocabulary is not None:
                raise ConfigurationError(
                    "service snapshots carry their own vocabulary; "
                    "do not pass one to restore()"
                )
            terms = snapshot.get("vocabulary", ())
            vocabulary = Vocabulary(terms)
            if len(vocabulary) != len(terms):
                # A repeated term would shift every later term's id off
                # the ids the documents and queries were analysed under.
                raise ConfigurationError("the snapshot's vocabulary repeats a term")
            clock = float(snapshot["clock"])
            next_doc_id = int(snapshot["next_doc_id"])
            if snapshot.get("spec") is not None:
                spec = EngineSpec.from_dict(snapshot["spec"])
            queryscale_state = snapshot.get("queryscale")
            engine_snapshot = snapshot["engine"]

        engine_snapshot = _flat_snapshot(engine_snapshot)
        engine = (spec or _implied_spec(engine_snapshot)).build()
        try:
            restore_into(engine_snapshot, engine)
        except Exception:
            # A failed replay must not leak the engine's resources (the
            # process cluster's workers).
            engine_close = getattr(engine, "close", None)
            if engine_close is not None:
                engine_close()
            raise

        service = cls(
            engine,
            analyzer=analyzer,
            vocabulary=vocabulary,
            weighting=weighting,
            interarrival=interarrival,
        )
        service.spec = spec
        if clock is not None:
            service._clock = max(service._clock, clock)
        if next_doc_id is not None:
            service._next_doc_id = max(service._next_doc_id, next_doc_id)
        # The constructor saw no spec (the engine came prebuilt), so the
        # query-scale layer is set up here, then refilled from its envelope.
        service._setup_queryscale()
        if queryscale_state is not None:
            if service._queryscale is None:
                raise ConfigurationError(
                    "the snapshot carries query-scale state but its spec has "
                    "no queryscale block; the subscriber fan-out cannot be "
                    "restored without one"
                )
            service._queryscale.restore_state(queryscale_state)
        return service

    # ------------------------------------------------------------------ #
    # WAL replay hooks (crash recovery)
    # ------------------------------------------------------------------ #
    def _replay_subscribe(self, query: ContinuousQuery, shard: Optional[int]) -> None:
        """Re-apply one ``subscribe`` WAL record (no handles, no logging).

        With the query-scale layer active the record's query id is a
        *subscriber* id and the recorded shard pins the canonical's
        placement; otherwise the query is registered on the engine
        directly, pinned to its recorded shard.
        """
        if self._queryscale is not None:
            self._queryscale.subscribe(query, shard=shard)
        elif shard is not None:
            self.engine.register_query(query, shard=int(shard))
        else:
            self.engine.register_query(query)

    def _replay_unsubscribe(self, query_id: int) -> None:
        """Re-apply one ``unsubscribe`` WAL record."""
        if self._queryscale is not None:
            self._queryscale.unsubscribe(query_id)
        else:
            self.engine.unregister_query(query_id)

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"{type(self).__name__}({self.engine.name!r}, "
            f"{len(self.engine.query_ids())} queries, {state})"
        )
