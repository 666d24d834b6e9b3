"""Result-change subscriptions (alerting).

The paper's motivating applications -- e-mail threat monitoring, news
tracking, portfolio alerts -- all *react* to changes in a query's result:
the security analyst wants to be told when a new e-mail enters a threat
profile's top-k, not to poll it.  :meth:`MonitoringEngine.process` already
returns the :class:`~repro.core.base.ResultChange` objects for the queries
whose top-k changed; this module layers a small, dependency-free
publish/subscribe API on top so applications can register callbacks instead
of threading the change lists through their own code.

:class:`AlertDispatcher` wraps any engine, forwards every stream event to
it, and invokes the registered subscribers for the queries that changed.
Subscribers may be global (notified of every query's change) or scoped to a
single query id.

This is the *low-level* subscription layer.  Most applications should use
the :class:`~repro.service.service.MonitoringService` façade instead,
which owns an :class:`AlertDispatcher` internally and exposes the same
capability through ``subscribe(text, k, on_change=...)`` and
:class:`~repro.service.service.QueryHandle` objects.  The service never
calls the forwarding half (``process`` / ``process_many`` /
``advance_time``); it runs the engine itself and calls ``dispatch_changes``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

from repro.core import base
from repro.core.base import MonitoringEngine, ResultChange
from repro.documents.document import StreamedDocument

__all__ = ["Alert", "AlertDispatcher", "AlertSubscriber"]


#: A subscriber callback: receives the change and the triggering document.
AlertSubscriber = Callable[["Alert"], None]


class Alert(NamedTuple):
    """One delivered alert: a result change plus its triggering event.

    ``document`` is the arriving document that caused the change; for
    changes caused purely by time-based expiry (via :meth:`advance_time`)
    there is no single triggering document and it is ``None``.
    """

    change: ResultChange
    document: Optional[StreamedDocument]

    @property
    def query_id(self) -> int:
        return self.change.query_id


def _without(callbacks: List[AlertSubscriber], callback: AlertSubscriber) -> List[AlertSubscriber]:
    """A copy of ``callbacks`` minus the first ``callback`` (the same list if absent)."""
    if callback not in callbacks:
        return callbacks
    copy = list(callbacks)
    copy.remove(callback)
    return copy


class AlertDispatcher:
    """Forwards stream events to an engine and fans out result-change alerts.

    The service façades run the engine themselves and call only
    :meth:`dispatch_changes`, the fan-out.

    Example
    -------
    >>> from repro import ITAEngine, ContinuousQuery, CountBasedWindow
    >>> engine = ITAEngine(CountBasedWindow(100))
    >>> engine.register_query(ContinuousQuery(0, {1: 1.0}, k=1))
    >>> dispatcher = AlertDispatcher(engine)
    >>> seen = []
    >>> _ = dispatcher.subscribe(seen.append)           # global subscriber
    >>> from repro.documents.document import Document, CompositionList, StreamedDocument
    >>> doc = StreamedDocument(Document(0, CompositionList({1: 0.9})), 0.0)
    >>> _ = dispatcher.process(doc)
    >>> len(seen)
    1
    """

    def __init__(self, engine: MonitoringEngine) -> None:
        if not engine.track_changes:
            raise ValueError(
                "AlertDispatcher requires an engine with track_changes=True"
            )
        self.engine = engine
        # Both subscriber lists are copy-on-write: subscribe / unsubscribe
        # rebind a new list and dispatch iterates the one it fetched, so a
        # callback that unsubscribes (itself or a neighbour) mid-delivery
        # cannot make the loop skip anyone.  A query id with no callback
        # left has no key.
        self._global_subscribers: List[AlertSubscriber] = []
        self._query_subscribers: Dict[int, List[AlertSubscriber]] = {}
        self._delivered = 0
        self._transform: Optional[
            Callable[[List[ResultChange]], List[ResultChange]]
        ] = None

    def set_transform(
        self,
        transform: Optional[Callable[[List[ResultChange]], List[ResultChange]]],
    ) -> None:
        """Install a per-event change rewriter applied before dispatch.

        The query-scale layer uses this seam to expand canonical
        (deduplicated) changes into one re-labelled change per subscriber;
        :meth:`dispatch_changes` returns the rewritten list so callers
        collect the subscriber-visible stream, not the engine's.
        """
        self._transform = transform

    # ------------------------------------------------------------------ #
    # subscription management
    # ------------------------------------------------------------------ #
    def subscribe(self, callback: AlertSubscriber, query_id: Optional[int] = None) -> Callable[[], None]:
        """Register ``callback``; return a function that unsubscribes it.

        With ``query_id=None`` the callback fires for every query's change;
        otherwise only for that query.
        """
        if query_id is None:
            self._global_subscribers = self._global_subscribers + [callback]

            def unsubscribe_global() -> None:
                self._global_subscribers = _without(self._global_subscribers, callback)

            return unsubscribe_global

        scoped = self._query_subscribers
        scoped[query_id] = scoped.get(query_id, []) + [callback]

        def unsubscribe_scoped() -> None:
            remaining = _without(scoped.get(query_id, []), callback)
            if remaining:
                scoped[query_id] = remaining
            else:
                scoped.pop(query_id, None)

        return unsubscribe_scoped

    @property
    def delivered(self) -> int:
        """Total number of alert callbacks invoked so far."""
        return self._delivered

    # ------------------------------------------------------------------ #
    # event forwarding
    # ------------------------------------------------------------------ #
    def process(self, document: StreamedDocument) -> List[ResultChange]:
        """Forward ``document`` to the engine and dispatch any alerts."""
        return self.process_many((document,))

    def process_many(self, documents: Iterable[StreamedDocument]) -> List[ResultChange]:
        """Forward a batch to the engine, then dispatch event by event.

        One :meth:`~repro.core.base.MonitoringEngine.process_batch_events`
        call applies the whole batch; the alerts follow in stream order,
        each carrying its triggering document.  Subscribers therefore run
        against the post-batch engine state.
        """
        batch = documents if isinstance(documents, (list, tuple)) else list(documents)
        all_changes: List[ResultChange] = []
        for document, changes in zip(batch, self.engine.process_batch_events(batch)):
            if changes:
                all_changes.extend(self.dispatch_changes(changes, document))
        return all_changes

    def advance_time(self, now: float) -> List[ResultChange]:
        """Advance the clock (time-based windows) and dispatch expiry alerts.

        Expirations are not triggered by a single document, so the alerts'
        ``document`` field is ``None``.
        """
        changes = self.engine.advance_time(now)
        return self.dispatch_changes(changes, None)

    # ------------------------------------------------------------------ #
    def dispatch_changes(
        self, changes: List[ResultChange], document: Optional[StreamedDocument]
    ) -> List[ResultChange]:
        """Deliver one event's ``changes``; returns the dispatched list.

        This is the notification half of :meth:`process`, split out for
        callers that run the engine themselves -- both service façades
        (``MonitoringService._deliver`` and ``_advance_deliver``; the
        asynchronous one runs the engine on its lane and dispatches here,
        in stream order, from the event loop).
        ``document`` is the triggering arrival (``None`` for pure-expiry
        changes), exactly as in :meth:`process`/:meth:`advance_time`.
        The installed :meth:`set_transform` rewriter (if any) is applied
        first; the *rewritten* changes are what subscribers see and what
        this returns.
        """
        if self._transform is not None and changes:
            changes = self._transform(changes)
        everyone = self._global_subscribers
        scoped_get = self._query_subscribers.get
        new_value = base.new_value
        delivered = 0
        try:
            for change in changes:
                alert = new_value(Alert, (change, document))
                if everyone:
                    for callback in everyone:
                        callback(alert)
                        delivered += 1
                callbacks = scoped_get(change.query_id)
                if callbacks is not None:
                    for callback in callbacks:
                        callback(alert)
                        delivered += 1
        finally:
            # also when a callback raises: the ones that returned count
            self._delivered += delivered
        return changes
