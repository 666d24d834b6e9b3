"""The network serving tier: :class:`MonitoringServer`.

A thin TCP front over a :class:`~repro.service.MonitoringService`.  Every
client connection speaks the framed RPC protocol of
:mod:`repro.net.protocol`; one handler thread per connection, with a
single lock serialising all service access -- the engine behind the
facade (a plain ITA engine or a whole :class:`~repro.net.cluster.
ProcessClusterEngine`) is driven exactly like an in-process caller would,
so results and change streams stay bit-identical to local use.

Alert delivery is poll-based: ``subscribe`` attaches a server-side
:class:`~repro.service.service.QueryHandle` whose buffered alerts a
remote client drains with the ``changes`` RPC (see
:class:`~repro.net.client.RemoteQueryHandle`).  Remote handles default to
a bounded buffer so an abandoned subscription cannot grow server memory
forever.

Shutdown is graceful by design (the ``repro serve`` CLI wires SIGTERM and
SIGINT to :meth:`MonitoringServer.shutdown`): the listener stops
accepting, every in-flight request runs to completion, handler threads
are joined, and then the service is closed -- flushing its write-ahead
log, writing a final checkpoint when durability is attached, and shutting
down worker processes -- before ``serve_forever`` returns.
"""

from __future__ import annotations

import os
import select
import socket
import threading
from typing import Any, Dict, List, Optional

from repro.exceptions import ConfigurationError, NetworkError, RpcTransportError
from repro.net.codec import (
    alert_to_wire,
    changes_to_wire,
    entries_to_wire,
)
from repro.net.protocol import error_payload, recv_frame, send_frame
from repro.observability import runtime as obs
from repro.persistence import _document_from_record, _query_from_record

__all__ = ["MonitoringServer", "DEFAULT_REMOTE_MAX_PENDING"]

#: change-buffer bound of server-side handles attached for remote
#: subscribers that do not choose one themselves -- a remote client that
#: stops polling must not grow server memory forever
DEFAULT_REMOTE_MAX_PENDING = 4_096

#: how often an idle connection handler wakes to check the stop flag
_POLL_SECONDS = 0.5

#: how long shutdown waits for each in-flight handler thread
_DRAIN_SECONDS = 10.0


class MonitoringServer:
    """Serve a :class:`~repro.service.MonitoringService` over TCP.

    Parameters
    ----------
    service:
        The service to expose.  The server *owns* it from here on:
        :meth:`serve_forever` closes it on the way out (flushing
        durability and stopping worker processes).
    host, port:
        The listen address; ``port=0`` picks an ephemeral port (read the
        bound one back from :attr:`address`).
    max_pending:
        Change-buffer bound applied to every remote subscription that
        does not pass its own (default
        :data:`DEFAULT_REMOTE_MAX_PENDING`).
    """

    def __init__(
        self,
        service: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = DEFAULT_REMOTE_MAX_PENDING,
    ) -> None:
        if max_pending <= 0:
            raise ConfigurationError("max_pending must be positive")
        self.service = service
        self._max_pending = int(max_pending)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, int(port)))
        self._listener.listen(64)
        self._listener.settimeout(_POLL_SECONDS)
        self.address = self._listener.getsockname()[:2]

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Request a graceful stop (safe to call from a signal handler).

        :meth:`serve_forever` then stops accepting, drains the in-flight
        requests, closes the service (WAL flush + final checkpoint when
        durable, worker shutdown for process clusters) and returns.
        """
        self._stop.set()

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`shutdown` is called."""
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    self._reap_threads()
                    continue
                except OSError:
                    break
                if obs.active:
                    obs.metrics.counter(
                        "repro_server_connections_total", "client connections accepted"
                    ).inc()
                thread = threading.Thread(
                    target=self._serve_client,
                    args=(conn,),
                    name="repro-serve-client",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        finally:
            self._drain()

    def _reap_threads(self) -> None:
        self._threads = [thread for thread in self._threads if thread.is_alive()]

    def _drain(self) -> None:
        """Stop accepting, finish in-flight work, close the service."""
        self._stop.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        for thread in self._threads:
            thread.join(timeout=_DRAIN_SECONDS)
        self._threads = []
        # The service close is the durability flush: the WAL is synced,
        # a final checkpoint is written when a durability log is
        # attached, and a process cluster's workers exit.
        durability = getattr(self.service, "durability", None)
        if durability is not None and not self.service.closed:
            self.service.checkpoint()
        self.service.close()

    # ------------------------------------------------------------------ #
    # per-connection loop
    # ------------------------------------------------------------------ #
    def _serve_client(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(None)
            while not self._stop.is_set():
                readable, _, _ = select.select([conn], [], [], _POLL_SECONDS)
                if not readable:
                    continue
                try:
                    request = recv_frame(conn)
                except RpcTransportError:
                    break
                if request is None:  # clean EOF: client hung up
                    break
                response = self._respond(request)
                try:
                    send_frame(conn, response)
                except RpcTransportError:
                    break
                if request.get("method") == "shutdown":
                    self._stop.set()
                    break
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def _respond(self, request: Dict[str, Any]) -> Dict[str, Any]:
        request_id = request.get("id")
        method = str(request.get("method", ""))
        params = request.get("params") or {}
        if obs.active:
            obs.counter_child(
                "repro_server_requests_total", "RPC requests served", "method", method
            ).inc()
        try:
            if isinstance(request.get("attachment"), bytes):
                raise NetworkError("the serving tier takes JSON requests, not binary attachments")
            with self._lock:
                result = self._dispatch(method, params)
        except Exception as error:  # noqa: BLE001 - every error crosses the wire typed
            return {"id": request_id, "ok": False, "error": error_payload(error)}
        return {"id": request_id, "ok": True, "result": result}

    # ------------------------------------------------------------------ #
    # RPC methods (called under the lock)
    # ------------------------------------------------------------------ #
    def _dispatch(self, method: str, params: Dict[str, Any]) -> Any:
        handler = getattr(self, f"_rpc_{method}", None)
        if handler is None or not method or method.startswith("_"):
            raise NetworkError(f"unknown server method {method!r}")
        return handler(params)

    def _rpc_ping(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "engine": self.service.engine.name,
            "clock": self.service.clock,
            "query_ids": self.service.query_ids(),
        }

    def _rpc_subscribe(self, params: Dict[str, Any]) -> Dict[str, Any]:
        max_pending = params.get("max_pending")
        # passed as sent: subscribe() refuses anything but an int >= 0
        # before the query is registered or logged
        bound = self._max_pending if max_pending is None else max_pending
        record = params.get("record")
        if record is not None:
            query: Any = _query_from_record(record)
        else:
            query = str(params["text"])
        handle = self.service.subscribe(
            query,
            k=int(params.get("k", 10)),
            query_id=(
                int(params["query_id"]) if params.get("query_id") is not None else None
            ),
            max_pending=bound,
        )
        return {"query_id": handle.query_id}

    def _rpc_unsubscribe(self, params: Dict[str, Any]) -> bool:
        self.service.unsubscribe(int(params["query_id"]))
        return True

    def _rpc_ingest(self, params: Dict[str, Any]) -> Dict[str, Any]:
        at = params.get("at")
        documents = params.get("documents")
        if documents is not None:
            source: Any = [_document_from_record(record) for record in documents]
            changes = self.service.ingest(source)
        else:
            texts = [str(text) for text in params.get("texts", ())]
            if len(texts) == 1:
                changes = self.service.ingest(
                    texts[0], at=float(at) if at is not None else None
                )
            else:
                if at is not None:
                    raise ConfigurationError(
                        "an explicit timestamp only applies to a single text"
                    )
                changes = self.service.ingest(texts)
        return {"changes": changes_to_wire(changes), "clock": self.service.clock}

    def _rpc_changes(self, params: Dict[str, Any]) -> Dict[str, Any]:
        handle = self.service.handle(int(params["query_id"]))
        alerts = [alert_to_wire(alert) for alert in handle.changes()]
        return {"alerts": alerts, "active": handle.active}

    def _rpc_pending(self, params: Dict[str, Any]) -> int:
        return self.service.handle(int(params["query_id"])).pending_changes

    def _rpc_result(self, params: Dict[str, Any]) -> List[List[Any]]:
        return entries_to_wire(self.service.result(int(params["query_id"])))

    def _rpc_results(self, params: Dict[str, Any]) -> Dict[str, List[List[Any]]]:
        return {
            str(query_id): entries_to_wire(entries)
            for query_id, entries in self.service.results().items()
        }

    def _rpc_advance_time(self, params: Dict[str, Any]) -> Dict[str, Any]:
        changes = self.service.advance_time(float(params["now"]))
        return {"changes": changes_to_wire(changes), "clock": self.service.clock}

    def _rpc_snapshot(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return self.service.snapshot()

    def _rpc_metrics(self, params: Dict[str, Any]) -> Any:
        if params.get("format") == "prometheus":
            return self.service.metrics_prometheus()
        return self.service.metrics()

    def _rpc_stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Server/engine introspection (worker pids, restart counts, ...)."""
        stats: Dict[str, Any] = {
            "pid": os.getpid(),
            "engine": self.service.engine.name,
            "clock": self.service.clock,
            "window_size": len(self.service.window),
            "query_ids": self.service.query_ids(),
            "counters": self.service.counters.as_dict(),
        }
        worker_pids = getattr(self.service.engine, "worker_pids", None)
        if worker_pids is not None:
            stats["worker_pids"] = worker_pids()
            stats["worker_restarts"] = self.service.engine.restart_counts()
        return stats

    def _rpc_shutdown(self, params: Dict[str, Any]) -> bool:
        """Acknowledge, then stop (the connection loop sets the flag)."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        host, port = self.address
        state = "stopping" if self._stop.is_set() else "serving"
        return f"{type(self).__name__}({host}:{port}, {state})"
