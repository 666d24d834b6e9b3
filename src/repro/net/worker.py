"""The worker process hosting one engine shard behind framed RPC.

A :class:`ShardWorker` owns one inner monitoring engine (built from the
shard's :class:`~repro.service.spec.EngineSpec`) and nothing else: it
writes no file and keeps no log.  The
:class:`~repro.net.cluster.ProcessClusterEngine` spawns one per shard via
:func:`worker_main`, and its :class:`~repro.net.remote.RemoteShard` stub
of the worker calls the engine's methods over RPC.  The coordinator is
the recovery state of every worker: its mirror window holds every valid
document, and it knows every query and each query's shard.
Batches arrive and change lists leave as binary columns
(:mod:`repro.net.codec`; no text, a worker never renders); an attachment
that does not decode is a typed error response and the worker serves on.

**Recovery.**  A worker is loaded with the ``restore`` RPC: a JSON
envelope of version, window and clock whose column attachment holds the
window's documents and then the worker's queries, each with its recorded
state when the coordinator has one (:func:`~repro.persistence.decode_seed`),
loaded by :func:`~repro.persistence.restore_into` into a fresh
``spec.build()`` -- the one loader every restore goes through.  A seed
that does not load is a typed error response, and the worker keeps the
engine it had.  A cluster restore seeds every
worker this way at once, and a replacement for a dead worker starts empty
and is seeded by its stub.  The stub seeds the state the
coordinator had acknowledged *before* the failed call and then re-sends
the call, which the new worker has never seen, so a retried mutation is
applied exactly once without any request de-duplication here.

**Graceful shutdown** (SIGTERM/SIGINT or coordinator EOF): the in-flight
request drains and the process exits 0.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import sys
import time
from typing import Any, Dict, List, Optional

from repro.exceptions import NetworkError, RpcTransportError
from repro.net.codec import decode_documents, encode_changes, entries_to_wire
from repro.net.protocol import error_payload, recv_frame, send_frame
from repro.observability import runtime as _obs
from repro.persistence import _query_from_record, restore_into

__all__ = ["ShardWorker", "worker_main"]

#: how often the serve loop wakes up to notice a stop signal (seconds)
_POLL_SECONDS = 0.5


def _registry_samples() -> List[List[Any]]:
    """Flatten the worker's metrics registry into wire-friendly samples.

    Each sample is ``[name, labels, value]``; histograms contribute their
    ``_count`` and ``_sum`` (the coordinator re-exposes them as collected
    gauges, which is what a scrape can meaningfully aggregate).
    """
    samples: List[List[Any]] = []
    if not _obs.active:
        return samples
    for family in _obs.metrics.families():
        for label_values, instrument in family.children():
            labels = dict(zip(family.label_names, label_values))
            if family.kind == "histogram":
                samples.append([family.name + "_count", labels, float(instrument.count)])
                samples.append([family.name + "_sum", labels, float(instrument.sum)])
            else:
                samples.append([family.name, labels, float(instrument.value)])
    for (name, labels), value in _obs.metrics._collected().items():
        samples.append([name, dict(labels), float(value)])
    return samples


class ShardWorker:
    """One engine shard and the RPC handlers in front of it.

    Parameters
    ----------
    shard_index:
        This worker's shard number (labels, error messages, diagnostics).
    spec:
        The *shard* spec (an inner engine kind such as ``"ita"``); the
        engine, and the one a ``restore`` replaces it with, are built
        with ``spec.build()``.
    """

    def __init__(self, shard_index: int, spec: Any) -> None:
        self.shard_index = int(shard_index)
        self.spec = spec
        self.engine = spec.build()
        self._stop = False

    def request_stop(self) -> None:
        """Ask the serve loop to drain and exit (signal-handler safe)."""
        self._stop = True

    def handle(self, method: str, params: Dict[str, Any], attachment: Optional[bytes] = None) -> Any:
        """Execute one RPC; returns its result payload (``bytes``: an attachment).

        An engine call is named after the engine method it runs and
        answers with that method's value in the wire codec.
        """
        engine = self.engine
        if method == "process_batch_events":
            return encode_changes(engine.process_batch_events(decode_documents(attachment or b"")))
        if method == "advance_time":
            return encode_changes([engine.advance_time(float(params["now"]))])
        if method == "register_query":
            engine.register_query(_query_from_record(params["query"]))
            return None
        if method == "install_query":
            engine.install_query(_query_from_record(params["query"]), params["state"])
            return None
        if method == "unregister_query":
            engine.unregister_query(int(params["query_id"]))
            return None
        if method == "restore":
            snapshot = params["snapshot"]
            if attachment is not None:
                snapshot = {**snapshot, "columns": attachment}
            self.engine = restore_into(snapshot, self.spec.build())
            return None
        if method == "ping":
            return {
                "pid": os.getpid(),
                "shard": self.shard_index,
                "window": len(engine.window),
                "query_ids": sorted(engine.query_ids()),
            }
        if method == "current_result":
            return entries_to_wire(engine.current_result(int(params["query_id"])))
        if method == "current_results":
            return {
                str(query_id): entries_to_wire(entries)
                for query_id, entries in engine.current_results().items()
            }
        if method == "query_states":
            return {str(query_id): state for query_id, state in engine.query_states().items()}
        if method == "counters":
            return engine.counters.as_dict()
        if method == "reset_counters":
            engine.counters.reset()
            return None
        if method == "check_invariants":
            validate = getattr(engine, "check_invariants", None)
            if validate is not None:
                validate()
            return None
        if method == "metrics":
            return {"active": _obs.active, "samples": _registry_samples()}
        if method == "observe":
            if params.get("enable"):
                if not _obs.active:
                    _obs.enable()
            else:
                _obs.disable()
            return {"active": _obs.active}
        if method == "shutdown":
            self.request_stop()
            return {}
        raise NetworkError(
            f"unknown RPC method {method!r} on shard {self.shard_index}"
        )

    def serve(self, sock: socket.socket) -> None:
        """Answer requests until stopped, EOF, or a broken transport.

        The loop polls with a short ``select`` timeout so a SIGTERM set
        via :meth:`request_stop` is noticed between requests; the request
        being handled when the signal lands always finishes and is acked
        first (the drain the graceful-shutdown contract promises).
        """
        sock.setblocking(True)
        while not self._stop:
            readable, _, _ = select.select([sock], [], [], _POLL_SECONDS)
            if not readable:
                continue
            request = recv_frame(sock)
            if request is None:
                break  # coordinator went away: drain and exit cleanly
            response: Dict[str, Any] = {"id": request.get("id")}
            try:
                result = self.handle(
                    str(request.get("method", "")), request.get("params") or {}, request.get("attachment")
                )
            except Exception as error:
                # Typed errors cross the wire; they must not cross the
                # process boundary (a failed op is not a failed worker).
                response["ok"] = False
                response["error"] = error_payload(error)
            else:
                response["ok"] = True
                response["attachment" if isinstance(result, bytes) else "result"] = result
            send_frame(sock, response, attachment=response.pop("attachment", None))


# --------------------------------------------------------------------------- #
# process entry point
# --------------------------------------------------------------------------- #
def _connect(config: Dict[str, Any]) -> socket.socket:
    """Dial the coordinator's per-worker listener (it is already bound)."""
    deadline = time.monotonic() + float(config.get("connect_timeout_ms", 15_000.0)) / 1000.0
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            if config["transport"] == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.connect(config["address"])
            else:
                host, port = config["address"]
                sock = socket.create_connection((host, int(port)))
            return sock
        except OSError as error:  # pragma: no cover - listener races are rare
            last_error = error
            time.sleep(0.01)
    raise RpcTransportError(
        f"shard {config.get('shard_index')} could not reach the coordinator: {last_error}"
    )


def worker_main(config: Dict[str, Any]) -> None:
    """Entry point of one worker process (the ``multiprocessing`` target).

    ``config`` is a plain picklable dictionary: ``transport``/``address``
    (where to dial the coordinator), ``spec`` (the shard's serialised
    :class:`~repro.service.spec.EngineSpec`), ``shard_index``,
    ``connect_timeout_ms`` and ``observe`` (enable the in-process metrics
    registry at birth).
    """
    # Imported here, not at module top: the spec module imports repro.net
    # for the options codec, and the worker must also be importable from a
    # spawn-fresh interpreter.
    from repro.service.spec import EngineSpec

    worker_box: List[Optional[ShardWorker]] = [None]

    def _request_stop(signum: int, frame: Any) -> None:  # pragma: no cover - signal path
        if worker_box[0] is not None:
            worker_box[0].request_stop()
        else:
            raise SystemExit(0)

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)

    if config.get("observe"):
        _obs.enable()

    sock = _connect(config)
    try:
        worker = ShardWorker(
            shard_index=int(config["shard_index"]),
            spec=EngineSpec.from_dict(config["spec"]),
        )
        worker_box[0] = worker
        try:
            worker.serve(sock)
        except (RpcTransportError, OSError):  # pragma: no cover - torn socket
            pass  # the coordinator vanished mid-frame: nothing to flush
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass
    sys.exit(0)
