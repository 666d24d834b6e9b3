"""The stub standing in for a shard engine that runs in a worker process.

A :class:`RemoteShard` is what a :class:`~repro.cluster.engine.ShardedEngine`
holds for each shard of a ``"sharded-proc"`` cluster: it has the engine
interface, and the engine lives in a :class:`~repro.net.worker.ShardWorker`
process behind the framed RPC of :mod:`repro.net.protocol`.  The stub owns
the worker's process and connection.  :meth:`RemoteShard.send` writes a
call and :meth:`RemoteShard.receive` reads its answer, so a fan-out can
send to every worker before it reads any; a call's encoding is made once
and shared by every shard it is sent to.
``process_batch_events`` ships its batch as binary columns
(:func:`~repro.net.codec.encode_documents`), a ``restore`` seed its
documents the same way beside its JSON queries, and the answers of
``process_batch_events`` and ``advance_time`` come back as
:func:`~repro.net.codec.encode_changes` columns; every other call speaks
JSON.

**Supervision.**  A broken connection
(:class:`~repro.exceptions.RpcTransportError`) anywhere in a call makes the
stub reap the dead worker, back off exponentially, spawn a replacement,
seed it over the ``restore`` RPC with the call's seed -- the shard as the
coordinator had it acknowledged before the call -- and re-send the call
(a ``restore`` call is its own seed, and is simply re-sent).
The replacement never saw the call, so a retried mutation is applied
exactly once; one that dies while being seeded is one more attempt.  Past
``max_restarts`` the call fails with
:class:`~repro.exceptions.WorkerCrashError`, past its deadline (restarts
included) with :class:`~repro.exceptions.RpcTimeoutError`.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.cluster.dispatcher import Seed, ShardCall
from repro.core.base import ResultChange, TopKResult
from repro.documents.document import StreamedDocument
from repro.exceptions import RpcTimeoutError, RpcTransportError, WorkerCrashError
from repro.net.codec import decode_changes, encode_documents, entries_from_wire
from repro.net.options import ProcOptions
from repro.net.protocol import RpcConnection
from repro.observability import runtime as _obs
from repro.observability.opcounters import OperationCounters
from repro.persistence import query_record
from repro.query.query import ContinuousQuery

__all__ = ["RemoteShard", "Worker", "reap"]


class Worker(NamedTuple):
    """One spawned worker process and the coordinator's connection to it."""

    process: multiprocessing.process.BaseProcess
    connection: RpcConnection


def _results_from_wire(data: Dict[str, Any]) -> Dict[int, TopKResult]:
    return {int(query_id): entries_from_wire(entries) for query_id, entries in data.items()}


def _seed_to_wire(seed: Dict[str, Any]) -> Tuple[Dict[str, Any], bytes]:
    """A seed's JSON part, and its document columns as the attachment."""
    snapshot = dict(seed)
    return {"snapshot": snapshot}, snapshot.pop("columns")


#: engine call -> (its request from its arguments: JSON params, the
#: ``bytes`` of an attachment, or both; how to decode its value, or None to
#: take it as it comes); the worker's RPC methods are named after the calls
_WIRE: Dict[str, Tuple[Callable[..., Any], Optional[Callable[[Any], Any]]]] = {
    "restore": (_seed_to_wire, None),
    "process_batch_events": (encode_documents, decode_changes),
    "advance_time": (lambda now: {"now": float(now)}, lambda data: decode_changes(data)[0]),
    "register_query": (lambda query: {"query": query_record(query)}, None),
    "install_query": (lambda query, record: {"query": query_record(query), "state": record}, None),
    "unregister_query": (lambda query_id: {"query_id": int(query_id)}, None),
    "current_result": (lambda query_id: {"query_id": int(query_id)}, entries_from_wire),
    "current_results": (dict, _results_from_wire),
    "query_states": (dict, lambda data: {int(query_id): state for query_id, state in data.items()}),
    "ping": (dict, None),
    "counters": (dict, None),
    "reset_counters": (dict, None),
    "check_invariants": (dict, None),
}


def reap(process: multiprocessing.process.BaseProcess, grace: float = 2.0) -> None:
    """Make sure ``process`` is gone (terminate, then kill)."""
    if process.is_alive():
        process.terminate()
        process.join(grace)
    if process.is_alive():  # pragma: no cover - terminate is normally enough
        process.kill()
        process.join(grace)
    else:
        process.join(0)


class _WorkerCounters(OperationCounters):
    """One worker's counters as read over RPC; :meth:`reset` zeroes the
    worker's own block (resetting only this copy would be a silent no-op)."""

    def __init__(self, shard: "RemoteShard", values: Dict[str, int]) -> None:
        super().__init__(**values)
        self._shard = shard

    def reset(self) -> None:
        self._shard._call("reset_counters")
        super().reset()


class RemoteShard:
    """One shard engine in a worker process, behind the engine interface.

    ``spawn(index)`` starts a worker for the shard (here and on every
    restart); ``state(index)`` is the shard as the coordinator has it now,
    the seed of a call made without one; ``options`` holds the deadline,
    restart budget and backoff; ``before_call`` runs before every request.
    """

    def __init__(
        self,
        index: int,
        spawn: Callable[[int], Worker],
        state: Seed,
        options: ProcOptions,
        before_call: Callable[[], None],
    ) -> None:
        self.index = index
        self._spawn = spawn
        self._state = state
        self.options = options
        self._before_call = before_call
        self.process, self.connection = spawn(index)
        #: whether the worker's own metrics registry has been enabled
        self.observing = _obs.active
        #: workers this shard has replaced since the cluster started
        self.restarts = 0
        self._request: Optional[int] = None
        self._deadline = 0.0
        self._started = 0.0

    # ------------------------------------------------------------------ #
    # one call, in two halves
    # ------------------------------------------------------------------ #
    def send(self, call: ShardCall) -> None:
        """Write ``call``'s request; a broken connection waits for :meth:`receive`."""
        self._before_call()
        if call.encoded is None:
            call.encoded = _WIRE[call.method][0](*call.args)
        self._started = time.perf_counter()
        self._deadline = time.monotonic() + self.options.request_timeout_ms / 1000.0
        try:
            self._request = self.connection.send_request(call.method, call.encoded, self._deadline)
        except RpcTransportError:
            self._request = None

    def receive(self, call: ShardCall) -> Any:
        """Read ``call``'s value, replacing the worker until one answers."""
        attempt = 0 if self._request is not None else 1
        while True:
            try:
                if attempt:
                    self._restart(attempt, None if call.method == "restore" else call.seed or self._state)
                    self._request = self.connection.send_request(call.method, call.encoded, self._deadline)
                value = self.connection.read_response(self._request, self._deadline)
                break
            except RpcTransportError:
                attempt += 1
        if _obs.active:
            _obs.counter_child(
                "repro_rpc_client_calls_total", "RPC calls issued", "method", call.method
            ).inc()
            _obs.histogram_child(
                "repro_rpc_client_latency_ms", "RPC round-trip latency", "method", call.method
            ).observe((time.perf_counter() - self._started) * 1000.0)
        decode = _WIRE[call.method][1]
        return value if decode is None else decode(value)

    def _call(self, method: str, *args: Any) -> Any:
        call = ShardCall(method, args)
        self.send(call)
        return self.receive(call)

    def _restart(self, attempt: int, seed: Optional[Seed]) -> None:
        """Replace the dead worker and seed the replacement with ``seed``, if any.

        A replacement that dies while being seeded raises
        :class:`~repro.exceptions.RpcTransportError` to :meth:`receive`,
        which counts it as one more attempt.
        """
        self.connection.close()
        reap(self.process)
        if attempt > self.options.max_restarts:
            raise WorkerCrashError(
                f"shard {self.index} worker died and exceeded its "
                f"{self.options.max_restarts}-restart budget"
            )
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise RpcTimeoutError(
                f"the call's deadline elapsed while restarting shard {self.index}"
            )
        backoff = (self.options.backoff_ms / 1000.0) * (2 ** (attempt - 1))
        time.sleep(min(backoff, remaining))
        self.process, self.connection = self._spawn(self.index)
        self.observing = _obs.active
        self.restarts += 1
        if _obs.active:
            _obs.counter_child(
                "repro_worker_restarts_total", "worker processes restarted", "shard", str(self.index)
            ).inc()
        if seed is not None:
            request = self.connection.send_request("restore", _seed_to_wire(seed(self.index)), self._deadline)
            self.connection.read_response(request, self._deadline)

    # ------------------------------------------------------------------ #
    # the engine interface
    # ------------------------------------------------------------------ #
    def register_query(self, query: ContinuousQuery) -> None:
        self._call("register_query", query)

    def install_query(self, query: ContinuousQuery, record: Dict[str, Any]) -> None:
        self._call("install_query", query, record)

    def unregister_query(self, query_id: int) -> None:
        self._call("unregister_query", query_id)

    def query_ids(self) -> List[int]:
        return self._call("ping")["query_ids"]

    def process_batch_events(self, documents: List[StreamedDocument]) -> List[List[ResultChange]]:
        return self._call("process_batch_events", documents)

    def advance_time(self, now: float) -> List[ResultChange]:
        return self._call("advance_time", now)

    def current_result(self, query_id: int) -> TopKResult:
        return self._call("current_result", query_id)

    def current_results(self) -> Dict[int, TopKResult]:
        return self._call("current_results")

    def query_states(self) -> Dict[int, Dict[str, Any]]:
        return self._call("query_states")

    @property
    def counters(self) -> OperationCounters:
        return _WorkerCounters(self, self._call("counters"))

    @property
    def window(self) -> range:
        """Sized like the worker's window: only its length crosses the wire."""
        return range(self._call("ping")["window"])

    def check_invariants(self) -> None:
        """Run the worker engine's own invariant checks (tests only)."""
        self._call("check_invariants")
