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
documents the same way followed by its queries and their states
(:func:`~repro.persistence.encode_queries`) beside a small JSON envelope,
and the answers of
``process_batch_events`` and ``advance_time`` come back as
:func:`~repro.net.codec.encode_changes` columns; every other call speaks
JSON.

**Acknowledgements are not waited for.**  ``register_query``,
``install_query`` and ``unregister_query`` answer ``None`` -- an
*acknowledgement* -- and the coordinator has already checked everything a
worker would refuse (duplicate ids, ids outside ``int64``).  So the stub
writes such a call, remembers its request id in a per-worker FIFO and
returns; a subscribe costs the coordinator one write, and the worker's
descent overlaps the coordinator's next call.  The connection stays
strictly ordered: the worker installs the query before it reads anything
sent later, and before the stub reads any later answer it reads the
FIFO's acknowledgements, in order, in one
:meth:`~repro.net.protocol.RpcConnection.read_response`.  At most
:data:`MAX_UNREAD` acknowledgements stay unread; the next
acknowledgement-only call reads them all first.  Everything that reads
the worker's state -- an engine call with a value, :meth:`RemoteShard.settle`
-- reads them first too.  An error answer to an unwaited call means the
worker diverged from the coordinator: the stub drops the worker, raises
the typed error from the call that read it, and the next read replaces
the worker, seeded with the coordinator's state then.

**Supervision.**  A broken connection
(:class:`~repro.exceptions.RpcTransportError`) met while reading makes the
stub reap the dead worker, back off exponentially, spawn a replacement,
seed it over the ``restore`` RPC and re-send the call being read, if its
answer is needed.  That call's seed is the shard as the coordinator had it
before the call (a ``restore`` call is its own seed, and is simply
re-sent); a read that only waits for acknowledgements seeds the
coordinator's state now.  Either seed already holds every call in the
FIFO -- by the time anything is read the coordinator's registry and
assignments include each registration in it and exclude each query whose
removal is in it -- so those calls are dropped, not re-sent.  A write that
fails is not retried on the spot: the next read replaces the worker under
the same rule.  The replacement never saw the calls, so a retried mutation
is applied exactly once; one that dies while being seeded is one more
attempt.  Past ``max_restarts`` the call fails with
:class:`~repro.exceptions.WorkerCrashError`, past its deadline (restarts
included) with :class:`~repro.exceptions.RpcTimeoutError`; a call that
times out drops the worker, which the next read replaces.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.cluster.dispatcher import Seed, ShardCall
from repro.core.base import ResultChange, TopKResult
from repro.documents.document import StreamedDocument
from repro.exceptions import ReproError, RpcTimeoutError, RpcTransportError, WorkerCrashError
from repro.net.codec import decode_changes, encode_documents, entries_from_wire
from repro.net.options import ProcOptions
from repro.net.protocol import RpcConnection
from repro.observability import runtime as _obs
from repro.observability.opcounters import OperationCounters
from repro.persistence import query_record
from repro.query.query import ContinuousQuery

__all__ = ["MAX_UNREAD", "RemoteShard", "Worker", "reap"]

#: The most acknowledgements one worker may owe before the next
#: acknowledgement-only call reads them all.  Unread answers queue in the
#: coordinator's receive buffer; once it is full the worker blocks on send,
#: stops reading, and the coordinator's next send hits its deadline
#: mid-send.  An AF_UNIX socketpair with the default 212,992-byte buffers
#: queues 278 acknowledgement frames (39 bytes each) before the writer
#: blocks, TCP loopback over 100,000 (measured on Linux, x86-64).  With 64,
#: subscribing 1,000 queries over two workers blocks on them 14 times
#: instead of 1,000 (``tests/net/bench_subscribe.py`` counts it).
MAX_UNREAD = 64


class Worker(NamedTuple):
    """One spawned worker process and the coordinator's connection to it."""

    process: multiprocessing.process.BaseProcess
    connection: RpcConnection


def _results_from_wire(data: Dict[str, Any]) -> Dict[int, TopKResult]:
    return {int(query_id): entries_from_wire(entries) for query_id, entries in data.items()}


def _seed_to_wire(seed: Dict[str, Any]) -> Tuple[Dict[str, Any], bytes]:
    """A seed's JSON envelope, and its columns (documents, then queries) as the attachment."""
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
        #: the FIFO: ids of the requests written whose answers nobody waits
        #: for, oldest first -- acknowledgements, and answers an :meth:`ask`
        #: gave up on at its deadline
        self._unread: List[int] = []
        #: whether the worker must be replaced before anything more is read
        #: from it: a write failed, or it diverged
        self._broken = False
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
        self._request = self._write(call.method, call.encoded)

    def receive(self, call: ShardCall) -> Any:
        """Read ``call``'s value, replacing the worker until one answers."""
        value = self._read(call, None if call.method == "restore" else call.seed or self._state)
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

    def _tell(self, method: str, *args: Any) -> None:
        """Write an acknowledgement-only call and return without its answer.

        With :data:`MAX_UNREAD` acknowledgements owed, they are read first,
        under this call's deadline.
        """
        self._before_call()
        self._deadline = time.monotonic() + self.options.request_timeout_ms / 1000.0
        if len(self._unread) >= MAX_UNREAD:
            self._read(None, self._state)
        request = self._write(method, _WIRE[method][0](*args))
        if request is not None:
            self._unread.append(request)
        if _obs.active:
            _obs.counter_child("repro_rpc_client_calls_total", "RPC calls issued", "method", method).inc()

    def settle(self) -> None:
        """Wait for every acknowledgement the worker owes, replacing it --
        seeded with the coordinator's state now -- if it died or diverged."""
        if self._unread or self._broken:
            self._deadline = time.monotonic() + self.options.request_timeout_ms / 1000.0
            self._read(None, self._state)

    def ask(self, method: str, params: Optional[Dict[str, Any]], timeout_ms: float) -> Any:
        """Make a call outside the engine interface (``observe``, ``metrics``,
        ``shutdown``) under its own deadline: no seed, no restart.

        Owed acknowledgements are read first.  An answer that misses the
        deadline joins the FIFO, to be read and dropped in order by the next
        read; a broken connection raises, and the next read replaces the
        worker.
        """
        self._deadline = time.monotonic() + timeout_ms / 1000.0
        request = self._write(method, params)
        if request is None:
            raise RpcTransportError(f"the connection to shard {self.index}'s worker is broken")
        try:
            self._drain()
            return self.connection.read_response(request, self._deadline)
        except RpcTimeoutError:
            self._unread.append(request)
            raise
        except RpcTransportError:
            self._fail()
            raise

    def _write(self, method: str, params: Any) -> Optional[int]:
        """Write one request; its id, or ``None`` if the connection broke."""
        try:
            return self.connection.send_request(method, params, self._deadline)
        except RpcTransportError:
            self._fail()
            return None
        except RpcTimeoutError:
            self._fail()  # a frame cut off mid-send tears the stream
            raise

    def _read(self, call: Optional[ShardCall], seed: Optional[Seed]) -> Any:
        """Read the FIFO's answers, then ``call``'s if there is a call,
        replacing the worker until it answers.

        A replacement is seeded with ``seed`` and sent ``call`` again; the
        FIFO's calls are dropped, the seed already holds them.
        """
        attempt = 1 if self._broken else 0
        while True:
            try:
                if attempt:
                    self._restart(attempt, seed)
                    if call is not None:
                        self._request = self.connection.send_request(call.method, call.encoded, self._deadline)
                self._drain()
                return None if call is None else self.connection.read_response(self._request, self._deadline)
            except RpcTransportError:
                attempt += 1
            except RpcTimeoutError:
                self._fail()  # the late answers would come back to no one
                raise

    def _drain(self) -> None:
        """Read the FIFO's answers and drop them.

        The coordinator checked everything a worker would refuse, so an
        error answer means the worker diverged: it is dropped, to be
        replaced at the next read, and the error is raised.
        """
        if not self._unread:
            return
        try:
            self.connection.read_response(self._unread[-1], self._deadline)
        except (RpcTransportError, RpcTimeoutError):
            raise
        except ReproError:
            self._fail()
            raise
        self._unread.clear()

    def _fail(self) -> None:
        """Give the worker up: the next read replaces it."""
        self.connection.close()
        self._broken = True

    def _restart(self, attempt: int, seed: Optional[Seed]) -> None:
        """Replace the dead worker and seed the replacement with ``seed``, if any.

        The answers the dead worker owed are dropped.  A replacement that
        dies while being seeded raises
        :class:`~repro.exceptions.RpcTransportError` to :meth:`_read`,
        which counts it as one more attempt.
        """
        self.connection.close()
        reap(self.process)
        self._unread.clear()
        self._broken = False
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
        self._tell("register_query", query)

    def install_query(self, query: ContinuousQuery, record: Dict[str, Any]) -> None:
        self._tell("install_query", query, record)

    def unregister_query(self, query_id: int) -> None:
        self._tell("unregister_query", query_id)

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
