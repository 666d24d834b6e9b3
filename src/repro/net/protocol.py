"""The length-prefixed framed RPC protocol.

Every message -- worker RPCs and the serving tier alike -- is one *frame*:
a 4-byte big-endian unsigned length followed by that many bytes of UTF-8
JSON, or of a ``0x01`` tag byte (no JSON text starts with it), a ``u32``
envelope length, the JSON envelope and a binary attachment: the shard
channel's columns (:mod:`repro.net.codec`).  A decoded message holds its
attachment as ``bytes`` under ``"attachment"``; a response's attachment
is its result.  Floats cross as ``repr`` JSON or as IEEE-754 bytes, so
scores and arrival times survive the hop bit-identically -- the property
the conformance tapes assert.

Requests and responses are plain objects::

    {"id": 7, "method": "ingest", "params": {...}}
    {"id": 7, "ok": true, "result": {...}}
    {"id": 7, "ok": false, "error": {"type": "UnknownQueryError", "message": "..."}}

* **request ids** are per-connection monotonically increasing integers,
  and responses come back in request order; a response carrying the wrong
  id is a protocol violation (:class:`~repro.exceptions.RpcTransportError`),
  not silently matched.
* **typed errors**: the server encodes the exception *class name*; the
  client re-raises known :mod:`repro.exceptions` types as themselves and
  everything else as :class:`~repro.exceptions.RpcRemoteError`.
* **per-call deadlines**: :meth:`RpcConnection.call` converts its
  ``timeout_ms`` into socket timeouts covering every send/recv of the
  call; an elapsed deadline raises
  :class:`~repro.exceptions.RpcTimeoutError`.

When observability is enabled (:mod:`repro.observability.runtime`), the
client side records ``repro_rpc_client_calls_total{method=}``,
``repro_rpc_client_latency_ms{method=}``,
``repro_rpc_client_errors_total{method=}`` and
``repro_rpc_bytes_total{direction=sent|received}`` (whole frames, prefix included).
"""

from __future__ import annotations

import json
import socket
import struct
import time
from typing import Any, Dict, Optional, Tuple, Union

import repro.exceptions as _exceptions
from repro.exceptions import (
    ReproError,
    RpcRemoteError,
    RpcTimeoutError,
    RpcTransportError,
)
from repro.observability import runtime as _obs

__all__ = [
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_frame",
    "send_frame",
    "recv_frame",
    "error_payload",
    "raise_remote_error",
    "RpcConnection",
]

#: refuse frames larger than this (a corrupt length prefix must not make
#: the reader allocate gigabytes)
MAX_FRAME_BYTES = 128 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: the first byte of a body whose JSON envelope is followed by an attachment,
#: and the size of the tag and envelope length in front of that envelope
_TAG, _HEAD = b"\x01", 1 + _LENGTH.size


# --------------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------------- #
def _frame(body: bytes) -> bytes:
    """Prefix an already-serialised message body with its length."""
    if len(body) > MAX_FRAME_BYTES:
        raise RpcTransportError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(body)) + body


def _json(payload: Any) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _body(envelope: bytes, attachment: Optional[bytes]) -> bytes:
    """A message body: the JSON envelope, tagged and followed by ``attachment`` if any."""
    if attachment is None:
        return envelope
    return _TAG + _LENGTH.pack(len(envelope)) + envelope + attachment


def encode_frame(payload: Dict[str, Any], attachment: Optional[bytes] = None) -> bytes:
    """Serialise one message to its wire form (length prefix + body)."""
    return _frame(_body(_json(payload), attachment))


def decode_frame(body: bytes) -> Dict[str, Any]:
    """Parse one frame body back into its message object (attachment included)."""
    attachment: Optional[bytes] = None
    if body[:1] == _TAG:
        end = _HEAD + int.from_bytes(body[1:_HEAD], "big")
        if end > len(body):
            raise RpcTransportError(f"torn envelope in a {len(body)}-byte tagged frame")
        body, attachment = body[_HEAD:end], body[end:]
    try:
        message = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise RpcTransportError(f"undecodable frame: {error}") from error
    if not isinstance(message, dict):
        raise RpcTransportError(
            f"frame decodes to {type(message).__name__}, expected an object"
        )
    if attachment is not None:
        message["attachment"] = attachment
    return message


def _remaining(deadline: Optional[float]) -> Optional[float]:
    """Seconds left until ``deadline`` (a ``time.monotonic`` instant)."""
    if deadline is None:
        return None
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RpcTimeoutError("the call's deadline elapsed")
    return remaining


def send_frame(
    sock: socket.socket,
    payload: Dict[str, Any],
    deadline: Optional[float] = None,
    attachment: Optional[bytes] = None,
) -> int:
    """Send one message (and its attachment); returns the bytes written.

    Raises
    ------
    RpcTimeoutError
        If ``deadline`` elapses mid-send.
    RpcTransportError
        If the connection breaks.
    """
    return _send_body(sock, _body(_json(payload), attachment), deadline)


def _send_body(sock: socket.socket, body: bytes, deadline: Optional[float]) -> int:
    """Frame and send one already-serialised message body."""
    data = _frame(body)
    try:
        sock.settimeout(_remaining(deadline))
        sock.sendall(data)
    except socket.timeout as error:
        raise RpcTimeoutError("the call's deadline elapsed mid-send") from error
    except OSError as error:
        raise RpcTransportError(f"connection broke mid-send: {error}") from error
    return len(data)


def _recv_exact(
    sock: socket.socket, count: int, deadline: Optional[float]
) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on clean EOF at offset 0."""
    chunks = []
    received = 0
    while received < count:
        try:
            sock.settimeout(_remaining(deadline))
            chunk = sock.recv(min(count - received, 1 << 20))
        except socket.timeout as error:
            raise RpcTimeoutError("the call's deadline elapsed mid-receive") from error
        except OSError as error:
            raise RpcTransportError(f"connection broke mid-receive: {error}") from error
        if not chunk:
            if received == 0:
                return None
            raise RpcTransportError(
                f"connection closed mid-frame ({received}/{count} bytes)"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, deadline: Optional[float] = None
) -> Optional[Dict[str, Any]]:
    """Read one message; ``None`` on clean EOF at a frame boundary.

    Raises
    ------
    RpcTimeoutError
        If ``deadline`` elapses before a whole frame arrived.
    RpcTransportError
        On a broken connection, a torn or undecodable frame, or a length
        prefix over :data:`MAX_FRAME_BYTES`.
    """
    body = _recv_body(sock, deadline)
    return None if body is None else decode_frame(body)


def _recv_body(sock: socket.socket, deadline: Optional[float]) -> Optional[bytes]:
    """Read one frame's body; ``None`` on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _LENGTH.size, deadline)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise RpcTransportError(
            f"peer announced a {length}-byte frame (limit {MAX_FRAME_BYTES})"
        )
    body = _recv_exact(sock, length, deadline) if length else b""
    if body is None:
        raise RpcTransportError("connection closed between length prefix and body")
    return body


# --------------------------------------------------------------------------- #
# typed errors
# --------------------------------------------------------------------------- #
def error_payload(error: BaseException) -> Dict[str, str]:
    """Encode an exception for the error side of a response."""
    return {"type": type(error).__name__, "message": str(error)}


def raise_remote_error(error: Dict[str, Any]) -> "None":
    """Re-raise a response's error object on the client side.

    A type naming a :mod:`repro.exceptions` class is raised as that class
    (so ``except UnknownQueryError`` works across the wire); anything else
    -- including a malformed error object -- becomes
    :class:`~repro.exceptions.RpcRemoteError` with the remote type kept.
    """
    type_name = str(error.get("type", ""))
    message = str(error.get("message", "remote call failed"))
    exception_type = getattr(_exceptions, type_name, None)
    if (
        isinstance(exception_type, type)
        and issubclass(exception_type, ReproError)
        and not issubclass(exception_type, RpcRemoteError)
    ):
        raise exception_type(message)
    raise RpcRemoteError(f"{type_name}: {message}", remote_type=type_name)


# --------------------------------------------------------------------------- #
# the client side of one connection
# --------------------------------------------------------------------------- #
class RpcConnection:
    """One framed-RPC client connection with ids, deadlines and metrics.

    Responses come back in request order, and several requests may be
    outstanding: the coordinator pipelines across *workers* by writing
    every request before reading any response, and does not wait for a
    worker's acknowledgements -- see :meth:`send_request` /
    :meth:`read_response`, which :meth:`call` composes.
    """

    def __init__(
        self,
        sock: socket.socket,
        default_timeout_ms: float = 30_000.0,
        peer: str = "",
    ) -> None:
        self._sock = sock
        self._default_timeout_ms = float(default_timeout_ms)
        self._next_id = 0
        #: the id of the last response read
        self._answered = 0
        self._closed = False
        #: a display name for error messages ("shard-2", "server", ...)
        self.peer = peer

    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def deadline(self, timeout_ms: Optional[float] = None) -> float:
        """The ``time.monotonic`` instant a call started now must meet."""
        budget_ms = self._default_timeout_ms if timeout_ms is None else float(timeout_ms)
        return time.monotonic() + budget_ms / 1000.0

    def send_request(
        self,
        method: str,
        params: Union[Dict[str, Any], bytes, Tuple[Dict[str, Any], bytes], None] = None,
        deadline: Optional[float] = None,
    ) -> int:
        """Write one request frame; returns its request id.

        ``params`` is a JSON object, ``bytes`` sent as the request's binary
        attachment (the coordinator encodes a replicated batch once and
        sends the same bytes to every worker), or a ``(JSON object,
        attachment)`` pair (a seed: its JSON envelope, and its window's and
        queries' columns).
        """
        if self._closed:
            raise RpcTransportError(f"connection to {self.peer or 'peer'} is closed")
        self._next_id += 1
        request_id = self._next_id
        attachment: Optional[bytes] = None
        if isinstance(params, bytes):
            params, attachment = None, params
        elif isinstance(params, tuple):
            params, attachment = params
        envelope = b'{"id":%d,"method":%s,"params":%s}' % (
            request_id, _json(method), _json(params) if params else b"{}"
        )
        sent = _send_body(self._sock, _body(envelope, attachment), deadline)
        if _obs.active:
            _obs.counter_child(
                "repro_rpc_bytes_total", "RPC bytes on the wire", "direction", "sent"
            ).inc(sent)
        return request_id

    def read_response(self, request_id: int, deadline: Optional[float] = None) -> Any:
        """Read the response of ``request_id``; returns its result or attachment.

        The unread responses of earlier requests, whose senders did not
        wait for them, come first on the stream: they are read in order and
        dropped, and an error among them is raised.  Raises the remote
        error for error responses, and
        :class:`~repro.exceptions.RpcTransportError` on EOF or an id
        mismatch (the protocol is strictly ordered, so a stray id means
        the stream is corrupt).
        """
        while True:
            body = _recv_body(self._sock, deadline)
            if body is None:
                raise RpcTransportError(
                    f"{self.peer or 'peer'} closed the connection before responding"
                )
            if _obs.active:
                _obs.counter_child(
                    "repro_rpc_bytes_total", "RPC bytes on the wire", "direction", "received"
                ).inc(_LENGTH.size + len(body))
            response = decode_frame(body)
            expected = self._answered + 1
            if response.get("id") != expected:
                raise RpcTransportError(
                    f"response id {response.get('id')!r} does not match "
                    f"request id {expected} from {self.peer or 'peer'}"
                )
            self._answered = expected
            if not response.get("ok"):
                raise_remote_error(response.get("error") or {})
            if expected == request_id:
                return response.get("attachment", response.get("result"))

    def call(
        self,
        method: str,
        params: Union[Dict[str, Any], bytes, Tuple[Dict[str, Any], bytes], None] = None,
        timeout_ms: Optional[float] = None,
    ) -> Any:
        """One request/response round trip under one deadline.

        Returns
        -------
        Any
            The response's ``result`` payload.

        Raises
        ------
        RpcTimeoutError
            If the deadline elapsed before the response arrived.
        RpcTransportError
            If the connection broke or the stream is corrupt.
        ReproError subclasses / RpcRemoteError
            The re-raised remote error for error responses.
        """
        observed = _obs.active
        started = time.perf_counter() if observed else 0.0
        deadline = self.deadline(timeout_ms)
        try:
            request_id = self.send_request(method, params, deadline)
            result = self.read_response(request_id, deadline)
        except Exception:
            if observed:
                _obs.counter_child(
                    "repro_rpc_client_errors_total", "failed RPC calls", "method", method
                ).inc()
            raise
        if observed:
            _obs.counter_child(
                "repro_rpc_client_calls_total", "RPC calls issued", "method", method
            ).inc()
            _obs.histogram_child(
                "repro_rpc_client_latency_ms", "RPC round-trip latency", "method", method
            ).observe((time.perf_counter() - started) * 1000.0)
        return result

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the underlying socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "RpcConnection":
        return self

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"{type(self).__name__}(peer={self.peer!r}, {state})"
