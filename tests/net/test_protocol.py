"""The framed RPC layer: framing, ids, deadlines, typed errors."""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro.exceptions import (
    RpcRemoteError,
    RpcTimeoutError,
    RpcTransportError,
    UnknownQueryError,
)
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    RpcConnection,
    decode_frame,
    encode_frame,
    error_payload,
    raise_remote_error,
    recv_frame,
    send_frame,
)


def socket_pair():
    return socket.socketpair()


# --------------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------------- #
def test_frame_round_trip():
    payload = {"id": 7, "method": "ingest", "params": {"x": [1.25, "a", None]}}
    frame = encode_frame(payload)
    length = struct.unpack(">I", frame[:4])[0]
    assert length == len(frame) - 4
    assert decode_frame(frame[4:]) == payload


def test_frame_floats_round_trip_exactly():
    scores = [0.1, 1 / 3, 2.5000000000000004, 1e-300]
    frame = encode_frame({"scores": scores})
    assert decode_frame(frame[4:])["scores"] == scores


def test_tagged_frame_carries_an_attachment_behind_the_envelope():
    attachment = bytes(range(256)) + b"{}\n"
    frame = encode_frame({"id": 7, "ok": True}, attachment)
    assert struct.unpack(">I", frame[:4])[0] == len(frame) - 4
    assert frame[4:5] == b"\x01"
    assert decode_frame(frame[4:]) == {"id": 7, "ok": True, "attachment": attachment}
    # An empty attachment is still an attachment.
    assert decode_frame(encode_frame({}, b"")[4:]) == {"attachment": b""}


def test_torn_envelope_in_a_tagged_frame_is_a_transport_error():
    for body in (b"\x01", b"\x01\x00\x00", b"\x01" + struct.pack(">I", 3) + b"{}"):
        with pytest.raises(RpcTransportError, match="torn envelope"):
            decode_frame(body)
    with pytest.raises(RpcTransportError, match="undecodable"):
        decode_frame(b"\x01" + struct.pack(">I", 2) + b"[{" + b"rest")


def test_send_recv_over_socket():
    left, right = socket_pair()
    try:
        send_frame(left, {"id": 1, "ok": True, "result": 42})
        send_frame(left, {"id": 2, "ok": True, "result": "two"})
        assert recv_frame(right)["result"] == 42
        assert recv_frame(right)["result"] == "two"
        left.close()
        assert recv_frame(right) is None  # clean EOF at a frame boundary
    finally:
        right.close()


def test_oversized_length_prefix_is_rejected():
    left, right = socket_pair()
    try:
        left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(RpcTransportError, match="limit"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_torn_frame_is_a_transport_error():
    left, right = socket_pair()
    try:
        frame = encode_frame({"id": 1})
        left.sendall(frame[: len(frame) - 2])
        left.close()
        with pytest.raises(RpcTransportError, match="mid-frame|between length"):
            recv_frame(right)
    finally:
        right.close()


def test_undecodable_frame_is_a_transport_error():
    left, right = socket_pair()
    try:
        body = b"\xff\xfe not json"
        left.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(RpcTransportError, match="undecodable"):
            recv_frame(right)
        left.sendall(encode_frame({}).replace(b"{}", b"[]"))
        with pytest.raises(RpcTransportError, match="expected an object"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


# --------------------------------------------------------------------------- #
# typed errors
# --------------------------------------------------------------------------- #
def test_known_exception_types_reraise_as_themselves():
    payload = error_payload(UnknownQueryError("no query 7"))
    assert payload == {"type": "UnknownQueryError", "message": "no query 7"}
    with pytest.raises(UnknownQueryError, match="no query 7"):
        raise_remote_error(payload)


def test_unknown_exception_types_become_remote_errors():
    with pytest.raises(RpcRemoteError) as info:
        raise_remote_error({"type": "SomethingElse", "message": "boom"})
    assert info.value.remote_type == "SomethingElse"
    # A malformed error object degrades to a remote error, never a KeyError.
    with pytest.raises(RpcRemoteError):
        raise_remote_error({})


def test_non_repro_builtins_are_not_reraised_by_name():
    # "ValueError" is not a repro.exceptions type: it must arrive wrapped,
    # not let a remote pick arbitrary exception classes to raise here.
    with pytest.raises(RpcRemoteError):
        raise_remote_error({"type": "ValueError", "message": "x"})


# --------------------------------------------------------------------------- #
# the connection: ids and deadlines
# --------------------------------------------------------------------------- #
def echo_server(sock, transform=None):
    """Serve one connection: respond to each request (optionally mangled)."""

    def run():
        while True:
            request = recv_frame(sock)
            if request is None or request.get("method") == "stop":
                break
            response = {"id": request["id"], "ok": True, "result": request["params"]}
            if transform is not None:
                response = transform(response)
            send_frame(sock, response)
        sock.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def test_call_round_trip_and_monotonic_ids():
    left, right = socket_pair()
    echo_server(right)
    with RpcConnection(left, peer="echo") as connection:
        assert connection.call("first", {"n": 1}) == {"n": 1}
        assert connection.call("second", {"n": 2}) == {"n": 2}
        first = connection.send_request("a", {})
        second = connection.send_request("b", {})
        assert second == first + 1
        assert connection.read_response(first) == {}
        assert connection.read_response(second) == {}
        connection.send_request("stop")


def test_bytes_params_travel_as_the_attachment_and_come_back_as_the_result():
    left, right = socket_pair()

    def run():
        request = recv_frame(right)
        send_frame(right, {"id": request["id"], "ok": True}, attachment=request["attachment"][::-1])
        right.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    with RpcConnection(left, peer="binary-echo") as connection:
        assert connection.call("reverse", b"\x00\x01\x02") == b"\x02\x01\x00"
    thread.join(5.0)


def test_mismatched_response_id_is_a_protocol_violation():
    left, right = socket_pair()
    echo_server(right, transform=lambda response: {**response, "id": 999})
    with RpcConnection(left, peer="bad-echo") as connection:
        with pytest.raises(RpcTransportError, match="does not match"):
            connection.call("anything")


def test_deadline_elapses_as_timeout():
    left, right = socket_pair()
    try:
        with RpcConnection(left, peer="silent") as connection:
            with pytest.raises(RpcTimeoutError):
                connection.call("never-answered", timeout_ms=60.0)
    finally:
        right.close()


def test_closed_connection_refuses_calls():
    left, right = socket_pair()
    right.close()
    connection = RpcConnection(left, peer="gone")
    connection.close()
    assert connection.closed
    with pytest.raises(RpcTransportError, match="closed"):
        connection.call("anything")
    connection.close()  # idempotent
