"""Frame protocol + handshake unit tests (socketpair, no server)."""

import pickle
import socket
import struct
import threading

import pytest

from repro.distributed import wire


def _pair():
    a, b = socket.socketpair()
    return a, b


def test_frame_roundtrip():
    a, b = _pair()
    try:
        payload = {"op": "eval", "candidates": [(1, 2), (3, 4)], "blob": b"x" * 999}
        n = wire.send_frame(a, payload)
        assert n == len(pickle.dumps(payload))
        assert wire.recv_frame(b) == payload
    finally:
        a.close()
        b.close()


def test_recv_rejects_eof_mid_frame():
    a, b = _pair()
    try:
        a.sendall(struct.pack(">I", 100) + b"short")
        a.close()
        with pytest.raises(wire.WireError, match="mid-frame"):
            wire.recv_frame(b)
    finally:
        b.close()


def test_recv_rejects_oversized_length_prefix():
    a, b = _pair()
    try:
        a.sendall(struct.pack(">I", wire.MAX_FRAME_BYTES + 1))
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.recv_frame(b)
    finally:
        a.close()
        b.close()


def test_recv_rejects_non_dict_payload():
    a, b = _pair()
    try:
        blob = pickle.dumps([1, 2, 3])
        a.sendall(struct.pack(">I", len(blob)) + blob)
        with pytest.raises(wire.WireError, match="malformed"):
            wire.recv_frame(b)
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize(
    "blob",
    [b"not a pickle", pickle.dumps({"op": "ping", "pad": "x" * 64})[:-5]],
    ids=["garbage", "truncated-pickle"],
)
def test_recv_wraps_undecodable_payload_in_wire_error(blob):
    a, b = _pair()
    try:
        a.sendall(struct.pack(">I", len(blob)) + blob)
        with pytest.raises(wire.WireError, match="undecodable"):
            wire.recv_frame(b)
    finally:
        a.close()
        b.close()


def test_handshake_roundtrip_carries_fingerprint_key():
    a, b = _pair()
    fp = ("MM_500", "cache-repr", 164, 0)
    try:
        server = threading.Thread(target=wire.server_handshake, args=(b,))
        server.start()
        reply = wire.client_handshake(a, fp)
        server.join()
        assert reply["version"] == wire.WIRE_VERSION and reply["ok"]
    finally:
        a.close()
        b.close()


def test_handshake_refuses_version_mismatch():
    a, b = _pair()
    try:
        wire.send_frame(
            a, {"op": "hello", "version": wire.WIRE_VERSION + 1}
        )
        with pytest.raises(wire.WireError, match="refused"):
            wire.server_handshake(b)
        reply = wire.recv_frame(a)
        assert reply["op"] == "error" and "version mismatch" in reply["message"]
    finally:
        a.close()
        b.close()


def test_client_handshake_surfaces_server_error():
    a, b = _pair()
    try:
        t = threading.Thread(
            target=lambda: (
                wire.recv_frame(b),
                wire.send_frame(b, {"op": "error", "message": "nope"}),
            )
        )
        t.start()
        with pytest.raises(wire.WireError, match="nope"):
            wire.client_handshake(a)
        t.join()
    finally:
        a.close()
        b.close()


def test_fingerprint_key_is_stable_and_discriminating():
    fp = ("MM_500", "CacheConfig(8192, 32, 1)", 164, 0)
    assert wire.fingerprint_key(fp) == wire.fingerprint_key(tuple(fp))
    assert wire.fingerprint_key(fp) != wire.fingerprint_key(fp[:-1] + (1,))
    assert len(wire.fingerprint_key(None)) == 64


def test_parse_hosts():
    assert wire.parse_hosts(None) == ()
    assert wire.parse_hosts("") == ()
    assert wire.parse_hosts("a:1, b:2 ,") == (("a", 1), ("b", 2))
    with pytest.raises(ValueError, match="host:port"):
        wire.parse_hosts("nocolon")
    with pytest.raises(ValueError):
        wire.parse_hosts("a:notaport")


def test_client_rejects_wrong_fingerprint_echo():
    a, b = _pair()
    try:
        t = threading.Thread(
            target=lambda: (
                wire.recv_frame(b),
                wire.send_frame(
                    b,
                    {"op": "hello", "version": wire.WIRE_VERSION,
                     "ok": True, "fingerprint_key": "not-the-echo"},
                ),
            )
        )
        t.start()
        with pytest.raises(wire.WireError, match="fingerprint echo"):
            wire.client_handshake(a, ("MM", 500))
        t.join()
    finally:
        a.close()
        b.close()
