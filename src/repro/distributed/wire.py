"""Length-prefixed pickle frames over TCP — the cluster wire protocol.

Every message between the coordinator (:mod:`repro.distributed.client`)
and a worker agent (:mod:`repro.distributed.worker`) is one *frame*:

    4-byte big-endian payload length | pickled payload

A payload is always a plain ``dict`` with an ``"op"`` key.  The first
frame each side sends is the **handshake**:

* client → ``{"op": "hello", "version": WIRE_VERSION,
  "fingerprint": <objective identity or None>}``
* server → ``{"op": "hello", "version": WIRE_VERSION, "ok": True}``
  (or ``{"op": "error", ...}`` and the connection closes).

Version mismatch is refused on both sides: a memo value or a pickled
objective is only meaningful between processes running the same
protocol.  The fingerprint is the same picklable objective identity
that checkpoints carry (see :func:`repro.search.run_search`); the
server echoes it back so the client can verify it reached the host it
thinks it did, and the persistent memo store keys entries by it.

Security note: frames are **pickle** — the transport is for trusted
hosts you launched yourself (the loopback test cluster, your own
machines behind a firewall), exactly like the stdlib process pools the
local backend uses.
"""

from __future__ import annotations

import hashlib
import pickle
import socket
import struct
from typing import Any

#: Bump on any incompatible change to the message schema.
WIRE_VERSION = 2

# -- op vocabulary ------------------------------------------------------------
#
# Every ``"op"`` value that may appear in a frame is declared here, once,
# and assigned a protocol role below.  The ``wire-ops`` lint rule
# (:mod:`repro.contracts`) checks the roles against the implementations:
# each request op must be dispatchable by the worker agent and sent by
# the client, each reply op produced by the worker and recognised by the
# client — so an op can never silently exist on one side only.

OP_HELLO = "hello"
OP_ERROR = "error"
OP_OK = "ok"
OP_PING = "ping"
OP_PONG = "pong"
OP_CAPACITY = "capacity"
OP_OBJECTIVE = "objective"
OP_EVAL = "eval"
OP_VALUES = "values"
OP_TELEMETRY = "telemetry"
OP_SHUTDOWN = "shutdown"

#: Ops exchanged by the handshake itself (handled in this module).
HANDSHAKE_OPS = (OP_HELLO, OP_ERROR)

#: Ops a client may send after the handshake (worker must dispatch all).
REQUEST_OPS = (
    OP_PING,
    OP_CAPACITY,
    OP_OBJECTIVE,
    OP_EVAL,
    OP_TELEMETRY,
    OP_SHUTDOWN,
)

#: Ops a worker may reply with (client must recognise all).
REPLY_OPS = (
    OP_PONG,
    OP_OK,
    OP_CAPACITY,
    OP_VALUES,
    OP_TELEMETRY,
    OP_ERROR,
)

#: Frames above this size are refused (a corrupt length prefix would
#: otherwise make recv try to allocate gigabytes).
MAX_FRAME_BYTES = 1 << 30

_LEN = struct.Struct(">I")


class WireError(ConnectionError):
    """Framing/handshake violation on a cluster connection."""


def fingerprint_key(fingerprint: object) -> str:
    """Stable string key for any picklable objective fingerprint.

    Used to key the persistent memo store and to compare fingerprints
    across the wire without shipping the raw object twice.  Pickle of
    the canonical fingerprint tuples used in this repository
    (``(kernel, cache, n_samples, seed)``) is deterministic across
    processes; protocol is pinned so the key is stable across Python
    versions too.
    """
    blob = pickle.dumps(fingerprint, protocol=4)
    return hashlib.sha256(blob).hexdigest()


def send_frame(sock: socket.socket, payload: dict[str, Any]) -> int:
    """Send one frame; returns the payload byte count (accounting)."""
    blob = pickle.dumps(payload)
    if len(blob) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(blob)} bytes exceeds MAX_FRAME_BYTES")
    sock.sendall(_LEN.pack(len(blob)) + blob)
    return len(blob)


def recv_frame(sock: socket.socket) -> dict[str, Any]:
    """Receive one frame; raises :class:`WireError` on EOF/corruption."""
    header = _recv_exact(sock, _LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds MAX_FRAME_BYTES")
    blob = _recv_exact(sock, length)
    try:
        payload = pickle.loads(blob)
    # Undecodable bytes can raise nearly anything out of the pickle VM
    # (UnpicklingError, EOFError, ValueError, …); each one is a corrupt
    # frame, which the connection loops on both sides handle as such.
    except Exception as exc:  # repro: lint-ok[broad-except]
        raise WireError(
            f"undecodable frame payload: {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(payload, dict) or "op" not in payload:
        raise WireError(f"malformed frame payload: {type(payload).__name__}")
    return payload  # payload values are protocol-checked by the caller


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            raise WireError("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def client_handshake(
    sock: socket.socket, fingerprint: object = None
) -> dict[str, Any]:
    """Run the client side of the handshake; returns the server hello."""
    send_frame(
        sock,
        {
            "op": OP_HELLO,
            "version": WIRE_VERSION,
            "fingerprint_key": fingerprint_key(fingerprint),
        },
    )
    reply = recv_frame(sock)
    if reply.get("op") == OP_ERROR:
        raise WireError(f"server refused handshake: {reply.get('message')}")
    if reply.get("op") != OP_HELLO or reply.get("version") != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: server speaks "
            f"{reply.get('version')!r}, client speaks {WIRE_VERSION!r}"
        )
    echoed = reply.get("fingerprint_key")
    if echoed != fingerprint_key(fingerprint):
        raise WireError(
            "handshake fingerprint echo mismatch: the server did not "
            "acknowledge the objective identity it was sent"
        )
    return reply


def server_handshake(sock: socket.socket) -> dict[str, Any]:
    """Run the server side; returns the client hello after replying.

    Raises :class:`WireError` (after sending an ``error`` frame) when
    the client speaks a different protocol version.
    """
    hello = recv_frame(sock)
    if hello.get("op") != OP_HELLO or hello.get("version") != WIRE_VERSION:
        send_frame(
            sock,
            {
                "op": OP_ERROR,
                "message": (
                    f"wire version mismatch: client speaks "
                    f"{hello.get('version')!r}, server speaks {WIRE_VERSION!r}"
                ),
            },
        )
        raise WireError(f"handshake refused: {hello!r}")
    send_frame(
        sock,
        {
            "op": OP_HELLO,
            "version": WIRE_VERSION,
            "ok": True,
            # Echo the objective identity so the client can verify it
            # reached the host (and session) it thinks it did.
            "fingerprint_key": hello.get("fingerprint_key"),
        },
    )
    return hello


def parse_hosts(spec: str | None) -> tuple[tuple[str, int], ...]:
    """Parse ``host:port,host:port,…`` (the ``--hosts``/``REPRO_HOSTS``
    format) into ``(host, port)`` pairs; empty/None parses to ()."""
    if not spec:
        return ()
    out: list[tuple[str, int]] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        host, sep, port = item.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"bad host spec {item!r}; expected host:port"
            )
        out.append((host, int(port)))
    return tuple(out)
