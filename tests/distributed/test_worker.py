"""Worker agent sessions over real sockets (in-process server)."""

import pickle
import socket
import struct
import threading

import pytest

from repro.distributed import SmokeObjective, WireError, wire, worker
from repro.distributed.client import HostConnection
from repro.distributed.worker import WorkerServer


@pytest.fixture()
def server():
    srv = WorkerServer(port=0, capacity=3)
    thread = threading.Thread(
        target=lambda: srv.serve_forever(poll_interval=0.05), daemon=True
    )
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def conn(server):
    c = HostConnection(*server.address)
    yield c
    c.close()


def test_capacity_is_registered_at_connect(conn):
    assert conn.capacity == 3


def test_ping(conn):
    assert conn.request({"op": "ping"})["op"] == "pong"


def test_eval_without_objective_is_an_error_frame_not_a_hangup(conn):
    with pytest.raises(WireError, match="no objective installed"):
        conn.request({"op": "eval", "candidates": [(1, 2)]})
    # the connection survives the error and keeps serving
    assert conn.request({"op": "ping"})["op"] == "pong"


@pytest.mark.parametrize("op", ["frobnicate", "shard", "span", "shard_context"])
def test_unknown_op_is_an_error_frame(conn, op):
    """An op outside ``wire.REQUEST_OPS`` — made up, or one of the
    point-sharding ops wire version 1 carried — gets an error frame,
    and the connection keeps serving."""
    with pytest.raises(WireError, match="unknown op"):
        conn.request({"op": op, "token": "t", "start": 0, "stop": 1})
    assert conn.request({"op": "ping"})["op"] == "pong"


def test_objective_install_and_eval(conn):
    fn = SmokeObjective((3, 7))
    conn.ensure_objective(pickle.dumps(fn))
    batch = [(1, 2), (3, 7), (5, 5), (3, 7)]
    reply = conn.request({"op": "eval", "candidates": batch})
    assert reply["op"] == "values"
    assert reply["values"] == [fn(c) for c in batch]


def test_objective_exception_comes_back_as_error_frame(conn):
    conn.ensure_objective(pickle.dumps(_exploding))
    with pytest.raises(WireError, match="boom"):
        conn.request({"op": "eval", "candidates": [(1,)]})


def _exploding(values):
    raise RuntimeError("boom")


def test_two_connections_have_independent_sessions(server):
    a = HostConnection(*server.address)
    b = HostConnection(*server.address)
    try:
        a.ensure_objective(pickle.dumps(SmokeObjective((1, 1))))
        # b never installed an objective; a's install must not leak.
        with pytest.raises(WireError, match="no objective installed"):
            b.request({"op": "eval", "candidates": [(0, 0)]})
        reply = a.request({"op": "eval", "candidates": [(0, 0)]})
        assert reply["values"] == [2.0]
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize(
    "blob",
    [b"not a pickle", pickle.dumps({"op": "ping", "pad": "x" * 64})[:-5]],
    ids=["garbage", "truncated-pickle"],
)
def test_undecodable_frame_closes_only_that_connection(server, monkeypatch, blob):
    """A corrupt frame ends its own session cleanly (no traceback from
    the connection thread), and the agent keeps serving new ones."""
    crashed = []
    monkeypatch.setattr(server, "handle_error", lambda *a: crashed.append(a))
    with socket.create_connection(server.address, timeout=5) as raw:
        wire.client_handshake(raw)
        raw.sendall(struct.pack(">I", len(blob)) + blob)
        assert raw.recv(1) == b""  # the agent hung up on this connection
    assert crashed == []
    fresh = HostConnection(*server.address)
    try:
        assert fresh.request({"op": "ping"})["op"] == "pong"
    finally:
        fresh.close()


def test_capacity_validation():
    with pytest.raises(ValueError, match="capacity"):
        WorkerServer(port=0, capacity=0)


def test_eval_chunk_is_one_batch_call():
    """An agent's `op=eval` chunk reaches the objective's batch method
    once, with the chunk's distinct genotypes in order."""
    from tests.evaluation.test_evaluator import _BatchSquare, _square

    session = worker._Session(capacity=1)
    try:
        blob = pickle.dumps(_BatchSquare())
        assert session.handle({"op": "objective", "blob": blob})["op"] == "ok"
        chunk = [(3, 1), (2, 2), (3, 1), (5, 0)]
        reply = session.handle({"op": "eval", "candidates": chunk})
        assert reply["values"] == [_square(c) for c in chunk]
        assert session.evaluator._fn.batches == [[(3, 1), (2, 2), (5, 0)]]
    finally:
        session.close()
