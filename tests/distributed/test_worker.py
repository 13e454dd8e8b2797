"""Worker agent sessions over real sockets (in-process server)."""

import pickle
import socket
import struct
import threading

import pytest

from repro.cache.config import CacheConfig
from repro.cme.sampling import estimate_at_points, sample_original_points
from repro.distributed import SmokeObjective, WireError, wire, worker
from repro.distributed.client import HostConnection
from repro.distributed.worker import WorkerServer
from repro.evaluation.sharding import ShardContext, merge_estimates
from repro.ir.program import program_from_nest
from repro.layout.memory import MemoryLayout
from tests.conftest import make_small_transpose

CACHE = CacheConfig(1024, 32, 1)


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


def test_unknown_op_is_an_error_frame(conn):
    with pytest.raises(WireError, match="unknown op"):
        conn.request({"op": "frobnicate"})


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


def _shard_fixture():
    nest = make_small_transpose(16)
    layout = MemoryLayout(nest.arrays())
    program = program_from_nest(nest)
    points = sample_original_points(nest, 24, 0)
    ctx = ShardContext(cache=CACHE, confidence=0.90, points=tuple(points))
    bundle = pickle.dumps((program, layout, None))
    ref = estimate_at_points(program, layout, CACHE, points)
    return ctx, bundle, ref


def test_shard_span_protocol_over_tcp(conn):
    ctx, bundle, ref = _shard_fixture()
    conn.install_shard_context(pickle.dumps(ctx))
    # First span ships the bundle via the miss retry...
    a = conn.shard_estimate("tok", bundle, 0, 12)
    # ...repeat spans ride the worker-side bundle memo.
    b = conn.shard_estimate("tok", None, 12, 24)
    assert a.sampled_points + b.sampled_points == ref.sampled_points
    assert a.hits + b.hits == ref.hits
    assert a.replacement + b.replacement == ref.replacement
    # TesterStats travel with each estimate (merged coordinator-side).
    assert (
        a.solver_stats.points + b.solver_stats.points
        == ref.solver_stats.points
    )


def test_worker_subpool_spans_match_serial():
    """A capacity>1 agent re-shards each span over its own ShardPool;
    the merged estimate equals the serial one."""
    nest = make_small_transpose(32)
    layout = MemoryLayout(nest.arrays())
    program = program_from_nest(nest)
    points = sample_original_points(nest, 48, 0)
    ref = estimate_at_points(program, layout, CACHE, points)
    ctx = ShardContext(cache=CACHE, confidence=0.90, points=tuple(points))
    srv = WorkerServer(port=0, capacity=2)
    thread = threading.Thread(
        target=lambda: srv.serve_forever(poll_interval=0.05), daemon=True
    )
    thread.start()
    conn = HostConnection(*srv.address)
    try:
        conn.install_shard_context(pickle.dumps(ctx))
        bundle = pickle.dumps((program, layout, None))
        a = conn.shard_estimate("tok", bundle, 0, 24)
        b = conn.shard_estimate("tok", None, 24, 48)
        merged = merge_estimates([a, b])
        assert merged.per_ref == ref.per_ref
        assert (merged.hits, merged.cold, merged.replacement) == (
            ref.hits, ref.cold, ref.replacement
        )
        assert merged.solver_stats.points == ref.solver_stats.points
    finally:
        conn.close()
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def test_shard_without_context_is_an_error(conn):
    with pytest.raises(WireError, match="no shard context"):
        conn.request({"op": "shard", "token": "t", "start": 0, "stop": 1})


def test_shard_miss_reply_for_unknown_token(conn):
    ctx, _bundle, _ref = _shard_fixture()
    conn.install_shard_context(pickle.dumps(ctx))
    reply = conn.request(
        {"op": "shard", "token": "never-shipped", "start": 0, "stop": 4}
    )
    assert reply == {"op": "miss", "token": "never-shipped"}


def test_shard_bundle_lru_evicts_and_retries(conn, monkeypatch):
    monkeypatch.setattr(worker, "BUNDLE_CACHE_SIZE", 1)
    ctx, bundle, ref = _shard_fixture()
    conn.install_shard_context(pickle.dumps(ctx))
    conn.shard_estimate("tok-a", bundle, 0, 8)
    conn.shard_estimate("tok-b", bundle, 0, 8)  # evicts tok-a
    reply = conn.request(
        {"op": "shard", "token": "tok-a", "start": 8, "stop": 16}
    )
    assert reply["op"] == "miss"  # evicted → client must resend the blob
    est = conn.shard_estimate("tok-a", bundle, 8, 16)
    assert est.sampled_points == 8


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
