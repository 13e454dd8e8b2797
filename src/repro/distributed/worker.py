"""The worker agent behind ``python -m repro.cli serve``.

A worker is a threaded TCP server speaking the frame protocol of
:mod:`repro.distributed.wire`.  Each connection is an independent
session holding exactly the state the zero-copy :class:`ShardPool`
transport holds per process:

* an **objective** — installed once per connection (``op=objective``,
  the pickled pure function), after which evaluation jobs carry only
  genotype tuples.  The worker wraps it in the shared
  :class:`repro.evaluation.Evaluator`, so a worker with ``capacity>1``
  fans a candidate batch out over its own local process pool;
* a **shard context** (``op=shard_context``) plus a worker-side
  candidate-bundle LRU — the existing ShardPool token/span messages
  carried over TCP: ``op=shard`` jobs address the fixed sample by
  ``(token, start, stop)`` span, bundles ship once per token, and an
  evicted token answers ``op=miss`` so the client resends the blob
  (the ``_ContextMiss`` retry, end to end).

Replies to ``op=shard`` carry the full :class:`CMEEstimate` — solver
and congruence ``TesterStats`` included — so the coordinator's
``merge_estimates`` keeps the accuracy-regression counters live across
hosts exactly as it does across local shard processes.  ``op=span`` is
the same job addressed by a coordinator-issued span id: the reply
echoes the id (duplicate suppression under straggler re-slicing) and
reports worker-side compute seconds for the coordinator's per-host
throughput model (see :mod:`repro.distributed.shardclient`).

Workers are stateless between connections and never touch the memo
store: deduplication against past runs happens coordinator-side, which
is what keeps result assembly deterministic regardless of worker
count, capacity, or message arrival order.
"""

from __future__ import annotations

import pickle
import socket
import socketserver
import threading
import time
from collections import OrderedDict

from repro import telemetry
from repro.distributed import wire
from repro.evaluation import sharding

logger = telemetry.get_logger("distributed.worker")

#: Worker-side per-connection candidate-bundle memo size (tokens) —
#: the same policy object as the local shard pools', re-exported as a
#: module attribute so tests can shrink it per transport.
BUNDLE_CACHE_SIZE = sharding.BUNDLE_CACHE_SIZE


class _Session:
    """Per-connection state: installed objective + shard context."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.evaluator = None
        self.shard_ctx = None
        self.shard_pool = None
        self.bundles: "OrderedDict[str, tuple]" = OrderedDict()

    def close(self) -> None:
        """Release the session's process pools (connection teardown)."""
        if self.evaluator is not None:
            self.evaluator.close()
        if self.shard_pool is not None:
            self.shard_pool.close()
            self.shard_pool = None

    # -- op handlers ---------------------------------------------------------
    # One ``_op_<name>`` method per request op in ``wire.REQUEST_OPS``
    # (the ``wire-ops`` lint rule checks the correspondence); shutdown
    # alone is handled by the connection loop, which must see it.
    def handle(self, msg: dict) -> dict:
        op = msg.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            return {"op": wire.OP_ERROR, "message": f"unknown op {op!r}"}
        try:
            with telemetry.recorder().span(f"worker.{op}"):
                return handler(msg)
        # Job errors go back as error frames, not EOF: any exception an
        # arbitrary pickled objective can raise must reach the
        # coordinator (which re-dispatches or re-raises), so nothing
        # narrower than Exception is correct here.
        except Exception as exc:  # repro: lint-ok[broad-except]
            return {
                "op": wire.OP_ERROR,
                "message": f"{type(exc).__name__}: {exc}",
            }

    def _op_ping(self, msg: dict) -> dict:
        return {"op": wire.OP_PONG}

    def _op_telemetry(self, msg: dict) -> dict:
        """Drain this worker's buffered telemetry back to the client.

        Strictly read-and-clear on the event buffer — results flow
        through the estimate/value ops only, so losing (or never
        sending) a telemetry reply cannot change any search outcome.
        """
        return {"op": wire.OP_TELEMETRY, "events": telemetry.drain_events()}

    def _op_capacity(self, msg: dict) -> dict:
        return {"op": wire.OP_CAPACITY, "capacity": self.capacity}

    def _op_objective(self, msg: dict) -> dict:
        from repro.evaluation import Evaluator

        fn = pickle.loads(msg["blob"])
        if self.evaluator is not None:
            self.evaluator.close()  # don't leak the old pool's processes
        self.evaluator = Evaluator(fn, workers=self.capacity)
        return {"op": wire.OP_OK}

    def _op_eval(self, msg: dict) -> dict:
        if self.evaluator is None:
            return {"op": wire.OP_ERROR, "message": "no objective installed"}
        candidates = [tuple(c) for c in msg["candidates"]]
        values = self.evaluator.evaluate_batch(candidates)
        return {"op": wire.OP_VALUES, "values": [float(v) for v in values]}

    def _op_shard_context(self, msg: dict) -> dict:
        self.shard_ctx = pickle.loads(msg["blob"])
        self.bundles.clear()
        if self.shard_pool is not None:
            self.shard_pool.close()
            self.shard_pool = None
        if self.capacity > 1:
            # A multi-core worker re-shards each incoming span across
            # its own local ShardPool — the token/span protocol the
            # coordinator-side pools use, one level down.
            ctx = self.shard_ctx
            self.shard_pool = sharding.ShardPool(
                self.capacity,
                ctx.cache,
                list(ctx.points),
                ctx.confidence,
                ctx.cascade_budgets,
            )
        return {"op": wire.OP_OK}

    def _classify_span(self, msg: dict):
        """Shared span classification behind ``shard`` and ``span`` ops.

        Returns either the :class:`CMEEstimate` or a ``miss`` reply
        frame (worker lacks the bundle and the message carried no blob
        — the ``_ContextMiss`` retry, over the wire).  Raises on a
        missing shard context; callers translate uniformly.
        """
        from repro.cme.sampling import estimate_at_points

        ctx = self.shard_ctx
        if ctx is None:
            raise RuntimeError("no shard context installed")
        token = msg["token"]
        bundle = sharding.bundle_cache_get(self.bundles, token)
        if bundle is None:
            blob = msg.get("blob")
            if blob is None:
                return {"op": wire.OP_MISS, "token": token}
            bundle = pickle.loads(blob)
            sharding.bundle_cache_put(self.bundles, token, bundle, BUNDLE_CACHE_SIZE)
        program, layout, candidates = bundle
        start, stop = msg["start"], msg["stop"]
        if self.shard_pool is not None:
            return self.shard_pool.estimate(
                program, layout, candidates, token, span=(start, stop)
            )
        return estimate_at_points(
            program,
            layout,
            ctx.cache,
            list(ctx.points[start:stop]),
            ctx.confidence,
            candidates,
            cascade_budgets=ctx.cascade_budgets,
        )

    def _op_shard(self, msg: dict) -> dict:
        est = self._classify_span(msg)
        if isinstance(est, dict):
            return est  # miss frame
        return {"op": wire.OP_ESTIMATE, "estimate": est}

    def _op_span(self, msg: dict) -> dict:
        """A shard job addressed by coordinator span id, with timing.

        Same classification as ``op=shard``; the reply echoes the
        coordinator's ``span_id`` (first-reply-wins duplicate
        suppression keys on it) and reports the worker-side compute
        seconds, which feed the coordinator's per-host throughput model
        (EWMA points/sec) without network jitter baked in.
        """
        t0 = time.monotonic()
        est = self._classify_span(msg)
        if isinstance(est, dict):
            est["span_id"] = msg.get("span_id")
            return est  # miss frame
        return {
            "op": wire.OP_SPAN_ESTIMATE,
            "span_id": msg.get("span_id"),
            "estimate": est,
            "elapsed": time.monotonic() - t0,
        }


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):  # pragma: no cover - exercised via live sockets
        sock: socket.socket = self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            wire.server_handshake(sock)
        except wire.WireError:
            return
        session = _Session(self.server.capacity)
        try:
            while True:
                msg = wire.recv_frame(sock)
                if msg.get("op") == wire.OP_SHUTDOWN:
                    wire.send_frame(sock, {"op": wire.OP_OK})
                    self.server.shutdown_requested.set()
                    return
                wire.send_frame(sock, session.handle(msg))
        except (wire.WireError, ConnectionError, OSError):
            return  # client went away; session state dies with it
        finally:
            session.close()


class WorkerServer(socketserver.ThreadingTCPServer):
    """Threaded worker agent; one `_Session` per client connection."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, host: str = "127.0.0.1", port: int = 0, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__((host, port), _Handler)
        self.capacity = capacity
        self.shutdown_requested = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def serve_until_shutdown(self) -> None:
        """Serve until a client sends ``op=shutdown`` (CLI entry)."""
        poller = threading.Thread(target=self.serve_forever, daemon=True)
        poller.start()
        try:
            self.shutdown_requested.wait()
        finally:
            self.shutdown()
            poller.join(timeout=5)
            self.server_close()


def serve(port: int, host: str = "127.0.0.1", capacity: int = 1) -> int:
    """Blocking entry point for ``python -m repro.cli serve``.

    Prints the bound address (``--port 0`` picks a free port) so a
    spawning parent — :class:`repro.distributed.cluster.LoopbackCluster`
    or an operator's script — can read it back, then serves until a
    client requests shutdown or the process is killed.
    """
    server = WorkerServer(host=host, port=port, capacity=capacity)
    bound_host, bound_port = server.address
    # The stdout banner is parsed by spawning parents — keep it a
    # plain print; diagnostics go to the stderr logging channel.
    print(f"repro-serve listening on {bound_host}:{bound_port}", flush=True)
    telemetry.configure(host=f"{bound_host}:{bound_port}")
    telemetry.recorder().event("worker.serve", capacity=capacity)
    logger.info(
        "worker agent up on %s:%s (capacity %d)",
        bound_host, bound_port, capacity,
    )
    try:
        server.serve_until_shutdown()
    finally:
        logger.info("worker agent on %s:%s shut down", bound_host, bound_port)
        telemetry.shutdown()
    return 0
