"""The worker agent behind ``python -m repro.cli serve``.

A worker is a threaded TCP server speaking the frame protocol of
:mod:`repro.distributed.wire`.  Each connection is an independent
session holding one **objective** — installed once per connection
(``op=objective``, the pickled pure function), after which evaluation
jobs (``op=eval``) carry only genotype tuples.  The worker wraps it in
the shared :class:`repro.evaluation.Evaluator`, so a worker with
``capacity>1`` fans a candidate batch out over its own local process
pool.

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

from repro import telemetry
from repro.distributed import wire

logger = telemetry.get_logger("distributed.worker")


class _Session:
    """Per-connection state: the installed objective."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.evaluator = None

    def close(self) -> None:
        """Release the session's process pool (connection teardown)."""
        if self.evaluator is not None:
            self.evaluator.close()

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
