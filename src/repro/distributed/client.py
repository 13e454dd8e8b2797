"""Coordinator-side cluster access: connections, dispatch, retry.

:class:`ClusterClient` owns one socket per configured host and turns a
list of candidates into per-host ``op=eval`` jobs.  The scheduling is
guided self-scheduling over a shared queue: each grab is an equal share
of what is still unassigned, ``ceil(remaining / hosts)``, and at least
the grabbing host's capacity.  A lone host takes a whole wave in one
request, which its agent solves in one merged classify pass; several
hosts take shrinking grabs (15, 8, 4, 2, 1 of 30 on two hosts), so a
fast host naturally takes more and the small late grabs even out
stragglers.  Failure handling is uniform:

* **worker loss** (connection reset, refused, EOF): the host's whole
  grab goes back to the front of the queue, where the next pop re-sizes
  it for the surviving hosts; the connection is closed, and the next
  ``evaluate`` call tries to reconnect (so a restarted worker rejoins
  without coordinator restarts);
* **stragglers** (no reply within ``timeout`` seconds): treated the
  same — the grab is re-dispatched elsewhere and the slow connection
  is abandoned.  The deadline covers one grab, a host's fair share of
  a wave (for a lone host, the whole wave).  Objectives are pure, so
  re-computing a grab on another host can only change wall-clock
  time, never a value.

If every host is lost mid-wave, :class:`ClusterUnavailable` carries the
partial results out so the caller (:class:`DistributedEvaluator`)
finishes the remainder locally — a killed worker never loses a wave.
"""

from __future__ import annotations

import hashlib
import socket
import threading
import time
from collections import deque

from repro import telemetry
from repro.distributed import wire
from repro.evaluation.batch import guided_grab

logger = telemetry.get_logger("distributed.client")

Values = tuple[int, ...]


class ClusterUnavailable(RuntimeError):
    """No live workers remain; ``partial`` holds values computed so far."""

    def __init__(self, message: str, partial: dict[int, float] | None = None):
        super().__init__(message)
        self.partial = partial or {}


class HostConnection:
    """One handshaken socket to a worker, with per-connection state."""

    def __init__(
        self,
        host: str,
        port: int,
        fingerprint: object = None,
        timeout: float | None = None,
    ):
        self.host = host
        self.port = port
        self.sock = socket.create_connection((host, port), timeout=5.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(timeout)
        wire.client_handshake(self.sock, fingerprint)
        self.objective_key: str | None = None
        self.sent_bytes = 0
        self.capacity = int(
            self.request({"op": wire.OP_CAPACITY}).get("capacity", 1)
        )

    def request(self, msg: dict) -> dict:
        sent = wire.send_frame(self.sock, msg)
        self.sent_bytes += sent
        telemetry.recorder().count(
            "wire.request_bytes",
            sent,
            op=str(msg.get("op")),
            host=f"{self.host}:{self.port}",
        )
        reply = wire.recv_frame(self.sock)
        if reply.get("op") == wire.OP_ERROR:
            raise wire.WireError(
                f"{self.host}:{self.port}: {reply.get('message')}"
            )
        return reply

    def _request_ack(self, msg: dict) -> None:
        """A request whose only valid reply is an ``ok`` frame."""
        reply = self.request(msg)
        if reply.get("op") != wire.OP_OK:
            raise wire.WireError(
                f"{self.host}:{self.port}: expected ok to "
                f"{msg.get('op')!r}, got {reply.get('op')!r}"
            )

    def ping(self) -> bool:
        """Liveness probe: one round trip through the worker's session
        loop (unlike a TCP connect, it proves the agent is serving)."""
        return self.request({"op": wire.OP_PING}).get("op") == wire.OP_PONG

    def ensure_objective(self, blob: bytes, key: str | None = None) -> None:
        """Install the pickled objective once per connection.

        Keyed by content digest (never object identity — a recycled
        ``id()`` must not skip installing a *different* objective).
        """
        if key is None:
            key = hashlib.sha256(blob).hexdigest()
        if self.objective_key != key:
            self._request_ack({"op": wire.OP_OBJECTIVE, "blob": blob})
            self.objective_key = key

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class ClusterClient:
    """Dispatch candidate batches across the configured worker hosts."""

    def __init__(
        self,
        hosts,
        fingerprint: object = None,
        timeout: float | None = None,
        reconnect_backoff: float = 30.0,
    ):
        if isinstance(hosts, str):
            hosts = wire.parse_hosts(hosts)
        self.hosts: tuple[tuple[str, int], ...] = tuple(
            (h, int(p)) for h, p in hosts
        )
        self.fingerprint = fingerprint
        self.timeout = timeout
        self._conns: dict[tuple[str, int], HostConnection | None] = {
            addr: None for addr in self.hosts
        }
        #: Seconds to skip reconnect attempts to a host that just
        #: failed — without it every wave of a long search pays a
        #: multi-second blocking connect for each blackholed host.
        #: Cleared on the next *successful* handshake, so a host that
        #: flapped once is penalised per incident, never for the run.
        self.reconnect_backoff = float(reconnect_backoff)
        self._last_failure: dict[tuple[str, int], float] = {}
        #: Guards the connection table, failure clock and loss count:
        #: the host threads of :meth:`evaluate` drop their connections
        #: concurrently.
        self._lock = threading.Lock()
        #: Dispatch accounting.
        self.payload_bytes = 0
        self.redispatched_chunks = 0
        self.lost_hosts = 0

    # -- connections ---------------------------------------------------------
    def connect(self) -> list[HostConnection]:
        """(Re)connect configured hosts that are not connected.

        A host whose last attempt (or connection) failed within
        ``reconnect_backoff`` seconds is skipped this round, so a dead
        host costs one connect timeout per backoff window, not per
        wave; a restarted worker rejoins on the first round after its
        window expires — and a successful handshake clears the
        failure clock, so the penalty never outlives the outage.
        """
        with self._lock:
            live: list[HostConnection] = []
            now = time.monotonic()
            for addr, conn in self._conns.items():
                if conn is None:
                    failed_at = self._last_failure.get(addr)
                    if (
                        failed_at is not None
                        and now - failed_at < self.reconnect_backoff
                    ):
                        continue
                    try:
                        conn = HostConnection(
                            *addr,
                            fingerprint=self.fingerprint,
                            timeout=self.timeout,
                        )
                    except (OSError, wire.WireError):
                        self._last_failure[addr] = time.monotonic()
                        continue
                    self._conns[addr] = conn
                    self._last_failure.pop(addr, None)
                live.append(conn)
            return live

    def _drop(self, conn: HostConnection) -> None:
        conn.close()
        addr = (conn.host, conn.port)
        logger.warning("lost worker %s:%s", conn.host, conn.port)
        telemetry.recorder().event(
            "wire.worker_lost", host=f"{conn.host}:{conn.port}"
        )
        with self._lock:
            # connect() retries the address after the backoff window.
            self._conns[addr] = None
            self._last_failure[addr] = time.monotonic()
            self.lost_hosts += 1

    # -- dispatch ------------------------------------------------------------
    def evaluate(self, blob: bytes, candidates: list[Values]) -> list[float]:
        """Values for ``candidates`` (in order), computed cluster-side.

        Raises :class:`ClusterUnavailable` — with whatever partial
        results arrived — when no live worker remains.
        """
        conns = self.connect()
        if not conns:
            raise ClusterUnavailable("no live workers")
        n = len(candidates)
        if n == 0:
            return []
        blob_key = hashlib.sha256(blob).hexdigest()
        queue: deque[int] = deque(range(n))
        results: dict[int, float] = {}
        lock = threading.Lock()
        sent_before = {c: c.sent_bytes for c in conns}

        def host_loop(conn: HostConnection, hosts: int) -> None:
            while True:
                with lock:
                    if not queue:
                        return
                    # Guided grab, sized at each pop from what is left
                    # and the round's hosts: an equal share, so a lone
                    # host's agent solves the whole wave in one merged
                    # pass, and at least this host's capacity (its
                    # local pool wants whole batches).
                    grab = guided_grab(len(queue), hosts, conn.capacity)
                    idxs = [queue.popleft() for _ in range(grab)]
                try:
                    conn.ensure_objective(blob, blob_key)
                    payload = {
                        "op": wire.OP_EVAL,
                        "candidates": [candidates[i] for i in idxs],
                    }
                    reply = conn.request(payload)
                    values = reply.get("values")
                    if (
                        reply.get("op") != wire.OP_VALUES
                        or not isinstance(values, list)
                        or len(values) != len(idxs)
                    ):
                        raise wire.WireError(
                            f"bad eval reply from {conn.host}:{conn.port}"
                        )
                    with lock:
                        for i, v in zip(idxs, values):
                            results[i] = float(v)
                except Exception:  # repro: lint-ok[broad-except]
                    # OSError/WireError/timeout are the expected loss
                    # and straggler cases; anything else (a malformed
                    # value, an unpicklable surprise) must equally not
                    # strand the grab or leave a wedged connection
                    # registered as live.
                    # Worker lost or straggling: give the whole grab
                    # back to the front of the queue for the surviving
                    # hosts and retire this connection.
                    logger.warning(
                        "re-dispatching %d candidates away from %s:%s",
                        len(idxs), conn.host, conn.port,
                    )
                    telemetry.recorder().event(
                        "wire.redispatch",
                        host=f"{conn.host}:{conn.port}",
                        candidates=len(idxs),
                    )
                    with lock:
                        queue.extendleft(reversed(idxs))
                        self.redispatched_chunks += 1
                    self._drop(conn)
                    return

        wave_bytes = 0
        # A handful of rounds bounds the pathological case where a
        # candidate deterministically kills every worker: after that the
        # caller's local fallback computes the remainder (and surfaces
        # the real exception).  A round ends when its threads finish;
        # a grab a dying host gave back after its siblings exited is
        # re-sized and re-dispatched in the next round, over freshly
        # (re)connected hosts — so a restarted worker rejoins
        # mid-search.
        for _round in range(3):
            threads = [
                threading.Thread(
                    target=host_loop, args=(c, len(conns)), daemon=True
                )
                for c in conns
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wave_bytes += sum(
                c.sent_bytes - sent_before[c] for c in conns
            )
            if len(results) == n:
                break
            conns = self.connect()
            if not conns:
                break
            sent_before = {c: c.sent_bytes for c in conns}
        self.payload_bytes += wave_bytes
        if len(results) != n:
            raise ClusterUnavailable(
                f"lost all workers with {n - len(results)} candidates "
                "outstanding",
                partial=results,
            )
        return [results[i] for i in range(n)]

    # -- telemetry -----------------------------------------------------------
    def drain_telemetry(self) -> list[dict]:
        """Collect buffered telemetry events from every live worker.

        One ``op=telemetry`` round trip per host; each event is
        (re)stamped with the address *we* dialled — the worker knows
        only its bind address, and the coordinator's view is the one
        the timeline should group by.  Batches merge on the
        ``(host, pid, seq)`` total order, so the result is independent
        of which host replied first.  Purely observational: a host
        that dies mid-drain just contributes nothing.
        """
        batches: list[list[dict]] = []
        for conn in self.connect():
            try:
                reply = conn.request({"op": wire.OP_TELEMETRY})
            except (OSError, wire.WireError):
                self._drop(conn)
                continue
            events = reply.get("events")
            if not isinstance(events, list):
                continue
            addr = f"{conn.host}:{conn.port}"
            for evt in events:
                if isinstance(evt, dict):
                    evt["host"] = addr
            batches.append([e for e in events if isinstance(e, dict)])
        return telemetry.merge_events(batches)

    # -- lifecycle -----------------------------------------------------------
    def shutdown_workers(self) -> None:
        """Ask every live worker process to exit (loopback teardown)."""
        for conn in self.connect():
            try:
                conn.request({"op": wire.OP_SHUTDOWN})
            except (OSError, wire.WireError):
                pass
            self._drop(conn)
        self.lost_hosts = 0

    def close(self) -> None:
        with self._lock:
            for addr, conn in self._conns.items():
                if conn is not None:
                    conn.close()
                    self._conns[addr] = None
