"""DistributedEvaluator: drop-in BatchObjective over in-process servers.

These tests run the full client/worker wire path on real sockets but
keep the servers in-process (threads) so the fast lane stays fast; the
subprocess end-to-end — CLI `serve`, SIGKILL mid-run, golden-pinned
searches — lives in test_loopback.py.
"""

import contextlib
import pickle
import socket
import sys
import threading

import numpy as np
import pytest

from repro.distributed import (
    ClusterUnavailable,
    DistributedEvaluator,
    SmokeObjective,
)
from repro.distributed.client import ClusterClient, HostConnection
from repro.distributed.worker import WorkerServer
from repro.evaluation import BatchObjective, Evaluator
from repro.search import HillClimbStrategy, run_search


@contextlib.contextmanager
def _running(n):
    pool = []
    threads = []
    for _ in range(n):
        srv = WorkerServer(port=0, capacity=1)
        t = threading.Thread(
            target=lambda srv=srv: srv.serve_forever(poll_interval=0.05),
            daemon=True,
        )
        t.start()
        pool.append(srv)
        threads.append(t)
    try:
        yield pool
    finally:
        for srv in pool:
            srv.shutdown()
            srv.server_close()
        for t in threads:
            t.join(timeout=5)


@pytest.fixture()
def servers():
    with _running(2) as pool:
        yield pool


@pytest.fixture()
def lone():
    with _running(1) as pool:
        yield pool[0]


def _hosts(servers):
    return tuple(s.address for s in servers)


def test_is_a_drop_in_batch_objective(servers):
    ev = DistributedEvaluator(SmokeObjective((2, 2)), hosts=_hosts(servers))
    try:
        assert isinstance(ev, BatchObjective)
        assert isinstance(ev, Evaluator)
        got = ev.evaluate_batch([(0, 0), (2, 2), (0, 0)])
        assert list(got) == [8.0, 0.0, 8.0]
        assert ev(np.array([2, 2])) == 0.0  # __call__ path, cache hit
        assert ev.distinct_evaluations == 2
        assert ev.remote_solves == 2 and ev.local_solves == 0
    finally:
        ev.close()


def test_values_match_local_evaluator_exactly(servers):
    fn = SmokeObjective((7, 3))
    batch = [(i, j) for i in range(5) for j in range(5)]
    local = Evaluator(fn)
    dist = DistributedEvaluator(fn, hosts=_hosts(servers))
    try:
        assert list(dist.evaluate_batch(batch)) == list(
            local.evaluate_batch(batch)
        )
        assert dist.cache == local.cache
    finally:
        dist.close()
        local.close()


def test_search_trajectory_identical_to_local_backend(servers):
    fn = SmokeObjective((4, 27))
    serial = HillClimbStrategy([32, 32], start=(16, 16))
    run_search(serial, fn)
    dist_strategy = HillClimbStrategy([32, 32], start=(16, 16))
    ev = DistributedEvaluator(fn, hosts=_hosts(servers))
    try:
        result = run_search(dist_strategy, ev)
    finally:
        ev.close()
    assert dist_strategy.accepted == serial.accepted
    assert result.best_values == serial.best_values
    assert result.best_objective == serial.best_objective


def test_no_hosts_falls_back_to_local_compute():
    ev = DistributedEvaluator(SmokeObjective((1, 1)), hosts=())
    try:
        assert list(ev.evaluate_batch([(0, 0), (1, 1)])) == [2.0, 0.0]
        assert ev.local_solves == 2 and ev.remote_solves == 0
    finally:
        ev.close()


def test_dead_hosts_fall_back_to_local_compute(servers):
    hosts = _hosts(servers)
    for srv in servers:
        srv.shutdown()
        srv.server_close()
    ev = DistributedEvaluator(SmokeObjective((5, 5)), hosts=hosts)
    try:
        got = ev.evaluate_batch([(5, 5), (6, 5)])
        assert list(got) == [0.0, 1.0]
        assert ev.local_solves == 2
        assert ev.backend_stats()["remote_solves"] == 0
    finally:
        ev.close()


def test_mid_wave_loss_recovers_without_losing_values(servers):
    # Sever one live connection under the client: its chunks must be
    # re-dispatched to the survivor and the wave completes identically.
    # (The true SIGKILL-a-process path is exercised in test_loopback.)
    fn = SmokeObjective((3, 3))
    ev = DistributedEvaluator(fn, hosts=_hosts(servers))
    batch = [(i, j) for i in range(8) for j in range(8)]
    try:
        first = ev.evaluate_batch(batch[:4])
        assert list(first) == [fn(c) for c in batch[:4]]
        victim = next(
            c for c in ev.client._conns.values() if c is not None
        )
        victim.sock.close()
        rest = ev.evaluate_batch(batch)
        assert list(rest) == [fn(c) for c in batch]
    finally:
        ev.close()


def test_cluster_client_raises_when_everything_is_down():
    client = ClusterClient((("127.0.0.1", 1),))  # nothing listens there
    with pytest.raises(ClusterUnavailable):
        client.evaluate(b"blob", [(1,)])
    client.close()


def _free_addr():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    addr = probe.getsockname()
    probe.close()
    return addr


def test_reconnect_backoff_clears_on_successful_handshake():
    """Regression: a host that flapped once must be penalised per
    incident, not for the rest of the run — the failure clock clears
    the moment a handshake succeeds."""
    addr = _free_addr()
    client = ClusterClient([addr], reconnect_backoff=30.0)
    assert client.connect() == []  # nothing listening: failure recorded
    assert addr in client._last_failure
    srv = WorkerServer(host=addr[0], port=addr[1])
    thread = threading.Thread(
        target=lambda: srv.serve_forever(poll_interval=0.05), daemon=True
    )
    thread.start()
    try:
        # within the backoff window the addr is skipped, even though a
        # worker now listens...
        assert client.connect() == []
        # ...and once the window is lifted, the successful handshake
        # clears the failure clock entirely.
        client.reconnect_backoff = 0.0
        assert len(client.connect()) == 1
        assert addr not in client._last_failure
        client.close()
    finally:
        srv.shutdown()
        srv.server_close()


def test_memo_store_roundtrip_through_evaluator(tmp_path, servers):
    path = tmp_path / "memo.bin"
    fp = ("toy", "target-9-9")
    fn = SmokeObjective((9, 9))
    batch = [(i, i) for i in range(10)]
    first = DistributedEvaluator(
        fn, hosts=_hosts(servers), memo_path=str(path), fingerprint=fp
    )
    try:
        a = first.evaluate_batch(batch)
        assert first.new_solves == len(batch)
    finally:
        first.close()
    # Second run, same fingerprint: zero new solves, all store hits.
    second = DistributedEvaluator(
        fn, hosts=_hosts(servers), memo_path=str(path), fingerprint=fp
    )
    try:
        b = second.evaluate_batch(batch)
        assert list(a) == list(b)
        assert second.new_solves == 0
        assert second.store_hits == len(batch)
        assert second.distinct_evaluations == len(batch)
    finally:
        second.close()
    # Different fingerprint: the store serves nothing.
    other = DistributedEvaluator(
        fn, hosts=_hosts(servers), memo_path=str(path), fingerprint=("toy", "x")
    )
    try:
        other.evaluate_batch(batch)
        assert other.store_hits == 0 and other.new_solves == len(batch)
    finally:
        other.close()


def test_straggler_is_redispatched(servers):
    # One worker's objective sleeps far past the timeout; the wave must
    # finish anyway (other host / local fallback) with correct values.
    fn = SmokeObjective((2, 2), delay=0.0)
    slow = SmokeObjective((2, 2), delay=5.0)
    ev = DistributedEvaluator(slow, hosts=_hosts(servers), timeout=0.5)
    ev._fn = fn  # local fallback computes instantly
    import pickle

    ev._fn_blob = pickle.dumps(slow)
    batch = [(0, 0), (1, 1)]
    try:
        got = ev.evaluate_batch(batch)
        assert list(got) == [fn(c) for c in batch]
        stats = ev.backend_stats()
        assert stats["redispatched_chunks"] >= 1 or stats["local_solves"] >= 1
    finally:
        ev.close()


def test_pickled_copy_downgrades_to_local(servers, tmp_path):
    import pickle

    ev = DistributedEvaluator(
        SmokeObjective((1, 2)),
        hosts=_hosts(servers),
        memo_path=str(tmp_path / "m.bin"),
    )
    try:
        clone = pickle.loads(pickle.dumps(ev))
    finally:
        ev.close()
    assert clone.client is None and clone.store is None
    assert list(clone.evaluate_batch([(1, 2)])) == [0.0]
    assert clone.local_solves == 1


# -- the schedule: guided grabs ----------------------------------------------

WAVE = [(i, j) for i in range(6) for j in range(5)]  # 30 candidates


@pytest.fixture()
def eval_requests(monkeypatch):
    """Every ``op=eval`` request as ``(connection, candidates)``."""
    sent = []
    lock = threading.Lock()
    real = HostConnection.request

    def spy(self, msg):
        if msg.get("op") == "eval":
            with lock:
                sent.append((self, list(msg["candidates"])))
        return real(self, msg)

    monkeypatch.setattr(HostConnection, "request", spy)
    return sent


def _in_pop_order(sent):
    # The queue hands out contiguous runs of the wave front to back, so
    # a grab's first candidate orders it among the others.
    return sorted(sent, key=lambda req: WAVE.index(req[1][0]))


def test_lone_host_takes_the_whole_wave_in_one_request(
    lone, eval_requests, tmp_path
):
    """One host, one grab: the agent's objective sees the wave in one
    batch call, so it can solve it in one merged pass."""
    from tests.evaluation.test_evaluator import _BatchSquare, _square

    log = tmp_path / "calls.log"
    ev = DistributedEvaluator(_BatchSquare(str(log)), hosts=(lone.address,))
    try:
        got = ev.evaluate_batch(WAVE + WAVE[:5])
        assert got.tolist() == [_square(c) for c in WAVE + WAVE[:5]]
        assert ev.backend_stats()["remote_solves"] == len(WAVE)
    finally:
        ev.close()
    assert [cands for _conn, cands in eval_requests] == [WAVE]
    assert log.read_text().split() == ["30"]


@pytest.mark.parametrize(
    "capacities, sizes",
    [((1, 1), [15, 8, 4, 2, 1]), ((4, 4), [15, 8, 4, 3]), ((4, 1), None)],
)
def test_hosts_take_guided_grabs(servers, eval_requests, capacities, sizes):
    """Each grab is an equal share of what is left, never less than the
    grabbing host's registered capacity; which host pops does not
    change a size, except through that floor."""
    fn = SmokeObjective((3, 3))
    client = ClusterClient(_hosts(servers))
    try:
        conns = client.connect()
        for conn, capacity in zip(conns, capacities):
            conn.capacity = capacity  # as registered by ``--capacity``
        got = client.evaluate(pickle.dumps(fn), WAVE)
    finally:
        client.close()
    assert got == [fn(c) for c in WAVE]
    grabs = _in_pop_order(eval_requests)
    assert [c for _conn, cands in grabs for c in cands] == WAVE
    if sizes is not None:
        assert [len(cands) for _conn, cands in grabs] == sizes
    left = len(WAVE)
    for conn, cands in grabs:
        size = len(cands)
        assert size >= min(conn.capacity, left)
        assert size * len(conns) >= left
        assert size <= conn.capacity or (size - 1) * len(conns) < left
        left -= size


def test_guided_grabs_hand_out_each_candidate_once_under_contention(
    eval_requests,
):
    """More hosts than cores and a tiny switch interval: the grab sized
    and popped under the queue lock still hands out every candidate
    exactly once, and the values come back in candidate order."""
    fn = SmokeObjective((5, 5))
    wave = [(i, j) for i in range(20) for j in range(10)]
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _running(6) as pool:
            client = ClusterClient(_hosts(pool))
            try:
                runner = threading.Thread(
                    target=lambda: got.extend(
                        client.evaluate(pickle.dumps(fn), wave)
                    ),
                    daemon=True,
                )
                runner.start()
                runner.join(timeout=60)
                assert not runner.is_alive()
            finally:
                client.close()
    finally:
        sys.setswitchinterval(interval)
    assert got == [fn(c) for c in wave]
    sent = sorted(c for _conn, cands in eval_requests for c in cands)
    assert sent == sorted(wave)
