"""`DistributedEvaluator`: the cluster backend behind `BatchObjective`.

A drop-in :class:`repro.evaluation.Evaluator`: same protocol, same
memoisation, same determinism contract — so ``run_search``, portfolio
composites and every experiment runner work unchanged when handed one.
What changes is where cache misses are computed:

1. the **persistent memo store** (if configured) answers anything any
   prior run against the same objective fingerprint already solved —
   those values cost nothing and are *not* counted as new solves;
2. the **cluster** computes the remainder by **candidate grabs**: the
   pickled objective ships once per worker connection, jobs carry only
   genotype tuples, each host grabs an equal share of what is left — a
   lone host the whole wave — and the client re-dispatches grabs
   around stragglers and lost workers;
3. the **local fallback** (the inherited serial/process-pool path)
   finishes anything left when no worker is reachable — a dead cluster
   degrades to exactly the local backend, never to a lost wave.

Every new value, wherever it was computed, is appended to the store,
so the *next* run starts warmer.  Because objectives are pure and the
result list is assembled in candidate order, any (hosts, capacity,
arrival-order) configuration fills the same cache with the same values
— the bit-identical-trajectory guarantee carries over from the local
evaluator unchanged.
"""

from __future__ import annotations

import pickle
from typing import Callable

from repro import envs, telemetry
from repro.distributed.client import ClusterClient, ClusterUnavailable
from repro.distributed.memo import MemoStore
from repro.evaluation.batch import Evaluator, Values


class DistributedEvaluator(Evaluator):
    """Memoising batch evaluator that solves misses on a cluster.

    ``hosts`` is a ``host:port,…`` string, a sequence of ``(host,
    port)`` pairs, or empty (memo store + local compute only).
    ``memo_path`` enables the persistent store; ``fingerprint`` is the
    objective identity it is keyed by (use the same tuple the search
    checkpoint carries).  ``workers`` sizes the *local fallback* pool.
    ``timeout`` is the per-request straggler deadline in seconds
    (default ``REPRO_CLUSTER_TIMEOUT`` or 600): a host that has not
    replied by then has its grab (its fair share of the wave, all of it
    for a lone host) re-dispatched elsewhere, so a hung — not just dead
    — worker can never block a wave forever.
    """

    def __init__(
        self,
        fn: Callable[[Values], float],
        hosts=(),
        workers: int = 1,
        memo_path: str | None = None,
        fingerprint: object = None,
        timeout: float | None = None,
    ):
        super().__init__(fn, workers=workers)
        if timeout is None:
            timeout = envs.CLUSTER_TIMEOUT.get()
        self.fingerprint = fingerprint
        self.client: ClusterClient | None = None
        if hosts:
            self.client = ClusterClient(
                hosts, fingerprint=fingerprint, timeout=timeout
            )
        self.store: MemoStore | None = None
        if memo_path is not None:
            self.store = MemoStore(memo_path, fingerprint)
        self.store_hits = 0
        self.remote_solves = 0
        self.local_solves = 0
        self._fn_blob: bytes | None = None

    # -- dispatch ------------------------------------------------------------
    def _objective_blob(self) -> bytes:
        if self._fn_blob is None:
            self._fn_blob = pickle.dumps(self._fn)
        return self._fn_blob

    def _evaluate_missing(self, missing: list[Values]) -> list[float]:
        out: dict[Values, float] = {}
        todo: list[Values] = []
        for cand in missing:
            stored = self.store.get(cand) if self.store is not None else None
            if stored is not None:
                out[cand] = stored
                self.store_hits += 1
            else:
                todo.append(cand)
        if len(missing) > len(todo):
            telemetry.recorder().count(
                "backend.store_hits", len(missing) - len(todo)
            )
        if todo:
            solved = self._solve(todo)
            if self.store is not None:
                self.store.put_many(zip(todo, solved))
            out.update(zip(todo, solved))
        return [out[cand] for cand in missing]

    def _solve(self, todo: list[Values]) -> list[float]:
        rec = telemetry.recorder()
        partial: dict[int, float] = {}
        if self.client is not None:
            try:
                values = self.client.evaluate(self._objective_blob(), todo)
                self.new_solves += len(todo)
                self.remote_solves += len(todo)
                rec.count("backend.remote_solves", len(todo))
                return values
            except ClusterUnavailable as lost:
                partial = lost.partial
                rec.event(
                    "backend.local_fallback",
                    outstanding=len(todo) - len(partial),
                )
        if partial:
            # The wave's survivors still count; only the remainder is
            # recomputed locally.
            remainder = [c for i, c in enumerate(todo) if i not in partial]
            rest = iter(super()._evaluate_missing(remainder))
            self.remote_solves += len(partial)
            self.local_solves += len(remainder)
            self.new_solves += len(partial)
            rec.count("backend.remote_solves", len(partial))
            rec.count("backend.local_solves", len(remainder))
            return [
                partial[i] if i in partial else next(rest)
                for i in range(len(todo))
            ]
        self.local_solves += len(todo)
        rec.count("backend.local_solves", len(todo))
        return super()._evaluate_missing(todo)

    # -- introspection -------------------------------------------------------
    def backend_stats(self) -> dict:
        """Where this run's values came from (per-source counters)."""
        return {
            "store_hits": self.store_hits,
            "remote_solves": self.remote_solves,
            "local_solves": self.local_solves,
            "new_solves": self.new_solves,
            "payload_bytes": (
                self.client.payload_bytes if self.client else 0
            ),
            "redispatched_chunks": (
                self.client.redispatched_chunks if self.client else 0
            ),
            "lost_hosts": self.client.lost_hosts if self.client else 0,
        }

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        if self.client is not None:
            if telemetry.active():
                # Pull the workers' buffered events home before the
                # sockets go away.  Observational only: a failed drain
                # loses events, never values.
                telemetry.ingest(self.client.drain_telemetry())
            self.client.close()
        if self.store is not None:
            self.store.close()
        super().close()

    def __getstate__(self):
        # Like the pool, sockets and file handles don't pickle: a copy
        # shipped into a worker process downgrades to a plain local
        # memoising evaluator.
        state = super().__getstate__()
        state["client"] = None
        state["store"] = None
        state["_fn_blob"] = None
        return state
