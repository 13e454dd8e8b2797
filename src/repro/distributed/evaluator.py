"""`DistributedEvaluator`: the cluster backend behind `BatchObjective`.

A drop-in :class:`repro.evaluation.Evaluator`: same protocol, same
memoisation, same determinism contract — so ``run_search``, portfolio
composites and every experiment runner work unchanged when handed one.
What changes is where cache misses are computed:

1. the **persistent memo store** (if configured) answers anything any
   prior run against the same objective fingerprint already solved —
   those values cost nothing and are *not* counted as new solves;
2. the **cluster** computes the remainder, on one of two dispatch
   planes: **candidate grabs** (the pickled objective ships once per
   worker connection, jobs carry only genotype tuples, each host grabs
   an equal share of what is left — a lone host the whole wave — and
   the client re-dispatches grabs around stragglers and lost workers)
   or —
   when the wave is narrower than the fleet and the objective is
   span-shardable — **sample spans**, where
   :class:`repro.distributed.RemoteShardPool` fans each candidate's
   CRN sample across every host and merges the per-span estimates
   (``--shard-dispatch`` / ``REPRO_SHARD_DISPATCH`` forces a plane;
   ``auto`` picks per wave);
3. the **local fallback** (the inherited serial/process-pool path)
   finishes anything left when no worker is reachable — a dead cluster
   degrades to exactly the local backend, never to a lost wave.  A
   span wave that loses the whole fleet mid-flight keeps its accepted
   spans and classifies only the uncovered remainder locally.

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
from repro.distributed.shardclient import (
    DISPATCH_MODES,
    RemoteShardPool,
    SpanWaveIncomplete,
    choose_dispatch,
)
from repro.evaluation.batch import Evaluator, Values
from repro.evaluation.sharding import merge_estimates

#: Methods an objective must expose to ride the span-dispatch plane —
#: the coordinator half of the ShardPool protocol (see
#: :class:`repro.ga.objective.SampledTilingFn` for the reference
#: implementation and :mod:`repro.distributed.shardclient` for how the
#: pieces are used).
SHARD_PROTOCOL = (
    "shard_context",
    "shard_points",
    "shard_token",
    "shard_bundle",
    "shard_local",
    "shard_value",
)


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

    ``shard_dispatch`` picks the cluster dispatch plane (``auto`` /
    ``candidates`` / ``spans``, default ``REPRO_SHARD_DISPATCH``) and
    ``hosts_source`` is an optional zero-argument callable returning
    the current ``--hosts`` spec — when given, span waves re-resolve
    it mid-wave so workers can join an elastic fleet while a wave is
    running.  Both are pure wall-clock policy: every plane produces
    bit-identical values.
    """

    def __init__(
        self,
        fn: Callable[[Values], float],
        hosts=(),
        workers: int = 1,
        memo_path: str | None = None,
        fingerprint: object = None,
        timeout: float | None = None,
        shard_dispatch: str | None = None,
        hosts_source=None,
    ):
        super().__init__(fn, workers=workers)
        if timeout is None:
            timeout = envs.CLUSTER_TIMEOUT.get()
        if shard_dispatch is None:
            shard_dispatch = envs.SHARD_DISPATCH.get()
        if shard_dispatch not in DISPATCH_MODES:
            raise ValueError(
                f"shard_dispatch must be one of {DISPATCH_MODES}, "
                f"got {shard_dispatch!r}"
            )
        self.shard_dispatch = shard_dispatch
        self.fingerprint = fingerprint
        self.client: ClusterClient | None = None
        self.shard_pool: RemoteShardPool | None = None
        if hosts:
            self.client = ClusterClient(
                hosts, fingerprint=fingerprint, timeout=timeout
            )
            self.shard_pool = RemoteShardPool(
                self.client, hosts_source=hosts_source
            )
        self.store: MemoStore | None = None
        if memo_path is not None:
            self.store = MemoStore(memo_path, fingerprint)
        self.store_hits = 0
        self.remote_solves = 0
        self.local_solves = 0
        self.span_solves = 0
        self.span_local_spans = 0
        self._fn_blob: bytes | None = None
        self._shard_ctx_blob: bytes | None = None
        self._shard_points: int = 0

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

    def _dispatch_plane(self, todo: list[Values]) -> str:
        """Resolve this wave's dispatch plane (pure wall-clock policy)."""
        if self.client is None or self.shard_pool is None:
            return "candidates"
        shardable = all(hasattr(self._fn, m) for m in SHARD_PROTOCOL)
        if not shardable:
            return "candidates"
        return choose_dispatch(
            self.shard_dispatch,
            n_candidates=len(todo),
            n_points=self._shard_sample_size(),
            n_hosts=len(self.client.connect()),
            shardable=shardable,
        )

    def _shard_sample_size(self) -> int:
        if self._shard_ctx_blob is None:
            # The context (cache geometry + the fixed CRN sample) is
            # immutable for the evaluator's lifetime — the memo
            # fingerprint already pins (n_samples, seed) — so pickle it
            # once and reuse it for every span wave.
            self._shard_ctx_blob = pickle.dumps(self._fn.shard_context())
            self._shard_points = int(self._fn.shard_points())
        return self._shard_points

    def _solve_spans(self, todo: list[Values]) -> list[float]:
        """Solve each candidate by fanning its sample across the fleet.

        A wave that loses every worker mid-flight keeps its accepted
        spans: only the uncovered ranges are classified locally, and
        the merge is the same strict ``merge_estimates`` either way —
        so the value is bit-identical to a fully-remote (or fully
        local) evaluation, whatever the fleet did.
        """
        fn = self._fn
        self._shard_sample_size()  # ensure ctx blob + point count
        assert self.shard_pool is not None and self._shard_ctx_blob is not None
        values: list[float] = []
        for cand in todo:
            token = fn.shard_token(cand)
            bundle_blob = fn.shard_bundle(cand)
            try:
                est = self.shard_pool.estimate(
                    self._shard_ctx_blob,
                    token,
                    bundle_blob,
                    self._shard_points,
                )
                self.remote_solves += 1
            except SpanWaveIncomplete as incomplete:
                missing = incomplete.missing
                local_parts = fn.shard_local(cand, missing)
                parts = sorted(
                    list(incomplete.parts)
                    + [
                        (start, stop, part)
                        for (start, stop), part in zip(missing, local_parts)
                    ],
                    key=lambda p: p[0],
                )
                est = merge_estimates([part for _s, _t, part in parts])
                self.span_local_spans += len(missing)
                if incomplete.parts:
                    self.remote_solves += 1
                else:
                    self.local_solves += 1
            self.span_solves += 1
            self.new_solves += 1
            values.append(float(fn.shard_value(est)))
        return values

    def _solve(self, todo: list[Values]) -> list[float]:
        rec = telemetry.recorder()
        if self._dispatch_plane(todo) == "spans":
            rec.count("backend.span_solves", len(todo))
            return self._solve_spans(todo)
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
        stats = {
            "store_hits": self.store_hits,
            "remote_solves": self.remote_solves,
            "local_solves": self.local_solves,
            "new_solves": self.new_solves,
            "span_solves": self.span_solves,
            "span_local_spans": self.span_local_spans,
            "payload_bytes": (
                self.client.payload_bytes if self.client else 0
            ),
            "redispatched_chunks": (
                self.client.redispatched_chunks if self.client else 0
            ),
            "lost_hosts": self.client.lost_hosts if self.client else 0,
        }
        if self.shard_pool is not None:
            stats.update(self.shard_pool.stats())
        return stats

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
        state["shard_pool"] = None
        state["_fn_blob"] = None
        state["_shard_ctx_blob"] = None
        return state
