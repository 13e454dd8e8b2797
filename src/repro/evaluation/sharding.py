"""Point-batch sharding: parallel classification of ONE candidate's sample.

The candidate-level fan-out in :class:`repro.evaluation.Evaluator`
leaves a gap: a search wave with a *single* expensive candidate (a
hill-climbing move, a lone annealing step, the before/after estimates
of a finished search) runs on one core no matter how many workers are
configured.  This module closes the gap one layer down: the sampled
iteration points of a single CME estimate are split into contiguous
shards, each shard is classified in a worker process via the same
:func:`repro.cme.sampling.estimate_at_points` path, and the per-shard
:class:`~repro.cme.sampling.CMEEstimate` counts are summed.

Two transports exist:

* :func:`estimate_at_points_sharded` — the standalone drop-in: every
  shard task carries the full ``(program, layout, cache, points,
  candidates)`` payload.  Simple, stateless, but the payload is
  re-pickled per shard per call.
* :class:`ShardPool` — the zero-copy pool an analyzer owns for its
  lifetime.  Everything invariant across calls (cache geometry,
  confidence, the analyzer's fixed common-random-numbers sample,
  cascade budgets) ships **once** at pool start via the executor
  initializer; per-candidate invariants (program, layout, reuse
  candidates) are pickled once per *candidate token* (the first call
  attaches that one blob to each shard task, since the executor does
  not target workers) and memoised worker-side, so every later
  estimate of the token carries only ``(token, start, stop)`` — the
  shard is a slice of the sample the workers already hold.

Equivalence contract (the same one :mod:`repro.evaluation` states for
candidate batching): points are classified independently, so sharding
changes no outcome — ``merge_estimates`` over any partition of the
sample equals the unsharded estimate, count for count, including the
per-reference breakdown.  Solver *and congruence-tester* statistics are
summed across shards (so the ``unknown`` accuracy-regression counter
stays visible under sharding); only wall-clock time depends on the
worker count.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

from repro.cme.sampling import CMEEstimate, estimate_at_points
from repro.cme.solver import SolverStats
from repro.polyhedra.congruence import TesterStats

#: Below this many points per shard, process overhead beats the win.
MIN_SHARD_POINTS = 8

#: Worker-side per-candidate bundle memo size (tokens).
BUNDLE_CACHE_SIZE = 8


def shard_points(points: list, n_shards: int) -> list[list]:
    """Split ``points`` into up to ``n_shards`` contiguous, non-empty shards."""
    n = len(points)
    return [points[a:b] for a, b in shard_spans(n, n_shards)]


def shard_spans(n: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous, non-empty ``[start, stop)`` index spans over ``n`` points."""
    n_shards = max(1, min(n_shards, n))
    bounds = [round(i * n / n_shards) for i in range(n_shards + 1)]
    return [
        (bounds[i], bounds[i + 1])
        for i in range(n_shards)
        if bounds[i] < bounds[i + 1]
    ]


def merge_solver_stats(parts: list[SolverStats | None]) -> SolverStats | None:
    """Sum per-shard solver instrumentation, congruence tiers included."""
    parts = [p for p in parts if p is not None]
    if not parts:
        return None
    merged = SolverStats()
    congruence = TesterStats()
    for part in parts:
        for f in fields(SolverStats):
            if f.name == "congruence":
                continue
            setattr(merged, f.name, getattr(merged, f.name) + getattr(part, f.name))
        if part.congruence:
            congruence.merge(part.congruence)
    merged.congruence = congruence.as_dict()
    return merged


def merge_estimates(parts: list[CMEEstimate]) -> CMEEstimate:
    """Combine shard estimates of one sample into the whole-sample one."""
    if not parts:
        raise ValueError("nothing to merge")
    per_ref: dict[int, dict[str, int]] = {}
    for part in parts:
        for pos, counts in part.per_ref.items():
            slot = per_ref.setdefault(pos, {"hit": 0, "cold": 0, "replacement": 0})
            for key, val in counts.items():
                slot[key] += val
    return CMEEstimate(
        sampled_points=sum(p.sampled_points for p in parts),
        sampled_accesses=sum(p.sampled_accesses for p in parts),
        hits=sum(p.hits for p in parts),
        cold=sum(p.cold for p in parts),
        replacement=sum(p.replacement for p in parts),
        confidence=parts[0].confidence,
        per_ref=per_ref,
        solver_stats=merge_solver_stats([p.solver_stats for p in parts]),
        total_accesses=parts[0].total_accesses,
    )


# -- legacy full-payload transport --------------------------------------------

def _classify_shard(payload) -> CMEEstimate:
    """Worker-side shard classification (top-level for picklability)."""
    program, layout, cache, points, confidence, candidates = payload[:6]
    budgets = payload[6] if len(payload) > 6 else None
    return estimate_at_points(
        program, layout, cache, points, confidence, candidates,
        cascade_budgets=budgets,
    )


def estimate_at_points_sharded(
    program,
    layout,
    cache,
    original_points: list,
    workers: int,
    confidence: float = 0.90,
    candidates=None,
    pool: ProcessPoolExecutor | None = None,
    cascade_budgets: dict | None = None,
) -> CMEEstimate:
    """Sharded drop-in for :func:`repro.cme.sampling.estimate_at_points`.

    Splits the sample into up to ``workers`` shards of at least
    :data:`MIN_SHARD_POINTS` points and classifies them concurrently.
    Falls back to the serial path when the sample is too small to be
    worth sharding or no parallelism was requested.  Pass ``pool`` to
    amortise executor start-up across many estimates (the caller keeps
    ownership); otherwise a throwaway pool is used.  For long-lived
    sharded estimation prefer :class:`ShardPool`, which ships the
    invariant payload once instead of per shard per call.
    """
    n_shards = min(workers, max(1, len(original_points) // MIN_SHARD_POINTS))
    if n_shards <= 1:
        return estimate_at_points(
            program, layout, cache, original_points, confidence, candidates,
            cascade_budgets=cascade_budgets,
        )
    shards = shard_points(original_points, n_shards)
    payloads = [
        (program, layout, cache, shard, confidence, candidates, cascade_budgets)
        for shard in shards
    ]
    if pool is not None:
        parts = list(pool.map(_classify_shard, payloads))
    else:
        with ProcessPoolExecutor(max_workers=len(shards)) as own:
            parts = list(own.map(_classify_shard, payloads))
    return merge_estimates(parts)


def legacy_payload_bytes(
    program, layout, cache, original_points, workers, confidence=0.90,
    candidates=None,
) -> int:
    """Per-call pickled payload of the legacy transport (bench probe)."""
    n_shards = min(workers, max(1, len(original_points) // MIN_SHARD_POINTS))
    return sum(
        len(pickle.dumps(
            (program, layout, cache, shard, confidence, candidates)
        ))
        for shard in shard_points(original_points, max(n_shards, 1))
    )


# -- zero-copy pool transport -------------------------------------------------

@dataclass(frozen=True)
class ShardContext:
    """Analyzer-lifetime invariants shipped once per pool, at start."""

    cache: object
    confidence: float
    points: tuple
    cascade_budgets: dict | None = None


class _ContextMiss(Exception):
    """Worker lacks the bundle for a token; resend with the blob."""


def bundle_cache_get(bundles: "OrderedDict", token: str):
    """LRU lookup: a hit refreshes the token's recency."""
    bundle = bundles.get(token)
    if bundle is not None:
        bundles.move_to_end(token)
    return bundle


def bundle_cache_put(
    bundles: "OrderedDict", token: str, bundle, cap: int | None = None
) -> None:
    """LRU insert, evicting least-recently-used tokens beyond ``cap``.

    The one bundle-memo policy for every transport: the local
    :class:`ShardPool` workers and the TCP worker agent
    (:mod:`repro.distributed.worker`) share it, so eviction behaviour
    cannot drift between them.
    """
    bundles[token] = bundle
    if cap is None:
        cap = BUNDLE_CACHE_SIZE
    while len(bundles) > cap:
        bundles.popitem(last=False)


_POOL_CTX: ShardContext | None = None
_BUNDLES: "OrderedDict[str, tuple]" = OrderedDict()


def _init_pool_worker(ctx_bytes: bytes) -> None:
    global _POOL_CTX
    _POOL_CTX = pickle.loads(ctx_bytes)
    _BUNDLES.clear()


def _worker_ready() -> bool:
    return _POOL_CTX is not None


def _classify_span(task):
    """Worker-side: classify one ``points[start:stop]`` slice.

    ``task = (token, blob | None, start, stop)``; the blob — the
    pickled ``(program, layout, candidates)`` bundle — is unpickled at
    most once per worker per token and memoised, so repeat calls (and
    retries) reuse the candidate invariants without any further
    deserialisation.
    """
    token, blob, start, stop = task
    ctx = _POOL_CTX
    if ctx is None:
        raise RuntimeError("shard worker used before initialisation")
    bundle = bundle_cache_get(_BUNDLES, token)
    if bundle is None:
        if blob is None:
            raise _ContextMiss(token)
        bundle = pickle.loads(blob)
        bundle_cache_put(_BUNDLES, token, bundle)
    program, layout, candidates = bundle
    return estimate_at_points(
        program,
        layout,
        ctx.cache,
        list(ctx.points[start:stop]),
        ctx.confidence,
        candidates,
        cascade_budgets=ctx.cascade_budgets,
    )


class ShardPool:
    """Process pool whose workers hold the per-analyzer invariants.

    The executor initializer ships the :class:`ShardContext` (cache,
    confidence, the fixed sample, cascade budgets) exactly once; each
    ``estimate`` call then ships the candidate bundle once under a
    stable token and addresses the sample by index span.  Payload bytes
    are accounted per call (``last_payload_bytes`` / cumulative
    ``payload_bytes``) so the IPC saving is measurable.
    """

    def __init__(
        self,
        workers: int,
        cache,
        points: list,
        confidence: float = 0.90,
        cascade_budgets: dict | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        ctx = ShardContext(
            cache=cache,
            confidence=confidence,
            points=tuple(points),
            cascade_budgets=cascade_budgets,
        )
        ctx_bytes = pickle.dumps(ctx)
        self.workers = workers
        self.n_points = len(ctx.points)
        self.init_payload_bytes = len(ctx_bytes)
        self.payload_bytes = 0
        self.last_payload_bytes = 0
        self.calls = 0
        self._shipped: set[str] = set()
        self._pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_pool_worker,
            initargs=(ctx_bytes,),
        )

    @property
    def executor(self) -> ProcessPoolExecutor:
        """The underlying executor (for full-payload ad-hoc tasks)."""
        if self._pool is None:
            raise RuntimeError("ShardPool is closed")
        return self._pool

    def estimate(
        self,
        program,
        layout,
        candidates,
        token: str,
        span: tuple[int, int] | None = None,
    ) -> CMEEstimate:
        """Sharded estimate of the context sample under one candidate.

        ``token`` must uniquely identify ``(program, layout,
        candidates)`` for this pool's lifetime — the analyzer derives it
        from the (tile sizes, padding) candidate key.  ``span`` limits
        the estimate to ``points[start:stop]`` of the context sample
        (the TCP worker's local sub-pool re-shards its incoming span
        this way); the default is the whole sample.
        """
        if self._pool is None:
            raise RuntimeError("ShardPool is closed")
        base, stop_at = span if span is not None else (0, self.n_points)
        n = stop_at - base
        spans = [
            (base + a, base + b)
            for a, b in shard_spans(n, min(self.workers, n // MIN_SHARD_POINTS))
        ]
        # The executor does not target workers, so a token's first call
        # attaches the pickled bundle to each of its tasks.
        blob = None
        if token not in self._shipped:
            blob = pickle.dumps((program, layout, candidates))
        tasks = [(token, blob, start, stop) for start, stop in spans]
        futures = [self._pool.submit(_classify_span, t) for t in tasks]
        sent = sum(len(pickle.dumps(t)) for t in tasks)
        parts: list = [None] * len(spans)
        retries: list[tuple[int, tuple]] = []
        for slot, (future, (start, stop)) in enumerate(zip(futures, spans)):
            try:
                parts[slot] = future.result()
            except _ContextMiss:
                # A worker that never saw this token (evicted bundle or
                # freshly grown pool): resend with the bundle attached —
                # all retries in flight, then gathered.
                if blob is None:
                    blob = pickle.dumps((program, layout, candidates))
                retry = (token, blob, start, stop)
                sent += len(pickle.dumps(retry))
                retries.append((slot, self._pool.submit(_classify_span, retry)))
        for slot, future in retries:
            parts[slot] = future.result()
        self._shipped.add(token)
        self.calls += 1
        self.last_payload_bytes = sent
        self.payload_bytes += sent
        return merge_estimates(parts)

    def warm(self) -> None:
        """Spawn and initialise every worker up front (honest timing)."""
        if self._pool is None:
            raise RuntimeError("ShardPool is closed")
        futures = [
            self._pool.submit(_worker_ready) for _ in range(self.workers)
        ]
        for future in futures:
            future.result()

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
