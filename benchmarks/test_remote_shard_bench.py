"""Span-dispatch benchmark: one huge candidate across the cluster.

Candidate-chunk dispatch cannot speed up a wave of one candidate — the
whole CME sample runs on one host.  This bench times exactly that
worst case: a single sample-heavy candidate evaluated serially
(``local-1``) and via :class:`~repro.distributed.RemoteShardPool` span
dispatch over a two-worker loopback cluster (``span-cluster-2``), with
bit-identity asserted between the two.  Rows land in
``BENCH_remote_shard.json`` for the CI regression gate.

Like every bench here the committed numbers are honest records: on
one core the span rows measure transport overhead.  The speedup is
published, not asserted.
"""

from __future__ import annotations

import os
import pickle
import time

from benchmarks.conftest import publish, publish_bench_rows
from repro.cache.config import CacheConfig
from repro.cme.sampling import estimate_at_points, sample_original_points
from repro.distributed import LoopbackCluster, RemoteShardPool
from repro.distributed.client import ClusterClient
from repro.evaluation.sharding import ShardContext
from repro.experiments.common import format_table
from repro.ir.program import program_from_nest
from repro.kernels.linalg import make_mm
from repro.layout.memory import MemoryLayout

CACHE = CacheConfig(1024, 32, 1)


def _min_of(n, fn):
    best, out = None, None
    for _ in range(n):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return out, best


def test_remote_shard_bench():
    # Sample-heavy enough (~2s serial) that span-dispatch overhead —
    # a few tens of milliseconds per wave — cannot mask the speedup.
    nest = make_mm(100)
    layout = MemoryLayout(nest.arrays())
    program = program_from_nest(nest)
    points = sample_original_points(nest, 8000, 0)
    ctx = ShardContext(cache=CACHE, confidence=0.90, points=tuple(points))
    bundle = pickle.dumps((program, layout, None))

    ref, t_local = _min_of(
        3, lambda: estimate_at_points(program, layout, CACHE, points)
    )
    with LoopbackCluster(2) as cluster:
        client = ClusterClient(cluster.hosts)
        pool = RemoteShardPool(client)
        try:
            est, t_span = _min_of(
                3,
                lambda: pool.estimate(
                    pickle.dumps(ctx), "bench-tok", bundle, len(points)
                ),
            )
        finally:
            client.close()
    # The whole point: fanning one candidate out changes nothing but
    # the wall-clock.
    assert est == ref
    speedup = t_local / t_span
    stats = pool.stats()

    rows = [
        ["local (1 proc)", f"{t_local:.3f}", "-", "1.00x"],
        ["span dispatch (2 workers)", f"{t_span:.3f}",
         str(stats["spans_dispatched"]), f"{speedup:.2f}x"],
    ]
    publish(
        "remote_shard_bench",
        format_table(
            f"Span dispatch: one candidate, {len(points)} sample points "
            f"({os.cpu_count()} cores)",
            ["Configuration", "Seconds", "Spans", "Speedup"],
            rows,
            note="Both rows produce the bit-identical CMEEstimate "
            "(asserted) — solver and congruence stats included.  "
            "Single-core rows record the span transport overhead "
            "honestly; the speedup gate arms on multi-core runners.",
        ),
    )
    publish_bench_rows(
        "remote_shard",
        [
            {"config": "local-1", "wall_s": round(t_local, 4),
             "speedup": 1.0, "points": len(points)},
            {"config": "span-cluster-2", "wall_s": round(t_span, 4),
             "speedup": round(speedup, 3),
             "spans": stats["spans_dispatched"],
             "waves": stats["span_waves"]},
        ],
    )

