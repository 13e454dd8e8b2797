"""Distributed backend benchmark: local vs loopback cluster on MM_500.

Three runs of the same GA tile-size search on the paper's headline
kernel, all required to produce the bit-identical trajectory:

* **local** — the in-process evaluator (the baseline);
* **cluster-2** — two loopback `repro.cli serve` worker processes,
  candidate waves dispatched over TCP, results appended to a fresh
  persistent memo store;
* **cluster-2-warm** — the same search again, against the now-populated
  memo store: zero new CME solves (asserted), so its wall-clock is the
  floor cost of driving the search loop itself.

Rows are honest numbers like BENCH_search: dispatching to local
worker processes on a 1-core box records the transport overhead, not a
speedup.  Speedups are published, not asserted.  The three
configurations are timed ``REPS`` times, interleaved, each repetition
with a fresh memo store; a row's ``wall_s`` (the number the regression
gate reads) is the minimum and its speedup the ratio of minima, with
``reps``, ``min`` and ``median`` beside them.
Payload accounting (bytes per distinct solve after the one-time
objective ship) is core-count independent.
"""

from __future__ import annotations

import os
import statistics
import time

from benchmarks.conftest import (
    bench_config,
    publish,
    publish_bench_rows,
    results_path,
)
from repro.cache.config import CACHE_8KB_DM, CacheConfig
from repro.distributed import LoopbackCluster
from repro.experiments.common import format_table
from repro.kernels.linalg import make_mm
from repro.search.tiling import search_tiling
from tests.conftest import make_small_transpose


#: Timed repetitions of each configuration; rows report their minimum.
REPS = 3


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _timing(walls: list[float]) -> dict:
    """A row's wall-time fields: the gated ``wall_s`` is the minimum."""
    best = round(min(walls), 4)
    return {
        "wall_s": best,
        "reps": len(walls),
        "min": best,
        "median": round(statistics.median(walls), 4),
    }


def _bench_rows(nest, cache, kw, memo_path, n_workers=2):
    walls = {"local": [], "cluster": [], "warm": []}
    with LoopbackCluster(n_workers) as cluster:
        for _ in range(REPS):
            if os.path.exists(memo_path):
                os.remove(memo_path)
            local, t_local = _timed(lambda: search_tiling(nest, cache, **kw))
            dist, t_dist = _timed(
                lambda: search_tiling(
                    nest, cache, backend="cluster", hosts=cluster.hosts,
                    memo_path=memo_path, **kw,
                )
            )
            warm, t_warm = _timed(
                lambda: search_tiling(
                    nest, cache, backend="cluster", hosts=cluster.hosts,
                    memo_path=memo_path, **kw,
                )
            )
            # The determinism contract: every backend, the identical search.
            assert dist.search == local.search
            assert warm.search == local.search
            assert dist.backend["local_solves"] == 0
            assert warm.backend["new_solves"] == 0  # the store answered all
            assert warm.backend["store_hits"] == warm.search.distinct_evaluations
            walls["local"].append(t_local)
            walls["cluster"].append(t_dist)
            walls["warm"].append(t_warm)
    per_solve = dist.backend["payload_bytes"] / max(
        1, dist.backend["remote_solves"]
    )
    return {
        "local": local,
        "cluster": dist,
        "warm": warm,
        "walls": walls,
        "per_solve_bytes": per_solve,
    }


def _rows(out) -> list[dict]:
    """The three BENCH rows of one ``_bench_rows`` result."""
    walls = out["walls"]
    t_local = min(walls["local"])
    return [
        {"config": "local", **_timing(walls["local"]), "speedup": 1.0},
        {"config": "loopback-cluster-2", **_timing(walls["cluster"]),
         "speedup": round(t_local / min(walls["cluster"]), 3),
         "payload_bytes": out["cluster"].backend["payload_bytes"],
         "per_solve_bytes": round(out["per_solve_bytes"], 1)},
        {"config": "loopback-cluster-2-warm", **_timing(walls["warm"]),
         "speedup": round(t_local / min(walls["warm"]), 3),
         "new_solves": out["warm"].backend["new_solves"]},
    ]


def test_distributed_backend_bench():
    kw = dict(
        strategy="ga", budget=60, seed=0, n_samples=164,
        ga_config=bench_config().ga,
    )
    memo = str(results_path(".mm500_bench.memo"))
    if os.path.exists(memo):
        os.remove(memo)
    try:
        out = _bench_rows(make_mm(500), CACHE_8KB_DM, kw, memo)
    finally:
        if os.path.exists(memo):
            os.remove(memo)
    local, dist, warm = out["local"], out["cluster"], out["warm"]
    t_local, t_dist, t_warm = (
        min(out["walls"][k]) for k in ("local", "cluster", "warm")
    )
    rows = [
        ["local (1 proc)", f"{t_local:.2f}",
         str(local.search.distinct_evaluations), "0", "1.00x"],
        ["loopback cluster (2 workers)", f"{t_dist:.2f}",
         str(dist.backend["remote_solves"]),
         str(dist.backend["payload_bytes"]), f"{t_local / t_dist:.2f}x"],
        ["cluster, warm memo store", f"{t_warm:.2f}",
         "0", str(warm.backend["payload_bytes"]),
         f"{t_local / t_warm:.2f}x"],
    ]
    publish(
        "distributed_bench",
        format_table(
            f"Distributed backend: GA tile search time-to-target "
            f"(MM_500, budget {kw['budget']}, {os.cpu_count()} cores, "
            f"min of {REPS})",
            ["Configuration", "Seconds", "New solves", "Payload B", "Speedup"],
            rows,
            note="All three runs produce the bit-identical trajectory "
            "and best candidate (asserted).  The objective ships once "
            "per worker connection; after that each distinct solve "
            f"costs ~{out['per_solve_bytes']:.0f} payload bytes on the "
            "wire.  The warm row re-runs against the populated memo "
            "store: zero new CME solves, so it measures the search "
            "loop itself.  Single-core rows show the transport "
            "overhead honestly; wall-clock wins need real cores "
            "and/or expensive candidates.",
        ),
    )
    publish_bench_rows("distributed", _rows(out))


def test_distributed_smoke():
    """CI-scale loopback smoke: tiny kernel, 2 workers, memo warm start.

    Writes BENCH_distributed_smoke.json so every CI run uploads a
    fresh perf row next to the committed MM_500 numbers.
    """
    kw = dict(strategy="ga", budget=24, seed=0, n_samples=48,
              ga_config=bench_config().ga)
    memo = str(results_path(".smoke.memo"))
    if os.path.exists(memo):
        os.remove(memo)
    try:
        out = _bench_rows(
            make_small_transpose(64), CacheConfig(1024, 32, 1), kw, memo
        )
    finally:
        if os.path.exists(memo):
            os.remove(memo)
    publish_bench_rows("distributed_smoke", _rows(out))
