"""Evaluation-subsystem micro-benchmark: serial vs batched vs parallel.

Measures the layers the ``repro.evaluation`` subsystem speeds up, on
the paper's headline kernel ``MM`` at N=500 with the fixed 164-point
sample:

* **classification throughput** — candidate tilings pushed through
  ``PointClassifier``, the seed's scalar per-point loop vs one
  vectorised ``classify_batch`` call per candidate (identical
  outcomes).  Two candidate populations are timed: the cache-fitting
  tiles a converged GA population is made of (the search's steady
  state), and a mixed bag of random early-generation genotypes
  including degenerate near-untiled shapes (whose huge reuse intervals
  are congruence-cascade-bound in both paths, so the speedup is
  smaller);
* **objective fan-out** — distinct candidates evaluated through
  ``TilingObjective`` serially and with a worker pool (identical
  values; wall-clock gains need >1 core, so only equality is
  asserted).
"""

from __future__ import annotations

import time

from benchmarks.conftest import publish, publish_bench_rows
from repro.cache.config import CACHE_8KB_DM
from repro.cme.analyzer import LocalityAnalyzer
from repro.cme.sampling import estimate_at_points, sample_original_points
from repro.experiments.common import format_table
from repro.ga.objective import TilingObjective
from repro.kernels.linalg import make_mm
from repro.layout.memory import MemoryLayout
from repro.transform.tiling import tile_program

#: What a converged GA population evaluates: cache-fitting tiles.
CONVERGED_TILES = [
    (8, 16, 32),
    (16, 16, 16),
    (32, 32, 32),
    (64, 64, 64),
    (24, 48, 12),
    (57, 31, 42),
]

#: Early-generation genotypes: uniform-random tile vectors, including
#: degenerate near-untiled shapes (harvested from a real GA run).
MIXED_TILES = [
    (500, 22, 22),
    (500, 1, 500),
    (8, 16, 32),
    (500, 2, 2),
    (500, 500, 500),
    (134, 22, 373),
    (92, 409, 41),
    (26, 218, 300),
]


def _time(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.process_time()
        fn()
        best = min(best, time.process_time() - t0)
    return best


def _classify_speedup(nest, layout, points, tiles):
    programs = [tile_program(nest, t) for t in tiles]
    for prog in programs:  # outcome equivalence before timing
        a = estimate_at_points(prog, layout, CACHE_8KB_DM, points, batch=False)
        b = estimate_at_points(prog, layout, CACHE_8KB_DM, points, batch=True)
        assert a.per_ref == b.per_ref

    def run(batch: bool) -> None:
        for prog in programs:
            estimate_at_points(
                prog, layout, CACHE_8KB_DM, points, batch=batch
            )

    t_serial = _time(lambda: run(False))
    t_batched = _time(lambda: run(True))
    return t_serial, t_batched


def test_evaluation_subsystem_bench():
    nest = make_mm(500)
    layout = MemoryLayout(nest.arrays())
    points = sample_original_points(nest, 164, 0)

    conv_s, conv_b = _classify_speedup(nest, layout, points, CONVERGED_TILES)
    mixed_s, mixed_b = _classify_speedup(nest, layout, points, MIXED_TILES)
    n_conv = len(points) * len(CONVERGED_TILES)
    n_mixed = len(points) * len(MIXED_TILES)
    conv_speedup = conv_s / conv_b

    # Objective layer: serial vs process-pool evaluation of the same
    # distinct candidates (memoisation defeated by fresh objectives).
    def run_objective(workers: int):
        analyzer = LocalityAnalyzer(nest, CACHE_8KB_DM, seed=0)
        obj = TilingObjective(analyzer, workers=workers)
        try:
            t0 = time.perf_counter()
            vals = obj.evaluate_batch(CONVERGED_TILES)
            return vals, time.perf_counter() - t0, obj
        finally:
            obj.close()

    vals_serial, t_obj_serial, _ = run_objective(1)
    vals_par, t_obj_par, obj_par = run_objective(2)
    assert vals_serial.tolist() == vals_par.tolist()

    rows = [
        ["classify converged (scalar loop)", f"{conv_s:.3f}",
         f"{n_conv / conv_s:.0f}", "1.00x"],
        ["classify converged (batched)", f"{conv_b:.3f}",
         f"{n_conv / conv_b:.0f}", f"{conv_speedup:.2f}x"],
        ["classify mixed (scalar loop)", f"{mixed_s:.3f}",
         f"{n_mixed / mixed_s:.0f}", "1.00x"],
        ["classify mixed (batched)", f"{mixed_b:.3f}",
         f"{n_mixed / mixed_b:.0f}", f"{mixed_s / mixed_b:.2f}x"],
        ["objective (workers=1)", f"{t_obj_serial:.3f}",
         f"{len(CONVERGED_TILES) / t_obj_serial:.1f}", "1.00x"],
        ["objective (workers=2)", f"{t_obj_par:.3f}",
         f"{len(CONVERGED_TILES) / t_obj_par:.1f}",
         f"{t_obj_serial / t_obj_par:.2f}x"],
    ]
    publish(
        "evaluation_bench",
        format_table(
            "Evaluation subsystem: serial vs batched vs parallel "
            "(MM_500, 164-point sample)",
            ["Path", "Seconds", "Throughput/s", "Speedup"],
            rows,
            note="Classification rows count point-classifications/s over "
            f"{len(CONVERGED_TILES)} converged / {len(MIXED_TILES)} mixed "
            "tiling candidates; objective rows count candidates/s.  "
            "Parallel wall-clock gains require more than one core; "
            "results are identical on any worker count.  Fallback used: "
            f"{obj_par.parallel_fallback}.",
        ),
    )
    publish_bench_rows(
        "evaluation",
        [
            {"config": "classify-converged", "wall_s": round(conv_b, 4),
             "speedup": round(conv_speedup, 3)},
            {"config": "classify-mixed", "wall_s": round(mixed_b, 4),
             "speedup": round(mixed_s / mixed_b, 3)},
            {"config": "objective-workers2", "wall_s": round(t_obj_par, 4),
             "speedup": round(t_obj_serial / t_obj_par, 3)},
        ],
    )
