"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **Search strategy** — the GA against random search, hill climbing
   and simulated annealing at an equal evaluation budget (§3.1 argues a
   global stochastic search is needed; this quantifies it).
2. **Analytical selectors** — the §5 baselines' tiles evaluated under
   the same CME objective, showing why a model-driven *search* beats
   closed-form selection on conflict-prone geometries.
3. **Sample size** — the accuracy/cost trade-off around the paper's
   164-point choice.
"""

import time

from benchmarks.conftest import bench_config, publish
from repro.baselines.ghosh_cme import ghosh_cme_tiles
from repro.baselines.lrw import lrw_tiles
from repro.baselines.sarkar_megiddo import sarkar_megiddo_tiles
from repro.baselines.tss import coleman_mckinley_tiles
from repro.cache.config import CACHE_8KB_DM
from repro.cme.analyzer import LocalityAnalyzer
from repro.experiments.common import format_table, paper_search, pct
from repro.ga.objective import TilingObjective
from repro.kernels.registry import get_kernel
from repro.search import (
    AnnealingStrategy,
    HillClimbStrategy,
    RandomStrategy,
    run_search,
)


def _ratio(analyzer, tiles):
    return analyzer.estimate(tile_sizes=tiles).replacement_ratio


def test_search_strategy_ablation(benchmark):
    """GA vs generic searches at a matched evaluation budget."""
    nest = get_kernel("MM", 500)
    cfg = bench_config()
    analyzer = LocalityAnalyzer(nest, CACHE_8KB_DM, seed=0)
    objective = TilingObjective(analyzer)
    budget = cfg.ga.population_size * cfg.ga.max_generations
    extents = [loop.extent for loop in nest.loops]

    def run_all():
        out = {}
        res = paper_search(nest, CACHE_8KB_DM, cfg, seed_baselines=False)
        out["GA (paper)"] = res.after.replacement_ratio
        for label, strategy in (
            ("random search", RandomStrategy(extents, budget=budget, seed=0)),
            ("hill climbing", HillClimbStrategy(
                extents, max_distinct=budget, neighborhood=False
            )),
            ("simulated annealing",
             AnnealingStrategy(extents, budget=budget, seed=0)),
        ):
            tiles = run_search(strategy, objective).best_values
            out[label] = _ratio(analyzer, tiles)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [[k, pct(v)] for k, v in results.items()]
    publish(
        "ablation_search",
        format_table(
            f"Search ablation on MM_500 (budget {budget} evaluations, 8KB DM)",
            ["Strategy", "Replacement after"],
            rows,
        ),
    )
    untiled = analyzer.estimate().replacement_ratio
    assert results["GA (paper)"] < untiled / 2


def test_analytical_baselines_ablation(benchmark):
    """§5 selectors vs the GA under the same objective."""
    nest = get_kernel("T2D", 2000)
    cfg = bench_config()
    analyzer = LocalityAnalyzer(nest, CACHE_8KB_DM, seed=0)

    def run_all():
        out = {}
        out["LRW sqrt tiles"] = _ratio(analyzer, lrw_tiles(nest, CACHE_8KB_DM))
        out["Coleman-McKinley TSS"] = _ratio(
            analyzer, coleman_mckinley_tiles(nest, CACHE_8KB_DM)
        )
        out["Sarkar-Megiddo"] = _ratio(
            analyzer, sarkar_megiddo_tiles(nest, CACHE_8KB_DM)
        )
        out["Ghosh CME bounds"] = _ratio(
            analyzer, ghosh_cme_tiles(nest, CACHE_8KB_DM)
        )
        res = paper_search(nest, CACHE_8KB_DM, cfg)
        out["GA + CME (paper)"] = res.after.replacement_ratio
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [[k, pct(v)] for k, v in results.items()]
    publish(
        "ablation_baselines",
        format_table(
            "Tile-selection ablation on T2D_2000 (8KB DM)",
            ["Selector", "Replacement after"],
            rows,
        ),
    )
    best_analytical = min(v for k, v in results.items() if "GA" not in k)
    assert results["GA + CME (paper)"] <= best_analytical + 0.02


def test_sample_size_ablation(benchmark):
    """Accuracy/cost around the paper's 164-point sample."""
    nest = get_kernel("MM", 100)
    reference = LocalityAnalyzer(nest, CACHE_8KB_DM, seed=0).simulate()

    def sweep():
        out = []
        for n in (41, 82, 164, 328, 656):
            t0 = time.perf_counter()
            est = LocalityAnalyzer(
                nest, CACHE_8KB_DM, n_samples=n, seed=1
            ).estimate()
            out.append(
                (n, est.miss_ratio, est.ci_halfwidth(), time.perf_counter() - t0)
            )
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [str(n), pct(m), pct(ci), f"{sec:.3f}s", pct(reference.miss_ratio)]
        for n, m, ci, sec in results
    ]
    publish(
        "ablation_sampling",
        format_table(
            "Sample-size ablation on MM_100 (paper: 164 points)",
            ["Points", "Sampled miss", "±CI", "Time", "Exact (sim)"],
            rows,
        ),
    )
    by_n = {n: (m, ci) for n, m, ci, _ in results}
    m164, ci164 = by_n[164]
    assert abs(m164 - reference.miss_ratio) <= max(3 * ci164, 0.08)
