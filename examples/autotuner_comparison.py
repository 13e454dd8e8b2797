"""Compare the GA+CME tiler against every implemented baseline.

For one conflict-prone kernel (T2D at N=2000), evaluates under the same
CME objective:

* the §5 analytical selectors (LRW, Coleman–McKinley TSS,
  Sarkar–Megiddo, Ghosh's CME bounds);
* generic searches at the GA's evaluation budget (random, hill
  climbing, simulated annealing);
* the paper's GA;
* and — since the iteration space is only 2000² — a coarse grid search
  bracketing the true optimum.

Run:  python examples/autotuner_comparison.py
"""

from repro import (
    CACHE_8KB_DM,
    GAConfig,
    LocalityAnalyzer,
    kernels,
    search_tiling,
)
from repro.baselines import (
    coleman_mckinley_tiles,
    ghosh_cme_tiles,
    lrw_tiles,
    sarkar_megiddo_tiles,
)


def main() -> None:
    nest = kernels.make_t2d(2000)
    cache = CACHE_8KB_DM
    analyzer = LocalityAnalyzer(nest, cache, seed=0)
    untiled = analyzer.estimate().replacement_ratio
    print(f"{nest.name} on {cache}: untiled replacement {untiled:.2%}\n")

    rows: list[tuple[str, tuple[int, ...], float]] = []

    def record(label, tiles):
        rows.append((label, tiles, analyzer.estimate(tile_sizes=tiles).replacement_ratio))

    record("LRW sqrt tiles", lrw_tiles(nest, cache))
    record("Coleman-McKinley TSS", coleman_mckinley_tiles(nest, cache))
    record("Sarkar-Megiddo model", sarkar_megiddo_tiles(nest, cache))
    record("Ghosh CME bounds", ghosh_cme_tiles(nest, cache))

    budget = 240
    for label, strategy in (
        (f"random search ({budget} evals)", "random"),
        ("hill climbing", "hillclimb"),
        ("simulated annealing", "annealing"),
    ):
        out = search_tiling(nest, cache, strategy=strategy, budget=budget, seed=0)
        record(label, out.tile_sizes)

    ga = search_tiling(
        nest, cache,
        ga_config=GAConfig(population_size=12, min_generations=8,
                           max_generations=12, seed=0),
        seed=0, seed_baselines=True,
    )
    record("GA + CME (paper)", ga.tile_sizes)

    # 144 = 12 grid points per dimension of the depth-2 nest.
    grid = search_tiling(nest, cache, strategy="exhaustive", budget=144)
    record(f"grid search ({grid.search.consumed} evals)", grid.tile_sizes)

    width = max(len(r[0]) for r in rows)
    for label, tiles, ratio in sorted(rows, key=lambda r: r[2]):
        print(f"  {label:<{width}}  T={'x'.join(map(str, tiles)):<12} "
              f"repl {ratio:7.2%}")


if __name__ == "__main__":
    main()
