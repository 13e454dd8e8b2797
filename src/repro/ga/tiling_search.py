"""Near-optimal tile-size selection — the paper's headline pipeline.

``optimize_tiling`` wires together the CME-sampled objective and the
GA engine with the paper's parameters and returns the chosen tile
sizes together with before/after miss-ratio estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import CacheConfig
from repro.cme.analyzer import LocalityAnalyzer
from repro.cme.sampling import PAPER_SAMPLE_SIZE, CMEEstimate
from repro.ga.encoding import Genome
from repro.ga.engine import GAConfig, GAResult, GeneticAlgorithm
from repro.ga.objective import SimulatorTilingObjective, TilingObjective
from repro.ir.loops import LoopNest
from repro.layout.memory import MemoryLayout


@dataclass
class TilingResult:
    """Outcome of one tiling search."""

    nest_name: str
    tile_sizes: tuple[int, ...]
    before: CMEEstimate
    after: CMEEstimate
    ga: GAResult
    distinct_evaluations: int

    @property
    def replacement_before(self) -> float:
        return self.before.replacement_ratio

    @property
    def replacement_after(self) -> float:
        return self.after.replacement_ratio

    def summary(self) -> str:
        return (
            f"{self.nest_name}: T={self.tile_sizes} "
            f"repl {self.replacement_before:.2%} → {self.replacement_after:.2%} "
            f"({self.ga.generations} generations, "
            f"{self.distinct_evaluations} distinct evals)"
        )


def tiling_genome(nest: LoopNest) -> Genome:
    """One chromosome per loop: tile sizes ``T_i ∈ [1, extent_i]``."""
    return Genome([(1, loop.extent) for loop in nest.loops])


def baseline_seed_tiles(
    nest: LoopNest, cache: CacheConfig, layout: MemoryLayout | None = None
) -> list[tuple[int, ...]]:
    """Analytical baseline tiles used to seed the GA's first population."""
    from repro.baselines.ghosh_cme import ghosh_cme_tiles
    from repro.baselines.lrw import lrw_tiles
    from repro.baselines.sarkar_megiddo import sarkar_megiddo_tiles
    from repro.baselines.tss import coleman_mckinley_tiles

    seeds = []
    for fn in (lrw_tiles, coleman_mckinley_tiles, sarkar_megiddo_tiles, ghosh_cme_tiles):
        try:
            if fn is lrw_tiles:
                seeds.append(fn(nest, cache))
            else:
                seeds.append(fn(nest, cache, layout))
        # A baseline heuristic that cannot handle this nest (degenerate
        # geometry, zero division in a footprint model, …) only loses
        # its seed; the GA's search is seeded from the survivors.
        except Exception:  # repro: lint-ok[broad-except]
            continue
    seeds.append(tuple(l.extent for l in nest.loops))  # the untiled genotype
    # Deduplicate, preserving order.
    out: list[tuple[int, ...]] = []
    for s in seeds:
        if s not in out:
            out.append(s)
    return out


def optimize_tiling(
    nest: LoopNest,
    cache: CacheConfig,
    layout: MemoryLayout | None = None,
    config: GAConfig | None = None,
    n_samples: int = PAPER_SAMPLE_SIZE,
    seed: int = 0,
    use_simulator: bool = False,
    seed_baselines: bool = True,
    workers: int = 1,
) -> TilingResult:
    """Search tile sizes minimising replacement misses for ``nest``.

    ``use_simulator=True`` swaps the sampled CME objective for exact
    trace simulation (validation on small problem sizes).
    ``seed_baselines`` plants the §5 analytical selectors' tiles in the
    initial population (set ``False`` for the paper's purely random
    initialisation, e.g. in the convergence study).  ``workers``
    controls objective fan-out per generation; results are identical
    for any value (see :mod:`repro.evaluation`).
    """
    analyzer = LocalityAnalyzer(
        nest, cache, layout=layout, n_samples=n_samples, seed=seed
    )
    objective = (
        SimulatorTilingObjective(analyzer, workers=workers)
        if use_simulator
        else TilingObjective(analyzer, workers=workers)
    )
    genome = tiling_genome(nest)
    ga_config = config or GAConfig(seed=seed)
    initial = baseline_seed_tiles(nest, cache, layout) if seed_baselines else None
    ga = GeneticAlgorithm(genome, objective, ga_config, initial_values=initial)
    try:
        result = ga.run()
        before = analyzer.estimate()
        after = analyzer.estimate(tile_sizes=result.best_values)
    finally:
        objective.close()
    return TilingResult(
        nest_name=nest.name,
        tile_sizes=result.best_values,
        before=before,
        after=after,
        ga=result,
        distinct_evaluations=objective.distinct_evaluations,
    )
