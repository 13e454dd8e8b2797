"""Padding search and the padding→tiling pipeline of §4.3 / Table 3.

For conflict-dominated kernels the paper first searches padding
parameters with the GA (same encoding/operators, padding amounts in
place of tile sizes), then applies the tiling search on the padded
layout.  ``optimize_joint_padding_tiling`` additionally implements the
paper's stated future work: searching both parameter sets in a single
genotype.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import CacheConfig
from repro.cme.analyzer import LocalityAnalyzer
from repro.cme.sampling import PAPER_SAMPLE_SIZE, CMEEstimate
from repro.ga.encoding import Genome
from repro.ga.engine import GAConfig
from repro.ga.objective import PaddingObjective, PaddingTilingObjective
from repro.ir.loops import LoopNest
from repro.layout.memory import PaddingSpec
from repro.search.driver import run_search
from repro.search.genetic import GAStrategy
from repro.search.tiling import search_tiling
from repro.transform.padding import PaddingSearchSpace


@dataclass
class PaddingResult:
    """Outcome of a padding (or padding+tiling) search."""

    nest_name: str
    padding: PaddingSpec
    tile_sizes: tuple[int, ...] | None
    before: CMEEstimate
    after_padding: CMEEstimate
    after_padding_tiling: CMEEstimate | None

    def summary(self) -> str:
        parts = [
            f"{self.nest_name}: repl {self.before.replacement_ratio:.2%}",
            f"→ pad {self.after_padding.replacement_ratio:.2%}",
        ]
        if self.after_padding_tiling is not None:
            parts.append(
                f"→ pad+tile {self.after_padding_tiling.replacement_ratio:.2%}"
            )
        return " ".join(parts)


def _padding_space(
    nest: LoopNest, cache: CacheConfig, pad_intra: bool = True
) -> PaddingSearchSpace:
    return PaddingSearchSpace(
        nest.arrays(),
        way_bytes=cache.way_bytes,
        line_bytes=cache.line_size,
        pad_intra=pad_intra,
    )


def optimize_padding(
    nest: LoopNest,
    cache: CacheConfig,
    config: GAConfig | None = None,
    n_samples: int = PAPER_SAMPLE_SIZE,
    seed: int = 0,
    pad_intra: bool = True,
    workers: int = 1,
) -> PaddingResult:
    """GA search over padding parameters only (Table 3, column 3)."""
    analyzer = LocalityAnalyzer(nest, cache, n_samples=n_samples, seed=seed)
    space = _padding_space(nest, cache, pad_intra)
    objective = PaddingObjective(analyzer, space, workers=workers)
    genome = Genome([(0, v.upper) for v in space.variables])
    # Seed the identity padding and one line/element shift per array so
    # reduced budgets start from sensible de-aliasing moves.
    line_elems = max(1, cache.line_size // nest.arrays()[0].element_size)
    seeds = [tuple([0] * space.num_variables)]
    stagger = []
    for k, v in enumerate(space.variables):
        stagger.append(min(v.upper, line_elems * (k + 1)) if v.kind == "inter" else 0)
    seeds.append(tuple(stagger))
    strategy = GAStrategy(genome, config or GAConfig(seed=seed), seeds)
    try:
        result = run_search(strategy, objective)
        padding = space.decode(result.best_values)
        before = analyzer.estimate()
        after_padding = analyzer.estimate(padding=padding)
    finally:
        objective.close()
    return PaddingResult(
        nest_name=nest.name,
        padding=padding,
        tile_sizes=None,
        before=before,
        after_padding=after_padding,
        after_padding_tiling=None,
    )


def optimize_padding_then_tiling(
    nest: LoopNest,
    cache: CacheConfig,
    config: GAConfig | None = None,
    n_samples: int = PAPER_SAMPLE_SIZE,
    seed: int = 0,
    pad_intra: bool = True,
    workers: int = 1,
) -> PaddingResult:
    """The sequential pipeline of Table 3 (padding, then tiling).

    The tiling search is the paper runners' seeded GA on the padded
    layout, with the GA's whole schedule as its distinct-solve budget.
    """
    pad_result = optimize_padding(
        nest, cache, config, n_samples, seed, pad_intra, workers
    )
    ga = config or GAConfig(seed=seed)
    tile_result = search_tiling(
        nest, cache, strategy="ga",
        budget=ga.population_size * ga.max_generations,
        seed=seed, n_samples=n_samples, workers=workers, ga_config=ga,
        padding=pad_result.padding, seed_baselines=True,
    )
    return PaddingResult(
        nest_name=nest.name,
        padding=pad_result.padding,
        tile_sizes=tile_result.tile_sizes,
        before=pad_result.before,
        after_padding=pad_result.after_padding,
        after_padding_tiling=tile_result.after,
    )


def optimize_joint_padding_tiling(
    nest: LoopNest,
    cache: CacheConfig,
    config: GAConfig | None = None,
    n_samples: int = PAPER_SAMPLE_SIZE,
    seed: int = 0,
    pad_intra: bool = True,
    workers: int = 1,
) -> PaddingResult:
    """Single-step padding+tiling search (the paper's future work).

    The genotype concatenates padding amounts and tile sizes so the GA
    can exploit their interaction directly.
    """
    analyzer = LocalityAnalyzer(nest, cache, n_samples=n_samples, seed=seed)
    space = _padding_space(nest, cache, pad_intra)
    objective = PaddingTilingObjective(analyzer, space, workers=workers)
    ranges = [(0, v.upper) for v in space.variables] + [
        (1, loop.extent) for loop in nest.loops
    ]
    genome = Genome(ranges)
    try:
        result = run_search(
            GAStrategy(genome, config or GAConfig(seed=seed)), objective
        )
        npad = space.num_variables
        padding = space.decode(result.best_values[:npad])
        tiles = result.best_values[npad:]
        before = analyzer.estimate()
        after_padding = analyzer.estimate(padding=padding)
        after_both = analyzer.estimate(tile_sizes=tiles, padding=padding)
    finally:
        objective.close()
    return PaddingResult(
        nest_name=nest.name,
        padding=padding,
        tile_sizes=tiles,
        before=before,
        after_padding=after_padding,
        after_padding_tiling=after_both,
    )
