"""End-to-end search tests on small problems (fast budgets)."""

import pytest

from repro.cache.config import CacheConfig
from repro.ga.engine import GAConfig
from repro.ga.padding_search import (
    optimize_joint_padding_tiling,
    optimize_padding,
    optimize_padding_then_tiling,
)
from repro.ir.affine import AffineExpr
from repro.ir.arrays import Array, read, write
from repro.ir.loops import Loop, LoopNest
from repro.search.tiling import baseline_seed_tiles, search_tiling, tiling_genome
from tests.conftest import make_small_transpose

QUICK = GAConfig(population_size=8, min_generations=3, max_generations=5, seed=0)
CACHE = CacheConfig(1024, 32, 1)


def test_tiling_search_improves_transpose():
    nest = make_small_transpose(48)
    res = search_tiling(nest, CACHE, ga_config=QUICK, seed=1, seed_baselines=True)
    assert res.after.replacement_ratio < res.before.replacement_ratio
    assert all(1 <= t <= 48 for t in res.tile_sizes)
    assert "T=" in res.summary()


def test_tiling_genome_ranges():
    nest = make_small_transpose(48)
    genome = tiling_genome(nest)
    assert genome.ranges == [(1, 48), (1, 48)]


def test_baseline_seeds_valid():
    nest = make_small_transpose(48)
    for tiles in baseline_seed_tiles(nest, CACHE):
        assert len(tiles) == 2
        assert all(1 <= t <= 48 for t in tiles)
    # untiled genotype always present
    assert (48, 48) in baseline_seed_tiles(nest, CACHE)


def _aliasing_nest(n=128):
    a = Array("a", (n,))
    b = Array("b", (n,))
    i = AffineExpr.var("i")
    return LoopNest(
        "alias", (Loop("i", 1, n),),
        (read(a, i, position=0), read(b, i, position=1), write(a, i, position=2)),
    )


def test_padding_search_fixes_aliasing():
    nest = _aliasing_nest()
    res = optimize_padding(nest, CACHE, config=QUICK, seed=3)
    assert res.before.replacement_ratio > 0.3
    assert res.after_padding.replacement_ratio < 0.05
    assert res.tile_sizes is None


def test_padding_then_tiling_pipeline():
    nest = _aliasing_nest()
    res = optimize_padding_then_tiling(nest, CACHE, config=QUICK, seed=4)
    assert res.after_padding_tiling is not None
    assert (
        res.after_padding_tiling.replacement_ratio
        <= res.before.replacement_ratio
    )
    assert "pad" in res.summary()


def test_joint_padding_tiling_extension():
    nest = _aliasing_nest()
    res = optimize_joint_padding_tiling(nest, CACHE, config=QUICK, seed=5)
    assert res.tile_sizes is not None
    assert res.after_padding_tiling is not None
    assert (
        res.after_padding_tiling.replacement_ratio
        <= res.before.replacement_ratio
    )
