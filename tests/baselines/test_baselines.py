"""Baseline tile-size selectors and the generic search strategies:
validity and basic quality."""

import pytest

from repro.baselines.ghosh_cme import ghosh_cme_tiles
from repro.baselines.lrw import lrw_tiles
from repro.baselines.sarkar_megiddo import sarkar_megiddo_tiles
from repro.baselines.tss import coleman_mckinley_tiles
from repro.cache.config import CacheConfig
from repro.search import (
    AnnealingStrategy,
    ExhaustiveStrategy,
    HillClimbStrategy,
    RandomStrategy,
    run_search,
)
from tests.conftest import make_small_mm, make_small_transpose

CACHE = CacheConfig(1024, 32, 1)


def _valid(tiles, nest):
    return len(tiles) == nest.depth and all(
        1 <= t <= l.extent for t, l in zip(tiles, nest.loops)
    )


@pytest.mark.parametrize(
    "selector",
    [lrw_tiles, coleman_mckinley_tiles, sarkar_megiddo_tiles, ghosh_cme_tiles],
    ids=["lrw", "tss", "sarkar-megiddo", "ghosh"],
)
def test_analytical_selectors_return_valid_tiles(selector):
    for nest in (make_small_transpose(48), make_small_mm(24)):
        tiles = selector(nest, CACHE)
        assert _valid(tiles, nest)


def test_lrw_square_inner_tiles():
    nest = make_small_mm(24)
    tiles = lrw_tiles(nest, CACHE)
    assert tiles[0] == 24  # outer loop untiled
    assert tiles[1] == tiles[2]  # square inner tile


def test_ghosh_bounds_reflect_strides():
    nest = make_small_transpose(48)
    tiles = ghosh_cme_tiles(nest, CACHE)
    # the loop walking the 48·8=384-byte stride is bounded below 48
    assert min(tiles) < 48


def toy_objective(target):
    def fn(tiles):
        return float(sum((t - x) ** 2 for t, x in zip(tiles, target)))
    return fn


def extents(nest):
    return [loop.extent for loop in nest.loops]


def test_exhaustive_finds_exact_optimum():
    nest = make_small_transpose(12)
    res = run_search(ExhaustiveStrategy(extents(nest)), toy_objective((5, 9)))
    assert res.best_values == (5, 9)
    assert res.best_objective == 0
    assert res.consumed == 144


def test_exhaustive_grid_mode_bounds_work():
    nest = make_small_transpose(48)
    res = run_search(
        ExhaustiveStrategy(extents(nest), max_points_per_dim=6),
        toy_objective((48, 1)),
    )
    assert res.consumed <= 8 * 8
    assert res.best_values == (48, 1)  # endpoints always on the grid


def test_random_search_budget_respected():
    nest = make_small_transpose(16)
    res = run_search(
        RandomStrategy(extents(nest), budget=50, seed=0), toy_objective((8, 8))
    )
    assert res.consumed == 50
    assert _valid(res.best_values, nest)


def test_hill_climb_descends():
    nest = make_small_transpose(32)
    obj = toy_objective((4, 27))
    res = run_search(
        HillClimbStrategy(extents(nest), start=(16, 16), neighborhood=False),
        obj,
    )
    assert res.best_objective <= obj((16, 16))
    assert res.best_values == (4, 27)


def test_annealing_improves_over_start():
    nest = make_small_transpose(32)
    obj = toy_objective((2, 30))
    res = run_search(AnnealingStrategy(extents(nest), budget=300, seed=1), obj)
    assert res.best_objective <= obj((16, 16))
    assert _valid(res.best_values, nest)


def test_search_baselines_deterministic():
    nest = make_small_transpose(16)
    obj = toy_objective((3, 3))
    a, b = (
        run_search(RandomStrategy(extents(nest), budget=30, seed=5), obj)
        for _ in range(2)
    )
    assert a == b
    c, d = (
        run_search(AnnealingStrategy(extents(nest), budget=60, seed=5), obj)
        for _ in range(2)
    )
    assert c == d
