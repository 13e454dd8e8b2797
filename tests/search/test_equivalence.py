"""Strategy-equivalence guarantees of the repro.search migration.

Three families of checks:

* **golden**: every migrated strategy reproduces the pre-refactor
  serial implementation bit-for-bit at ``workers=1`` (trajectories
  captured from the seed code in ``golden.json`` — accepted-move
  sequences, raw objective call streams, final results, and the full
  GA generation history on both toy and real CME objectives);
* **workers**: trajectories are identical for ``workers=1`` vs
  ``workers=4`` — parallelism only changes wall-clock time;
* **speculation**: hill climbing's neighborhood waves and annealing's
  speculative chains change which candidates get evaluated, never a
  decision the algorithm makes.
"""

import json
import pathlib

import pytest

from repro.cache.config import CacheConfig
from repro.cme.analyzer import LocalityAnalyzer
from repro.ga.engine import GAConfig
from repro.ga.objective import TilingObjective
from repro.search import (
    AnnealingStrategy,
    ExhaustiveStrategy,
    GAStrategy,
    HillClimbStrategy,
    RandomStrategy,
    run_search,
    search_tiling,
)
from repro.search.tiling import tiling_genome
from tests.conftest import make_small_transpose

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden.json").read_text()
)
CACHE = CacheConfig(1024, 32, 1)
QUICK = GAConfig(population_size=8, min_generations=3, max_generations=5, seed=0)


def toy(target):
    def fn(tiles):
        return float(sum((t - x) ** 2 for t, x in zip(tiles, target)))
    return fn


def _sq27(tiles):
    """Module-level (picklable) toy objective, target (4, 27)."""
    return float((tiles[0] - 4) ** 2 + (tiles[1] - 27) ** 2)


def _sq230(tiles):
    """Module-level (picklable) toy objective, target (2, 30)."""
    return float((tiles[0] - 2) ** 2 + (tiles[1] - 30) ** 2)


class Recorder:
    """Record the raw (cache-miss) call stream of an objective."""

    def __init__(self, fn):
        self.fn = fn
        self.stream = []

    def __call__(self, values):
        v = self.fn(values)
        self.stream.append([list(values), float(v)])
        return v


def _extents(n):
    return [loop.extent for loop in make_small_transpose(n).loops]


def _final(res):
    """The seed implementations' (tiles, value, evals) triple."""
    return [list(res.best_values), res.best_objective, res.consumed]


def _real_objective():
    analyzer = LocalityAnalyzer(
        make_small_transpose(32), CACHE, n_samples=48, seed=0
    )
    return lambda t: float(analyzer.estimate(tile_sizes=t).replacement)


# -- golden: bit-for-bit vs the pre-refactor serial implementations ------

def test_hillclimb_matches_seed_trajectory():
    g = GOLDEN["hillclimb_toy"]
    strategy = HillClimbStrategy([32, 32], start=(16, 16))
    run_search(strategy, toy((4, 27)))
    assert [[list(c), v] for c, v in strategy.accepted] == g["accepted"]
    assert [list(strategy.current), strategy.current_objective,
            strategy.consumed] == g["final"]


def test_hillclimb_matches_seed_on_real_cme_objective():
    g = GOLDEN["hillclimb_real"]
    res = run_search(
        HillClimbStrategy(_extents(32), start=(16, 16), neighborhood=False),
        _real_objective(),
    )
    assert _final(res) == g["final"]


def test_annealing_matches_seed_stream_and_result():
    g = GOLDEN["annealing_toy"]
    rec = Recorder(toy((2, 30)))
    res = run_search(AnnealingStrategy(_extents(32), budget=120, seed=3), rec)
    # speculation=1 issues exactly the seed's distinct-first-call stream
    assert rec.stream == g["stream"]
    assert _final(res) == g["final"]


def test_annealing_matches_seed_on_real_cme_objective():
    g = GOLDEN["annealing_real"]
    rec = Recorder(_real_objective())
    res = run_search(AnnealingStrategy(_extents(32), budget=60, seed=5), rec)
    assert rec.stream == g["stream"]
    assert _final(res) == g["final"]


def test_random_matches_seed():
    g = GOLDEN["random_toy"]
    rec = Recorder(toy((8, 8)))
    res = run_search(RandomStrategy(_extents(16), budget=60, seed=7), rec)
    assert _final(res) == g["final"]
    assert len(rec.stream) == g["stream_len"]  # distinct draws, seed order


def test_exhaustive_matches_seed():
    res = run_search(ExhaustiveStrategy(_extents(12)), toy((5, 9)))
    assert _final(res) == GOLDEN["exhaustive_toy"]["final"]
    res = run_search(
        ExhaustiveStrategy(_extents(48), max_points_per_dim=6), toy((48, 1))
    )
    assert _final(res) == GOLDEN["exhaustive_grid"]["final"]


def test_ga_matches_seed_history():
    g = GOLDEN["ga_toy"]
    ga = GAStrategy(tiling_genome(make_small_transpose(16)), QUICK)
    run_search(ga, toy((5, 9)))
    assert list(ga.best_values) == g["best_values"]
    assert ga.best_objective == g["best_objective"]
    assert ga.generations == g["generations"]
    assert ga.converged_early == g["converged_early"]
    assert ga.consumed == g["evaluations"]
    assert ga.consumed_distinct == g["distinct_evaluations"]
    assert [
        [gen, best, average, list(values)]
        for gen, best, average, values in ga.history
    ] == g["history"]


def test_ga_tiling_pipeline_matches_seed():
    g = GOLDEN["ga_tiling_real"]
    r = search_tiling(
        make_small_transpose(48), CACHE, ga_config=QUICK, seed=1,
        seed_baselines=True,
    )
    ga = r.search.strategy_ref
    assert list(r.tile_sizes) == g["tile_sizes"]
    assert r.search.best_objective == g["best_objective"]
    assert ga.generations == g["generations"]
    assert r.search.consumed == g["evaluations"]
    assert r.search.consumed_distinct == g["distinct_evaluations"]
    assert [[gen, b, a] for gen, b, a, _ in ga.history] == g["trace"]
    assert r.after.replacement_ratio == g["replacement_after"]


# -- workers: identical trajectories for 1 vs 4 workers -------------------

@pytest.mark.parametrize(
    "make,obj",
    [
        (lambda e: HillClimbStrategy(e, start=(16, 16), neighborhood=True),
         _sq27),
        (lambda e: AnnealingStrategy(e, budget=80, seed=3, speculation=3),
         _sq230),
        (lambda e: RandomStrategy(e, budget=50, seed=7), _sq230),
        (lambda e: ExhaustiveStrategy(e, max_points_per_dim=6), _sq230),
    ],
    ids=["hillclimb", "annealing", "random", "exhaustive"],
)
def test_workers_do_not_change_trajectories(make, obj):
    serial = run_search(make(_extents(32)), obj, workers=1)
    parallel = run_search(make(_extents(32)), obj, workers=4)
    assert serial == parallel  # full result: tiles, value, counts, trace


def test_workers_do_not_change_hillclimb_on_real_objective():
    nest = make_small_transpose(32)

    def climb(objective):
        strategy = HillClimbStrategy(
            _extents(32), start=(16, 16), neighborhood=False
        )
        return run_search(strategy, objective)

    analyzer = LocalityAnalyzer(nest, CACHE, n_samples=48, seed=0)
    serial = climb(TilingObjective(analyzer))
    analyzer2 = LocalityAnalyzer(nest, CACHE, n_samples=48, seed=0)
    obj = TilingObjective(analyzer2, workers=4)
    try:
        parallel = climb(obj)
    finally:
        obj.close()
    assert serial == parallel


# -- speculation: lookahead never changes a decision ----------------------

def test_hillclimb_neighborhood_speculation_is_inert():
    plain = HillClimbStrategy([32, 32], start=(16, 16), neighborhood=False)
    run_search(plain, toy((4, 27)))
    spec = HillClimbStrategy([32, 32], start=(16, 16), neighborhood=True)
    spec_result = run_search(spec, toy((4, 27)))
    assert spec.accepted == plain.accepted
    assert spec.consumed == plain.consumed
    assert spec.consumed_distinct == plain.consumed_distinct
    # the neighborhood waves actually batch: fewer driver steps than
    # serial proposals, at the price of extra (speculative) evaluations
    assert spec_result.steps < plain.consumed
    assert spec_result.distinct_evaluations >= spec.consumed_distinct


def test_annealing_speculation_clones_any_bit_generator():
    """Speculation must clone the chain's BitGenerator class, not
    assume PCG64 (callers may pass their own Generator)."""
    import numpy as np

    def anneal(speculation):
        strategy = AnnealingStrategy(
            _extents(32), budget=30,
            seed=np.random.Generator(np.random.MT19937(0)),
            speculation=speculation,
        )
        return run_search(strategy, toy((2, 30)))

    spec, base = anneal(3), anneal(1)
    assert spec.best_values == base.best_values
    assert spec.best_objective == base.best_objective


def test_annealing_speculative_chains_are_inert():
    base = AnnealingStrategy([32, 32], budget=120, seed=3, speculation=1)
    run_search(base, toy((2, 30)))
    spec = AnnealingStrategy([32, 32], budget=120, seed=3, speculation=4)
    spec_result = run_search(spec, toy((2, 30)))
    assert spec.chain == base.chain
    assert spec.best() == base.best()
    assert spec.consumed == base.consumed == 120
    # the whole point: far fewer synchronous waves than chain steps
    assert spec_result.steps < base.consumed / 2


def test_baselines_report_both_eval_counts():
    """A search reports the values its algorithm read (revisits
    included) and the distinct tilings that cost a solve."""
    res = run_search(
        RandomStrategy(_extents(16), budget=60, seed=7), toy((8, 8))
    )
    assert res.consumed == 60
    assert res.consumed_distinct <= res.consumed
    assert res.distinct_evaluations == res.consumed_distinct


def test_hillclimb_budget_charged_in_distinct_solves():
    """Memo revisits no longer burn max_evals (the satellite bugfix)."""
    strategy = HillClimbStrategy([32, 32], start=(16, 16), max_distinct=20)
    run_search(strategy, toy((4, 27)))
    assert strategy.consumed_distinct <= 20
    # the serial path revisits neighbours freely beyond the budget
    assert strategy.consumed >= strategy.consumed_distinct
