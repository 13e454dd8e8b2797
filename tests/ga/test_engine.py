"""GA tests: the Fig. 7 schedule and optimisation sanity, driven
through the shared search loop."""

import numpy as np
import pytest

from repro.evaluation import Evaluator
from repro.ga.encoding import Genome
from repro.ga.engine import GAConfig
from repro.search import GAStrategy, run_search
from repro.search.genetic import population_converged


def quadratic_objective(target):
    def fn(values):
        return float(sum((v - t) ** 2 for v, t in zip(values, target)))
    return fn


def run_ga(genome, objective, config, initial_values=None):
    """Run one GA to completion; return the finished strategy."""
    ga = GAStrategy(genome, config, initial_values)
    run_search(ga, objective)
    return ga


def test_minimises_separable_quadratic():
    genome = Genome([(1, 64), (1, 64)])
    ga = run_ga(
        genome, quadratic_objective((17, 42)),
        GAConfig(population_size=30, seed=3),
    )
    assert ga.best_objective <= 9  # within ±3 per coordinate


def test_respects_generation_schedule():
    """Fig. 7: at least 15 generations, at most 25."""
    genome = Genome([(1, 8)])
    flat = run_ga(genome, lambda v: 0.0, GAConfig(seed=0))
    assert flat.generations == 15  # converges immediately once allowed
    assert flat.converged_early

    rng = np.random.default_rng(0)
    noisy_values = {}

    def noisy(v):
        if v not in noisy_values:
            noisy_values[v] = float(rng.random() * 100)
        return noisy_values[v]

    genome2 = Genome([(1, 512)])
    res2 = run_ga(genome2, noisy, GAConfig(seed=1))
    assert 15 <= res2.generations <= 25


def test_convergence_criterion_2_percent():
    """Population converged ⇔ best within 2% of the generation average."""
    threshold = GAConfig().convergence_threshold
    objs = np.array([100.0, 101.0])
    assert population_converged(objs, threshold)  # (100.5-100)/100.5 < 2%
    objs2 = np.array([100.0, 110.0])
    assert not population_converged(objs2, threshold)


def test_history_recorded():
    genome = Genome([(1, 16)])
    ga = run_ga(
        genome, quadratic_objective((5,)), GAConfig(population_size=10, seed=2)
    )
    assert len(ga.history) == ga.generations
    for _, best, average, _ in ga.history:
        assert best <= average
    assert ga.consumed == ga.generations * 10


def test_distinct_evaluations_reported():
    """Regression: evaluations over-reported work; the search also
    reports the distinct-genotype count the memo layer actually solves."""
    genome = Genome([(1, 4)])  # tiny space forces heavy revisiting
    ga = run_ga(
        genome, quadratic_objective((2,)), GAConfig(population_size=10, seed=7)
    )
    assert ga.consumed == ga.generations * 10
    assert 0 < ga.consumed_distinct <= 4
    assert ga.consumed_distinct < ga.consumed

    memo = Evaluator(quadratic_objective((2,)))
    ga2 = run_ga(genome, memo, GAConfig(population_size=10, seed=7))
    assert ga2.consumed_distinct == memo.distinct_evaluations


def test_best_ever_tracked_across_generations():
    genome = Genome([(1, 128)])
    ga = run_ga(
        genome, quadratic_objective((64,)), GAConfig(population_size=10, seed=4)
    )
    assert ga.best_objective == min(best for _, best, _, _ in ga.history)


def test_initial_values_seeding():
    genome = Genome([(1, 10_000)])
    target = 7777

    def fn(values):
        return abs(values[0] - target)

    cfg = GAConfig(population_size=10, min_generations=2, max_generations=3, seed=5)
    unseeded = run_ga(genome, fn, cfg)
    seeded = run_ga(genome, fn, cfg, initial_values=[(target,)])
    assert seeded.best_objective == 0
    assert seeded.best_objective <= unseeded.best_objective


def test_config_validation():
    with pytest.raises(ValueError):
        GAConfig(population_size=1)
    with pytest.raises(ValueError):
        GAConfig(population_size=7)  # odd
    with pytest.raises(ValueError):
        GAConfig(min_generations=10, max_generations=5)


def test_determinism():
    genome = Genome([(1, 100), (1, 100)])
    fn = quadratic_objective((30, 60))
    r1 = run_ga(genome, fn, GAConfig(seed=11))
    r2 = run_ga(genome, fn, GAConfig(seed=11))
    assert r1.best_values == r2.best_values
    assert r1.history == r2.history
