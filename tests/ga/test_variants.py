"""GA variant tests: tournament selection and elitism."""

import numpy as np
import pytest

from repro.ga.encoding import Genome
from repro.ga.engine import GAConfig
from repro.ga.operators import tournament_selection
from tests.ga.test_engine import run_ga


def test_tournament_selects_population_size():
    rng = np.random.default_rng(0)
    out = tournament_selection(np.array([1.0, 5.0, 2.0, 0.5]), rng)
    assert len(out) == 4
    assert set(out) <= {0, 1, 2, 3}


def test_tournament_pressure():
    rng = np.random.default_rng(1)
    fitness = np.array([10.0, 1.0, 1.0, 1.0])
    counts = np.zeros(4)
    for _ in range(200):
        counts += np.bincount(tournament_selection(fitness, rng), minlength=4)
    # With k=2 the best wins ~ 2/N + ... — must dominate any single loser.
    assert counts[0] > 2 * counts[1]


def test_tournament_engine_optimises():
    genome = Genome([(1, 64)])
    cfg = GAConfig(population_size=10, selection="tournament",
                   min_generations=5, max_generations=10, seed=2)
    ga = run_ga(genome, lambda v: abs(v[0] - 40), cfg)
    assert ga.best_objective <= 3


def test_elitism_never_loses_the_best():
    genome = Genome([(1, 512)])
    cfg = GAConfig(population_size=10, elitism=True,
                   min_generations=8, max_generations=12, seed=3)
    ga = run_ga(genome, lambda v: abs(v[0] - 300), cfg)
    # With elitism, the per-generation best never regresses.
    bests = [best for _, best, _, _ in ga.history]
    assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))


def test_unknown_selection_rejected():
    with pytest.raises(ValueError):
        GAConfig(selection="roulette")
