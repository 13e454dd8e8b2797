"""The genetic algorithm's configuration (Figs. 4 and 7).

The GA minimises an objective over a :class:`~repro.ga.encoding.Genome`
using the paper's parameters: population 30, crossover probability 0.9,
mutation probability 0.001, at least 15 generations, at most 25, with
early termination once the population has converged — the best
individual's objective within 2% of the generation average (§3.3).

The generational loop itself is :class:`repro.search.genetic.GAStrategy`
(each population is one batch-proposal wave), driven like every other
strategy by :func:`repro.search.run_search`; a tiling search enters
through :func:`repro.search.search_tiling`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GAConfig:
    """Paper defaults (§3.3); shrink population/generations for quick runs.

    ``selection`` chooses the reproduction scheme: ``"remainder"`` is
    the paper's remainder stochastic selection without replacement;
    ``"tournament"`` is a rank-based alternative for ablations.
    ``elitism`` (off by default, as in the paper) copies the best
    individual unchanged into each next generation.
    """

    population_size: int = 30
    crossover_prob: float = 0.9
    mutation_prob: float = 0.001
    min_generations: int = 15
    max_generations: int = 25
    convergence_threshold: float = 0.02
    selection: str = "remainder"
    elitism: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population must have at least 2 individuals")
        if self.population_size % 2:
            raise ValueError("population size must be even (pairwise crossover)")
        if self.min_generations > self.max_generations:
            raise ValueError("min_generations > max_generations")
        if self.selection not in ("remainder", "tournament"):
            raise ValueError(f"unknown selection scheme {self.selection!r}")
