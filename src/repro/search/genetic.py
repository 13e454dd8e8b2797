"""The paper's genetic algorithm (§3.3) as a batch proposer.

:class:`GAStrategy` is the generational loop (Fig. 7) in the
:class:`~repro.search.base.SearchStrategy` protocol: each wave is one
whole population (the natural batch the paper's §3 evaluation engine
fans out over workers), and selection → crossover → mutation runs
between waves.  :func:`repro.search.run_search` drives it like every
other strategy; a tiling search builds it through
:func:`repro.search.search_tiling`.
"""

from __future__ import annotations

import numpy as np

from repro.ga.encoding import Genome
from repro.ga.operators import (
    mutate,
    remainder_stochastic_selection,
    single_point_crossover,
    tournament_selection,
)
from repro.search.base import SearchStrategy, Values
from repro.utils.rng import make_rng


def population_converged(objs: np.ndarray, threshold: float) -> bool:
    """§3.3 termination test: best within ``threshold`` of the average."""
    avg = objs.mean()
    best = objs.min()
    if avg == 0:
        return True
    return (avg - best) / avg < threshold


class GAStrategy(SearchStrategy):
    """Minimise over a :class:`~repro.ga.encoding.Genome`'s value space.

    ``config`` is a :class:`repro.ga.engine.GAConfig`.
    ``initial_values`` fill the first population's slots, in order.
    History is kept as plain ``(generation, best, average,
    best_values)`` tuples, one per generation.
    """

    name = "ga"

    def __init__(self, genome: Genome, config, initial_values=None):
        super().__init__()
        self.genome = genome
        self.config = config
        self.initial_values = [tuple(v) for v in (initial_values or [])]
        self.generations = 0
        self.converged_early = False
        #: (generation, best, average, best_values) per generation.
        self.history: list[tuple[int, float, float, Values]] = []

    def _params(self) -> dict:
        return {
            "genome": self.genome,
            "config": self.config,
            "initial_values": self.initial_values,
        }

    # -- fitness scaling ------------------------------------------------------
    @staticmethod
    def _fitness(objs: np.ndarray) -> np.ndarray:
        """Positive fitness for minimisation via windowing.

        ``fitness = worst - obj + 10% of the spread`` so the worst
        individual keeps a small reproduction chance; a flat population
        degenerates to uniform fitness.
        """
        worst = objs.max()
        best = objs.min()
        spread = worst - best
        if spread == 0:
            return np.ones_like(objs)
        return (worst - objs) + 0.1 * spread

    def _converged(self, objs: np.ndarray) -> bool:
        """§3.3: best within 2% of the generation average."""
        return population_converged(objs, self.config.convergence_threshold)

    # -- the generational loop ------------------------------------------------
    def _algorithm(self):
        cfg = self.config
        rng = make_rng(cfg.seed)
        n = cfg.population_size
        pop = [self.genome.random_individual(rng) for _ in range(n)]
        for slot, values in enumerate(self.initial_values[:n]):
            pop[slot] = self.genome.encode(values)

        gen = 0
        while True:
            values = [self.genome.decode(ind) for ind in pop]
            yield list(values)
            objs = np.array([self._consume(v) for v in values], dtype=float)
            gbest = int(objs.argmin())
            self._record_best(values[gbest], float(objs[gbest]))
            self.history.append(
                (gen, float(objs.min()), float(objs.mean()), values[gbest])
            )

            # Fig. 7 termination schedule.
            gen += 1
            self.generations = gen
            if gen >= cfg.max_generations:
                return
            if gen >= cfg.min_generations and self._converged(objs):
                self.converged_early = True
                return

            # Selection → pairwise crossover → mutation (Fig. 6).
            if cfg.selection == "tournament":
                selected = tournament_selection(self._fitness(objs), rng)
            else:
                selected = remainder_stochastic_selection(self._fitness(objs), rng)
            next_pop: list[np.ndarray] = []
            for i in range(0, n, 2):
                p1 = pop[selected[i]]
                p2 = pop[selected[i + 1]]
                if rng.random() < cfg.crossover_prob:
                    c1, c2 = single_point_crossover(p1, p2, rng)
                else:
                    c1, c2 = p1.copy(), p2.copy()
                next_pop.append(mutate(c1, cfg.mutation_prob, rng))
                next_pop.append(mutate(c2, cfg.mutation_prob, rng))
            if cfg.elitism:
                next_pop[0] = pop[gbest].copy()
            pop = next_pop
