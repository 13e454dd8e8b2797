"""§3.3 convergence study (Fig. 7 schedule).

Paper claims: near-optimal results in most cases after 15 generations,
the rest within 15–25; the 450-evaluation budget (15 × 30) per nest is
what makes the CME-in-the-loop search affordable.  This experiment runs
the full-budget GA on a set of kernels, recording generations to
convergence, total/distinct evaluations, and the best-vs-average trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import CACHE_8KB_DM, CacheConfig
from repro.experiments.common import ExperimentConfig, format_table, paper_search
from repro.ga.engine import GAConfig
from repro.kernels.registry import KERNELS

DEFAULT_KERNELS = [("MM", 100), ("T2D", 500), ("MATMUL", 100)]


@dataclass(frozen=True)
class ConvergenceRow:
    label: str
    generations: int
    converged_early: bool
    evaluations: int
    distinct_evaluations: int
    best_objective: float
    trace: tuple[tuple[int, float, float], ...]


def run_convergence(
    kernels: list[tuple[str, int]] | None = None,
    cache: CacheConfig = CACHE_8KB_DM,
    config: ExperimentConfig | None = None,
    paper_budget: bool = True,
) -> list[ConvergenceRow]:
    """Run the GA with the paper's budget and record convergence."""
    config = config or ExperimentConfig()
    ga_config = GAConfig(seed=config.seed) if paper_budget else config.ga
    rows = []
    for name, size in kernels or DEFAULT_KERNELS:
        nest = KERNELS[name].build(size)
        search = paper_search(
            nest, cache, config, ga=ga_config,
            seed_baselines=False,  # §3.3: random initialisation
        ).search
        ga = search.strategy_ref
        rows.append(
            ConvergenceRow(
                label=nest.name,
                generations=ga.generations,
                converged_early=ga.converged_early,
                evaluations=ga.consumed,
                distinct_evaluations=search.distinct_evaluations,
                best_objective=search.best_objective,
                trace=tuple((g, b, a) for g, b, a, _ in ga.history),
            )
        )
    return rows


def format_convergence(rows: list[ConvergenceRow]) -> str:
    from repro.report.charts import sparkline

    return format_table(
        "GA convergence (§3.3: 15-25 generations, 450 evaluations at "
        "population 30)",
        ["Kernel", "Generations", "Converged", "Evaluations", "Distinct",
         "Best trace"],
        [
            [
                r.label,
                str(r.generations),
                "yes" if r.converged_early else "no (hit cap)",
                str(r.evaluations),
                str(r.distinct_evaluations),
                sparkline([b for _, b, _ in r.trace], width=25),
            ]
            for r in rows
        ],
        note="'Distinct' counts memoised objective evaluations — the CME "
        "solves actually performed.  The trace shows the per-generation "
        "best objective.",
    )
