"""Portfolio meta-search comparison — the §5 strategy race, composed.

The paper's §5 compares the GA against hill climbing, annealing,
random sampling and exhaustive enumeration, each run on its own.  This
experiment runs the same comparison *and* the
:class:`repro.search.PortfolioStrategy` composite over the same
members at the same total budget, reporting:

* best objective / distinct CME solves / driver waves per configuration;
* the cache-sharing win: the sum of distinct candidates the portfolio
  members *read* minus the distinct candidates actually *solved* —
  every unit of that gap is a CME solve one member inherited from
  another (or from a previous restart) through the shared evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import CACHE_8KB_DM, CacheConfig
from repro.experiments.common import ExperimentConfig, format_table, full_mode
from repro.kernels.registry import get_kernel
from repro.search.tiling import search_tiling

#: Single strategies raced against the composite (exhaustive excluded:
#: its grid is budget-shaped rather than budget-capped).
DEFAULT_MEMBERS = ("ga", "hillclimb", "annealing", "random")


@dataclass(frozen=True)
class PortfolioRow:
    label: str
    best_objective: float
    distinct: int
    steps: int
    evaluations: int


def run_portfolio_comparison(
    kernel: str = "MM",
    size: int | None = 100,
    cache: CacheConfig = CACHE_8KB_DM,
    config: ExperimentConfig | None = None,
    budget: int | None = None,
    members: tuple[str, ...] = DEFAULT_MEMBERS,
    restart: str | None = "stagnation:5",
    mode: str = "interleave",
) -> tuple[list[PortfolioRow], dict]:
    """Race each member strategy alone, then the portfolio of them all.

    Every configuration gets the same total distinct-solve ``budget``
    (quick default 60, ``REPRO_FULL=1`` default the paper's 450), the
    same sampled objective and the same seed, so the comparison is the
    honest one the driver's budget accounting enables.
    """
    config = config or ExperimentConfig()
    if budget is None:
        budget = 450 if full_mode() else 60
    nest = get_kernel(kernel, size)
    rows: list[PortfolioRow] = []
    for name in members:
        outcome = search_tiling(
            nest, cache, strategy=name, budget=budget, seed=config.seed,
            n_samples=config.n_samples, workers=config.workers,
            ga_config=config.ga,
        )
        s = outcome.search
        rows.append(
            PortfolioRow(
                label=name,
                best_objective=s.best_objective,
                distinct=s.distinct_evaluations,
                steps=s.steps,
                evaluations=s.evaluations,
            )
        )
    outcome = search_tiling(
        nest, cache, strategy="portfolio", budget=budget, seed=config.seed,
        n_samples=config.n_samples, workers=config.workers,
        ga_config=config.ga,
        members=members, restart=restart, portfolio_mode=mode,
    )
    s = outcome.search
    rows.append(
        PortfolioRow(
            label=f"portfolio[{mode}]",
            best_objective=s.best_objective,
            distinct=s.distinct_evaluations,
            steps=s.steps,
            evaluations=s.evaluations,
        )
    )
    strategy = s.strategy_ref
    stats = strategy.member_stats()
    sharing = {
        "nest": nest.name,
        "budget": budget,
        "restart": restart,
        "member_reads": sum(st["consumed_distinct"] for st in stats),
        "portfolio_distinct": s.distinct_evaluations,
        "shared_hits": sum(st["inherited"] for st in stats),
        "restarts": sum(st["restarts"] for st in stats),
        "member_stats": stats,
    }
    return rows, sharing


def format_portfolio(rows: list[PortfolioRow], sharing: dict) -> str:
    """Plain-text comparison table plus the cache-sharing summary."""
    best = min(r.best_objective for r in rows)
    return format_table(
        f"Portfolio meta-search vs single strategies "
        f"({sharing['nest']}, budget {sharing['budget']} distinct solves)",
        ["Strategy", "Best objective", "Distinct", "Waves", "Calls"],
        [
            [
                r.label + (" *" if r.best_objective == best else ""),
                f"{r.best_objective:.1f}",
                str(r.distinct),
                str(r.steps),
                str(r.evaluations),
            ]
            for r in rows
        ],
        note=(
            f"* best at this budget.  Cache sharing: the portfolio solved "
            f"{sharing['portfolio_distinct']} distinct candidates; "
            f"{sharing['shared_hits']} member demands were memo hits "
            f"inherited from sibling members or earlier restarts "
            f"({sharing['restarts']} restarts under "
            f"'{sharing['restart']}')."
        ),
    )
