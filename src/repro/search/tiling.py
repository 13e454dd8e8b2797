"""Tile-size search — the one entry point for every tiling search.

``search_tiling`` wires any registered strategy (GA, hillclimb,
annealing, random, exhaustive, portfolio) to the sampled-CME tiling
objective of :mod:`repro.ga.objective` and drives it through the
shared :func:`repro.search.run_search` loop, with optional
candidate-level worker fan-out and checkpoint/resume.  The CLI's
``search`` command, the paper's table and figure runners and perfbench
all enter here; the runners add the two things the paper's pipeline
needs on top (§4): a GA seeded with the §5 analytical selectors'
tiles, and tiling on a padded layout (Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import CacheConfig
from repro.cme.analyzer import LocalityAnalyzer
from repro.cme.sampling import PAPER_SAMPLE_SIZE, CMEEstimate
from repro.ga.encoding import Genome
from repro.ir.loops import LoopNest
from repro.layout.memory import MemoryLayout, PaddingSpec
from repro.search.base import SearchResult, SearchStrategy
from repro.search.driver import run_search
from repro.search.genetic import GAStrategy
from repro.search.portfolio import PortfolioStrategy
from repro.search.strategies import (
    AnnealingStrategy,
    ExhaustiveStrategy,
    HillClimbStrategy,
    RandomStrategy,
)

#: Strategy names accepted by :func:`make_tiling_strategy` / the CLI.
STRATEGY_NAMES = (
    "ga", "hillclimb", "annealing", "random", "exhaustive", "portfolio"
)

#: Default member mix for ``--strategy portfolio``.
DEFAULT_PORTFOLIO_MEMBERS = ("ga", "hillclimb", "annealing")


@dataclass
class TilingSearchOutcome:
    """A :class:`SearchResult` plus before/after miss-ratio estimates.

    ``backend`` carries the distributed backend's per-source counters
    (store hits vs remote vs local solves, payload bytes, re-dispatches
    — see :meth:`repro.distributed.DistributedEvaluator.backend_stats`)
    when the search ran against one; ``None`` for the plain local path.
    ``evaluation`` carries the evaluator's own accounting for *every*
    backend (calls, memo hits, new solves, …) so the CLI summary can
    show where values came from on the local path too.
    """

    nest_name: str
    search: SearchResult
    before: CMEEstimate
    after: CMEEstimate
    backend: dict | None = None
    evaluation: dict | None = None

    @property
    def tile_sizes(self) -> tuple[int, ...]:
        return self.search.best_values

    def summary(self) -> str:
        s = self.search
        return (
            f"{self.nest_name} [{s.strategy}]: T={s.best_values} "
            f"repl {self.before.replacement_ratio:.2%} → "
            f"{self.after.replacement_ratio:.2%} "
            f"({s.steps} steps, {s.evaluations} evals, "
            f"{s.distinct_evaluations} distinct)"
        )


def tiling_genome(nest: LoopNest) -> Genome:
    """One chromosome per loop: tile sizes ``T_i ∈ [1, extent_i]``."""
    return Genome([(1, loop.extent) for loop in nest.loops])


def baseline_seed_tiles(
    nest: LoopNest, cache: CacheConfig, layout: MemoryLayout | None = None
) -> list[tuple[int, ...]]:
    """Analytical baseline tiles used to seed the GA's first population:
    the LRW, TSS, Sarkar–Megiddo and Ghosh selectors' tiles, then the
    untiled vector, without repeats."""
    from repro.baselines.ghosh_cme import ghosh_cme_tiles
    from repro.baselines.lrw import lrw_tiles
    from repro.baselines.sarkar_megiddo import sarkar_megiddo_tiles
    from repro.baselines.tss import coleman_mckinley_tiles

    seeds = []
    for fn in (lrw_tiles, coleman_mckinley_tiles, sarkar_megiddo_tiles, ghosh_cme_tiles):
        try:
            if fn is lrw_tiles:
                seeds.append(fn(nest, cache))
            else:
                seeds.append(fn(nest, cache, layout))
        # A baseline heuristic that cannot handle this nest (degenerate
        # geometry, zero division in a footprint model, …) only loses
        # its seed; the GA's search is seeded from the survivors.
        except Exception:  # repro: lint-ok[broad-except]
            continue
    seeds.append(tuple(l.extent for l in nest.loops))  # the untiled genotype
    # Deduplicate, preserving order.
    out: list[tuple[int, ...]] = []
    for s in seeds:
        if s not in out:
            out.append(s)
    return out


def make_tiling_strategy(
    name: str,
    nest: LoopNest,
    budget: int = 450,
    seed: int = 0,
    ga_config=None,
    speculation: int = 1,
    neighborhood: bool = False,
    members: tuple[str, ...] | None = None,
    restart: str | None = None,
    portfolio_mode: str = "interleave",
    initial_values: list[tuple[int, ...]] | None = None,
) -> SearchStrategy:
    """Build a registered strategy over ``nest``'s tile-size space.

    ``members``/``restart``/``portfolio_mode`` configure the
    ``"portfolio"`` strategy: member strategy names (each built over
    the same space with a distinct derived seed and an even share of
    ``budget``), the restart policy spec, and interleave vs race
    scheduling (see :mod:`repro.search.portfolio`).
    ``initial_values`` fills the GA's first population slots, in order.
    """
    import dataclasses

    extents = [loop.extent for loop in nest.loops]
    if name == "ga":
        from repro.ga.engine import GAConfig

        return GAStrategy(
            tiling_genome(nest), ga_config or GAConfig(seed=seed),
            initial_values,
        )
    if name == "portfolio":
        from repro.search.portfolio import _reseed_params

        names = tuple(members or DEFAULT_PORTFOLIO_MEMBERS)
        if "portfolio" in names:
            raise ValueError("portfolio members must be leaf strategies")
        share = max(1, budget // max(1, len(names)))
        built = []
        for j, member in enumerate(names):
            strat = make_tiling_strategy(
                member,
                nest,
                budget=share,
                # Distinct per-member seeds so same-name members diverge.
                seed=seed + j,
                ga_config=(
                    None
                    if ga_config is None
                    else dataclasses.replace(ga_config, seed=seed + j)
                ),
                speculation=speculation,
                # Member config must not vary with the worker count:
                # under a binding distinct-solve budget, speculative
                # extras change what gets solved, and the portfolio
                # (unlike a lone hill climber that converges early)
                # always runs the budget to the cap.  Parallelism for
                # the composite comes from the merged super-waves.
                neighborhood=False,
            )
            if member in names[:j]:
                # Seed-less repeats (hillclimb: no seed kwarg, midpoint
                # start) would be identical clones proposing the same
                # waves; reseed them the way a restart would (hillclimb
                # draws a fresh random start; seeded strategies are
                # unchanged in kind).  Exhaustive has no randomness at
                # all — repeating it buys nothing.
                strat = type(strat)(**_reseed_params(strat._params(), seed + j))
            built.append(strat)
        return PortfolioStrategy(
            built,
            budget=budget,
            mode=portfolio_mode,
            restart=restart,
            seed=seed,
        )
    if name == "hillclimb":
        return HillClimbStrategy(
            extents, max_distinct=budget, neighborhood=neighborhood
        )
    if name == "annealing":
        return AnnealingStrategy(
            extents, budget=budget, seed=seed, speculation=speculation
        )
    if name == "random":
        return RandomStrategy(extents, budget=budget, seed=seed)
    if name == "exhaustive":
        # Bound per-dimension points so the grid roughly fits the budget.
        per_dim = max(2, round(budget ** (1.0 / max(1, nest.depth))))
        return ExhaustiveStrategy(extents, max_points_per_dim=per_dim)
    raise ValueError(
        f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}"
    )


def search_tiling(
    nest: LoopNest,
    cache: CacheConfig,
    strategy: str = "ga",
    budget: int = 450,
    seed: int = 0,
    n_samples: int = PAPER_SAMPLE_SIZE,
    workers: int = 1,
    ga_config=None,
    speculation: int = 1,
    checkpoint_path: str | None = None,
    resume: str | None = None,
    members: tuple[str, ...] | None = None,
    restart: str | None = None,
    portfolio_mode: str = "interleave",
    backend: str | None = None,
    hosts=None,
    memo_path: str | None = None,
    padding: PaddingSpec | None = None,
    seed_baselines: bool = False,
) -> TilingSearchOutcome:
    """Minimise sampled replacement misses for ``nest`` with any strategy.

    ``workers`` fans *candidate* evaluation out over a process pool;
    results are identical for any worker count.
    ``members``/``restart``/``portfolio_mode`` configure
    ``strategy="portfolio"`` (see :func:`make_tiling_strategy`).

    ``backend="cluster"`` evaluates candidate waves on remote worker
    agents instead of (or before falling back to) local processes:
    ``hosts`` is the ``host:port,…`` spec the agents listen on
    (defaulting to ``REPRO_HOSTS`` via the CLI).  ``memo_path`` points
    either backend at a persistent :class:`repro.distributed.MemoStore`
    so no run ever re-solves a candidate any prior run against the
    same (kernel, cache, sampling, seed) fingerprint solved.
    All backends yield bit-identical trajectories — see
    :mod:`repro.distributed`.

    ``padding`` tiles the nest on that padded layout (Table 3's
    padding→tiling pipeline); it keys the fingerprint.
    ``seed_baselines`` plants :func:`baseline_seed_tiles` in the GA's
    first population (``strategy="ga"`` only); leave it off for the
    paper's purely random initialisation (§3.3).
    """
    import hashlib

    from repro.ga.objective import SampledTilingFn, TilingObjective
    from repro.ir.parser import nest_to_dsl
    from repro.polyhedra.congruence import CongruenceTester

    # Resolve the cascade work budgets HERE (env > defaults) and pin
    # them: they are part of the objective's identity — different
    # budgets give different (honest) estimates — so they belong in the
    # checkpoint/memo fingerprint, and pinning them into the analyzer
    # means remote workers compute with the coordinator's budgets, not
    # whatever their own host environment says.  The nest enters the
    # fingerprint by *structure* (its DSL rendering), not just by name:
    # the memo store is long-lived and shared, and two edits of a
    # parsed kernel easily carry the same name.
    cascade_budgets = CongruenceTester().budgets()
    fingerprint = (
        nest.name,
        hashlib.sha256(nest_to_dsl(nest).encode()).hexdigest(),
        repr(cache), n_samples, seed,
        tuple(sorted(cascade_budgets.items())),
    )
    layout = None
    if padding is not None:
        # A padded layout is another objective; an unpadded search
        # keeps the fingerprint (so its memo files and checkpoints)
        # it always had.
        fingerprint += (LocalityAnalyzer._padding_key(padding),)
        layout = MemoryLayout(nest.arrays(), padding)
    if seed_baselines and strategy != "ga":
        raise ValueError(
            f"seed_baselines seeds the GA's population; strategy "
            f"{strategy!r} has none"
        )
    if backend is None:
        backend = "cluster" if hosts else "local"
    if backend not in ("local", "cluster"):
        raise ValueError(
            f"unknown backend {backend!r}; expected 'local' or 'cluster'"
        )
    if backend == "cluster" and not hosts:
        raise ValueError(
            "backend='cluster' needs hosts (--hosts or REPRO_HOSTS)"
        )
    analyzer = LocalityAnalyzer(
        nest, cache, layout=layout, n_samples=n_samples, seed=seed,
        cascade_budgets=cascade_budgets,
    )
    if backend == "cluster" or memo_path is not None:
        from repro.distributed import DistributedEvaluator

        objective = DistributedEvaluator(
            SampledTilingFn(analyzer),
            hosts=hosts if backend == "cluster" else (),
            workers=workers,
            memo_path=memo_path,
            fingerprint=fingerprint,
        )
    else:
        objective = TilingObjective(analyzer, workers=workers)
    strat = (
        None
        if resume is not None
        else make_tiling_strategy(
            strategy, nest, budget=budget, seed=seed,
            ga_config=ga_config, speculation=speculation,
            # Speculative neighborhood waves only pay for themselves
            # across a worker pool.
            neighborhood=workers > 1,
            members=members, restart=restart, portfolio_mode=portfolio_mode,
            initial_values=(
                baseline_seed_tiles(nest, cache, layout)
                if seed_baselines
                else None
            ),
        )
    )
    try:
        result = run_search(
            strat,
            objective,
            # The budget caps *distinct CME solves*, speculation
            # included — strategies also self-limit, but this is the
            # uniform ceiling the CLI's --budget documents.
            max_distinct=budget,
            checkpoint_path=checkpoint_path,
            resume=resume,
            # The memo in a checkpoint is only valid against the same
            # sampled objective; refuse cross-problem resumes.  The
            # persistent memo store keys by this same identity.
            fingerprint=fingerprint,
        )
        if result.best_values is None:
            raise ValueError(
                f"budget {budget} too small: the {result.strategy} "
                "strategy could not complete a single wave"
            )
        before = analyzer.estimate()
        after = analyzer.estimate(tile_sizes=result.best_values)
    finally:
        backend_stats = (
            objective.backend_stats()
            if hasattr(objective, "backend_stats")
            else None
        )
        store_hits = getattr(objective, "store_hits", 0)
        evaluation = {
            "calls": objective.calls,
            "new_solves": objective.new_solves,
            "store_hits": store_hits,
            "memo_hits": max(
                0, objective.calls - objective.new_solves - store_hits
            ),
            "distinct": objective.distinct_evaluations,
            "parallel_fallback": objective.parallel_fallback,
        }
        objective.close()
    return TilingSearchOutcome(
        nest_name=nest.name, search=result, before=before, after=after,
        backend=backend_stats, evaluation=evaluation,
    )
