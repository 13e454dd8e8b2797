"""Shared experiment configuration, the runners' GA search and
text-table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import envs
from repro.cache.config import CacheConfig
from repro.cme.sampling import PAPER_SAMPLE_SIZE
from repro.ga.engine import GAConfig
from repro.ir.loops import LoopNest
from repro.search.tiling import TilingSearchOutcome, search_tiling


def full_mode() -> bool:
    """True when ``REPRO_FULL=1``: run the paper's exact GA budget."""
    return envs.FULL.get()


def default_workers() -> int:
    """Worker processes for objective evaluation (``REPRO_WORKERS``).

    Defaults to 1 (serial).  Any value yields identical results — the
    evaluation layer guarantees it — so this is purely a wall-clock
    knob.
    """
    return envs.WORKERS.get()


def default_hosts() -> str | None:
    """Cluster worker hosts (``REPRO_HOSTS``, ``host:port,…``).

    When set, the CLI's ``search`` command evaluates candidate waves on
    those ``repro.cli serve`` agents (``--hosts`` overrides).  Like the
    worker knobs, purely a wall-clock choice: the distributed backend
    is bit-identical to local (see :mod:`repro.distributed`).
    """
    return envs.HOSTS.get()


@dataclass(frozen=True)
class ExperimentConfig:
    """Budget knobs shared by all experiment reproductions.

    The *quick* defaults shrink only the GA budget (population 12,
    6–10 generations); the CME sampling budget is the paper's 164
    points in both modes, since per-candidate cost is independent of
    problem size.  Results in quick mode are slightly less converged
    but preserve every qualitative shape; EXPERIMENTS.md reports both
    where they differ.

    ``workers`` fans the GA objective out over that many processes
    per generation (see :mod:`repro.evaluation`; results are identical
    for any value).  It defaults to ``REPRO_WORKERS`` or serial; the
    CLI's ``--workers`` flag overrides the environment.  ``hosts``
    (``REPRO_HOSTS`` / ``--hosts``) names cluster worker agents for
    the distributed evaluation backend — same identical-results
    guarantee, across machines (:mod:`repro.distributed`).
    """

    ga: GAConfig = field(default=None)  # type: ignore[assignment]
    n_samples: int = PAPER_SAMPLE_SIZE
    seed: int = 0
    workers: int = field(default=None)  # type: ignore[assignment]
    hosts: str | None = field(default=None)

    def __post_init__(self):
        if self.workers is None:
            object.__setattr__(self, "workers", default_workers())
        if self.hosts is None:
            object.__setattr__(self, "hosts", default_hosts())
        if self.ga is None:
            ga = (
                GAConfig(seed=self.seed)
                if full_mode()
                else GAConfig(
                    population_size=12,
                    min_generations=6,
                    max_generations=10,
                    seed=self.seed,
                )
            )
            object.__setattr__(self, "ga", ga)


def paper_search(
    nest: LoopNest,
    cache: CacheConfig,
    config: ExperimentConfig,
    ga: GAConfig | None = None,
    seed_baselines: bool = True,
) -> TilingSearchOutcome:
    """One GA tiling search as the paper runners run it: seeded with
    the §5 selectors' tiles unless ``seed_baselines=False``, on
    ``config.ga`` unless ``ga`` is given.

    The budget is the most distinct tilings the GA can propose
    (population × generations), so the distinct-solve cap never ends
    a run before the GA's own schedule does.
    """
    ga = ga or config.ga
    return search_tiling(
        nest, cache, strategy="ga",
        budget=ga.population_size * ga.max_generations,
        seed=config.seed, n_samples=config.n_samples,
        workers=config.workers, ga_config=ga, seed_baselines=seed_baselines,
    )


def format_table(
    title: str, headers: list[str], rows: list[list[str]], note: str = ""
) -> str:
    """Plain-text table in the style of the paper's tables."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [title, "=" * len(title)]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)


def pct(x: float) -> str:
    """Render a ratio as the paper's percentage format."""
    return f"{100.0 * x:.1f}%"
