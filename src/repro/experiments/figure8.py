"""Figures 8 & 9: replacement miss ratio per kernel, tiling vs no tiling.

The figures' bar values are not tabulated in the paper; the published
claims are the *shapes*: tiling drives replacement misses to near zero
for most kernel instances, except the conflict-dominated ADD/BTRIX/
VPENTA (and ADI at 8KB), which Table 3 hands to padding.  The runner
returns one row per bar, in the published order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import CACHE_8KB_DM, CacheConfig
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    paper_search,
    pct,
)
from repro.kernels.registry import FIGURE_INSTANCES, KERNELS, instance_label

#: Kernels the paper singles out (Table 3) as not fixed by tiling alone.
CONFLICT_KERNELS = {"ADD", "BTRIX", "VPENTA1", "VPENTA2"}


@dataclass(frozen=True)
class FigureRow:
    label: str
    kernel: str
    size: int
    repl_no_tiling: float
    repl_tiling: float
    tile_sizes: tuple[int, ...]


def run_figure(
    cache: CacheConfig,
    config: ExperimentConfig | None = None,
    instances: list[tuple[str, int]] | None = None,
) -> list[FigureRow]:
    """Replacement ratios before/after GA tiling for each figure bar."""
    config = config or ExperimentConfig()
    rows: list[FigureRow] = []
    for name, size in instances or FIGURE_INSTANCES:
        nest = KERNELS[name].build(size)
        result = paper_search(nest, cache, config)
        rows.append(
            FigureRow(
                label=instance_label(name, size),
                kernel=name,
                size=size,
                repl_no_tiling=result.before.replacement_ratio,
                repl_tiling=result.after.replacement_ratio,
                tile_sizes=result.tile_sizes,
            )
        )
    return rows


def run_figure8(
    config: ExperimentConfig | None = None,
    instances: list[tuple[str, int]] | None = None,
) -> list[FigureRow]:
    return run_figure(CACHE_8KB_DM, config, instances)


def format_figure(rows: list[FigureRow], title: str) -> str:
    bars = []
    for r in rows:
        bars.append(
            [
                r.label,
                pct(r.repl_no_tiling),
                pct(r.repl_tiling),
                "x".join(map(str, r.tile_sizes)),
                "conflict-dominated (see Table 3)"
                if r.kernel in CONFLICT_KERNELS and r.repl_tiling > 0.05
                else "",
            ]
        )
    return format_table(
        title,
        ["Kernel", "NO tiling", "Tiling", "Tiles", "Note"],
        bars,
        note="Bar heights: replacement miss ratio (Figs. 8-9 report the "
        "same two bars per kernel).",
    )
