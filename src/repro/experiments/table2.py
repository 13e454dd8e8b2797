"""Table 2: miss ratios of four kernels before/after GA tiling.

Paper values (8KB direct-mapped, 32B lines):

=========  =====  ===========  ==========  ===========  ==========
kernel     size   total before repl before total after  repl after
=========  =====  ===========  ==========  ===========  ==========
T2D        2000   63.3%        36.4%       27.7%        0.9%
T3DJIK     200    63.4%        36.7%       30.2%        3.6%
T3DIKJ     200    34.6%        7.0%        27.9%        0.3%
JACOBI3D   200    25.6%        7.2%        19.8%        1.3%
=========  =====  ===========  ==========  ===========  ==========
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import CACHE_8KB_DM
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    paper_search,
    pct,
)
from repro.kernels.registry import KERNELS

PAPER_TABLE2 = {
    ("T2D", 2000): (0.633, 0.364, 0.277, 0.009),
    ("T3DJIK", 200): (0.634, 0.367, 0.302, 0.036),
    ("T3DIKJ", 200): (0.346, 0.070, 0.279, 0.003),
    ("JACOBI3D", 200): (0.256, 0.072, 0.198, 0.013),
}


@dataclass(frozen=True)
class Table2Row:
    kernel: str
    size: int
    total_before: float
    repl_before: float
    total_after: float
    repl_after: float
    tile_sizes: tuple[int, ...]
    paper: tuple[float, float, float, float]


def run_table2(config: ExperimentConfig | None = None) -> list[Table2Row]:
    """Reproduce Table 2 with the GA tiling pipeline."""
    config = config or ExperimentConfig()
    rows: list[Table2Row] = []
    for (name, size), paper in PAPER_TABLE2.items():
        nest = KERNELS[name].build(size)
        result = paper_search(nest, CACHE_8KB_DM, config)
        rows.append(
            Table2Row(
                kernel=name,
                size=size,
                total_before=result.before.miss_ratio,
                repl_before=result.before.replacement_ratio,
                total_after=result.after.miss_ratio,
                repl_after=result.after.replacement_ratio,
                tile_sizes=result.tile_sizes,
                paper=paper,
            )
        )
    return rows


def format_table2(rows: list[Table2Row]) -> str:
    return format_table(
        "Table 2: miss ratios before/after tiling (8KB DM, 32B lines)",
        [
            "Kernel", "N",
            "Total pre", "(paper)", "Repl pre", "(paper)",
            "Total post", "(paper)", "Repl post", "(paper)", "Tiles",
        ],
        [
            [
                r.kernel,
                str(r.size),
                pct(r.total_before), pct(r.paper[0]),
                pct(r.repl_before), pct(r.paper[1]),
                pct(r.total_after), pct(r.paper[2]),
                pct(r.repl_after), pct(r.paper[3]),
                "x".join(map(str, r.tile_sizes)),
            ]
            for r in rows
        ],
        note="Compulsory misses are invariant under tiling; the paper's "
        "claim is the near-zero post-tiling replacement column.",
    )
