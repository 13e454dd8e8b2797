"""Extension experiment: set-associative caches (§2.2).

The paper's evaluation is direct-mapped, but its CME machinery is
defined for k-way LRU caches ("k distinct contentions are needed before
a cache miss occurs").  This experiment exercises that path: for a set
of kernels it reports the untiled and GA-tiled replacement ratios at
associativity 1, 2 and 4 (total size fixed), validating the intuition
that associativity absorbs conflict misses while tiling remains
necessary for capacity misses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import CacheConfig
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    paper_search,
    pct,
)
from repro.kernels.registry import KERNELS

DEFAULT_KERNELS = [("MM", 500), ("T2D", 500), ("VPENTA1", 128)]
ASSOCIATIVITIES = (1, 2, 4)


@dataclass(frozen=True)
class AssociativityRow:
    label: str
    associativity: int
    repl_no_tiling: float
    repl_tiling: float
    tile_sizes: tuple[int, ...]


def run_associativity(
    config: ExperimentConfig | None = None,
    kernels: list[tuple[str, int]] | None = None,
    size_bytes: int = 8 * 1024,
    associativities: tuple[int, ...] = ASSOCIATIVITIES,
) -> list[AssociativityRow]:
    config = config or ExperimentConfig()
    rows = []
    for name, size in kernels or DEFAULT_KERNELS:
        nest = KERNELS[name].build(size)
        for k in associativities:
            cache = CacheConfig(size_bytes, 32, k)
            result = paper_search(nest, cache, config)
            rows.append(
                AssociativityRow(
                    label=nest.name,
                    associativity=k,
                    repl_no_tiling=result.before.replacement_ratio,
                    repl_tiling=result.after.replacement_ratio,
                    tile_sizes=result.tile_sizes,
                )
            )
    return rows


def format_associativity(rows: list[AssociativityRow]) -> str:
    return format_table(
        "Associativity extension (8KB, 32B lines; §2.2's k-way CME path)",
        ["Kernel", "Ways", "NO tiling", "Tiling", "Tiles"],
        [
            [
                r.label,
                str(r.associativity),
                pct(r.repl_no_tiling),
                pct(r.repl_tiling),
                "x".join(map(str, r.tile_sizes)),
            ]
            for r in rows
        ],
        note="The k-way solver counts distinct interfering lines with "
        "early exit at k (conservative on undecidable boxes).",
    )
