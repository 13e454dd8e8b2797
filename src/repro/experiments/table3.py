"""Table 3: padding and padding+tiling for the conflict-dominated kernels.

Paper values (replacement miss ratio):

8KB cache:
  kernel     original  padding  padding+tiling
  ADD        60.2%     59.8%    0.5%
  BTRIX      50.1%     0.2%     0.2%
  VPENTA1    78.3%     52.4%    0.0%
  VPENTA2    86.0%     11.9%    0.0%
  ADI 1000   26.2%     12.3%    4.1%
  ADI 2000   25.7%     12.4%    3.4%
32KB cache:
  ADD        60.2%     59.8%    0.0%
  BTRIX      34.1%     0.0%     0.0%
  VPENTA1    78.1%     32.9%    0.0%
  VPENTA2    86.0%     11.3%    0.0%
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import CACHE_8KB_DM, CACHE_32KB_DM, CacheConfig
from repro.experiments.common import ExperimentConfig, format_table, pct
from repro.ga.padding_search import optimize_padding_then_tiling
from repro.kernels.registry import KERNELS

PAPER_TABLE3: dict[tuple[str, int, int], tuple[float, float, float]] = {
    # (kernel, size, cache KB): (original, padding, padding+tiling)
    ("ADD", 64, 8): (0.602, 0.598, 0.005),
    ("BTRIX", 64, 8): (0.501, 0.002, 0.002),
    ("VPENTA1", 128, 8): (0.783, 0.524, 0.000),
    ("VPENTA2", 128, 8): (0.860, 0.119, 0.000),
    ("ADI", 1000, 8): (0.262, 0.123, 0.041),
    ("ADI", 2000, 8): (0.257, 0.124, 0.034),
    ("ADD", 64, 32): (0.602, 0.598, 0.000),
    ("BTRIX", 64, 32): (0.341, 0.000, 0.000),
    ("VPENTA1", 128, 32): (0.781, 0.329, 0.000),
    ("VPENTA2", 128, 32): (0.860, 0.113, 0.000),
}


@dataclass(frozen=True)
class Table3Row:
    kernel: str
    size: int
    cache_kb: int
    original: float
    padding: float
    padding_tiling: float
    paper: tuple[float, float, float]


def run_table3(
    config: ExperimentConfig | None = None,
    entries: list[tuple[str, int, int]] | None = None,
) -> list[Table3Row]:
    """Reproduce Table 3 with the sequential padding→tiling pipeline."""
    config = config or ExperimentConfig()
    rows: list[Table3Row] = []
    for key in entries or list(PAPER_TABLE3):
        name, size, cache_kb = key
        cache: CacheConfig = CACHE_8KB_DM if cache_kb == 8 else CACHE_32KB_DM
        nest = KERNELS[name].build(size)
        result = optimize_padding_then_tiling(
            nest,
            cache,
            config=config.ga,
            n_samples=config.n_samples,
            seed=config.seed,
            workers=config.workers,
        )
        rows.append(
            Table3Row(
                kernel=name,
                size=size,
                cache_kb=cache_kb,
                original=result.before.replacement_ratio,
                padding=result.after_padding.replacement_ratio,
                padding_tiling=result.after_padding_tiling.replacement_ratio,
                paper=PAPER_TABLE3[key],
            )
        )
    return rows


def format_table3(rows: list[Table3Row]) -> str:
    return format_table(
        "Table 3: replacement miss ratio — original / padding / padding+tiling",
        [
            "Kernel", "Cache",
            "Original", "(paper)",
            "Padding", "(paper)",
            "Pad+Tile", "(paper)",
        ],
        [
            [
                f"{r.kernel}_{r.size}" if r.kernel == "ADI" else r.kernel,
                f"{r.cache_kb}KB",
                pct(r.original), pct(r.paper[0]),
                pct(r.padding), pct(r.paper[1]),
                pct(r.padding_tiling), pct(r.paper[2]),
            ]
            for r in rows
        ],
        note="Padding parameters are found with the same GA; tiling then "
        "runs on the padded layout (§4.3).",
    )
