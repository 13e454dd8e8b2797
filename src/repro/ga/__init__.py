"""Genetic algorithm for tile-size and padding search (§3.2–§3.3).

The encoding, operators and :class:`GAConfig` live here; the
generational loop is :class:`repro.search.GAStrategy`, and tiling
searches enter through :func:`repro.search.search_tiling`.
"""

from repro.ga.encoding import Genome, bits_for, decode_value
from repro.ga.operators import (
    mutate,
    remainder_stochastic_selection,
    single_point_crossover,
)
from repro.ga.engine import GAConfig
from repro.ga.objective import (
    PaddingObjective,
    PaddingTilingObjective,
    TilingObjective,
)
from repro.ga.padding_search import (
    PaddingResult,
    optimize_joint_padding_tiling,
    optimize_padding,
    optimize_padding_then_tiling,
)

__all__ = [
    "Genome",
    "bits_for",
    "decode_value",
    "mutate",
    "remainder_stochastic_selection",
    "single_point_crossover",
    "GAConfig",
    "TilingObjective",
    "PaddingObjective",
    "PaddingTilingObjective",
    "PaddingResult",
    "optimize_padding",
    "optimize_padding_then_tiling",
    "optimize_joint_padding_tiling",
]
