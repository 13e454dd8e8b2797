"""repro — Near-Optimal Loop Tiling via Cache Miss Equations and GAs.

A from-scratch reproduction of Abella, González, Llosa & Vera (ICPP
Workshops 2002): an analytical cache model (Cache Miss Equations)
solved per sampled iteration point, driving a genetic algorithm that
selects loop tile sizes (and padding parameters) minimising replacement
misses.

Quick start::

    from repro import CACHE_8KB_DM, kernels, search_tiling

    nest = kernels.make_mm(500)                 # Fig. 1 matrix multiply
    result = search_tiling(nest, CACHE_8KB_DM, seed_baselines=True)
    print(result.summary())

See README.md for install/quickstart and the layer map,
docs/ARCHITECTURE.md for the load-bearing contracts, and docs/CLI.md
for the command-line reference.
"""

from repro import envs, kernels
from repro.cache.config import CACHE_8KB_DM, CACHE_32KB_DM, CacheConfig
from repro.cme.analyzer import LocalityAnalyzer
from repro.cme.sampling import required_sample_size
from repro.ga.engine import GAConfig
from repro.ga.padding_search import (
    optimize_joint_padding_tiling,
    optimize_padding,
    optimize_padding_then_tiling,
)
from repro.ir.arrays import Array, ArrayRef, read, write
from repro.ir.loops import Loop, LoopNest
from repro.layout.memory import MemoryLayout, PaddingSpec
from repro.search import run_search, search_tiling
from repro.simulator.classify import simulate_program
from repro.transform.tiling import tile_program

__version__ = "1.0.0"

__all__ = [
    "envs",
    "kernels",
    "CacheConfig",
    "CACHE_8KB_DM",
    "CACHE_32KB_DM",
    "LocalityAnalyzer",
    "required_sample_size",
    "GAConfig",
    "optimize_padding",
    "optimize_padding_then_tiling",
    "optimize_joint_padding_tiling",
    "Array",
    "ArrayRef",
    "read",
    "write",
    "Loop",
    "LoopNest",
    "MemoryLayout",
    "PaddingSpec",
    "run_search",
    "search_tiling",
    "simulate_program",
    "tile_program",
    "__version__",
]
