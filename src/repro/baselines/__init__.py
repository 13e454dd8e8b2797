"""The analytical tile-size selectors of the paper's related work (§5).

LRW, TSS (Coleman–McKinley), Sarkar–Megiddo and Ghosh's CME bounds
each return a plain tile-size tuple from a closed-form model of the
nest and cache.  The paper declined to compare against them for
methodological reasons (§4.3); here their tiles seed the GA's first
population (:func:`repro.search.tiling.baseline_seed_tiles`) and are
evaluated on the common :class:`~repro.cme.analyzer.LocalityAnalyzer`
in the ablation benchmarks.  Generic searches (hill climbing,
annealing, random, exhaustive) are strategies in :mod:`repro.search`.
"""

from repro.baselines.lrw import lrw_tiles
from repro.baselines.tss import coleman_mckinley_tiles
from repro.baselines.sarkar_megiddo import sarkar_megiddo_tiles
from repro.baselines.ghosh_cme import ghosh_cme_tiles

__all__ = [
    "lrw_tiles",
    "coleman_mckinley_tiles",
    "sarkar_megiddo_tiles",
    "ghosh_cme_tiles",
]
