"""Objective functions for the GA searches (§3.1).

The paper's objective ``f : (T_1..T_k) → #ReplacementMisses`` is the
parameterised CME system solved by sampling; we count replacement
misses over the fixed shared sample (common random numbers make
candidate comparisons noise-free).  Each objective here is a
:class:`repro.evaluation.Evaluator` subclass: memoised (the GA revisits
genotypes constantly as the population converges, so cached hits
dominate the paper's "450 evaluations" budget), batched per
generation, and optionally fanned out over worker processes via the
``workers`` knob — with results bit-for-bit identical to the serial
path.
"""

from __future__ import annotations

from repro import telemetry
from repro.cme.analyzer import LocalityAnalyzer
from repro.evaluation import Evaluator
from repro.transform.padding import PaddingSearchSpace


def _record_cascade_stats(estimate) -> None:
    """Surface one evaluation's solver/cascade counters as telemetry.

    Write-only: recording how the dispatch ladder resolved queries
    (interval reject / enumerated / subgroup / … / unknown) never
    feeds back into any value.  On worker agents the events buffer
    locally and ship home over ``op=telemetry``.
    """
    stats = getattr(estimate, "solver_stats", None)
    if stats is None:
        return
    rec = telemetry.recorder()
    if not rec.enabled:
        return
    rec.count("cascade.points", stats.points)
    rec.count("cascade.ref_tests", stats.ref_tests)
    rec.count("cascade.boxes_tested", stats.boxes_tested)
    for tier, n in (stats.congruence or {}).items():
        if n:
            rec.count(f"cascade.{tier}", n)


class SampledTilingFn:
    """Picklable pure objective: sampled replacement misses of a tiling.

    The single definition of the tiling objective for *every* backend:
    :class:`TilingObjective` wraps it for the local evaluator, and
    :class:`repro.distributed.DistributedEvaluator` ships it (analyzer
    and all, once per worker connection) to cluster hosts — so local
    and remote evaluation cannot drift apart.
    """

    def __init__(self, analyzer: LocalityAnalyzer):
        self.analyzer = analyzer

    def __call__(self, tiles) -> float:
        return self.evaluate_many([tiles])[0]

    def evaluate_many(self, tiles_list) -> list[float]:
        """The objective of each tiling, solved in one merged pass."""
        estimates = self.analyzer.estimate_many(tiles_list)
        for estimate in estimates:
            _record_cascade_stats(estimate)
        return [float(e.replacement) for e in estimates]


class TilingObjective(Evaluator):
    """Sampled replacement misses of a tiling candidate."""

    def __init__(self, analyzer: LocalityAnalyzer, workers: int = 1):
        self.analyzer = analyzer
        super().__init__(SampledTilingFn(analyzer), workers=workers)


class PaddingObjective(Evaluator):
    """Sampled replacement misses of a padding candidate (no tiling)."""

    def __init__(
        self,
        analyzer: LocalityAnalyzer,
        space: PaddingSearchSpace,
        workers: int = 1,
    ):
        self.analyzer = analyzer
        self.space = space
        super().__init__(self._evaluate, workers=workers)

    def _evaluate(self, pads: tuple[int, ...]) -> float:
        padding = self.space.decode(pads)
        return float(self.analyzer.estimate(padding=padding).replacement)


class PaddingTilingObjective(Evaluator):
    """Joint padding+tiling objective (the paper's future-work extension).

    The genotype concatenates padding values and tile sizes; both
    transformations enter the CMEs simultaneously, so the search can
    exploit interactions that the sequential Table 3 pipeline cannot.
    """

    def __init__(
        self,
        analyzer: LocalityAnalyzer,
        space: PaddingSearchSpace,
        workers: int = 1,
    ):
        self.analyzer = analyzer
        self.space = space
        super().__init__(self._evaluate, workers=workers)

    def _evaluate(self, values: tuple[int, ...]) -> float:
        npad = self.space.num_variables
        padding = self.space.decode(values[:npad])
        tiles = values[npad:]
        return float(
            self.analyzer.estimate(tile_sizes=tiles, padding=padding).replacement
        )
