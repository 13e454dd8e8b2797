"""High-level locality analysis facade.

:class:`LocalityAnalyzer` bundles a nest, its memory layout and a cache
configuration, and answers the questions the tiling search asks:
estimated miss ratios before/after tiling and/or padding, via either
the sampled CME solver (any problem size) or the exact trace simulator
(small problem sizes, used for validation).
"""

from __future__ import annotations

from repro.cache.config import CacheConfig
from repro.cme.sampling import (
    PAPER_SAMPLE_SIZE,
    CMEEstimate,
    estimate_tilings_at_points,
    sample_original_points,
)
from repro.cme.solver import NestRows
from repro.ir.loops import LoopNest
from repro.ir.program import AccessProgram, program_from_nest
from repro.layout.memory import MemoryLayout, PaddingSpec
from repro.reuse.vectors import compute_reuse_candidates
from repro.simulator.classify import simulate_program
from repro.simulator.stats import SimulationResult
from repro.transform.tiling import tile_program


class LocalityAnalyzer:
    """Analyze one loop nest against one cache configuration."""

    def __init__(
        self,
        nest: LoopNest,
        cache: CacheConfig,
        layout: MemoryLayout | None = None,
        n_samples: int = PAPER_SAMPLE_SIZE,
        seed: int = 0,
        cascade_budgets: dict[str, int] | None = None,
    ):
        self.nest = nest
        self.cache = cache
        self.layout = layout or MemoryLayout(nest.arrays())
        self.n_samples = n_samples
        self.seed = seed
        self.cascade_budgets = cascade_budgets
        self._points = sample_original_points(nest, n_samples, seed)
        self._candidate_cache: dict = {}
        self._rows_cache: dict = {}
        self._layout_cache: dict = {}

    # -- program construction ------------------------------------------------
    def program(self, tile_sizes=None) -> AccessProgram:
        if tile_sizes is None:
            return program_from_nest(self.nest)
        return tile_program(self.nest, tile_sizes)

    @staticmethod
    def _padding_key(padding: PaddingSpec | None):
        if padding is None:
            return None
        return (
            tuple(sorted(padding.inter.items())),
            tuple(sorted(padding.intra.items())),
        )

    def layout_with(self, padding: PaddingSpec | None) -> MemoryLayout:
        key = self._padding_key(padding)
        if key is None:
            return self.layout
        if key not in self._layout_cache:
            self._layout_cache[key] = self.layout.with_padding(padding)
        return self._layout_cache[key]

    def _candidates(self, layout: MemoryLayout, padding: PaddingSpec | None):
        key = self._padding_key(padding)
        if key not in self._candidate_cache:
            self._candidate_cache[key] = compute_reuse_candidates(
                self.nest, layout, self.cache.line_size
            )
        return self._candidate_cache[key]

    def _nest_rows(self, layout: MemoryLayout, padding: PaddingSpec | None):
        """The classifiers' nest half under ``layout``, built once per
        analyzer and layout, with the last reuse-source table its passes
        built (:attr:`NestRows.table`)."""
        key = self._padding_key(padding)
        if key not in self._rows_cache:
            self._rows_cache[key] = NestRows(
                self.nest, layout, self.cache, self._candidates(layout, padding)
            )
        return self._rows_cache[key]

    # -- estimation -------------------------------------------------------------
    def estimate(
        self,
        tile_sizes=None,
        padding: PaddingSpec | None = None,
        points=None,
    ) -> CMEEstimate:
        """Sampled CME miss-ratio estimate for a candidate transformation.

        By default the analyzer's fixed sample is reused (common random
        numbers across candidates); pass ``points`` to override.
        """
        layout = self.layout_with(padding)
        return estimate_tilings_at_points(
            [tile_sizes], self._nest_rows(layout, padding),
            self._points if points is None else points,
            cascade_budgets=self.cascade_budgets,
        )[0]

    def estimate_many(self, tile_sizes_list) -> list[CMEEstimate]:
        """:meth:`estimate` of each tiling, in one pass that merges their
        kernel calls (same estimates)."""
        return estimate_tilings_at_points(
            tile_sizes_list, self._nest_rows(self.layout, None), self._points,
            cascade_budgets=self.cascade_budgets,
        )

    def close(self) -> None:
        """Release held resources; an analyzer holds none (kept for
        callers that close what they build)."""

    def __getstate__(self):
        # Analyzers shipped into evaluation workers rebuild their nest
        # rows and source table rather than ship them.
        state = self.__dict__.copy()
        state["_rows_cache"] = {}
        return state

    def simulate(
        self, tile_sizes=None, padding: PaddingSpec | None = None
    ) -> SimulationResult:
        """Exact trace simulation (guarded by the trace-size limit)."""
        program = self.program(tile_sizes)
        layout = self.layout_with(padding)
        return simulate_program(program, layout, self.cache)

    def resample(self, seed: int | None = None) -> None:
        """Draw a fresh fixed sample (e.g. per GA generation)."""
        self.seed = self.seed + 1 if seed is None else seed
        self._points = sample_original_points(
            self.nest, self.n_samples, self.seed
        )
