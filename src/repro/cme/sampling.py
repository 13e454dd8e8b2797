"""Sampling-based CME estimation (§2.3).

The miss count of a reference is modelled as a Binomial random
variable; evaluating a Simple Random Sample of iteration points yields
a confidence interval for the miss ratio.  The paper requires a
width-0.1 interval at 90% confidence and derives **164** sample points
from the worst-case Bernoulli variance:

    ``n = z² · p(1-p) / (w/2)²`` with ``p = 1/2``, ``w = 0.1`` and
    ``z = Φ⁻¹(0.90) ≈ 1.2816``  →  ``n = 164.3 → 164``.

For GA runs the *original-space* sample is drawn once and mapped
through each candidate's tiling bijection, giving common random
numbers across candidates (the tiled spaces are all bijective images
of the same original box), which removes sampling noise from candidate
comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from repro.cache.config import CacheConfig
from repro.cme.solver import (
    OUTCOMES,
    NestRows,
    Outcome,
    PointClassifier,
    SolverStats,
    classify_codes,
)
from repro.ir.loops import LoopNest
from repro.ir.program import AccessProgram, program_from_nest
from repro.layout.memory import MemoryLayout
from repro.utils.rng import make_rng

#: The paper's sample size (width 0.1, 90% confidence).
PAPER_SAMPLE_SIZE = 164

def required_sample_size(width: float = 0.1, confidence: float = 0.90) -> int:
    """Sample size for a binomial CI of the given width and confidence.

    Uses the worst-case variance ``p(1-p) = 1/4`` and the paper's
    quantile convention ``z = Φ⁻¹(confidence)`` (which reproduces the
    published 164 points for width 0.1 at 90%).

    Inputs are validated *before* any quantile computation: ``width``
    must lie in (0, 1) and ``confidence`` in (0.5, 1) — at or below
    0.5 the one-sided quantile is non-positive and the formula is
    meaningless, and ``NormalDist.inv_cdf`` raises ``StatisticsError``
    at exactly 0 or 1.  A combination so loose that it needs fewer
    than one sample point is rejected rather than silently degraded to
    a degenerate single-point "sample".
    """
    if not 0 < width < 1:
        raise ValueError(f"width must lie in (0, 1), got {width}")
    if not 0.5 < confidence < 1:
        raise ValueError(
            f"confidence must lie in (0.5, 1), got {confidence}"
        )
    z = NormalDist().inv_cdf(confidence)
    n = math.floor(z * z * 0.25 / (width / 2.0) ** 2)
    if n < 1:
        raise ValueError(
            f"width {width} at confidence {confidence} needs fewer than "
            "one sample point; tighten the interval or raise confidence"
        )
    return n


@dataclass(frozen=True)
class CMEEstimate:
    """Sampled miss-ratio estimate with its confidence interval."""

    sampled_points: int
    sampled_accesses: int
    hits: int
    cold: int
    replacement: int
    confidence: float = 0.90
    per_ref: dict[int, dict[str, int]] = field(default_factory=dict)
    solver_stats: SolverStats | None = None
    total_accesses: int = 0

    @property
    def miss_ratio(self) -> float:
        # An empty sample (zero-reference program, n=0) has no misses.
        if self.sampled_accesses == 0:
            return 0.0
        return (self.cold + self.replacement) / self.sampled_accesses

    @property
    def replacement_ratio(self) -> float:
        if self.sampled_accesses == 0:
            return 0.0
        return self.replacement / self.sampled_accesses

    @property
    def compulsory_ratio(self) -> float:
        if self.sampled_accesses == 0:
            return 0.0
        return self.cold / self.sampled_accesses

    def ci_halfwidth(self, ratio: float | None = None) -> float:
        """Normal-approximation half-width around a sampled ratio."""
        if self.sampled_accesses == 0:
            return 0.0
        p = self.miss_ratio if ratio is None else ratio
        z = NormalDist().inv_cdf(self.confidence)
        return z * math.sqrt(max(p * (1 - p), 1e-12) / self.sampled_accesses)

    @property
    def estimated_replacement_misses(self) -> float:
        """Replacement-miss count scaled to the full iteration space."""
        return self.replacement_ratio * self.total_accesses

    def summary(self) -> str:
        hw = self.ci_halfwidth()
        return (
            f"miss={self.miss_ratio:.2%}±{hw:.2%} "
            f"(cold={self.compulsory_ratio:.2%}, "
            f"repl={self.replacement_ratio:.2%}) "
            f"over {self.sampled_points} points"
        )


def sample_original_points(
    nest: LoopNest, n: int, rng: int | np.random.Generator | None
) -> list[tuple[int, ...]]:
    """Simple random sample of ``n`` original-space iteration points."""
    rng = make_rng(rng)
    lows = [l.lower for l in nest.loops]
    highs = [l.upper for l in nest.loops]
    cols = [rng.integers(lo, hi + 1, size=n) for lo, hi in zip(lows, highs)]
    return [tuple(int(c[i]) for c in cols) for i in range(n)]


def estimate_at_points(
    program: AccessProgram,
    layout: MemoryLayout,
    cache: CacheConfig,
    original_points: list[tuple[int, ...]],
    confidence: float = 0.90,
    candidates=None,
    batch: bool = True,
    cascade_budgets: dict[str, int] | None = None,
) -> CMEEstimate:
    """Classify the given original-space points under ``program``.

    ``batch=True`` (the default) maps and classifies the whole sample
    in one vectorised pass, the one-program case of
    :func:`estimate_many_at_points`; ``batch=False`` keeps the
    per-point scalar loop.  Both paths are outcome-equivalent (see
    :mod:`repro.evaluation`).
    ``original_points`` is a sequence of point tuples or an
    ``(n, depth)`` integer array.  ``cascade_budgets`` overrides the
    congruence-cascade work budgets (see
    :class:`repro.polyhedra.congruence.CongruenceTester`).
    """
    if batch:
        return estimate_many_at_points(
            [program], layout, cache, original_points, confidence,
            candidates, cascade_budgets,
        )[0]
    classifier = PointClassifier(
        program, layout, cache, candidates, cascade_budgets=cascade_budgets
    )
    pm = program.point_map
    P = np.asarray(original_points, dtype=np.int64)
    outcomes = [
        classifier.classify_point(pm.from_original(tuple(p)))
        for p in P.reshape(-1, program.original.depth).tolist()
    ]
    codes = np.array(
        [[OUTCOMES.index(oc) for oc in row] for row in outcomes], dtype=np.int8
    ).reshape(len(outcomes), len(program.refs))
    return _estimate(program.original, classifier, codes, confidence)


def estimate_many_at_points(
    programs: list[AccessProgram],
    layout: MemoryLayout,
    cache: CacheConfig,
    original_points: list[tuple[int, ...]],
    confidence: float = 0.90,
    candidates=None,
    cascade_budgets: dict[str, int] | None = None,
) -> list[CMEEstimate]:
    """:func:`estimate_at_points` under several programs of one nest, in
    one :func:`repro.cme.solver.classify_codes` pass that builds the
    nest's :class:`~repro.cme.solver.NestRows` once per call, merges
    their kernel and cascade calls and shares their reuse-source table;
    each estimate equals its one-program call.  Programs of another nest
    raise ``ValueError`` before any work."""
    if not programs:
        return []
    nest = programs[0].original
    for p in programs:
        if p.original is not nest and p.original != nest:
            raise ValueError(
                f"programs of one nest: {programs[0].name} is a tiling of "
                f"{nest.name}, {p.name} of {p.original.name}"
            )
    rows = NestRows(nest, layout, cache, candidates)
    return _estimate_pass(
        [
            PointClassifier.for_rows(p, rows, cascade_budgets=cascade_budgets)
            for p in programs
        ],
        nest, original_points, confidence,
    )


def estimate_tilings_at_points(
    tilings,
    rows: NestRows,
    original_points,
    confidence: float = 0.90,
    cascade_budgets: dict[str, int] | None = None,
) -> list[CMEEstimate]:
    """:func:`estimate_many_at_points` of ``rows.nest`` tiled by each tile
    vector of ``tilings`` (``None``: untiled), each classifier built
    from its tile vector (:meth:`PointClassifier.for_tiles`) rather than
    from a symbolic :func:`~repro.transform.tiling.tile_program`, on
    rows the caller keeps; same estimates.  Bad tile vectors raise as
    ``tile_program`` does, before any work."""
    nest = rows.nest
    classifiers = [
        PointClassifier.for_rows(
            program_from_nest(nest), rows, cascade_budgets=cascade_budgets
        )
        if tiles is None
        else PointClassifier.for_tiles(tiles, rows, cascade_budgets=cascade_budgets)
        for tiles in tilings
    ]
    return _estimate_pass(classifiers, nest, original_points, confidence)


def _estimate_pass(classifiers, nest, original_points, confidence):
    """One classify pass of classifiers of ``nest`` over one original-space
    sample, handed to every classifier as it is (no map there and back)."""
    if not classifiers:
        return []
    O = np.asarray(original_points, dtype=np.int64).reshape(-1, nest.depth)
    tables = classify_codes(classifiers, [O] * len(classifiers), original=True)
    return [_estimate(nest, *a, confidence) for a in zip(classifiers, tables)]


def _estimate(nest, classifier, codes, confidence) -> CMEEstimate:
    """Count one tiling's (point × reference) outcome-code table.

    Column ``j`` of ``codes`` is the ``j``-th reference of ``nest`` in
    position order; its codes index :data:`repro.cme.solver.OUTCOMES`.
    A tiling of ``nest`` keeps its references and iterations, so the
    nest's positions and access count are the tiling's.
    """
    nrefs = len(nest.refs)
    refs_sorted = sorted(nest.refs, key=lambda r: r.position)
    # One bincount: the code of column j lands in bin j·|OUTCOMES| + code.
    bins = codes + np.arange(nrefs, dtype=np.int64) * len(OUTCOMES)
    tally = dict(zip(
        (ref.position for ref in refs_sorted),
        np.bincount(bins.ravel(), minlength=nrefs * len(OUTCOMES))
        .reshape(nrefs, len(OUTCOMES)).tolist(),
    ))
    per_ref: dict[int, dict[str, int]] = {
        ref.position: {
            oc.value: tally[ref.position][OUTCOMES.index(oc)] for oc in Outcome
        }
        for ref in nest.refs
    }
    hits, cold, repl = (
        sum(counts[oc.value] for counts in per_ref.values())
        for oc in (Outcome.HIT, Outcome.COLD, Outcome.REPLACEMENT)
    )
    return CMEEstimate(
        sampled_points=len(codes),
        sampled_accesses=len(codes) * nrefs,
        hits=hits,
        cold=cold,
        replacement=repl,
        confidence=confidence,
        per_ref=per_ref,
        solver_stats=classifier.finalize_stats(),
        total_accesses=nest.num_accesses,
    )


def estimate_program(
    program: AccessProgram,
    layout: MemoryLayout,
    cache: CacheConfig,
    n_samples: int = PAPER_SAMPLE_SIZE,
    seed: int | np.random.Generator | None = 0,
    confidence: float = 0.90,
    candidates=None,
) -> CMEEstimate:
    """Sample-and-classify convenience wrapper."""
    points = sample_original_points(program.original, n_samples, seed)
    return estimate_at_points(
        program, layout, cache, points, confidence, candidates
    )
