"""Sampling estimator tests (§2.3)."""

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cme.sampling import (
    PAPER_SAMPLE_SIZE,
    CMEEstimate,
    estimate_at_points,
    estimate_program,
    required_sample_size,
    sample_original_points,
)
from repro.ir.program import program_from_nest
from repro.layout.memory import MemoryLayout
from tests.conftest import make_small_mm


def test_paper_sample_size_reproduced():
    """Width 0.1 at 90% confidence → the paper's 164 points."""
    assert required_sample_size(width=0.1, confidence=0.90) == 164
    assert PAPER_SAMPLE_SIZE == 164


#: ``required_sample_size(width, confidence)`` over a grid; the pair
#: (0.3, 0.6) needs fewer than one point and is left out.
SAMPLE_SIZES = {
    0.01: {0.6: 641, 0.75: 4549, 0.8: 7083, 0.9: 16423,
           0.95: 27055, 0.975: 38414, 0.99: 54118, 0.999: 95495},
    0.02: {0.6: 160, 0.75: 1137, 0.8: 1770, 0.9: 4105,
           0.95: 6763, 0.975: 9603, 0.99: 13529, 0.999: 23873},
    0.05: {0.6: 25, 0.75: 181, 0.8: 283, 0.9: 656,
           0.95: 1082, 0.975: 1536, 0.99: 2164, 0.999: 3819},
    0.1: {0.6: 6, 0.75: 45, 0.8: 70, 0.9: 164,
          0.95: 270, 0.975: 384, 0.99: 541, 0.999: 954},
    0.2: {0.6: 1, 0.75: 11, 0.8: 17, 0.9: 41,
          0.95: 67, 0.975: 96, 0.99: 135, 0.999: 238},
    0.3: {0.75: 5, 0.8: 7, 0.9: 18,
          0.95: 30, 0.975: 42, 0.99: 60, 0.999: 106},
}


@pytest.mark.parametrize(
    "width,confidence,expected",
    [(w, c, n) for w, row in SAMPLE_SIZES.items() for c, n in row.items()],
)
def test_sample_size_grid(width, confidence, expected):
    assert required_sample_size(width, confidence) == expected


def test_ci_halfwidth_pinned():
    est = CMEEstimate(
        sampled_points=164, sampled_accesses=656, hits=600, cold=20,
        replacement=36,
    )
    assert est.ci_halfwidth() == pytest.approx(0.013981377603607683, rel=1e-12)
    assert est.ci_halfwidth(0.3) == pytest.approx(0.022929459269916602, rel=1e-12)


def test_sample_size_monotonicity():
    assert required_sample_size(width=0.05) > required_sample_size(width=0.1)
    assert required_sample_size(confidence=0.99) > required_sample_size(confidence=0.9)
    with pytest.raises(ValueError):
        required_sample_size(width=0.0)
    with pytest.raises(ValueError):
        required_sample_size(confidence=1.0)


def test_sample_size_rejects_degenerate_inputs():
    """Validation happens before any quantile computation."""
    # confidence at or below 1/2 makes the one-sided quantile
    # non-positive — rejected rather than silently producing n=0.
    with pytest.raises(ValueError):
        required_sample_size(confidence=0.5)
    with pytest.raises(ValueError):
        required_sample_size(confidence=0.1)
    with pytest.raises(ValueError):
        required_sample_size(confidence=0.0)
    # A very wide interval at barely-above-coin-flip confidence needs
    # fewer than one point; refuse the degenerate single-point sample.
    with pytest.raises(ValueError, match="fewer than one sample point"):
        required_sample_size(width=0.99, confidence=0.55)


def test_zero_access_estimate_ratios_are_zero():
    """Regression: empty samples used to raise ZeroDivisionError."""
    est = CMEEstimate(
        sampled_points=0, sampled_accesses=0, hits=0, cold=0, replacement=0
    )
    assert est.miss_ratio == 0.0
    assert est.replacement_ratio == 0.0
    assert est.compulsory_ratio == 0.0
    assert est.ci_halfwidth() == 0.0
    assert est.estimated_replacement_misses == 0.0
    assert "miss=" in est.summary()


def test_estimate_at_points_empty_sample():
    nest = make_small_mm(8)
    layout = MemoryLayout(nest.arrays())
    est = estimate_at_points(
        program_from_nest(nest), layout, CacheConfig(1024, 32, 1), []
    )
    assert est.sampled_accesses == 0
    assert est.miss_ratio == 0.0


@pytest.mark.parametrize("batch", [True, False], ids=["batched", "scalar"])
def test_estimate_at_points_accepts_lists_tuples_and_arrays(batch):
    """A sample given as a list, a tuple or an ``(n, depth)`` array gives
    one estimate; an empty one, in any form, the zero estimate."""
    from repro.cme.analyzer import LocalityAnalyzer
    from repro.transform.tiling import tile_program

    nest = make_small_mm(48)
    layout = MemoryLayout(nest.arrays())
    cache = CacheConfig(1024, 32, 1)
    program = tile_program(nest, (16, 5, 48))
    pts = sample_original_points(nest, 30, 4)

    def estimate(sample):
        est = estimate_at_points(program, layout, cache, sample, batch=batch)
        return (est.sampled_points, est.hits, est.cold, est.replacement,
                list(est.per_ref.items()))

    want = estimate(pts)
    assert want[0] == 30 and want[2] + want[3] > 0
    assert estimate(tuple(pts)) == want
    assert estimate(np.asarray(pts)) == want
    for empty in ([], (), np.empty((0, 3), dtype=np.int64)):
        est = estimate_at_points(program, layout, cache, empty, batch=batch)
        assert (est.sampled_points, est.sampled_accesses) == (0, 0)
        assert (est.hits, est.cold, est.replacement) == (0, 0, 0)
        assert est.per_ref == {
            ref.position: {"hit": 0, "cold": 0, "replacement": 0}
            for ref in nest.refs
        }
    if batch:
        analyzer = LocalityAnalyzer(nest, cache, seed=0)
        a = analyzer.estimate(tile_sizes=(16, 5, 48), points=np.asarray(pts))
        assert (a.hits, a.cold, a.replacement) == tuple(want[1:4])


def test_sample_points_in_bounds_and_deterministic():
    nest = make_small_mm(10)
    pts1 = sample_original_points(nest, 50, 9)
    pts2 = sample_original_points(nest, 50, 9)
    assert pts1 == pts2
    for p in pts1:
        assert all(1 <= x <= 10 for x in p)


def test_estimate_accounting():
    nest = make_small_mm(16)
    layout = MemoryLayout(nest.arrays())
    est = estimate_program(
        program_from_nest(nest), layout, CacheConfig(1024, 32, 1),
        n_samples=64, seed=0,
    )
    assert est.sampled_points == 64
    assert est.sampled_accesses == 64 * 4
    assert est.hits + est.cold + est.replacement == est.sampled_accesses
    assert abs(est.miss_ratio - (est.cold + est.replacement) / est.sampled_accesses) < 1e-12
    assert est.total_accesses == nest.num_accesses
    per_ref_total = sum(sum(v.values()) for v in est.per_ref.values())
    assert per_ref_total == est.sampled_accesses


def test_ci_halfwidth_shrinks_with_samples():
    nest = make_small_mm(16)
    layout = MemoryLayout(nest.arrays())
    cache = CacheConfig(1024, 32, 1)
    small = estimate_program(program_from_nest(nest), layout, cache, n_samples=32, seed=0)
    large = estimate_program(program_from_nest(nest), layout, cache, n_samples=256, seed=0)
    assert large.ci_halfwidth(0.3) < small.ci_halfwidth(0.3)


def test_estimated_replacement_misses_scales():
    nest = make_small_mm(16)
    layout = MemoryLayout(nest.arrays())
    est = estimate_program(
        program_from_nest(nest), layout, CacheConfig(1024, 32, 1), n_samples=64, seed=1
    )
    expected = est.replacement_ratio * nest.num_accesses
    assert abs(est.estimated_replacement_misses - expected) < 1e-9


def test_summary_readable():
    nest = make_small_mm(8)
    layout = MemoryLayout(nest.arrays())
    est = estimate_program(
        program_from_nest(nest), layout, CacheConfig(1024, 32, 1), n_samples=16
    )
    s = est.summary()
    assert "miss=" in s and "repl=" in s
