"""Objective wrapper tests (memoisation, decoding)."""

from repro.cache.config import CacheConfig
from repro.cme.analyzer import LocalityAnalyzer
from repro.evaluation import Evaluator
from repro.ga.objective import PaddingObjective, TilingObjective
from repro.transform.padding import PaddingSearchSpace
from tests.conftest import make_small_mm, make_small_transpose


def test_memoisation_counts():
    calls = []
    obj = Evaluator(lambda v: calls.append(v) or float(sum(v)))
    assert obj((1, 2)) == 3.0
    assert obj((1, 2)) == 3.0
    assert obj((2, 2)) == 4.0
    assert obj.calls == 3
    assert obj.distinct_evaluations == 2
    assert len(calls) == 2


def test_tiling_objective_counts_replacement():
    nest = make_small_transpose(16)
    analyzer = LocalityAnalyzer(nest, CacheConfig(1024, 32, 1), seed=0)
    obj = TilingObjective(analyzer)
    untiled = obj(tuple(l.extent for l in nest.loops))
    est = analyzer.estimate()
    assert untiled == float(est.replacement)


def test_padding_objective_decodes():
    nest = make_small_mm(8)
    cache = CacheConfig(1024, 32, 1)
    analyzer = LocalityAnalyzer(nest, cache, seed=0)
    space = PaddingSearchSpace(nest.arrays(), way_bytes=cache.way_bytes,
                               line_bytes=cache.line_size)
    obj = PaddingObjective(analyzer, space)
    zero = obj(tuple([0] * space.num_variables))
    assert zero == float(analyzer.estimate().replacement)


def test_common_random_numbers_stable():
    """The same candidate evaluated twice must yield identical counts."""
    nest = make_small_transpose(16)
    analyzer = LocalityAnalyzer(nest, CacheConfig(1024, 32, 1), seed=7)
    a = analyzer.estimate(tile_sizes=(4, 4)).replacement
    b = analyzer.estimate(tile_sizes=(4, 4)).replacement
    assert a == b
