"""A tiling's classifier built from its tile vector is the `tile_program` one.

`PointClassifier.for_tiles` builds a tiling's strip-mine map and region
bounds from ``divmod(extent, T)`` per dimension, with no symbolic
program, and `LocalityAnalyzer` classifies every candidate that way.  It
must equal the classifier of `tile_program`'s program in everything the
solver reads: the affine map, the regions in `tile_regions` order, and
so the outcome codes and every stats field, on either cascade rung.

A classify pass keeps the last `SourceTable` it built on its
`NestRows`, so the analyzer's sample gets one table for a whole search
(`tests/telemetry`: `test_ga_search_builds_one_source_table`); a
pickled analyzer leaves it behind with its rows.
"""

import dataclasses
import pickle
import re

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cme import solver
from repro.cme.analyzer import LocalityAnalyzer
from repro.cme.sampling import (
    estimate_at_points,
    estimate_tilings_at_points,
    sample_original_points,
)
from repro.cme.solver import NestRows, PointClassifier, classify_codes
from repro.corpus.generator import generate_case
from repro.ga.objective import SampledTilingFn
from repro.ir.parser import parse_nest
from repro.kernels.registry import KERNELS
from repro.layout.memory import MemoryLayout
from repro.transform.tiling import tile_program, tile_regions
from tests.conftest import make_small_mm

CACHES = {"1KB-dm": CacheConfig(1024, 32, 1), "1KB-2way": CacheConfig(1024, 32, 2)}


def _nests():
    """Registry kernels at small sizes (lower bounds 1, 2 and 3; depth 2
    to 4) and corpus nests of depth 1 to 3 with lower bounds 0 to 2."""
    for name, size in (("MM", 9), ("JACOBI3D", 9), ("ADI", 12), ("VPENTA1", 10),
                       ("DRADBG1", 8), ("ADD", 6)):
        yield KERNELS[name].build(size)
    for index in (4, 3, 10, 18, 16):
        case = generate_case(0, index)
        yield parse_nest(case.source, name=case.name)


def _tilings(nest, rng):
    """T = 1, T = extent, a T that divides no extent it can avoid, and
    a random vector."""
    extents = [lp.extent for lp in nest.loops]
    ragged = tuple(
        next((t for t in range(2, e) if e % t), e) for e in extents
    )
    return [
        (1,) * nest.depth,
        tuple(extents),
        ragged,
        tuple(int(rng.integers(1, e + 1)) for e in extents),
    ]


def test_nests_cover_depths_and_lower_bounds():
    nests = list(_nests())
    assert {n.depth for n in nests} == {1, 2, 3, 4}
    assert {lp.lower for n in nests for lp in n.loops} >= {0, 1, 2, 3}


@pytest.mark.parametrize("rung", ["batched", "scalar"])
@pytest.mark.parametrize("cache", sorted(CACHES))
def test_tile_vector_classifier_equals_the_tile_program_one(rung, cache):
    """`for_tiles(T, rows)` against `for_rows(tile_program(nest, T),
    rows)`: equal `(A, b)`, region bounds in `tile_regions` order, and
    the outcome codes, `SolverStats` and tier counts of one pass each,
    the tile-vector one handed the original sample, the program one
    its own coordinates."""
    rng = np.random.default_rng(17)
    cfg = CACHES[cache]
    flags = {"batch_cascade": rung == "batched"}
    replacements = 0
    for nest in _nests():
        layout = MemoryLayout(nest.arrays())
        O = np.asarray(sample_original_points(nest, 40, 5), dtype=np.int64)
        for tiles in _tilings(nest, rng):
            label = (nest.name, tiles)
            program = tile_program(nest, tiles)
            # Rows of their own: neither pass finds the other's table.
            vec = PointClassifier.for_tiles(
                tiles, NestRows(nest, layout, cfg), **flags
            )
            ref = PointClassifier.for_rows(
                program, NestRows(nest, layout, cfg), **flags
            )
            assert vec.program is None and ref.program is program
            assert np.array_equal(vec._A, ref._A) and np.array_equal(vec._b, ref._b)
            boxes = tile_regions(tuple(lp.extent for lp in nest.loops), tiles)
            bounds = list(zip(map(tuple, vec._region_lo.tolist()),
                              map(tuple, vec._region_hi.tolist())))
            assert bounds == [(b.lo, b.hi) for b in boxes], label
            assert vec._regions == tuple(boxes) == ref._regions, label
            assert vec._lockstep_key() == ref._lockstep_key()
            (got,) = classify_codes([vec], [O], original=True)
            (want,) = classify_codes(
                [ref], [program.point_map.from_original_batch(O)]
            )
            assert np.array_equal(got, want), label
            assert dataclasses.asdict(vec.finalize_stats()) == dataclasses.asdict(
                ref.finalize_stats()
            ), label
            replacements += int((got == 2).sum())
    assert replacements > 0


def test_bad_tile_vectors_raise_as_tile_program_does():
    nest = make_small_mm(8)
    rows = NestRows(nest, MemoryLayout(nest.arrays()), CACHES["1KB-dm"])
    for bad in ((0, 1, 1), (9, 1, 1), (3, 3), 7):
        with pytest.raises((ValueError, TypeError)) as want:
            tile_program(nest, bad)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            PointClassifier.for_tiles(bad, rows)
    # A mapping defaults each missing loop to its extent.
    assert PointClassifier.for_tiles({"j": 3}, rows)._A.tolist() == (
        PointClassifier.for_tiles((8, 3, 8), rows)._A.tolist()
    )


def _count_tables(monkeypatch):
    built = []

    class Spy(solver.SourceTable):
        def __init__(self, clf, O):
            super().__init__(clf, O)
            built.append(len(O))

    monkeypatch.setattr(solver, "SourceTable", Spy)
    return built


def test_other_points_build_their_own_table(monkeypatch):
    """`estimate(points=other)` builds a table of ``other`` and equals
    the program path's estimate at those points; the rows keep only that
    last table, so the next `estimate_many` builds its sample's table
    again, with the estimates it gave before."""
    nest = make_small_mm(24)
    cache = CACHES["1KB-2way"]
    analyzer = LocalityAnalyzer(nest, cache, n_samples=40, seed=3)
    tilings = [(5, 7, 24), None, (3, 24, 8)]
    other = sample_original_points(nest, 30, 9)
    want = estimate_at_points(
        tile_program(nest, (3, 24, 8)), MemoryLayout(nest.arrays()), cache, other
    )
    built = _count_tables(monkeypatch)
    first = analyzer.estimate_many(tilings)
    assert analyzer.estimate(tile_sizes=(5, 7, 24)) == first[0]
    assert built == [40]
    got = analyzer.estimate(tile_sizes=(3, 24, 8), points=other)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert built == [40, 30]
    again = analyzer.estimate_many(tilings)
    assert [dataclasses.asdict(e) for e in again] == [
        dataclasses.asdict(e) for e in first
    ]
    assert built == [40, 30, 40]


def test_pickled_objective_leaves_the_table_behind():
    """The objective a search ships to workers pickles to the same bytes
    before and after its analyzer built and used its rows and table (its
    reuse candidates, which it ships, computed first)."""
    analyzer = LocalityAnalyzer(KERNELS["MM"].build(500), CacheConfig(8192, 32, 1))
    analyzer._candidates(analyzer.layout, None)
    fn = SampledTilingFn(analyzer)
    size = len(pickle.dumps(fn))
    rng = np.random.default_rng(2)
    wave = [tuple(int(t) for t in rng.integers(1, 501, size=3)) for _ in range(30)]
    values = fn.evaluate_many(wave)
    analyzer.estimate()
    assert analyzer._rows_cache[None].table is not None
    assert len(pickle.dumps(fn)) == size
    assert pickle.loads(pickle.dumps(fn)).evaluate_many(wave) == values


def test_a_kept_table_owns_its_sample():
    """A table outlives its pass, so it keeps its own copy of the
    sample: refilling the caller's array afterwards changes no later
    estimate of the sample it held."""
    nest = make_small_mm(24)
    rows = NestRows(nest, MemoryLayout(nest.arrays()), CACHES["1KB-dm"])
    O = np.asarray(sample_original_points(nest, 40, 5), dtype=np.int64)
    want = O.copy()
    first = estimate_tilings_at_points([(5, 7, 24), None], rows, O)
    O[:] = np.asarray(sample_original_points(nest, 40, 6))
    assert estimate_tilings_at_points([(5, 7, 24), None], rows, want) == first
