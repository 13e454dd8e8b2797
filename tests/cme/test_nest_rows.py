"""A classifier's rows are the nest's rows composed with its point map.

`NestRows` holds what every classifier of one nest, layout, cache and
reuse candidates shares; each program's address rows come from it by
integer arithmetic through `PointMap.affine()`, and must equal the rows
of the program's substituted subscripts.  `estimate_many_at_points`
builds the rows once per call, so it takes programs of one nest only.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.config import CacheConfig
from repro.cme import solver
from repro.cme.sampling import (
    estimate_at_points,
    estimate_many_at_points,
    sample_original_points,
)
from repro.cme.solver import NestRows, PointClassifier
from repro.kernels.registry import KERNELS
from repro.layout.memory import MemoryLayout, PaddingSpec
from repro.ir.program import program_from_nest
from repro.transform.tiling import tile_program
from tests.conftest import make_small_mm, make_small_transpose

CACHE_2W = CacheConfig(1024, 32, 2)
MM = make_small_mm(24)
T2D = make_small_transpose(32)
JACOBI = KERNELS["JACOBI3D"].build(20)
PADDED = MemoryLayout(MM.arrays(), PaddingSpec(inter={"b": 5}, intra={"c": (3, 0)}))
CASES = {
    "mm24": (MM, MemoryLayout(MM.arrays())),
    "t2d32": (T2D, MemoryLayout(T2D.arrays())),
    "jacobi3d20": (JACOBI, MemoryLayout(JACOBI.arrays())),
    "mm24-padded": (MM, PADDED),
}


@st.composite
def programs(draw):
    """A case and one of its programs: the untiled one or a tiling."""
    label = draw(st.sampled_from(sorted(CASES)))
    nest, layout = CASES[label]
    if draw(st.booleans()):
        return nest, layout, program_from_nest(nest)
    tiles = tuple(draw(st.integers(1, l.extent)) for l in nest.loops)
    return nest, layout, tile_program(nest, tiles)


def _symbolic_rows(program, layout):
    refs = sorted(program.refs, key=lambda r: r.position)
    exprs = [layout.address_expr(r) for r in refs]
    coeffs = [e.coeff_vector(program.space.vars) for e in exprs]
    return coeffs, [e.const for e in exprs]


@settings(max_examples=60, deadline=None)
@given(programs())
def test_rows_by_composition_equal_the_symbolic_rows(case):
    """`_coeffs`/`_consts` from `ocoef @ A` and `oc0 + ocoef @ b` equal
    the substituted subscripts' address rows, as Python ints, whether
    the classifier builds its own rows or shares a pass's; so do the
    reference groups, which come from the original supports."""
    nest, layout, program = case
    coeffs, consts = _symbolic_rows(program, layout)
    rows = NestRows(nest, layout, CACHE_2W)
    for clf in (
        PointClassifier(program, layout, CACHE_2W),
        PointClassifier.for_rows(program, rows),
    ):
        assert clf._coeffs == coeffs and clf._consts == consts
        assert all(type(c) is int for row in clf._coeffs for c in row)
        assert all(type(c) is int for c in clf._consts)
        supports: dict = {}
        for i, row in enumerate(coeffs):
            supp = tuple(d for d, c in enumerate(row) if c)
            supports.setdefault(supp, []).append(i)
        assert [g.tolist() for g in clf._groups] == list(supports.values())


def test_mixed_nests_raise_before_any_work(monkeypatch):
    """One call's programs share one nest's rows, so a program of
    another nest is refused, naming both, before any table is built."""
    built = []

    class Spy(solver.SourceTable):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(solver, "SourceTable", Spy)
    pts = sample_original_points(MM, 10, 1)
    layout = MemoryLayout(MM.arrays())
    with pytest.raises(ValueError, match=r"one nest: .*mm24.*t2d32"):
        estimate_many_at_points(
            [tile_program(MM, (5, 7, 24)), program_from_nest(T2D)],
            layout, CACHE_2W, pts,
        )
    assert not built
    assert estimate_many_at_points([], layout, CACHE_2W, pts) == []


def test_identity_next_to_tilings_equals_separate_calls():
    """Both point maps in one pass: the untiled program and tilings of
    JACOBI3D_20 and MM_24 give the estimates of one-program calls,
    every stats field included."""
    for case, (first, last) in (
        ("jacobi3d20", ((5, 3, 18), (18, 1, 7))),
        ("mm24-padded", ((5, 7, 24), (1, 5, 17))),
    ):
        nest, layout = CASES[case]
        pts = sample_original_points(nest, 30, 4)
        progs = [tile_program(nest, first), program_from_nest(nest),
                 tile_program(nest, last)]
        merged = estimate_many_at_points(progs, layout, CACHE_2W, pts)
        for prog, got in zip(progs, merged):
            want = estimate_at_points(prog, layout, CACHE_2W, pts)
            assert dataclasses.asdict(got) == dataclasses.asdict(want), prog.name
        assert any(e.replacement for e in merged)


def test_equal_nests_built_apart_are_one_nest():
    """Programs of equal nests built apart are one nest's programs."""
    twin = make_small_mm(24)
    assert twin is not MM and twin == MM
    pts = np.asarray(sample_original_points(MM, 12, 2))
    layout = MemoryLayout(MM.arrays())
    a, b = estimate_many_at_points(
        [tile_program(MM, (5, 7, 24)), tile_program(twin, (5, 7, 24))],
        layout, CACHE_2W, pts,
    )
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_analyzer_builds_nest_rows_once(monkeypatch):
    """A GA search of MM_500 (budget 60, seed 0) runs its 62 estimates
    in 5 passes, waves and single estimates alike, on rows its analyzer
    builds once; an analyzer shipped to a worker leaves them behind (so
    its pickle does not grow) and builds its own, with equal estimates."""
    import pickle

    from repro.cme.analyzer import LocalityAnalyzer
    from repro.search.tiling import search_tiling

    built = []
    init = NestRows.__init__

    def spy(self, *args, **kwargs):
        built.append(args[:2])
        init(self, *args, **kwargs)

    monkeypatch.setattr(NestRows, "__init__", spy)
    nest, cache = KERNELS["MM"].build(500), CacheConfig(8 * 1024, 32, 1)
    out = search_tiling(nest, cache, strategy="ga", budget=60, seed=0)
    assert out.tile_sizes == (485, 31, 22) and len(built) == 1
    analyzer = LocalityAnalyzer(nest, cache, seed=0)
    first = analyzer.estimate_many([(485, 31, 22), (81, 294, 40)])
    shipped = pickle.loads(pickle.dumps(analyzer))
    assert len(built) == 2 and analyzer._rows_cache and not shipped._rows_cache
    again = shipped.estimate_many([(485, 31, 22), (81, 294, 40)])
    assert len(built) == 3
    assert [e.per_ref for e in again] == [e.per_ref for e in first]
