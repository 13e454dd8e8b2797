"""A direct-mapped reuse walk ends at its first proven kill.

A (point, reference)'s reuse sources are tried newest first.  On a
direct-mapped cache a kill backed by an interfering access (a boundary
line, a kernel hit or a TRUE cascade verdict) is proven, and every
older source's interval holds that access, so the walk ends as
REPLACEMENT.  A kill that rests on UNKNOWN verdicts alone proves
nothing and walks on, and so does every k-way kill, whose summed
count can hold one line twice.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cache.config import CacheConfig
from repro.cme import solver
from repro.cme.sampling import sample_original_points
from repro.cme.solver import FALSE, TRUE, UNKNOWN, Outcome, PointClassifier
from repro.ir.program import program_from_nest
from repro.kernels.registry import KERNELS
from repro.layout.memory import MemoryLayout
from repro.transform.tiling import tile_program
from tests.conftest import make_small_mm, make_small_transpose

NESTS = (make_small_mm(24), make_small_transpose(32), KERNELS["JACOBI3D"].build(20))
CACHE_DM = CacheConfig(1024, 32, 1)
CACHE_8K = CacheConfig(8 * 1024, 32, 1)
TIGHT = {"enum_limit": 8, "partial_limit": 16, "abs_search_budget": 2}


def full_walk(clf, point, idx):
    """The verdict of every reuse source of reference ``idx`` at
    ``point``, newest first, by the scalar helpers."""
    L, M = clf._L, clf._M
    line0 = clf._addr(idx, point) // L
    sources = clf._reuse_sources(idx, point, line0)
    sources.sort(key=lambda sp: (sp[0], sp[1]), reverse=True)
    return [
        clf._reuse_killed(src, spos, point, idx, line0 * L, line0 * L % M)
        for src, spos in sources
    ]


def walk_length(verdicts):
    """The sources a walk tries: up to its first FALSE or TRUE verdict."""
    return next(
        (i + 1 for i, v in enumerate(verdicts) if v != UNKNOWN), len(verdicts)
    )


@st.composite
def dm_cases(draw):
    nest = draw(st.sampled_from(NESTS))
    extents = [loop.upper - loop.lower + 1 for loop in nest.loops]
    tiles = draw(st.none() | st.tuples(*(st.integers(1, e) for e in extents)))
    cache = draw(st.sampled_from([CACHE_DM, CACHE_8K]))
    budgets = draw(st.sampled_from([None, TIGHT]))
    return nest, tiles, cache, budgets, draw(st.integers(0, 1 << 16))


@given(dm_cases())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_no_older_source_survives_a_proven_kill(case):
    """Walking every source of every (point, reference): after a TRUE
    verdict no older source is unkilled, and `classify_point` and
    `classify_batch` on both rungs give the full walk's outcome (HIT iff
    some source is unkilled); `classify_point` tries each walk up to its
    first FALSE or TRUE verdict."""
    nest, tiles, cache, budgets, seed = case
    prog = program_from_nest(nest) if tiles is None else tile_program(nest, tiles)
    layout = MemoryLayout(nest.arrays())
    pm = prog.point_map
    points = [pm.from_original(o) for o in sample_original_points(nest, 8, seed)]
    walker = PointClassifier(prog, layout, cache, cascade_budgets=budgets)
    want, tries = [], 0
    for p in points:
        row = []
        for idx in range(len(walker._refs)):
            verdicts = full_walk(walker, p, idx)
            if TRUE in verdicts:
                assert FALSE not in verdicts[verdicts.index(TRUE):], (p, idx)
            row.append(
                Outcome.COLD if not verdicts
                else Outcome.HIT if FALSE in verdicts
                else Outcome.REPLACEMENT
            )
            tries += walk_length(verdicts)
        want.append(row)
    scalar = PointClassifier(prog, layout, cache, cascade_budgets=budgets)
    assert [scalar.classify_point(p) for p in points] == want
    assert scalar.stats.sources_checked == tries
    for rung in (True, False):
        clf = PointClassifier(
            prog, layout, cache, cascade_budgets=budgets, batch_cascade=rung
        )
        assert clf.classify_batch(points) == want, rung


def test_an_unknown_kill_walks_on_to_the_next_source(monkeypatch):
    """JACOBI3D_20 tiled (15, 9, 8) at 1KB DM under tight budgets: at
    original point (16, 7, 10) the reference at position 4 has three
    sources killed by budget exhaustion alone, then a proven kill.  Its
    walk tries all four, on the scalar walk and on both rungs' waves."""
    tried = []
    wave = solver._Lockstep.wave

    def spy(self, tt, ai, aidx, *args):
        tried.extend(aidx.tolist())
        return wave(self, tt, ai, aidx, *args)

    monkeypatch.setattr(solver._Lockstep, "wave", spy)
    nest = KERNELS["JACOBI3D"].build(20)
    prog = tile_program(nest, (15, 9, 8))
    layout = MemoryLayout(nest.arrays())
    p = prog.point_map.from_original((16, 7, 10))
    walker = PointClassifier(prog, layout, CACHE_DM, cascade_budgets=TIGHT)
    idx = walker._position_index(4)
    assert full_walk(walker, p, idx) == [UNKNOWN, UNKNOWN, UNKNOWN, TRUE]
    scalar = PointClassifier(prog, layout, CACHE_DM, cascade_budgets=TIGHT)
    assert scalar.classify_ref(4, p) is Outcome.REPLACEMENT
    assert scalar.stats.sources_checked == 4
    assert scalar.stats.unknown_conservative == 3
    for rung in (True, False):
        tried.clear()
        clf = PointClassifier(
            prog, layout, CACHE_DM, cascade_budgets=TIGHT, batch_cascade=rung
        )
        assert clf.classify_batch([p])[0][idx] is Outcome.REPLACEMENT
        assert tried.count(idx) == 4, rung
        assert clf.stats.unknown_conservative >= 3, rung


def test_a_kway_kill_walks_on():
    """DRADFG1_100 tiled (2, 37, 3) at 8KB 2-way, original point
    (3, 31, 52), the reference at position 1: its nearest source's
    summed count reaches 2 (one boundary line and one interval line,
    though the interval holds one distinct line) and the older source's
    is 1.  The access is a HIT through its second source on every path;
    stopping at the first k-way kill would make it a REPLACEMENT."""
    nest = KERNELS["DRADFG1"].build(100)
    prog = tile_program(nest, (2, 37, 3))
    cache = CacheConfig(8 * 1024, 32, 2)
    layout = MemoryLayout(nest.arrays())
    p = prog.point_map.from_original((3, 31, 52))
    walker = PointClassifier(prog, layout, cache)
    idx = walker._position_index(1)
    assert full_walk(walker, p, idx) == [UNKNOWN, FALSE]
    clf = PointClassifier(prog, layout, cache)
    assert clf.classify_ref(1, p) is Outcome.HIT
    assert clf.stats.sources_checked == 2
    assert clf.classify_point(p)[idx] is Outcome.HIT
    for rung in (True, False):
        got = PointClassifier(prog, layout, cache, batch_cascade=rung).classify_batch(
            np.asarray([p])
        )
        assert got[0][idx] is Outcome.HIT, rung
