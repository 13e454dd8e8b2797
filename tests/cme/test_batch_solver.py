"""Batched classification agrees outcome-for-outcome with the scalar
path — the equivalence contract documented in :mod:`repro.evaluation`.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cme import solver
from repro.cme.sampling import estimate_at_points, sample_original_points
from repro.cme.solver import PointClassifier, classify_many
from repro.ir.program import program_from_nest
from repro.layout.memory import MemoryLayout
from repro.polyhedra import kernels
from repro.polyhedra.kernels import box_line_counts, boxes_interfere
from repro.polyhedra.lexinterval import lex_between_boxes
from repro.transform.tiling import tile_program
from tests.conftest import make_small_mm, make_small_transpose

CACHE_DM = CacheConfig(1024, 32, 1)
CACHE_2W = CacheConfig(1024, 32, 2)
CACHE_4W = CacheConfig(1024, 32, 4)
CACHE_8K = CacheConfig(8 * 1024, 32, 1)


def _programs():
    mm = make_small_mm(24)
    t2d = make_small_transpose(32)
    yield "mm-untiled", mm, program_from_nest(mm)
    yield "mm-tiled", mm, tile_program(mm, (5, 7, 24))
    yield "t2d-untiled", t2d, program_from_nest(t2d)
    yield "t2d-tiled", t2d, tile_program(t2d, (6, 11))


@pytest.mark.parametrize("cache", [CACHE_DM, CACHE_2W, CACHE_4W, CACHE_8K],
                         ids=["1KB-dm", "1KB-2way", "1KB-4way", "8KB-dm"])
def test_classify_batch_matches_classify_point(cache):
    for label, nest, prog in _programs():
        layout = MemoryLayout(nest.arrays())
        pts = sample_original_points(nest, 40, 11)
        pm = prog.point_map
        mapped = [pm.from_original(p) for p in pts]
        scalar = PointClassifier(prog, layout, cache)
        batched = PointClassifier(prog, layout, cache)
        expected = [scalar.classify_point(p) for p in mapped]
        got = batched.classify_batch(mapped)
        assert got == expected, label
        # The work counters agree too: same points, same ref tests,
        # same sources examined (the waves replay the scalar order).
        assert batched.stats.points == scalar.stats.points
        assert batched.stats.ref_tests == scalar.stats.ref_tests
        assert batched.stats.sources_checked == scalar.stats.sources_checked


def test_classify_batch_matches_classify_point_on_big_shared_boxes(
    monkeypatch,
):
    """MM_128 tiled (128, 64, 128) at 8KB DM: dozens of between-boxes
    over 4096 points, many sharing one shape, reach the split-sum
    kernel (the MM_24/T2D_32 programs above barely produce any)."""
    shapes = []

    def spy(lo, exts, *args):
        shapes.extend(map(tuple, exts[exts.prod(axis=1) > 4096].tolist()))
        return boxes_interfere(lo, exts, *args)

    monkeypatch.setattr(solver, "boxes_interfere", spy)
    nest = make_small_mm(128)
    layout = MemoryLayout(nest.arrays())
    prog = tile_program(nest, (128, 64, 128))
    pm = prog.point_map
    mapped = [pm.from_original(p) for p in sample_original_points(nest, 60, 3)]
    scalar = PointClassifier(prog, layout, CACHE_8K)
    expected = [scalar.classify_point(p) for p in mapped]
    assert PointClassifier(prog, layout, CACHE_8K).classify_batch(mapped) == expected
    assert len(shapes) > 20 and len(set(shapes)) < len(shapes)


def test_classify_batch_matches_classify_point_on_kway_line_counts(monkeypatch):
    """The same program and sample at 8KB 2-way: on the batched
    cascade rung the distinct-line counts reach `box_line_counts` as
    ragged batches of single points, 1-D boxes, boxes that move along
    two or more dimensions, and boxes with extent along a dimension the
    address does not move along."""
    moving, idle = [], []

    def spy(c0, exts, coeffs, *rest):
        moving.extend(map(tuple, np.where(coeffs != 0, exts, 1).tolist()))
        idle.extend(((coeffs == 0) & (exts > 1)).any(axis=1).tolist())
        return box_line_counts(c0, exts, coeffs, *rest)

    monkeypatch.setattr(kernels, "box_line_counts", spy)
    nest = make_small_mm(128)
    layout = MemoryLayout(nest.arrays())
    prog = tile_program(nest, (128, 64, 128))
    pm = prog.point_map
    mapped = [pm.from_original(p) for p in sample_original_points(nest, 60, 3)]
    cache = CacheConfig(8 * 1024, 32, 2)
    scalar = PointClassifier(prog, layout, cache)
    expected = [scalar.classify_point(p) for p in mapped]
    batched = PointClassifier(prog, layout, cache, batch_cascade=True)
    assert batched.classify_batch(mapped) == expected
    assert len(moving) == 210 and len(set(moving)) == 85
    assert sum((np.array(moving) > 1).sum(axis=1) >= 2) == 19
    assert sum(idle) == 146


def _wave():
    """Seven tilings each of MM_24 and T2D_32, plus both untiled programs."""
    mm = make_small_mm(24)
    t2d = make_small_transpose(32)
    for nest, tilings in (
        (mm, [(5, 7, 24), (3, 24, 8), (24, 2, 9), (12, 12, 12), (1, 5, 17),
              (7, 7, 1), (24, 24, 24)]),
        (t2d, [(6, 11), (32, 1), (1, 32), (4, 4), (9, 3), (16, 32), (5, 27)]),
    ):
        layout = MemoryLayout(nest.arrays())
        pts = np.asarray(sample_original_points(nest, 40, 11), dtype=np.int64)
        for prog in [program_from_nest(nest)] + [
            tile_program(nest, t) for t in tilings
        ]:
            yield prog, layout, prog.point_map.from_original_batch(pts)


@pytest.mark.parametrize("cache", [CACHE_8K, CACHE_2W, CACHE_4W],
                         ids=["8KB-dm", "1KB-2way", "1KB-4way"])
@pytest.mark.parametrize("rung", ["batched", "scalar"])
@pytest.mark.parametrize(
    "budgets",
    [None, {"enum_limit": 24},
     {"enum_limit": 8, "partial_limit": 16, "line_candidate_limit": 2,
      "abs_search_budget": 2}],
    ids=["default", "enum24", "tight"],
)
def test_classify_many_equals_separate_classify_batch(
    monkeypatch, cache, rung, budgets
):
    """One merged pass over a wave of two nests' tilings gives every
    candidate the outcomes and every `SolverStats`/`TesterStats` field of
    its own `classify_batch` call.  The rung is passed explicitly, so
    the comparison holds whatever the cascade knobs say; a small
    `enum_limit` sends boxes of the direct-mapped rounds to the cascade
    between merged kernel calls too, and tight budgets send k-way line
    counts down the candidate-line frontier to `unknown` verdicts."""
    kernel_calls = []

    def spy(lo, *args):
        kernel_calls.append(len(lo))
        return boxes_interfere(lo, *args)

    monkeypatch.setattr(solver, "boxes_interfere", spy)
    flags = dict(
        batch_cascade=rung == "batched",
        cascade_budgets=budgets,
    )
    wave = list(_wave())

    def classifiers():
        return [PointClassifier(p, lay, cache, **flags) for p, lay, _ in wave]

    alone = classifiers()
    expected = [c.classify_batch(pts) for c, (*_, pts) in zip(alone, wave)]
    calls_alone, boxes_alone = len(kernel_calls), sum(kernel_calls)
    kernel_calls.clear()
    merged = classifiers()
    assert classify_many(merged, [pts for *_, pts in wave]) == expected
    for a, b in zip(alone, merged):
        assert dataclasses.asdict(b.finalize_stats()) == dataclasses.asdict(
            a.finalize_stats()
        )
    assert sum(kernel_calls) == boxes_alone
    if cache.associativity == 1:
        assert 0 < len(kernel_calls) < calls_alone
    else:
        assert calls_alone == 0 and not kernel_calls


def test_estimate_batch_flag_equivalence():
    nest = make_small_mm(16)
    layout = MemoryLayout(nest.arrays())
    prog = tile_program(nest, (4, 9, 16))
    pts = sample_original_points(nest, 64, 5)
    a = estimate_at_points(prog, layout, CACHE_DM, pts, batch=False)
    b = estimate_at_points(prog, layout, CACHE_DM, pts, batch=True)
    assert (a.hits, a.cold, a.replacement) == (b.hits, b.cold, b.replacement)
    assert a.per_ref == b.per_ref


def test_classify_batch_empty_and_single():
    nest = make_small_mm(8)
    prog = program_from_nest(nest)
    layout = MemoryLayout(nest.arrays())
    cls = PointClassifier(prog, layout, CACHE_DM)
    assert cls.classify_batch([]) == []
    one = cls.classify_batch([(1, 1, 1)])
    ref = PointClassifier(prog, layout, CACHE_DM).classify_point((1, 1, 1))
    assert one == [ref]


def test_point_map_batch_roundtrip():
    nest = make_small_mm(12)
    prog = tile_program(nest, (3, 5, 12))
    pm = prog.point_map
    pts = sample_original_points(nest, 30, 2)
    arr = np.asarray(pts, dtype=np.int64)
    mapped = pm.from_original_batch(arr)
    assert [tuple(int(x) for x in row) for row in mapped] == [
        pm.from_original(p) for p in pts
    ]
    back = pm.to_original_batch(mapped)
    assert [tuple(int(x) for x in row) for row in back] == list(pts)


def test_between_boxes_wave_matches_raw_decomposition():
    """The vectorised between-box decomposition emits the same boxes as
    `lex_between_boxes` over the program's regions, job by job, in the
    same order — the frontier queues built on it charge budgets in
    that order.  Pairs share a prefix of every length (the levels the
    wave skips), and reversed pairs (src ≻ use) have no boxes."""
    rng = np.random.default_rng(7)
    for label, nest, prog in _programs():
        layout = MemoryLayout(nest.arrays())
        cls = PointClassifier(prog, layout, CACHE_DM)
        lo = np.min([r.lo for r in cls._regions], axis=0)
        hi = np.max([r.hi for r in cls._regions], axis=0)
        d = len(lo)
        pairs = []
        for _ in range(40):
            src = tuple(int(x) for x in rng.integers(lo - 1, hi + 2))
            use = tuple(int(x) for x in rng.integers(lo - 1, hi + 2))
            for shared in range(d + 1):
                near = src[:shared] + use[shared:]
                pairs += [(src, near), (near, src)]
        Blo, Bhi, jid = cls._between_boxes_wave(
            np.array([s for s, _ in pairs], dtype=np.int64),
            np.array([u for _, u in pairs], dtype=np.int64),
        )
        got = [[] for _ in pairs]
        for b, j in enumerate(jid):
            got[int(j)].append((tuple(Blo[b].tolist()), tuple(Bhi[b].tolist())))
        for j, (src, use) in enumerate(pairs):
            want = [
                (box.lo, box.hi)
                for region in cls._regions
                for box in lex_between_boxes(src, use, region)
            ]
            assert got[j] == want, (label, j, src, use)
            if not src < use:
                assert not want
        assert len(jid) > 0, label


def test_merged_pass_memory_stays_near_one_candidates():
    """Memory guard of `classify_many`, by traced allocations (no wall
    clock): a 30-candidate direct-mapped pass of MM_500 keeps at most
    `_IN_FLIGHT` candidates in flight, each releasing its cached cascade
    tables while suspended and when done, so its peak stays within a
    small multiple of the costliest single candidate's (about twice).
    With all 30 in flight, or with the tables kept, the pass peaks near
    seven times that."""
    import tracemalloc

    from repro.cme.analyzer import LocalityAnalyzer
    from repro.kernels.registry import KERNELS

    analyzer = LocalityAnalyzer(KERNELS["MM"].build(500), CACHE_8K, seed=0)
    rng = np.random.default_rng(5)
    tilings = [tuple(int(t) for t in rng.integers(1, 501, size=3)) for _ in range(30)]
    analyzer.estimate()  # reuse candidates and first-call state, untraced

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    single = max(peak(lambda: analyzer.estimate(tile_sizes=t)) for t in tilings)
    merged = peak(lambda: analyzer.estimate_many(tilings))
    assert merged < 4 * single
