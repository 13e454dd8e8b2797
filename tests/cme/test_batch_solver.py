"""Batched classification agrees outcome-for-outcome with the scalar
path — the equivalence contract documented in :mod:`repro.evaluation`.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cme import solver
from repro.cme.sampling import (
    estimate_at_points,
    estimate_many_at_points,
    sample_original_points,
)
from repro.cme.solver import PointClassifier, classify_many
from repro.ir.affine import AffineExpr
from repro.ir.arrays import Array, read, write
from repro.ir.loops import Loop, LoopNest
from repro.ir.program import program_from_nest
from repro.kernels.registry import KERNELS
from repro.layout.memory import MemoryLayout, PaddingSpec
from repro.polyhedra.kernels import box_line_counts, boxes_interfere
from repro.polyhedra.lexinterval import lex_between_boxes, lex_between_boxes_many
from repro.reuse.vectors import compute_reuse_candidates
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
    over 4096 points, many sharing one shape, reach the cache-set hit
    kernel (the MM_24/T2D_32 programs above barely produce any).  A walk
    ends at its first proven kill, so 60 points reach only 19 such
    boxes; 150 reach 41, in 24 shapes."""
    shapes = []

    def spy(lo, exts, *args):
        shapes.extend(map(tuple, exts[exts.prod(axis=1) > 4096].tolist()))
        return boxes_interfere(lo, exts, *args)

    monkeypatch.setattr(solver, "boxes_interfere", spy)
    nest = make_small_mm(128)
    layout = MemoryLayout(nest.arrays())
    prog = tile_program(nest, (128, 64, 128))
    pm = prog.point_map
    mapped = [pm.from_original(p) for p in sample_original_points(nest, 150, 3)]
    scalar = PointClassifier(prog, layout, CACHE_8K)
    expected = [scalar.classify_point(p) for p in mapped]
    assert PointClassifier(prog, layout, CACHE_8K).classify_batch(mapped) == expected
    assert len(shapes) > 20 and len(set(shapes)) < len(shapes)


def test_classify_batch_matches_classify_point_on_kway_line_counts(monkeypatch):
    """The same program and sample at 8KB 2-way: on the batched
    cascade rung the distinct-line counts reach `box_line_counts`, in
    original coordinates, as ragged batches of single points, 1-D boxes,
    boxes that move along two or more dimensions, and boxes with extent
    along a dimension the address does not move along."""
    moving, idle = [], []

    def spy(c0, exts, coeffs, *rest):
        moving.extend(map(tuple, np.where(coeffs != 0, exts, 1).tolist()))
        idle.extend(((coeffs == 0) & (exts > 1)).any(axis=1).tolist())
        return box_line_counts(c0, exts, coeffs, *rest)

    monkeypatch.setattr(solver, "box_line_counts", spy)
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
    """Nine tilings of MM_24, seven of T2D_32, four of the JACOBI3D_20
    stencil (cold outcomes, many reuse candidates) and three of MM_24 on
    a padded layout, each nest with its untiled program too, the four
    (nest, layout) pairs interleaved: each lockstep group is formed from
    classifiers that are not adjacent in the pass.  At 8KB direct-mapped
    with an `enum_limit` of 24, MM_24's (20, 3, 5) and (6, 5, 20) meet
    their reference groups in opposite orders in one interval round."""
    per_nest = [list(_nest_wave(*spec)) for spec in _wave_specs()]
    for members in itertools.zip_longest(*per_nest):
        yield from (m for m in members if m is not None)


def _wave_specs():
    mm = make_small_mm(24)
    t2d = make_small_transpose(32)
    jacobi = KERNELS["JACOBI3D"].build(min(KERNELS["JACOBI3D"].sizes))
    padded = MemoryLayout(
        mm.arrays(), PaddingSpec(inter={"b": 5}, intra={"c": (3, 0)})
    )
    return (
        (mm, None, [(5, 7, 24), (3, 24, 8), (24, 2, 9), (12, 12, 12),
                    (1, 5, 17), (7, 7, 1), (24, 24, 24), (20, 3, 5), (6, 5, 20)]),
        (t2d, None, [(6, 11), (32, 1), (1, 32), (4, 4), (9, 3), (16, 32),
                     (5, 27)]),
        (jacobi, None, [(5, 3, 18), (18, 1, 7), (2, 18, 18), (9, 9, 4)]),
        (mm, padded, [(5, 7, 24), (24, 2, 9), (1, 5, 17)]),
    )


def _nest_wave(nest, layout, tilings):
    layout = layout or MemoryLayout(nest.arrays())
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
    """One pass over an interleaved wave of four (nest, layout) pairs'
    tilings gives every candidate the outcomes and every
    `SolverStats`/`TesterStats` field of its own `classify_batch` call,
    and sends the kernels the same boxes in fewer calls.  The rung is
    passed explicitly, so the comparison holds whatever the cascade
    knobs say; a small `enum_limit` sends boxes of the direct-mapped
    rounds and k-way count steps to the cascades between shared kernel
    calls too, and tight budgets send k-way line counts down the
    candidate-line frontier to `unknown` verdicts.  Each tiling of a
    merged cascade call keeps its own group order: with an `enum_limit`
    of 24 at 8KB direct-mapped, two tilings of one round meet their
    groups in opposite orders."""
    kernel_calls, flips = [], []
    cascade_groups = solver._Lockstep.cascade_groups

    def ordering(self, j, b, g, t, *args):
        orders: dict = {}
        for tiling, group in zip(t.tolist(), g.tolist()):
            orders.setdefault(tiling, dict.fromkeys([]))[group] = None
        pairs = [{(p, q) for i, p in enumerate(o) for q in o[i + 1:]}
                 for o in map(list, orders.values())]
        flips.append(any((q, p) in other for mine in pairs
                         for other in pairs for p, q in mine))
        return cascade_groups(self, j, b, g, t, *args)

    def spying(kernel):
        def spy(first, *args):
            kernel_calls.append(len(first))
            return kernel(first, *args)

        return spy

    monkeypatch.setattr(solver, "boxes_interfere", spying(boxes_interfere))
    monkeypatch.setattr(solver, "box_line_counts", spying(box_line_counts))
    monkeypatch.setattr(solver._Lockstep, "cascade_groups", ordering)
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
    if cache is CACHE_8K and rung == "batched" and budgets == {"enum_limit": 24}:
        assert any(flips)
    if rung == "scalar" and cache.associativity > 1:
        # The scalar rung counts k-way lines item by item.
        assert calls_alone == 0 and not kernel_calls
    else:
        assert 0 < len(kernel_calls) < calls_alone


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


def _random_pairs(cls, rng, count=40):
    """Source/use pairs around ``cls``'s regions that share a prefix of
    every length, both ways round."""
    lo = np.min([r.lo for r in cls._regions], axis=0)
    hi = np.max([r.hi for r in cls._regions], axis=0)
    pairs = []
    for _ in range(count):
        src = tuple(int(x) for x in rng.integers(lo - 1, hi + 2))
        use = tuple(int(x) for x in rng.integers(lo - 1, hi + 2))
        for shared in range(len(lo) + 1):
            near = src[:shared] + use[shared:]
            pairs += [(src, near), (near, src)]
    return pairs


def _check_between_boxes(group, pairs, jt, label):
    """The lockstep decomposition of ``pairs`` (job ``j`` of tiling
    ``jt[j]``) against `lex_between_boxes` over each tiling's regions."""
    Blo, Bhi, jid = solver._Lockstep(group).between_boxes(
        np.array([s for s, _ in pairs], dtype=np.int64),
        np.array([u for _, u in pairs], dtype=np.int64),
        np.asarray(jt),
    )
    got = [[] for _ in pairs]
    for b, j in enumerate(jid):
        got[int(j)].append((tuple(Blo[b].tolist()), tuple(Bhi[b].tolist())))
    for j, (src, use) in enumerate(pairs):
        want = [
            (box.lo, box.hi)
            for region in group[jt[j]]._regions
            for box in lex_between_boxes(src, use, region)
        ]
        assert got[j] == want, (label, j, src, use)
        if not src < use:
            assert not want
    assert len(jid) > 0, label


def test_between_boxes_wave_matches_raw_decomposition():
    """The vectorised between-box decomposition emits the same boxes as
    `lex_between_boxes` over the program's regions, job by job, in the
    same order — the frontier queues built on it charge budgets in
    that order.  Pairs share a prefix of every length (the levels the
    wave skips), and reversed pairs (src ≻ use) have no boxes.  A
    lockstep group pads each tiling's regions to the group's count:
    tilings of MM_24 with 1, 2 and 8 regions, their jobs interleaved,
    decompose as each would alone."""
    rng = np.random.default_rng(7)
    for label, nest, prog in _programs():
        cls = PointClassifier(prog, MemoryLayout(nest.arrays()), CACHE_DM)
        pairs = _random_pairs(cls, rng)
        _check_between_boxes([cls], pairs, [0] * len(pairs), label)
    nest = make_small_mm(24)
    group = [
        PointClassifier(tile_program(nest, t), MemoryLayout(nest.arrays()), CACHE_DM)
        for t in ((24, 24, 24), (5, 24, 24), (5, 7, 9))
    ]
    assert [len(c._region_lo) for c in group] == [1, 2, 8]
    jobs = [(t, pair) for t, c in enumerate(group) for pair in _random_pairs(c, rng)]
    order = rng.permutation(len(jobs))
    _check_between_boxes(
        group,
        [jobs[i][1] for i in order],
        [jobs[i][0] for i in order],
        "mm24-group",
    )


def test_region_bounds_are_gathered_after_the_pair_filter():
    """`lex_between_boxes_many` gathers each pair's regions from its
    owner's padded table only for the pairs it keeps: the same (Blo,
    Bhi, jid), dtypes included, as gathering every pair's regions first
    (owner ``j`` for pair ``j``).  The pairs include dropped ones (equal
    or reversed), and the lockstep's tables pad 1 and 2 regions to 8."""
    rng = np.random.default_rng(3)
    nest = make_small_mm(24)
    group = [
        PointClassifier(tile_program(nest, t), MemoryLayout(nest.arrays()), CACHE_DM)
        for t in ((24, 24, 24), (5, 24, 24), (5, 7, 9))
    ]
    step = solver._Lockstep(group)
    assert (step.rlo > step.rhi).all(axis=2).sum() == 7 + 6
    jobs = [(t, pair) for t, c in enumerate(group) for pair in _random_pairs(c, rng)]
    S = np.array([s for _, (s, _) in jobs], dtype=np.int64)
    U = np.array([u for _, (_, u) in jobs], dtype=np.int64)
    jt = np.array([t for t, _ in jobs])
    after = lex_between_boxes_many(S, U, step.rlo, step.rhi, jt)
    first = lex_between_boxes_many(
        S, U, step.rlo[jt], step.rhi[jt], np.arange(len(jobs))
    )
    for a, b in zip(after, first):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    dropped = [j for j, (s, u) in enumerate(zip(S.tolist(), U.tolist())) if s >= u]
    assert dropped and not set(dropped) & set(after[2].tolist())
    assert len(after[2]) > 0


def test_merged_pass_memory_stays_near_one_candidates():
    """Memory guard of `classify_many`, by traced allocations (no wall
    clock): a 30-candidate direct-mapped pass of MM_500 runs in one
    lockstep that keeps its sources as table rows, takes each wave in
    chunks of at most `_WAVE_ITEMS` items and decomposes at most
    `_DECOMPOSE_JOBS` jobs at a time, and its cascade calls bound their
    enumeration blocks and cached offset tables, so its peak stays
    within a small multiple of the costliest single candidate's."""
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


def _spy_locksteps(monkeypatch):
    """Record each lockstep's tiling count, each wave's chunk count,
    each chunk's items and each decomposition's jobs."""
    seen = {"tilings": [], "chunks": [], "items": [], "jobs": []}
    init, wave = solver._Lockstep.__init__, solver._Lockstep.wave
    chunks = solver._Lockstep.wave_chunks
    decompose = solver.lex_between_boxes_many

    def init_spy(self, clfs):
        seen["tilings"].append(len(clfs))
        init(self, clfs)

    def chunks_spy(self, tt):
        parts = list(chunks(self, tt))
        seen["chunks"].append(len(parts))
        return parts

    def wave_spy(self, tt, *args):
        seen["items"].append(len(tt))
        return wave(self, tt, *args)

    def decompose_spy(S, *args):
        seen["jobs"].append(len(S))
        return decompose(S, *args)

    monkeypatch.setattr(solver._Lockstep, "__init__", init_spy)
    monkeypatch.setattr(solver._Lockstep, "wave", wave_spy)
    monkeypatch.setattr(solver._Lockstep, "wave_chunks", chunks_spy)
    monkeypatch.setattr(solver, "lex_between_boxes_many", decompose_spy)
    return seen


@pytest.mark.parametrize("cap_tables", [2.5, 0.5])
def test_pass_splits_into_locksteps_by_table_rows(monkeypatch, cap_tables):
    """A pass admits a group's tilings into one lockstep, in input order,
    while their source-table rows total at most `_LOCKSTEP_ROWS`, and
    always at least one: seven tilings sharing a table of R rows run in
    locksteps of two under a cap of 2.5·R, and one by one under R / 2.
    Every estimate equals its separate call."""
    nest = make_small_mm(24)
    layout = MemoryLayout(nest.arrays())
    pts = sample_original_points(nest, 40, 11)
    progs = [tile_program(nest, t) for t in
             ((5, 7, 24), (3, 24, 8), (24, 2, 9), (12, 12, 12), (1, 5, 17),
              (7, 7, 1), (24, 24, 24))]
    alone = [estimate_at_points(p, layout, CACHE_2W, pts) for p in progs]
    rows = len(solver.SourceTable(
        PointClassifier(progs[0], layout, CACHE_2W),
        np.asarray(pts, dtype=np.int64),
    ).src)
    monkeypatch.setattr(solver, "_LOCKSTEP_ROWS", int(cap_tables * rows))
    seen = _spy_locksteps(monkeypatch)
    merged = estimate_many_at_points(progs, layout, CACHE_2W, pts)
    assert seen["tilings"] == ([2, 2, 2, 1] if cap_tables > 1 else [1] * 7)
    for a, b in zip(alone, merged):
        assert (a.per_ref, a.solver_stats) == (b.per_ref, b.solver_stats)


@pytest.mark.parametrize("cache", [CACHE_8K, CACHE_2W], ids=["8KB-dm", "1KB-2way"])
def test_wave_chunks_hold_whole_tilings_within_the_item_cap(monkeypatch, cache):
    """A wave runs in chunks of whole tilings of at most `_WAVE_ITEMS`
    items (one tiling with more runs alone), and each chunk decomposes
    at most `_DECOMPOSE_JOBS` jobs at a time: with the caps shrunk to fit
    MM_24, waves split into several chunks and decompositions into
    pieces, and every candidate keeps the outcomes and stats of its own
    `classify_batch` call.  The batched rung is pinned: the scalar one
    counts k-way sources item by item and makes no decompositions."""
    monkeypatch.setenv("REPRO_BATCH_CASCADE", "1")
    monkeypatch.setattr(solver, "_WAVE_ITEMS", 200)
    monkeypatch.setattr(solver, "_DECOMPOSE_JOBS", 48)
    full = list(_wave())
    wave = [w for w in full if w[0].original is full[0][0].original]
    seen = _spy_locksteps(monkeypatch)

    def classifiers():
        return [PointClassifier(p, lay, cache) for p, lay, _ in wave]

    alone = classifiers()
    expected = [c.classify_batch(pts) for c, (*_, pts) in zip(alone, wave)]
    for key in seen:
        seen[key].clear()
    merged = classifiers()
    assert classify_many(merged, [pts for *_, pts in wave]) == expected
    for a, b in zip(alone, merged):
        assert dataclasses.asdict(b.finalize_stats()) == dataclasses.asdict(
            a.finalize_stats()
        )
    # 40 points and 4 references: no tiling alone has more than 160 items.
    assert max(seen["items"]) <= 200 and max(seen["chunks"]) > 1
    assert max(seen["jobs"]) <= 48 and sum(seen["jobs"]) > 48


def test_pass_builds_one_source_table_per_nest_layout_and_sample(monkeypatch):
    """`classify_many` shares a `SourceTable` among the classifiers whose
    samples map to the same original points under one nest, layout and
    cache: the merged wave's four (nest, layout) pairs build four tables,
    and a second sample of MM_24 a fifth."""
    built = []

    class Spy(solver.SourceTable):
        def __init__(self, clf, O):
            super().__init__(clf, O)
            built.append((id(clf.program.original), id(clf.layout), O.tobytes()))

    monkeypatch.setattr(solver, "SourceTable", Spy)
    wave = list(_wave())
    mm, layout = wave[0][0].original, wave[0][1]
    other = np.asarray(sample_original_points(mm, 40, 12), dtype=np.int64)
    for tiles in ((5, 7, 24), (3, 24, 8)):
        prog = tile_program(mm, tiles)
        wave.append((prog, layout, prog.point_map.from_original_batch(other)))
    classify_many(
        [PointClassifier(p, lay, CACHE_8K) for p, lay, _ in wave],
        [pts for *_, pts in wave],
    )
    assert len(built) == len(set(built)) == 5


def test_pass_builds_nest_rows_once(monkeypatch):
    """A 4-tiling MM_24 `estimate_many_at_points` derives every program's
    address rows from its nest's: one `address_expr` call per original
    reference, where building each classifier's rows symbolically made
    eight per tiling."""
    calls = []
    address_expr = MemoryLayout.address_expr

    def spy(self, ref):
        calls.append(ref)
        return address_expr(self, ref)

    nest = make_small_mm(24)
    layout = MemoryLayout(nest.arrays())
    candidates = compute_reuse_candidates(nest, layout, CACHE_8K.line_size)
    monkeypatch.setattr(MemoryLayout, "address_expr", spy)
    tilings = [(5, 7, 24), (3, 24, 8), (24, 2, 9), (12, 12, 12)]
    estimates = estimate_many_at_points(
        [tile_program(nest, t) for t in tilings], layout, CACHE_8K,
        sample_original_points(nest, 20, 3), candidates=candidates,
    )
    assert len(estimates) == 4
    assert sorted(r.position for r in calls) == [0, 1, 2, 3]
    assert all(r in nest.refs for r in calls)


def test_endpoint_counts_come_in_chunks_equal_to_the_scalar_count(monkeypatch):
    """A request for more rows than one endpoint pass takes is counted
    in chunks of `_COUNT_CHUNK_ROWS`, each row equal to the scalar
    `_endpoint_line_count`; a row asked for twice, in one request or a
    later one, is counted once."""
    chunks = []
    counts = solver.SourceTable._endpoint_counts

    def spy(self, rows):
        chunks.append(len(rows))
        return counts(self, rows)

    monkeypatch.setattr(solver.SourceTable, "_endpoint_counts", spy)
    nest = make_small_mm(24)
    cache = CacheConfig(1024, 32, 4)
    clf = PointClassifier(program_from_nest(nest), MemoryLayout(nest.arrays()), cache)
    O = np.asarray(sample_original_points(nest, 1500, 5), dtype=np.int64)
    table = solver.SourceTable(clf, O)
    rows = np.arange(len(table.src))
    cap = solver.SourceTable._COUNT_CHUNK_ROWS
    assert cap == 1 << 12 and len(rows) > 2 * cap
    got = table.endpoint_counts(np.concatenate((rows[::-1], rows[:300])))
    got = got[: len(rows)][::-1]
    assert len(chunks) == -(-len(rows) // cap) and max(chunks) == cap
    assert sum(chunks) == len(rows)
    spos = clf._positions[table.sref].tolist()
    for r, (src, sp, pt, ref) in enumerate(zip(
        map(tuple, table.src.tolist()), spos, table.point.tolist(),
        table.ref.tolist(),
    )):
        want = clf._endpoint_line_count(
            src, sp, tuple(O[pt].tolist()), ref,
            int(table.l0[pt, ref]), int(table.wlo[pt, ref]), cache.associativity,
        )
        assert got[r] == want, r
    chunks.clear()
    assert (table.endpoint_counts(rows[:100]) == got[:100]).all() and not chunks


def _deep_nest(n=100_000):
    """A 4-deep nest with bounds near 1e5: its tiled boxes span far more
    than 2**63 points, so their packed sort keys need several words."""
    a, b, c = Array("a", (n, n)), Array("b", (n, n)), Array("c", (n,))
    i, j, k, l = (AffineExpr.var(v) for v in "ijkl")
    return LoopNest(
        name="deep4",
        loops=tuple(Loop(v, 1, n) for v in "ijkl"),
        refs=(
            read(a, i, l, position=0),
            read(b, k, j, position=1),
            read(c, l, position=2),
            write(a, i, l, position=3),
        ),
    )


@pytest.mark.parametrize(
    "nest, tilings, npoints",
    [
        (make_small_mm(24), [None, (5, 7, 24), (24, 2, 9), (1, 1, 1)], 60),
        (make_small_transpose(32), [None, (6, 11), (1, 32)], 60),
        (KERNELS["JACOBI3D"].build(20), [None, (5, 3, 18), (18, 1, 7)], 40),
        (_deep_nest(), [None, (7, 300, 99_999, 1000), (100_000, 1, 13, 2)], 30),
    ],
    ids=["mm24", "t2d32", "jacobi3d20", "deep4-1e5"],
)
def test_source_runs_follow_the_scalar_order(monkeypatch, nest, tilings, npoints):
    """For every (point, reference), the run of table rows
    `_batch_reuse_sources` lays out from the pass's `SourceTable` holds
    the scalar `_reuse_sources` in the order `_classify_ref` tries them:
    descending (q, position), without duplicates.  Runs come in (point,
    reference) order."""
    words = []
    strides = solver._word_strides

    def spy(radices):
        out = strides(radices)
        words.append(out.shape[1])
        return out

    monkeypatch.setattr(solver, "_word_strides", spy)
    layout = MemoryLayout(nest.arrays())
    cache = CacheConfig(1024, 32, 2)
    O = np.asarray(sample_original_points(nest, npoints, 3), dtype=np.int64)
    for tiles in tilings:
        prog = program_from_nest(nest) if tiles is None else tile_program(nest, tiles)
        clf = PointClassifier(prog, layout, cache)
        P = prog.point_map.from_original_batch(O)
        table = solver.SourceTable(clf, O)
        rows, point, ref, start, stop = clf._batch_reuse_sources(table)
        src = prog.point_map.from_original_batch(table.src[rows].astype(np.int64))
        runs = point.astype(np.int64) * len(clf._refs) + ref
        assert (np.diff(runs) > 0).all()
        spos = clf._positions[table.sref[rows]].tolist()
        got = {
            (int(p), int(r)): list(zip(map(tuple, src[a:b].tolist()), spos[a:b]))
            for p, r, a, b in zip(point, ref, start, stop)
        }
        for i, p in enumerate(map(tuple, P.tolist())):
            for r in range(len(clf._refs)):
                want = clf._reuse_sources(r, p, clf._addr(r, p) // cache.line_size)
                want.sort(key=lambda sp: (sp[0], sp[1]), reverse=True)
                assert got.get((i, r), []) == want, (tiles, i, r)
        assert got, tiles
    if nest.name == "deep4":
        assert max(words) > 1
    else:
        assert max(words) == 1


def test_kernel_groups_keep_one_row_per_address_form():
    """MM's `a(i,j)` read and write have one address form, so their
    reference group's kernel spec holds it once."""
    nest = make_small_mm(24)
    clf = PointClassifier(
        tile_program(nest, (5, 7, 24)), MemoryLayout(nest.arrays()), CACHE_8K
    )
    assert [len(ridx) for ridx in clf._groups] == [2, 1, 1]
    for ridx, (odims, coeffs, consts) in zip(clf._groups, clf._rows.kernel_groups):
        assert len(coeffs) == len(consts) == 1
        assert coeffs.shape[1] == len(odims) == 2


def test_classify_codes_rejects_mismatched_lengths(monkeypatch):
    """A pass takes one point batch per classifier: fewer or more
    batches raise `ValueError` naming both lengths before any work, and
    an empty pass returns no tables."""
    built = []

    class Spy(solver.SourceTable):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(solver, "SourceTable", Spy)
    nest = make_small_mm(8)
    prog = program_from_nest(nest)
    layout = MemoryLayout(nest.arrays())
    clfs = [PointClassifier(prog, layout, CACHE_DM) for _ in range(2)]
    pts = [(1, 1, 1), (2, 3, 4)]
    with pytest.raises(ValueError, match="got 1 for 2"):
        classify_many(clfs, [pts])
    with pytest.raises(ValueError, match="got 3 for 2"):
        solver.classify_codes(clfs, iter([pts] * 3))
    assert not built and all(c.stats.points == 0 for c in clfs)
    assert classify_many([], []) == [] and solver.classify_codes([], []) == []
    assert len(classify_many(clfs, [pts, pts[:1]])[1]) == 1
