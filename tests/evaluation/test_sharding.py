"""Point-batch sharding: a single candidate's sample split across
workers must merge to exactly the unsharded estimate."""

import multiprocessing
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.cache.config import CacheConfig
from repro.cme.analyzer import LocalityAnalyzer
from repro.cme.sampling import estimate_at_points, sample_original_points
from repro.evaluation import (
    estimate_at_points_sharded,
    merge_estimates,
    shard_points,
    shard_spans,
)
from repro.ir.program import program_from_nest
from repro.layout.memory import MemoryLayout
from repro.transform.tiling import tile_program
from tests.conftest import make_small_mm, make_small_transpose

CACHE = CacheConfig(1024, 32, 1)


def test_shard_points_partitions_in_order():
    pts = [(i,) for i in range(10)]
    shards = shard_points(pts, 3)
    assert [p for s in shards for p in s] == pts
    assert len(shards) == 3
    assert all(s for s in shards)
    # degenerate cases
    assert shard_points(pts, 1) == [pts]
    assert shard_points(pts[:2], 8) == [[(0,)], [(1,)]]


def test_merge_equals_unsharded_counts():
    nest = make_small_mm(16)
    layout = MemoryLayout(nest.arrays())
    program = tile_program(nest, (4, 8, 8))
    points = sample_original_points(nest, 60, 0)
    whole = estimate_at_points(program, layout, CACHE, points)
    parts = [
        estimate_at_points(program, layout, CACHE, shard)
        for shard in shard_points(points, 4)
    ]
    merged = merge_estimates(parts)
    assert merged.sampled_points == whole.sampled_points
    assert merged.sampled_accesses == whole.sampled_accesses
    assert (merged.hits, merged.cold, merged.replacement) == (
        whole.hits, whole.cold, whole.replacement
    )
    assert merged.per_ref == whole.per_ref
    assert merged.total_accesses == whole.total_accesses
    assert merged.miss_ratio == whole.miss_ratio
    # instrumentation sums across shards
    assert merged.solver_stats.points == whole.solver_stats.points


def test_sharded_process_pool_path_matches_serial():
    nest = make_small_transpose(32)
    layout = MemoryLayout(nest.arrays())
    program = program_from_nest(nest)
    points = sample_original_points(nest, 48, 1)
    whole = estimate_at_points(program, layout, CACHE, points)
    sharded = estimate_at_points_sharded(
        program, layout, CACHE, points, workers=3
    )
    assert sharded.per_ref == whole.per_ref
    assert (sharded.hits, sharded.cold, sharded.replacement) == (
        whole.hits, whole.cold, whole.replacement
    )


def test_small_samples_fall_back_to_serial():
    nest = make_small_transpose(16)
    layout = MemoryLayout(nest.arrays())
    program = program_from_nest(nest)
    points = sample_original_points(nest, 6, 0)
    est = estimate_at_points_sharded(program, layout, CACHE, points, workers=4)
    assert est.sampled_points == 6  # classified, no pool spun up


def test_analyzer_point_workers_matches_serial():
    nest = make_small_transpose(32)
    serial = LocalityAnalyzer(nest, CACHE, n_samples=48, seed=0)
    sharded = LocalityAnalyzer(
        nest, CACHE, n_samples=48, seed=0, point_workers=3
    )
    try:
        for tiles in (None, (8, 8), (32, 1)):
            a = serial.estimate(tile_sizes=tiles)
            b = sharded.estimate(tile_sizes=tiles)
            assert a.per_ref == b.per_ref
            assert a.replacement == b.replacement
    finally:
        sharded.close()
        sharded.close()  # idempotent


def test_analyzer_small_sample_never_spawns_pool():
    analyzer = LocalityAnalyzer(
        make_small_transpose(16), CACHE, n_samples=8, seed=0, point_workers=4
    )
    assert analyzer.estimate().sampled_points == 8
    assert analyzer._point_pool is None  # serial fallback, no processes


def test_analyzer_validates_point_workers():
    with pytest.raises(ValueError):
        LocalityAnalyzer(make_small_transpose(16), CACHE, point_workers=0)


def test_shard_spans_cover_in_order():
    assert shard_spans(10, 3) == [(0, 3), (3, 7), (7, 10)]
    assert shard_spans(2, 8) == [(0, 1), (1, 2)]
    assert shard_spans(5, 1) == [(0, 5)]


@given(st.integers(0, 300), st.integers(0, 20))
def test_shard_spans_partition_evenly(n, n_shards):
    """Spans tile ``[0, n)`` in order: ``min(n_shards, n)`` of them (at
    least one), none empty, sizes within one of each other."""
    spans = shard_spans(n, n_shards)
    if n == 0:
        assert spans == []
        return
    assert len(spans) == max(1, min(n_shards, n))
    assert spans[0][0] == 0 and spans[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    sizes = [stop - start for start, stop in spans]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


def _hold_bundle(barrier, token: str, blob: bytes) -> None:
    """Worker side: cache ``token``'s bundle once every worker is here.

    Each worker blocks in the barrier until all of them run one of
    these tasks, so the tasks land on distinct workers.
    """
    from repro.evaluation import sharding

    barrier.wait()
    if sharding.bundle_cache_get(sharding._BUNDLES, token) is None:
        sharding.bundle_cache_put(sharding._BUNDLES, token, pickle.loads(blob))


def test_shard_pool_zero_copy_payloads():
    """Candidate bundles ship once per token; repeats are index spans."""
    nest = make_small_transpose(32)
    analyzer = LocalityAnalyzer(nest, CACHE, n_samples=48, seed=0, point_workers=3)
    serial = LocalityAnalyzer(nest, CACHE, n_samples=48, seed=0)
    try:
        first = analyzer.estimate(tile_sizes=(8, 8))
        pool = analyzer._point_pool
        assert pool is not None and pool.calls == 1
        first_bytes = pool.last_payload_bytes
        # A worker that finishes a span early may take the next one
        # too, so the first call can leave a worker without the bundle;
        # its repeat span would miss and ship the bundle again.  Give
        # every worker the token first.
        (token,) = pool._shipped
        layout = analyzer.layout_with(None)
        blob = pickle.dumps(
            (
                analyzer.program((8, 8)),
                layout,
                analyzer._candidates(layout, None),
            )
        )
        # The first call carried the bundle...
        assert first_bytes >= len(blob)
        with multiprocessing.Manager() as manager:
            barrier = manager.Barrier(pool.workers, timeout=60)
            holds = [
                pool.executor.submit(_hold_bundle, barrier, token, blob)
                for _ in range(pool.workers)
            ]
            for hold in holds:
                hold.result()
        again = analyzer.estimate(tile_sizes=(8, 8))
        repeat_bytes = pool.last_payload_bytes
        # ...and only once: the repeat call addressed the worker-held
        # sample by span under the cached token.
        assert repeat_bytes < first_bytes / 5
        # A repeat estimate of a token equals the first, count for count.
        assert again.per_ref == first.per_ref
        assert again.solver_stats == first.solver_stats
        ref = serial.estimate(tile_sizes=(8, 8))
        for est in (first, again):
            assert est.per_ref == ref.per_ref
            assert (est.hits, est.cold, est.replacement) == (
                ref.hits, ref.cold, ref.replacement
            )
    finally:
        analyzer.close()


def test_shard_pool_ships_bundle_inline_on_a_tokens_first_call():
    """A task is ``(token, pickled bundle | None, start, stop)``: every
    task of a token's first call carries the bundle, a repeat call's
    tasks carry none (a retry after a worker's miss carries it again),
    and a new token ships its own bundle."""
    from repro.evaluation import sharding

    nest = make_small_transpose(32)
    layout = MemoryLayout(nest.arrays())
    programs = {"a": tile_program(nest, (8, 8)), "b": tile_program(nest, (16, 4))}
    points = sample_original_points(nest, 48, 0)
    pool = sharding.ShardPool(2, CACHE, points)
    calls: list[list[tuple]] = []
    submit = pool.executor.submit

    def spy(fn, task):
        calls[-1].append(task)
        return submit(fn, task)

    pool.executor.submit = spy
    try:
        for token in ("a", "a", "b"):
            calls.append([])
            got = pool.estimate(programs[token], layout, None, token)
            ref = estimate_at_points(programs[token], layout, CACHE, points)
            assert got.per_ref == ref.per_ref
    finally:
        pool.close()
    spans = shard_spans(48, 2)
    first, repeat, other = calls
    for tasks, token in ((first, "a"), (repeat, "a"), (other, "b")):
        assert [(t[0], t[2], t[3]) for t in tasks[: len(spans)]] == [
            (token, start, stop) for start, stop in spans
        ]
    blob = first[0][1]
    assert len(first) == len(spans) and all(t[1] == blob for t in first)
    program, _, candidates = pickle.loads(blob)
    assert program.point_map.tile_sizes == (8, 8) and candidates is None
    assert all(t[1] is None for t in repeat[: len(spans)])
    assert all(t[1] is not None for t in repeat[len(spans):])
    assert len(other) == len(spans) and all(t[1] is not None for t in other)
    assert pickle.loads(other[0][1])[0].point_map.tile_sizes == (16, 4)


def test_shard_pool_span_estimates_a_slice_of_the_sample():
    """``span`` re-shards ``points[start:stop]`` of the context sample
    across the pool (the TCP worker agent's local sub-pool does this
    with its incoming span): the merged estimate is the serial estimate
    of that slice."""
    from repro.evaluation import sharding

    nest = make_small_transpose(32)
    layout = MemoryLayout(nest.arrays())
    program = tile_program(nest, (8, 8))
    points = sample_original_points(nest, 48, 0)
    pool = sharding.ShardPool(2, CACHE, points)
    try:
        got = pool.estimate(program, layout, None, "tok", span=(8, 40))
    finally:
        pool.close()
    ref = estimate_at_points(program, layout, CACHE, points[8:40])
    assert got.sampled_points == ref.sampled_points == 32
    assert got.per_ref == ref.per_ref
    assert (got.hits, got.cold, got.replacement) == (
        ref.hits, ref.cold, ref.replacement
    )


def test_shard_pool_context_miss_roundtrip():
    """A worker without the bundle raises; the blob retry resolves it."""
    import pickle

    from repro.evaluation import sharding
    from repro.ir.program import program_from_nest

    nest = make_small_transpose(16)
    layout = MemoryLayout(nest.arrays())
    program = program_from_nest(nest)
    points = sample_original_points(nest, 24, 0)
    ctx = sharding.ShardContext(
        cache=CACHE, confidence=0.90, points=tuple(points)
    )
    old_ctx, old_bundles = sharding._POOL_CTX, dict(sharding._BUNDLES)
    try:
        sharding._init_pool_worker(pickle.dumps(ctx))
        with pytest.raises(sharding._ContextMiss):
            sharding._classify_span(("tok", None, 0, 24))
        blob = pickle.dumps((program, layout, None))
        est = sharding._classify_span(("tok", blob, 0, 24))
        # memoised now: the blob is no longer needed
        est2 = sharding._classify_span(("tok", None, 0, 24))
        ref = estimate_at_points(program, layout, CACHE, points)
        assert est.per_ref == est2.per_ref == ref.per_ref
    finally:
        sharding._POOL_CTX = old_ctx
        sharding._BUNDLES.clear()
        sharding._BUNDLES.update(old_bundles)


def test_shard_pool_adhoc_points_and_close_guard():
    """Explicit samples reuse the pool's executor; closed pools refuse."""
    nest = make_small_transpose(32)
    analyzer = LocalityAnalyzer(nest, CACHE, n_samples=48, seed=0, point_workers=3)
    try:
        adhoc = sample_original_points(nest, 40, 7)
        got = analyzer.estimate(tile_sizes=(8, 8), points=adhoc)
        ref = estimate_at_points(
            analyzer.program((8, 8)), analyzer.layout, CACHE, adhoc,
            candidates=analyzer._candidates(analyzer.layout, None),
        )
        assert got.per_ref == ref.per_ref
        pool = analyzer._point_pool
        assert pool is not None  # the ad-hoc path shares the executor
    finally:
        analyzer.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.estimate(None, None, None, "t")
    with pytest.raises(RuntimeError, match="closed"):
        pool.warm()


def test_sharded_tester_stats_merge_sums_unknowns():
    """Congruence-tier stats — notably `unknown` budget exhaustions —
    survive point sharding: the merged counters equal the serial run's,
    so the accuracy-regression counter stays visible with workers on."""
    budgets = {"enum_limit": 8, "partial_limit": 8, "abs_search_budget": 2,
               "line_candidate_limit": 4}
    nest = make_small_mm(16)
    serial = LocalityAnalyzer(
        nest, CACHE, n_samples=48, seed=0, cascade_budgets=budgets
    )
    sharded = LocalityAnalyzer(
        nest, CACHE, n_samples=48, seed=0, point_workers=3,
        cascade_budgets=budgets,
    )
    try:
        a = serial.estimate(tile_sizes=(4, 16, 16))
        b = sharded.estimate(tile_sizes=(4, 16, 16))
    finally:
        sharded.close()
    assert a.per_ref == b.per_ref
    assert b.solver_stats.congruence == a.solver_stats.congruence
    assert b.solver_stats.unknown_conservative == (
        a.solver_stats.unknown_conservative
    )
    # the tight budgets actually exercised the exhaustion path
    assert a.solver_stats.congruence["unknown"] > 0


def test_pickled_analyzer_downgrades_to_serial():
    """Analyzers shipped into evaluation workers must not nest pools."""
    analyzer = LocalityAnalyzer(
        make_small_transpose(16), CACHE, n_samples=12, seed=0, point_workers=4
    )
    try:
        clone = pickle.loads(pickle.dumps(analyzer))
    finally:
        analyzer.close()
    assert clone.point_workers == 1
    assert clone._point_pool is None
    assert clone.estimate().sampled_points == 12


def test_worker_bundle_lru_evicts_in_recency_order():
    """The worker-side bundle memo is a true LRU: touching a token
    protects it; the least-recently-used token is evicted first."""
    from repro.evaluation import sharding

    nest = make_small_transpose(16)
    layout = MemoryLayout(nest.arrays())
    program = program_from_nest(nest)
    points = sample_original_points(nest, 16, 0)
    ctx = sharding.ShardContext(cache=CACHE, confidence=0.90, points=tuple(points))
    blob = pickle.dumps((program, layout, None))
    old_ctx, old_bundles = sharding._POOL_CTX, dict(sharding._BUNDLES)
    old_size = sharding.BUNDLE_CACHE_SIZE
    try:
        sharding.BUNDLE_CACHE_SIZE = 2
        sharding._init_pool_worker(pickle.dumps(ctx))
        sharding._classify_span(("a", blob, 0, 4))
        sharding._classify_span(("b", blob, 0, 4))
        sharding._classify_span(("a", None, 4, 8))   # touch a → b is LRU
        sharding._classify_span(("c", blob, 0, 4))   # evicts b, not a
        assert list(sharding._BUNDLES) == ["a", "c"]
        sharding._classify_span(("a", None, 8, 12))  # a survived eviction
        with pytest.raises(sharding._ContextMiss):
            sharding._classify_span(("b", None, 4, 8))  # b needs a resend
        est = sharding._classify_span(("b", blob, 4, 8))  # ...which heals it
        ref = estimate_at_points(program, layout, CACHE, points[4:8])
        assert est.per_ref == ref.per_ref
    finally:
        sharding.BUNDLE_CACHE_SIZE = old_size
        sharding._POOL_CTX = old_ctx
        sharding._BUNDLES.clear()
        sharding._BUNDLES.update(old_bundles)


def test_shard_pool_eviction_retry_end_to_end(monkeypatch):
    """Cycling more candidates than the worker LRU holds exercises the
    live _ContextMiss retry: the pool resends evicted bundles and every
    estimate still matches the serial path, with the resend visible in
    the payload accounting.  A single-worker pool makes the eviction
    order deterministic (the wider-pool path is covered above)."""
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("monkeypatched LRU size needs fork-inherited globals")
    from repro.evaluation import sharding
    from repro.transform.tiling import tile_program

    monkeypatch.setattr(sharding, "BUNDLE_CACHE_SIZE", 1)
    nest = make_small_transpose(32)
    layout = MemoryLayout(nest.arrays())
    prog_a = tile_program(nest, (8, 8))
    prog_b = tile_program(nest, (16, 4))
    points = sample_original_points(nest, 24, 0)
    pool = sharding.ShardPool(1, CACHE, points)
    try:
        first = pool.estimate(prog_a, layout, None, "tok-a")
        first_bytes = pool.last_payload_bytes
        pool.estimate(prog_b, layout, None, "tok-b")  # evicts tok-a
        # The pool believes tok-a was shipped, so this starts span-only;
        # the lone worker answers _ContextMiss and the blob is resent.
        again = pool.estimate(prog_a, layout, None, "tok-a")
        retry_bytes = pool.last_payload_bytes
        ref = estimate_at_points(prog_a, layout, CACHE, points)
        for est in (first, again):
            assert est.per_ref == ref.per_ref
            assert (est.hits, est.cold, est.replacement) == (
                ref.hits, ref.cold, ref.replacement
            )
        assert retry_bytes > first_bytes / 2  # the bundle travelled again
    finally:
        pool.close()
