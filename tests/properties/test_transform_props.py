"""Property-based tests for tiling and the point map."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ir.program import IdentityMap, TileMap, program_from_nest
from repro.layout.memory import MemoryLayout
from repro.simulator.trace import address_trace
from repro.transform.tiling import tile_program, tile_regions
from tests.conftest import make_small_transpose


@st.composite
def extents_and_tiles(draw, max_rank=3, max_extent=12):
    rank = draw(st.integers(1, max_rank))
    extents = tuple(draw(st.integers(1, max_extent)) for _ in range(rank))
    tiles = tuple(draw(st.integers(1, e)) for e in extents)
    return extents, tiles


@given(extents_and_tiles())
def test_regions_partition_iteration_space(data):
    extents, tiles = data
    regions = tile_regions(extents, tiles)
    total = sum(r.volume for r in regions)
    expected = int(np.prod(extents))
    assert total == expected
    # pairwise disjoint
    for i, a in enumerate(regions):
        for b in regions[i + 1:]:
            assert a.intersect(b).is_empty


@given(extents_and_tiles())
def test_region_count_at_most_2_pow_d(data):
    extents, tiles = data
    regions = tile_regions(extents, tiles)
    assert 1 <= len(regions) <= 2 ** len(extents)


@given(extents_and_tiles())
def test_tile_map_is_bijection_into_regions(data):
    extents, tiles = data
    lowers = (1,) * len(extents)
    pm = TileMap(lowers, tiles)
    regions = tile_regions(extents, tiles)

    def in_some_region(q):
        return any(r.contains(q) for r in regions)

    seen = set()
    from itertools import product

    for p in product(*(range(1, e + 1) for e in extents)):
        q = pm.from_original(p)
        assert pm.to_original(q) == p
        assert in_some_region(q)
        seen.add(q)
    assert len(seen) == int(np.prod(extents))


@given(st.integers(1, 16), st.integers(1, 16))
@settings(max_examples=30)
def test_tiled_trace_is_permutation(t1, t2):
    """Tiling permutes the access trace — the §3.1 invariant behind
    'compulsory misses remain constant'."""
    nest = make_small_transpose(16)
    t1, t2 = min(t1, 16), min(t2, 16)
    layout = MemoryLayout(nest.arrays())
    orig = address_trace(program_from_nest(nest), layout)
    tiled = address_trace(tile_program(nest, (t1, t2)), layout)
    assert np.array_equal(np.sort(orig), np.sort(tiled))


@given(extents_and_tiles(max_extent=7), st.data())
@settings(max_examples=60, deadline=None)
def test_between_boxes_of_a_tiled_space_are_original_boxes(data, draw):
    """The box-mapping property the original-coordinate kernel queries,
    address bands and projected volumes rest on.

    In every dimension of every box `lex_between_boxes_many` emits, either
    the tile index is pinned or the element offset spans the whole tile
    of the box's region; so the box holds exactly the iteration points
    of the original-space box between the images of its corners."""
    from itertools import product

    from repro.cache.config import CacheConfig
    from repro.cme.solver import PointClassifier, _Lockstep
    from repro.ir.affine import AffineExpr
    from repro.ir.arrays import Array, read
    from repro.ir.loops import Loop, LoopNest

    extents, tiles = data
    d = len(extents)
    names = [f"i{j}" for j in range(d)]
    nest = LoopNest(
        name="box",
        loops=tuple(Loop(v, 1, e) for v, e in zip(names, extents)),
        refs=(read(Array("a", extents), *map(AffineExpr.var, names)),),
    )
    prog = tile_program(nest, tiles)
    pm = prog.point_map
    cls = PointClassifier(
        prog, MemoryLayout(nest.arrays()), CacheConfig(1024, 32, 1)
    )
    orig = st.tuples(*(st.integers(1, e) for e in extents))
    pairs = draw.draw(st.lists(st.tuples(orig, orig), min_size=1, max_size=8))
    S, U = (
        pm.from_original_batch(np.array(side, dtype=np.int64))
        for side in zip(*pairs)
    )
    Blo, Bhi, _ = _Lockstep([cls]).between_boxes(
        S, U, np.zeros(len(S), dtype=np.intp)
    )
    for lo, hi in zip(Blo.tolist(), Bhi.tolist()):
        (region,) = [
            r for r in cls._regions
            if all(a <= x and y <= b for a, x, y, b in zip(r.lo, lo, hi, r.hi))
        ]
        for j in range(d):
            assert lo[j] == hi[j] or (
                (lo[d + j], hi[d + j]) == (region.lo[d + j], region.hi[d + j])
            )
        olo, ohi = (pm.to_original(c) for c in (tuple(lo), tuple(hi)))
        tiled = {
            pm.to_original(p)
            for p in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        }
        assert tiled == set(
            product(*(range(a, b + 1) for a, b in zip(olo, ohi)))
        )
        assert len(tiled) == int(np.prod(np.array(hi) - lo + 1))


@given(extents_and_tiles(), st.integers(-5, 5), st.integers(0, 2**32 - 1))
def test_point_map_affine_form_agrees_with_to_original(data, low, seed):
    """``affine()`` gives int64 ``(A, b)`` with ``A·Q + b`` equal to
    ``to_original_batch(Q)`` on random points, for both maps."""
    extents, tiles = data
    d = len(extents)
    rng = np.random.default_rng(seed)
    lowers = tuple(low + j for j in range(d))
    for pm, rank in ((TileMap(lowers, tiles), 2 * d), (IdentityMap(d), d)):
        A, b = pm.affine()
        assert A.dtype == b.dtype == np.int64
        assert A.shape == (d, rank) and b.shape == (d,)
        Q = rng.integers(-40, 40, size=(25, rank))
        assert (Q @ A.T + b == pm.to_original_batch(Q)).all()
