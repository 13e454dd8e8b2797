"""Loop tiling with exact multi-region iteration spaces.

Tiling a depth-``d`` rectangular nest with tile sizes ``T_1..T_d``
produces the canonical tiled nest of Fig. 3: all tile (``ii``) loops
outermost in original order, then all element loops.  We represent the
tiled space in normalised coordinates ``(t_1..t_d, u_1..u_d)`` with

    ``i_j = lower_j + T_j * t_j + (u_j - 1)``,   ``u_j ∈ [1, T_j]``

so that every convex region of §2.4 is an integer *box*: the cross
product, over dimensions, of either the full-tile option
(``t ∈ [0, Q_j-1]``, ``u ∈ [1, T_j]``) or the boundary-tile option
(``t = Q_j``, ``u ∈ [1, rem_j]``), where ``Q_j`` and ``rem_j`` are the
quotient/remainder of the loop extent by ``T_j``.  This is the paper's
exact multiple-convex-region treatment — neither the enclosing
parallelepiped of Fig. 2(c) nor the truncated region of Fig. 2(d).

A tile size equal to the loop extent leaves that dimension untiled
(one full tile), and ``T = 1`` degenerates to the original loop order
of the tile loops; both are valid GA genotypes (``T_i ∈ [1, U_i]``).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import product

import numpy as np

from repro.ir.affine import AffineExpr
from repro.ir.arrays import ArrayRef
from repro.ir.loops import LoopNest
from repro.ir.program import AccessProgram, TileMap
from repro.ir.space import IterationSpace
from repro.polyhedra.box import Box


def normalize_tiles(nest: LoopNest, tile_sizes) -> tuple[int, ...]:
    """``tile_sizes`` (one per loop, or a mapping from loop variable to
    size that defaults to the extent) as a tuple of ints in
    ``[1, extent]``; ``ValueError``/``TypeError`` otherwise."""
    if isinstance(tile_sizes, Mapping):
        ts = tuple(int(tile_sizes.get(l.var, l.extent)) for l in nest.loops)
    elif isinstance(tile_sizes, Sequence):
        if len(tile_sizes) != nest.depth:
            raise ValueError("one tile size per loop required")
        ts = tuple(int(t) for t in tile_sizes)
    else:
        raise TypeError("tile_sizes must be a mapping or sequence")
    for t, loop in zip(ts, nest.loops):
        if not 1 <= t <= loop.extent:
            raise ValueError(
                f"tile size {t} for loop {loop.var} outside [1, {loop.extent}]"
            )
    return ts


def tile_region_bounds(
    extents: Sequence[int], tile_sizes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The convex regions of the tiled space as ``(lo, hi)`` int64
    arrays of shape ``(regions, 2·depth)``, row ``r`` the bounds of
    region ``r`` in ``(t_1..t_d, u_1..u_d)`` coordinates.

    Each dimension offers its full tiles ``t ∈ [0, Q-1]``, ``u ∈ [1, T]``
    (when ``Q > 0``) and its boundary tile ``t = Q``, ``u ∈ [1, rem]``
    (when ``rem > 0``), ``(Q, rem) = divmod(extent, T)``; regions are
    the combinations in :func:`itertools.product` order, so at most
    ``2^d`` of them, none empty.
    """
    options = []
    for ext, t in zip(extents, tile_sizes):
        q, rem = divmod(ext, t)
        options.append(
            ([(0, q - 1, 1, t)] if q > 0 else [])
            + ([(q, q, 1, rem)] if rem > 0 else [])
        )
    # An option is (t_lo, t_hi, u_lo, u_hi); a row is t_lo.., u_lo..,
    # t_hi.., u_hi.. over the dimensions.
    bounds = np.array(
        [[o[f] for f in (0, 2, 1, 3) for o in combo] for combo in product(*options)],
        dtype=np.int64,
    )
    rank = 2 * len(options)
    return bounds[:, :rank], bounds[:, rank:]


def tile_regions(
    extents: tuple[int, ...], tile_sizes: tuple[int, ...]
) -> list[Box]:
    """The convex regions of the tiled space, as disjoint boxes.

    Boxes live in ``(t_1..t_d, u_1..u_d)`` coordinates, one per row of
    :func:`tile_region_bounds`, in its order.  There are at most ``2^d``
    regions; dimensions that divide evenly contribute no boundary
    option.
    """
    lo, hi = tile_region_bounds(extents, tile_sizes)
    boxes = [Box(l, h) for l, h in zip(lo.tolist(), hi.tolist())]
    assert boxes, "tiling produced no regions"
    total = sum(b.volume for b in boxes)
    expected = 1
    for ext in extents:
        expected *= ext
    assert total == expected, "regions do not partition the iteration space"
    return boxes


def tiled_var_names(vars: tuple[str, ...]) -> tuple[str, ...]:
    """Names of the tiled coordinates: tile indices then element offsets."""
    return tuple(f"{v}.t" for v in vars) + tuple(f"{v}.u" for v in vars)


def tile_program(nest: LoopNest, tile_sizes) -> AccessProgram:
    """Tile every dimension of ``nest`` with the given tile sizes.

    Returns an :class:`AccessProgram` whose execution order is the
    canonical tiled order and whose point map is the exact strip-mine
    bijection.  Choosing ``T_j = extent_j`` leaves dimension ``j``
    untiled.
    """
    ts = normalize_tiles(nest, tile_sizes)
    extents = tuple(l.extent for l in nest.loops)
    lowers = tuple(l.lower for l in nest.loops)
    new_vars = tiled_var_names(nest.vars)
    regions = tile_regions(extents, ts)
    space = IterationSpace(new_vars, tuple(regions))

    # i_j = lower_j + T_j * t_j + (u_j - 1)
    bindings = {
        v: AffineExpr({f"{v}.t": t, f"{v}.u": 1}, lo - 1)
        for v, t, lo in zip(nest.vars, ts, lowers)
    }
    refs = tuple(
        ArrayRef(
            ref.array,
            tuple(s.substitute(bindings) for s in ref.subscripts),
            ref.is_write,
            ref.position,
        )
        for ref in nest.refs
    )
    return AccessProgram(
        name=f"{nest.name}[T={'x'.join(map(str, ts))}]",
        space=space,
        refs=refs,
        point_map=TileMap(lowers, ts),
        original=nest,
    )
