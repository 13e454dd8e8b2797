"""Sarkar–Megiddo analytical tile selection (ISPASS'00) — §5 baseline.

Their constant-time algorithm minimises an approximate memory-cost
model: distinct lines touched per tile execution divided by the tile's
iteration count.  For two tiled dimensions the model is

    cost(T1, T2) ≈ Σ_refs DL_ref(T1, T2) / (T1 · T2)

with ``DL`` the per-reference distinct-line footprint (a product of
per-dimension line counts).  Following their 3-D extension, the
outermost dimension is scanned while the inner two are optimised by the
closed-form-style sweep (we evaluate the model on a divisor grid, which
keeps the run cost trivially small while matching the model's choices).
"""

from __future__ import annotations

from repro.cache.config import CacheConfig
from repro.ir.loops import LoopNest
from repro.layout.memory import MemoryLayout


def _distinct_lines(
    coeffs: dict[str, int], tiles: dict[str, int], line: int
) -> float:
    """Approximate distinct lines touched by one reference per tile;
    ``coeffs`` maps each loop variable to the reference's |address
    coefficient| on it."""
    total = 1.0
    for var, span in tiles.items():
        c = coeffs[var]
        if c == 0:
            continue
        if c >= line:
            total *= span
        else:
            total *= max(1.0, span * c / line)
    return total


def sarkar_megiddo_tiles(
    nest: LoopNest, cache: CacheConfig, layout: MemoryLayout | None = None
) -> tuple[int, ...]:
    """Model-minimising tiles under the cache-capacity constraint."""
    layout = layout or MemoryLayout(nest.arrays())
    line = cache.line_size
    capacity_lines = cache.num_lines

    def candidates(extent: int) -> list[int]:
        vals = {1, extent}
        t = 1
        while t < extent:
            vals.add(t)
            t *= 2
        return sorted(vals)

    loops = nest.loops
    best: tuple[int, ...] | None = None
    best_cost = float("inf")
    # A reference's address does not depend on the tile: one
    # coefficient dict per reference serves the whole grid.
    ref_coeffs = []
    for ref in nest.refs:
        expr = layout.address_expr(ref)
        ref_coeffs.append({l.var: abs(expr.coeff(l.var)) for l in loops})

    def tile_cost(tiles: tuple[int, ...]) -> float:
        spans = {l.var: t for l, t in zip(loops, tiles)}
        dl = sum(_distinct_lines(c, spans, line) for c in ref_coeffs)
        if dl > capacity_lines:
            return float("inf")
        iters = 1
        for t in tiles:
            iters *= t
        return dl / iters

    # Scan the outer dimension(s); optimise the inner two on the grid.
    from itertools import product

    axes = [candidates(l.extent) for l in loops]
    for tiles in product(*axes):
        cost = tile_cost(tiles)
        if cost < best_cost:
            best_cost = cost
            best = tiles
    assert best is not None
    return best
