"""Analyzable access programs: iteration space + references + point maps.

An :class:`AccessProgram` is the unit consumed by the CME analyzer and
the trace simulator.  It pairs an iteration space (possibly the
multi-region space of a tiled nest) with the body references expressed
over the space's variables, plus an exact bijection between the
*original* iteration vector and the transformed coordinates.  The
bijection is what lets reuse analysis run once on the original nest and
be mapped into any tiling (including across tile boundaries and convex
regions) without re-deriving reuse vectors per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ir.arrays import Array, ArrayRef
from repro.ir.loops import LoopNest
from repro.ir.space import IterationSpace


class PointMap:
    """Bijection between original iteration vectors and program coords.

    Every map is affine: ``to_original(Q) = A·Q + b`` for the integer
    ``(A, b)`` of :meth:`affine`.  So a reference's address row in
    program coordinates is its original row composed with the map, with
    no symbolic work per program (:class:`repro.cme.solver.NestRows`).
    """

    def affine(self) -> tuple[np.ndarray, np.ndarray]:
        """``(A, b)``, int64 arrays of shapes ``(depth, rank)`` and
        ``(depth,)``, with ``to_original(Q) = A·Q + b``."""
        raise NotImplementedError

    def to_original(self, point: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def from_original(self, point: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    # Batch variants: one point per row.  Subclasses override with
    # vectorised implementations; the defaults delegate row by row.
    def to_original_batch(self, points: np.ndarray) -> np.ndarray:
        return np.array(
            [self.to_original(tuple(int(x) for x in p)) for p in points],
            dtype=np.int64,
        )

    def from_original_batch(self, points: np.ndarray) -> np.ndarray:
        return np.array(
            [self.from_original(tuple(int(x) for x in p)) for p in points],
            dtype=np.int64,
        )


class IdentityMap(PointMap):
    """Untransformed nests: coordinates are the original vector.

    Only :meth:`affine` needs the nest's ``depth``; the point methods
    take vectors of any length.
    """

    def __init__(self, depth: int | None = None):
        self.depth = depth

    def affine(self) -> tuple[np.ndarray, np.ndarray]:
        if self.depth is None:
            raise ValueError("the identity map's affine form needs its depth")
        return np.eye(self.depth, dtype=np.int64), np.zeros(self.depth, np.int64)

    def to_original(self, point: tuple[int, ...]) -> tuple[int, ...]:
        return point

    def from_original(self, point: tuple[int, ...]) -> tuple[int, ...]:
        return point

    def to_original_batch(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.int64)

    def from_original_batch(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.int64)


class TileMap(PointMap):
    """The strip-mine bijection ``i = lo + T·t + (u - 1)``, ``u ∈ [1, T]``.

    Coordinates are ``(t_1..t_d, u_1..u_d)`` — all tile loops outermost
    in original order, then all element loops, the paper's canonical
    tiled order (Fig. 3).
    """

    def __init__(self, lowers: tuple[int, ...], tile_sizes: tuple[int, ...]):
        if len(lowers) != len(tile_sizes):
            raise ValueError("rank mismatch")
        if any(t < 1 for t in tile_sizes):
            raise ValueError("tile sizes must be >= 1")
        self.lowers = tuple(int(x) for x in lowers)
        self.tile_sizes = tuple(int(t) for t in tile_sizes)
        self.depth = len(lowers)

    def affine(self) -> tuple[np.ndarray, np.ndarray]:
        """``A = [diag(T) | I]``, ``b = lowers - 1``."""
        d = self.depth
        A = np.zeros((d, 2 * d), dtype=np.int64)
        A[:, :d] = np.diag(np.array(self.tile_sizes, dtype=np.int64))
        A[:, d:] = np.eye(d, dtype=np.int64)
        return A, np.array(self.lowers, dtype=np.int64) - 1

    def to_original(self, point: tuple[int, ...]) -> tuple[int, ...]:
        d = self.depth
        return tuple(
            self.lowers[j] + self.tile_sizes[j] * point[j] + (point[d + j] - 1)
            for j in range(d)
        )

    def from_original(self, point: tuple[int, ...]) -> tuple[int, ...]:
        ts = []
        us = []
        for j in range(self.depth):
            off = point[j] - self.lowers[j]
            t, r = divmod(off, self.tile_sizes[j])
            ts.append(t)
            us.append(r + 1)
        return tuple(ts) + tuple(us)

    def to_original_batch(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.int64)
        lowers = np.array(self.lowers, dtype=np.int64)
        sizes = np.array(self.tile_sizes, dtype=np.int64)
        d = self.depth
        return lowers + sizes * pts[:, :d] + (pts[:, d:] - 1)

    def from_original_batch(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.int64)
        lowers = np.array(self.lowers, dtype=np.int64)
        sizes = np.array(self.tile_sizes, dtype=np.int64)
        t, r = np.divmod(pts - lowers, sizes)
        return np.concatenate([t, r + 1], axis=1)


@dataclass(frozen=True)
class AccessProgram:
    """A loop program ready for locality analysis or simulation."""

    name: str
    space: IterationSpace
    refs: tuple[ArrayRef, ...]
    point_map: PointMap
    original: LoopNest

    def __post_init__(self):
        object.__setattr__(self, "refs", tuple(self.refs))
        vars_ = set(self.space.vars)
        for ref in self.refs:
            extra = ref.variables() - vars_
            if extra:
                raise ValueError(f"{ref} uses vars {sorted(extra)} not in space")

    @property
    def num_accesses(self) -> int:
        return self.space.num_points * len(self.refs)

    def arrays(self) -> tuple[Array, ...]:
        seen: dict[str, Array] = {}
        for ref in self.refs:
            seen.setdefault(ref.array.name, ref.array)
        return tuple(seen.values())


def program_from_nest(nest: LoopNest) -> AccessProgram:
    """Wrap an untransformed nest as an :class:`AccessProgram`."""
    space = IterationSpace.single_box(
        nest.vars,
        tuple(l.lower for l in nest.loops),
        tuple(l.upper for l in nest.loops),
    )
    return AccessProgram(
        name=nest.name,
        space=space,
        refs=nest.refs,
        point_map=IdentityMap(nest.depth),
        original=nest,
    )
