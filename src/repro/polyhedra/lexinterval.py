"""Decompose lexicographic order constraints over integer boxes.

Execution order of a (possibly tiled) loop nest is lexicographic order
on the iteration vector.  The set of iterations strictly between a
reuse source ``s`` and its use ``p`` — the domain of the paper's
*replacement equations* — is therefore ``{q : s ≺ q ≺ p}`` intersected
with the iteration space.  Within one convex region (an integer box)
this set decomposes exactly into at most ``O(rank²)`` disjoint boxes,
which is what these helpers produce.

The comparison points ``s``/``p`` need not lie inside the box: after
tiling the source and the use frequently sit in *different* convex
regions, and the decomposition remains exact in that case.
:func:`lex_between_boxes_many` is the batched twin the solver's waves
use: every pair of a wave over its own regions, in array passes.
"""

from __future__ import annotations

import numpy as np

from repro.polyhedra.box import Box


def lex_gt_boxes(point: tuple[int, ...], box: Box) -> list[Box]:
    """Disjoint boxes covering ``{q ∈ box : q ≻_lex point}``."""
    if box.is_empty:
        return []
    d = box.rank
    if len(point) != d:
        raise ValueError("point rank mismatch")
    out: list[Box] = []
    lo = list(box.lo)
    hi = list(box.hi)
    for level in range(d):
        s = point[level]
        if s < box.lo[level]:
            # Any q agreeing with the prefix is already greater.
            out.append(Box(tuple(lo), tuple(hi)))
            return out
        if s + 1 <= box.hi[level]:
            blo = list(lo)
            bhi = list(hi)
            blo[level] = max(s + 1, box.lo[level])
            out.append(Box(tuple(blo), tuple(bhi)))
        if s > box.hi[level]:
            # Prefix can never match inside the box; deeper levels moot.
            return out
        # Fix this coordinate to s and descend.
        lo[level] = hi[level] = s
    return out  # q == point exactly is excluded (strict order)


def lex_lt_boxes(point: tuple[int, ...], box: Box) -> list[Box]:
    """Disjoint boxes covering ``{q ∈ box : q ≺_lex point}``."""
    if box.is_empty:
        return []
    d = box.rank
    if len(point) != d:
        raise ValueError("point rank mismatch")
    out: list[Box] = []
    lo = list(box.lo)
    hi = list(box.hi)
    for level in range(d):
        s = point[level]
        if s > box.hi[level]:
            out.append(Box(tuple(lo), tuple(hi)))
            return out
        if s - 1 >= box.lo[level]:
            blo = list(lo)
            bhi = list(hi)
            bhi[level] = min(s - 1, box.hi[level])
            out.append(Box(tuple(blo), tuple(bhi)))
        if s < box.lo[level]:
            return out
        lo[level] = hi[level] = s
    return out


def lex_between_boxes(
    src: tuple[int, ...], use: tuple[int, ...], box: Box
) -> list[Box]:
    """Disjoint boxes covering ``{q ∈ box : src ≺_lex q ≺_lex use}``.

    ``src ≺ use`` is assumed (callers establish it); the result is empty
    otherwise.
    """
    out: list[Box] = []
    for gt in lex_gt_boxes(src, box):
        for between in lex_lt_boxes(use, gt):
            if not between.is_empty:
                out.append(between)
    return out


def _prefix_all(mask: np.ndarray) -> np.ndarray:
    """``out[..., l] = mask[..., :l].all(axis=-1)`` (True at ``l = 0``)."""
    out = np.ones_like(mask)
    np.logical_and.accumulate(mask[..., :-1], axis=-1, out=out[..., 1:])
    return out


def lex_between_boxes_many(
    S: np.ndarray,
    U: np.ndarray,
    rlo: np.ndarray,
    rhi: np.ndarray,
    owner: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`lex_between_boxes` over each pair's regions, for many pairs.

    Pair ``j`` is ``(S[j], U[j])`` and its regions are the boxes
    ``rlo[o, r] .. rhi[o, r]`` of its owner ``o = owner[j]`` (a tiling,
    whose region table its pairs share); a padding region with
    ``lo > hi`` in every dimension holds no boxes.  Returns
    ``(Blo, Bhi, jid)``: the boxes of pair ``j`` are the rows with
    ``jid == j``, in the order the per-pair decomposition emits them
    (region, then src level, then use level).  The solver's frontier
    queues drive early exits in this order, so it is part of their
    equivalence contract.  Two masked passes do all pairs, and
    ``np.nonzero`` walks each mask in exactly that order:

    1. src-side pieces ``{q ∈ region : q ≻ src}`` over pairs × regions ×
       levels: at level ``l`` the prefix is pinned to ``src``, level
       ``l`` starts past it and the suffix is the region's.  Levels
       above the pair's first src/use difference ``f`` are skipped,
       since there the pinned prefix equals the use's and the piece
       lies wholly after the use;
    2. use-side cuts ``{q ∈ piece : q ≺ use}`` over pieces × levels,
       the same peeling against ``use``.

    Padding and empty regions contribute nothing, so every piece and
    box that passes its level test is non-empty.  Pairs that hold no
    iteration in any region, ``src ⊀ use`` or the two differing only at
    the innermost level by one, are dropped before the passes, and
    before their owners' regions are gathered.
    """
    d = S.shape[1]
    lvl = np.arange(d)
    neq = S != U
    f = neq.argmax(axis=1)
    rows = np.arange(len(S))
    gap = U[rows, f] - S[rows, f]
    keep = np.flatnonzero((gap > 0) & ((f < d - 1) | (gap > 1)))
    S, U, f, kept = S[keep], U[keep], f[keep], owner[keep]
    rlo, rhi = rlo[kept], rhi[kept]
    Sx = S[:, None, :]
    # Level l starts at max(src_l + 1, lo_l), which is <= hi_l iff both
    # are; lo <= hi fails on a padding region.
    has = (
        _prefix_all((Sx >= rlo) & (Sx <= rhi))
        & (Sx < rhi)
        & (rlo <= rhi)
        & (lvl >= f[:, None])[:, None, :]
    )
    pj, pr, pl = np.nonzero(has)
    Sp = S[pj]
    plo, phi = rlo[pj, pr], rhi[pj, pr]
    pin = lvl < pl[:, None]
    glo = np.where(
        pin,
        Sp,
        np.where(lvl == pl[:, None], np.maximum(Sp + 1, plo), plo),
    )
    ghi = np.where(pin, Sp, phi)
    Up = U[pj]
    cut = np.minimum(ghi, Up - 1)
    bp, bl = np.nonzero(
        _prefix_all((Up >= glo) & (Up <= ghi)) & (cut >= glo)
    )
    pin = lvl < bl[:, None]
    Ub = Up[bp]
    Blo = np.where(pin, Ub, glo[bp])
    Bhi = np.where(
        pin, Ub, np.where(lvl == bl[:, None], cut[bp], ghi[bp])
    )
    return Blo, Bhi, keep[pj[bp]]
