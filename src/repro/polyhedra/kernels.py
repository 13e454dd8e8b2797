"""Single-pass inner kernels of the cascade and the solver.

:func:`boxes_interfere` decides the solver's direct-mapped interval
enumeration, where every box has its own shape: it splits each box's
dimensions in two and sums binary-search counts over one half against
the sorted values of the other.

:func:`box_line_counts` serves the cascade's k-way distinct-line
count, where nearly every box has a shape of its own too: it lists
every point of a whole batch of ragged boxes in one pass per
dimension, keeps the points in the reused line's cache set and counts
their distinct lines per box.

Every kernel is exact set arithmetic — no approximation anywhere — so
the verdict contract of the cascade (bit-identical to the scalar
tester) is preserved by construction; the cascade equivalence property
suite and the kernel property tests pin it mechanically.
"""

from __future__ import annotations

import numpy as np

#: Most rows one decoding pass holds (memory guard).
_ROW_CAP = 1 << 20

# -- distinct counts -----------------------------------------------------------

def distinct_counts(
    qrow: np.ndarray, lines: np.ndarray, nq: int
) -> np.ndarray:
    """Distinct ``lines`` values per query (``qrow`` need not be sorted)."""
    if len(lines) == 0:
        return np.zeros(nq, dtype=np.int64)
    order = np.lexsort((lines, qrow))
    ql = qrow[order]
    ll = lines[order]
    first = np.ones(len(ql), dtype=bool)
    first[1:] = (ql[1:] != ql[:-1]) | (ll[1:] != ll[:-1])
    return np.bincount(ql[first], minlength=nq)


# -- k-way distinct-line counting ----------------------------------------------

def box_line_counts(
    c0: np.ndarray,
    exts: np.ndarray,
    coeffs: np.ndarray,
    wlo: np.ndarray,
    line0: np.ndarray,
    mod: int,
    line: int,
    cap: int,
) -> np.ndarray:
    """Per box: distinct lines in the reused line's cache set, capped.

    Box ``b`` holds the addresses ``a = c0[b] + Σ_j coeffs[j] · u_j``
    over ``0 ≤ u < exts[b]``.  Its count is the number of distinct lines
    ``a // line`` among the points with ``(a − wlo[b]) mod mod < line``
    (the cache set whose window starts at ``wlo[b]``), ``line0[b]``'s
    line excluded, capped at ``cap`` — what listing and deduplicating
    the box's addresses gives.  The batch is decoded in chunks of whole
    boxes holding at most :data:`_ROW_CAP` points (a larger box makes a
    chunk alone), each chunk in one pass per dimension, skipping the
    dimensions that cannot move the address (coefficient 0, or extent 1
    in every box).
    """
    nb = len(c0)
    counts = np.zeros(nb, dtype=np.int64)
    dims = np.flatnonzero((coeffs != 0) & (exts > 1).any(axis=0))
    exts = exts[:, dims]
    coeffs = coeffs[dims]
    ends = np.cumsum(exts.prod(axis=1))
    start = 0
    while start < nb:
        done = int(ends[start - 1]) if start else 0
        stop = max(
            int(np.searchsorted(ends, done + _ROW_CAP, side="right")), start + 1
        )
        # rel = a - wlo for every point, the points grouped by box;
        # ``per`` counts each box's points decoded so far.
        rel = c0[start:stop] - wlo[start:stop]
        per = np.ones(stop - start, dtype=np.int64)
        for j in range(len(dims)):
            cnt = np.repeat(exts[start:stop, j], per)
            per *= exts[start:stop, j]
            cum = np.cumsum(cnt)
            u = np.arange(int(cum[-1]), dtype=np.int64) - np.repeat(cum - cnt, cnt)
            rel = np.repeat(rel, cnt) + u * coeffs[j]
        # A power-of-two modulus (every cache geometry) is a bit mask.
        low = rel & (mod - 1) if mod & (mod - 1) == 0 else rel % mod
        hit = np.flatnonzero(low < line)
        box = np.searchsorted(ends[start:stop] - done, hit, side="right")
        lines = (rel[hit] + wlo[start:stop][box]) // line
        other = lines != line0[start:stop][box] // line
        counts[start:stop] = distinct_counts(
            box[other], lines[other], stop - start
        )
        start = stop
    return np.minimum(counts, cap)


# -- split-sum box interference -----------------------------------------------

#: Segment keys ``shape · stride + value`` stay below this bound (int64).
_KEY_LIMIT = 1 << 62


def boxes_interfere(
    lo: np.ndarray,
    exts: np.ndarray,
    coeffs: np.ndarray,
    consts: np.ndarray,
    line0: np.ndarray,
    mod: int,
    line: int,
) -> np.ndarray:
    """Per box: does any reference touch ``line0``'s cache set on another line?

    Box ``b`` is ``{lo[b] + u : 0 ≤ u < exts[b]}``; reference ``r``
    accesses address ``a(x) = coeffs[r] · x + consts[r]``; ``line0[b]``
    is the first byte of the reused line (a multiple of ``line``, which
    divides the way size ``mod``).  For one reference let

    * ``W`` = #points with ``(a − line0) mod mod < line`` (same set),
    * ``O`` = #points with ``line0 ≤ a < line0 + line`` (the line itself).

    Every point counted by ``O`` is counted by ``W``, so the box
    interferes iff ``W > O`` for some reference — exactly the dense
    enumeration's verdict.  Both counts split: with the dimensions
    divided into a query half ``Q`` and a sorted half ``S``,
    ``a = base + v_Q + v_S``, so each count is a sum over the values
    ``v_Q`` of a binary-search count among the box's sorted ``v_S``
    (raw values for ``O``; residues mod ``mod`` for ``W``, where the
    window wraps into at most two runs).  Ragged boxes share one sort
    through segment keys, one segment per distinct ``S`` shape, so a box
    costs O((|Q| + |S|) · log) instead of |Q| · |S| enumerated points.
    """
    nb = len(lo)
    hit = np.zeros(nb, dtype=bool)
    if nb == 0:
        return hit
    q_dims, s_dims = _split_dims(exts)
    shapes, shape_of = np.unique(exts[:, s_dims], axis=0, return_inverse=True)
    shape_of = shape_of.reshape(-1)
    s_coeffs = coeffs[:, s_dims]
    s_min = (shapes - 1) @ np.minimum(s_coeffs, 0).T  # (shapes, refs)
    stride = max(int(((shapes - 1) @ np.abs(s_coeffs).T).max()) + 1, mod)
    if nb > 1 and (len(shapes) + 1) * stride >= _KEY_LIMIT:
        half = nb // 2
        return np.concatenate([
            boxes_interfere(lo[sl], exts[sl], coeffs, consts, line0[sl], mod, line)
            for sl in (slice(0, half), slice(half, nb))
        ])
    q_box, q_vals = _box_values(exts[:, q_dims], coeffs[:, q_dims])
    s_shape, s_vals = _box_values(shapes, s_coeffs)
    seg = np.arange(len(shapes), dtype=np.int64) * stride
    s_seg = seg[s_shape]
    # A point hits where v_Q + v_S lies in rel + [0, line) (own line) or
    # in it modulo ``mod`` (same set).
    rel = line0[:, None] - (lo @ coeffs.T + consts)
    for r in range(len(coeffs)):
        rows = ~hit[q_box]
        if not rows.any():
            break
        b = q_box[rows]
        x = rel[b, r] - q_vals[rows, r]
        sid = shape_of[b]
        base = seg[sid]
        own = np.sort(s_seg + (s_vals[:, r] - s_min[s_shape, r]))
        shifted = x - s_min[sid, r]
        own_hits = np.searchsorted(
            own, base + np.clip(shifted + line, 0, stride)
        ) - np.searchsorted(own, base + np.clip(shifted, 0, stride))
        res = np.sort(s_seg + s_vals[:, r] % mod)
        t = x % mod
        window_hits = (
            np.searchsorted(res, base + np.minimum(t + line, mod))
            - np.searchsorted(res, base + t)
            + np.searchsorted(res, base + np.maximum(t + line - mod, 0))
            - np.searchsorted(res, base)
        )
        hit[b[window_hits > own_hits]] = True
    return hit


def _split_dims(exts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Q, S)`` dimension split minimising Σ_boxes 3·|Q| + |S|.

    A query row costs five binary searches, a sorted row a share of two
    sorts.  The choice only affects speed, so float products are fine.
    """
    dg = exts.shape[1]
    masks = (np.arange(1 << dg)[:, None] >> np.arange(dg)) & 1
    logs = np.log(exts.astype(np.float64)).T
    cost = (
        3.0 * np.exp(masks @ logs).sum(axis=1)
        + np.exp((1 - masks) @ logs).sum(axis=1)
    )
    q = masks[int(np.argmin(cost))].astype(bool)
    return np.flatnonzero(q), np.flatnonzero(~q)


def _box_values(
    exts: np.ndarray, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``Σ_j coeffs[:, j] · u_j`` over every ``0 ≤ u < exts[b]`` of every box.

    Returns ``(box, vals)``: the owning box per row (rows grouped by
    box) and the (rows × refs) values, decoded one dimension at a time
    by repeating the rows so far and adding a ragged ``arange``.
    """
    box = np.arange(len(exts), dtype=np.int64)
    vals = np.zeros((len(exts), len(coeffs)), dtype=np.int64)
    for j in range(exts.shape[1]):
        cnt = exts[box, j]
        ends = np.cumsum(cnt)
        local = np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(
            ends - cnt, cnt
        )
        box = np.repeat(box, cnt)
        vals = np.repeat(vals, cnt, axis=0) + local[:, None] * coeffs[:, j]
    return box, vals
