"""Single-pass inner kernels of the cascade and the solver.

:func:`box_line_counts` counts, per integer box of a batch, the
distinct lines other than the reused one that the box's addresses put
in the reused line's cache set, capped.  It answers every small box of
the solver on both geometries: the k-way distinct-line count directly,
and the direct-mapped interference verdict through
:func:`boxes_interfere`, an OR over references of counts capped at one.

The kernel lists only the box's points inside the cache set.  It picks
one dimension of each box as the *progression* (coefficient ``c``,
extent ``n``) and lists the other moving dimensions' points as *rows*
with first address ``x``, measured from the window's start.  Along the
progression a row's addresses ``x + c·u`` repeat their residue mod
``M`` with period ``P = M / g``, ``g = gcd(c mod M, M)``, so they can
only take the residues of ``x``'s coset mod ``g``.  The row's points in the window are therefore exactly
the ``u ≡ u_j (mod P)``, one class per residue ``r_j`` of that coset in
``[0, L)``:

    ``u_j = ((r_j − x) / g mod P) · (c / g)⁻¹ mod P``.

Hits of one class are at least ``M ≥ L`` bytes apart, so each is its
own line, and at most one of them is the reused line: the first
``cap + 1`` hits of each class decide a count capped at ``cap``.  The
kernel emits those hits as (box, line) pairs, drops the reused line and
counts distinct lines per box.  A box's progression minimises its rows
times its residues per row, ``⌈L / g⌉``; a dimension the address does
not move along is a progression of one point, whose rows are the box's
points, so short boxes may be listed point by point.  Memory guard: a
pass holds
whole boxes up to :data:`_ENTRY_CAP` (row, residue) *entries*; a box
above that runs alone.

Every kernel is exact set arithmetic — no approximation anywhere — so
the verdict contract of the cascade (bit-identical to the scalar
tester) is preserved by construction; the cascade equivalence property
suite and the kernel property tests pin it mechanically.
"""

from __future__ import annotations

import threading

import numpy as np

#: Most (row, residue) entries one kernel pass holds (memory guard).
_ENTRY_CAP = 1 << 14

#: Per thread: the (row, residue) entries :func:`box_line_counts` has
#: listed so far (telemetry; see :func:`entries_listed`).
_tally = threading.local()


def entries_listed() -> int:
    """(row, residue) entries :func:`box_line_counts` listed in this thread."""
    return getattr(_tally, "entries", 0)


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


def _ragged(counts: np.ndarray) -> np.ndarray:
    """Each ``i``'s ``counts[i]`` rows, numbered from 0, one after another."""
    ends = np.cumsum(counts)
    total = ends[-1] if len(ends) else 0
    return np.arange(total) - np.repeat(ends - counts, counts)


# -- cache-set hit counting ----------------------------------------------------

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
    the box's addresses gives.  ``line`` divides ``mod``.  Only the
    window's points are listed (module docstring).  Any progression
    gives the same counts, so the choice, made in int64 arithmetic,
    affects only the work.
    """
    nb = len(c0)
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if coeffs.size == 0:  # constant addresses: one dimension that stays
        coeffs, exts = np.zeros(1, dtype=np.int64), np.ones((nb, 1), np.int64)
    ext = np.where(coeffs != 0, exts, 1)
    # Per dimension as a progression: gcd, period, the inverse of c / g
    # mod the period and the residues per row (g = mod where c ≡ 0).
    res = coeffs % mod
    g = np.gcd(res, mod)
    period = mod // g
    inv = np.array(
        [pow(r // q % p, -1, p)
         for r, q, p in zip(res.tolist(), g.tolist(), period.tolist())],
        dtype=np.int64,
    )
    cost = ext.prod(axis=1)[:, None] // ext * (-(-line // g))
    prog = cost.argmin(axis=1)
    box = np.arange(nb)
    ends = np.cumsum(cost[box, prog])
    n = ext[box, prog]
    ext[box, prog] = 1  # the rows: every other moving dimension
    args = (coeffs[prog], n, g[prog], period[prog], inv[prog])
    counts = np.zeros(nb, dtype=np.int64)
    start = 0
    while start < nb:
        done = ends[start - 1] if start else 0
        stop = max(
            int(np.searchsorted(ends, done + _ENTRY_CAP, side="right")), start + 1
        )
        sl = slice(start, stop)
        counts[sl] = _count_pass(
            c0[sl], ext[sl], coeffs, wlo[sl], line0[sl], mod, line, cap,
            *(a[sl] for a in args),
        )
        start = stop
    return counts


def _count_pass(
    c0, row_ext, coeffs, wlo, line0, mod, line, cap, c, n, g, period, inv
) -> np.ndarray:
    """:func:`box_line_counts` over one pass of whole boxes, each with its
    progression's coefficient ``c``, extent ``n``, gcd ``g``, period and
    inverse of ``c / g``."""
    nb = len(c0)
    # rel = x − wlo for every row, the rows grouped by box.
    rel = c0 - wlo
    rbox = np.arange(nb)
    for j in np.flatnonzero((row_ext > 1).any(axis=0)):
        cnt = row_ext[rbox, j]
        rbox = np.repeat(rbox, cnt)
        rel = np.repeat(rel, cnt) + _ragged(cnt) * coeffs[j]
    # rel mod M = q·g + s: the row's residues in the window are
    # s + i·g < line, reached at u ≡ (i − q) · inv (mod P).
    gr = g[rbox]
    q, s = np.divmod(rel % mod, gr)
    per = (line - 1 - s) // gr + 1
    e = np.repeat(np.arange(len(rel)), per)
    _tally.entries = entries_listed() + len(e)
    eb = rbox[e]
    pe = period[eb]
    u0 = (_ragged(per) - q[e]) * inv[eb] % pe
    # Each class's first cap + 1 hits: u0, u0 + P, ... below n.
    hits = np.minimum((n[eb] - u0 - 1) // pe + 1, cap + 1)
    h = np.repeat(np.arange(len(e)), hits)
    hb = eb[h]
    u = u0[h] + _ragged(hits) * pe[h]
    lines = (rel[e[h]] + wlo[hb] + c[hb] * u) // line
    other = lines != line0[hb] // line
    if cap == 1:
        # A count capped at one needs no deduplication.
        return np.minimum(np.bincount(hb[other], minlength=nb), 1)
    return np.minimum(distinct_counts(hb[other], lines[other], nb), cap)


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
    divides the way size ``mod``).  The box interferes iff some
    reference's :func:`box_line_counts`, with the window at ``line0``,
    is at least one; each reference is counted, capped at one, only on
    the boxes the earlier ones left undecided.
    """
    nb = len(lo)
    hit = np.zeros(nb, dtype=bool)
    wlo = line0 % mod
    for r in range(len(coeffs)):
        b = np.flatnonzero(~hit)
        if len(b) == 0:
            break
        hit[b] = box_line_counts(
            lo[b] @ coeffs[r] + consts[r], exts[b], coeffs[r], wlo[b],
            line0[b], mod, line, 1,
        ) > 0
    return hit
