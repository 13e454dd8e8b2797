"""The solver's box kernels against brute-force enumeration.

``box_line_counts`` counts, per box, the distinct lines other than the
reused one in that cache set, capped — the k-way count — listing only
the box's points in the set.  ``boxes_interfere`` decides, per integer
box, whether some reference address lands in the reused line's cache
set on a different line — the direct-mapped verdict, an OR over
references of counts capped at one.  The brute force lists every point
of every box.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.polyhedra import kernels

MOD, LINE = 1024, 32
#: Largest extent per dimension count, so brute force stays small.
MAX_EXTENT = {1: 40, 2: 12, 3: 8, 4: 5, 5: 4, 6: 3}
COEFFS = [-1040, -256, -40, -8, -1, 0, 1, 8, 24, 40, 256, 1032]


def brute(lo, exts, coeffs, consts, line0, mod=MOD, line=LINE):
    out = []
    for b in range(len(lo)):
        axes = [np.arange(l, l + e) for l, e in zip(lo[b], exts[b])]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(
            -1, len(axes)
        )
        u = pts @ coeffs.T + consts - line0[b]
        out.append(bool((((u % mod) < line) & ((u < 0) | (u >= line))).any()))
    return out


@st.composite
def batches(draw):
    dg = draw(st.integers(1, 6))
    nr = draw(st.integers(1, 3))
    coeffs = np.array(
        [[draw(st.sampled_from(COEFFS)) for _ in range(dg)] for _ in range(nr)],
        dtype=np.int64,
    )
    consts = np.array(
        [draw(st.integers(-4096, 4096)) for _ in range(nr)], dtype=np.int64
    )
    extent = st.integers(1, MAX_EXTENT[dg])
    # A small pool of shapes most boxes draw from, plus ragged loners.
    pool = [tuple(draw(extent) for _ in range(dg)) for _ in range(2)]
    nb = draw(st.integers(1, 10))
    exts = np.array(
        [
            draw(st.sampled_from(pool))
            if draw(st.booleans())
            else tuple(draw(extent) for _ in range(dg))
            for _ in range(nb)
        ],
        dtype=np.int64,
    )
    lo = np.array(
        [[draw(st.integers(-5, 20)) for _ in range(dg)] for _ in range(nb)],
        dtype=np.int64,
    )
    # The reused line sits near each box's first address, inside or
    # outside the box's address band.
    near = lo @ coeffs[0] + consts[0]
    line0 = np.array(
        [
            (int(a) + draw(st.integers(-2 * MOD, 2 * MOD))) // LINE * LINE
            for a in near
        ],
        dtype=np.int64,
    )
    return lo, exts, coeffs, consts, line0


@given(batches())
@settings(max_examples=300, deadline=None)
def test_boxes_interfere_matches_bruteforce(case):
    lo, exts, coeffs, consts, line0 = case
    got = kernels.boxes_interfere(lo, exts, coeffs, consts, line0, MOD, LINE)
    assert got.tolist() == brute(lo, exts, coeffs, consts, line0)


@given(batches(), st.data())
@settings(max_examples=100, deadline=None)
def test_repeated_address_forms_do_not_change_verdicts(case, data):
    """The solver keeps one row per distinct (coefficients, constant)
    form: repeating a row, in any order, leaves every verdict as it is."""
    lo, exts, coeffs, consts, line0 = case
    picks = data.draw(
        st.lists(st.integers(0, len(coeffs) - 1), min_size=1, max_size=4)
    )
    order = data.draw(st.permutations(list(range(len(coeffs))) + picks))
    repeated = kernels.boxes_interfere(
        lo, exts, coeffs[order], consts[order], line0, MOD, LINE
    )
    got = kernels.boxes_interfere(lo, exts, coeffs, consts, line0, MOD, LINE)
    assert repeated.tolist() == got.tolist() == brute(
        lo, exts, coeffs, consts, line0
    )


def test_own_line_hits_alone_do_not_interfere():
    """A window that wraps past ``MOD``: the box's only same-set points
    sit on the reused line itself (W == O > 0) until one more point
    reaches the next line of that set."""
    coeffs = np.array([[1]], dtype=np.int64)
    consts = np.array([3], dtype=np.int64)
    line0 = np.array([0, 0], dtype=np.int64)
    lo = np.zeros((2, 1), dtype=np.int64)
    exts = np.array([[MOD - 3], [MOD - 2]], dtype=np.int64)
    got = kernels.boxes_interfere(lo, exts, coeffs, consts, line0, MOD, LINE)
    assert got.tolist() == [False, True]
    assert got.tolist() == brute(lo, exts, coeffs, consts, line0)


def test_wide_coefficients_stay_exact():
    """A coefficient of 2**58 (≡ 0 mod the way size, so its progression
    has period one) gives both entry points brute force's answers."""
    wide = 1 << 58
    coeffs = np.array([[8, wide]], dtype=np.int64)
    consts = np.zeros(1, dtype=np.int64)
    exts = np.array([[3, e] for e in range(1, 9)], dtype=np.int64)
    lo = np.zeros_like(exts)
    line0 = np.array([0, LINE] * 4, dtype=np.int64)
    got = kernels.boxes_interfere(lo, exts, coeffs, consts, line0, MOD, LINE)
    assert got.tolist() == [False, False, True, False, True, False, True, False]
    assert got.tolist() == brute(lo, exts, coeffs, consts, line0)
    c0 = lo @ coeffs[0] + consts[0]
    wlo = line0 % MOD
    for cap in (1, 2, 8):
        case = (c0, exts, coeffs[0], wlo, line0, MOD, LINE, cap)
        assert kernels.box_line_counts(*case).tolist() == brute_counts(*case)


def test_empty_batch():
    got = kernels.boxes_interfere(
        np.empty((0, 2), dtype=np.int64), np.empty((0, 2), dtype=np.int64),
        np.ones((1, 2), dtype=np.int64), np.zeros(1, dtype=np.int64),
        np.empty(0, dtype=np.int64), MOD, LINE,
    )
    assert got.shape == (0,)


# -- distinct_counts ------------------------------------------------------------

@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(-3, 3)), max_size=40),
    st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_distinct_counts_match_sets(pairs, spare):
    """Per query, the number of distinct lines among its (query, line)
    rows, in any row order; queries without rows count zero."""
    nq = max((q for q, _ in pairs), default=-1) + 1 + spare
    qrow = np.array([q for q, _ in pairs], dtype=np.int64)
    lines = np.array([line for _, line in pairs], dtype=np.int64)
    want = [len({line for q, line in pairs if q == i}) for i in range(nq)]
    assert kernels.distinct_counts(qrow, lines, nq).tolist() == want


# -- box_line_counts ------------------------------------------------------------

def brute_counts(c0, exts, coeffs, wlo, line0, mod, line, cap):
    out = []
    for b in range(len(c0)):
        axes = [np.arange(e) for e in exts[b]]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(
            -1, len(axes)
        )
        addr = pts @ coeffs + c0[b]
        lines = set((addr[(addr - wlo[b]) % mod < line] // line).tolist())
        lines.discard(int(line0[b]) // line)
        out.append(min(len(lines), cap))
    return out


@st.composite
def line_batches(draw):
    dg = draw(st.integers(1, 4))
    coeffs = np.array(
        [draw(st.sampled_from(COEFFS)) for _ in range(dg)], dtype=np.int64
    )
    # 96 is no power of two (the kernel's `%` path); LINE is one set.
    mod = draw(st.sampled_from([MOD, MOD, 96, LINE]))
    extent = st.integers(1, MAX_EXTENT[dg])
    # Most boxes share a few shapes, some are single points, the rest
    # are ragged loners.
    pool = [tuple(draw(extent) for _ in range(dg)) for _ in range(2)]
    shape = st.one_of(
        st.sampled_from(pool),
        st.just((1,) * dg),
        st.tuples(*[extent] * dg),
    )
    nb = draw(st.integers(1, 10))
    exts = np.array([draw(shape) for _ in range(nb)], dtype=np.int64)
    c0 = np.array(
        [draw(st.integers(-4 * MOD, 4 * MOD)) for _ in range(nb)], dtype=np.int64
    )
    line0, wlo = [], []
    for b in range(nb):
        # The reused line is one of the box's own lines, or far outside
        # the box's address band.
        u = np.array([draw(st.integers(0, int(e) - 1)) for e in exts[b]])
        a = int(c0[b] + u @ coeffs)
        far = draw(st.integers(-8 * MOD, 8 * MOD))
        l0 = (a if draw(st.booleans()) else a + far) // LINE * LINE
        line0.append(l0)
        # The window is the reused line's set, or anywhere, wrapping
        # past the modulus included.
        wlo.append(
            draw(
                st.one_of(
                    st.just(l0 % mod),
                    st.integers(mod - LINE + 1, mod - 1),
                    st.integers(-2 * mod, 2 * mod),
                )
            )
        )
    cap = draw(st.sampled_from([1, 2, 4, 8]))
    return (
        c0, exts, coeffs, np.array(wlo, dtype=np.int64),
        np.array(line0, dtype=np.int64), mod, LINE, cap,
    )


@given(line_batches())
@settings(max_examples=300, deadline=None)
def test_box_line_counts_match_bruteforce(case):
    got = kernels.box_line_counts(*case)
    assert got.tolist() == brute_counts(*case)


@given(line_batches(), st.data())
@settings(max_examples=100, deadline=None)
def test_zero_coefficient_dimensions_do_not_change_counts(case, data):
    """A dimension the address does not move along only repeats points."""
    c0, exts, coeffs, *rest = case
    at = data.draw(st.integers(0, len(coeffs)))
    extra = np.array(
        [data.draw(st.integers(2, 5)) for _ in range(len(c0))], dtype=np.int64
    )
    wide = np.insert(exts, at, extra, axis=1)
    zero = np.insert(coeffs, at, 0)
    got = kernels.box_line_counts(c0, wide, zero, *rest)
    assert got.tolist() == kernels.box_line_counts(c0, exts, coeffs, *rest).tolist()
    assert got.tolist() == brute_counts(c0, exts, coeffs, *rest)


# -- box_line_counts: the cache-set hit listing's own branches ------------------

@st.composite
def hit_batches(draw):
    """Batches aimed at the hit listing's branches: coefficients with
    several residues per row (gcd with the way size below the line),
    coefficients ≡ 0 mod the way size (period one), short periods whose
    classes hold more than cap + 1 hits, a way of one line (adjacent
    windows share a line), and ragged shapes that pick different
    progressions within one call."""
    mod = draw(st.sampled_from([MOD, 96, LINE]))
    dg = draw(st.integers(1, 3))
    coeff = st.sampled_from(
        [1, -3, 8, 24, -40, 384, mod // 2, mod, -2 * mod, 0]
    )
    coeffs = np.array([draw(coeff) for _ in range(dg)], dtype=np.int64)
    extent = st.integers(1, {1: 40, 2: 12, 3: 6}[dg])
    nb = draw(st.integers(1, 8))
    exts = np.array(
        [[draw(extent) for _ in range(dg)] for _ in range(nb)], dtype=np.int64
    )
    c0 = np.array(
        [draw(st.integers(-4 * mod, 4 * mod)) for _ in range(nb)], dtype=np.int64
    )
    wlo = np.array(
        [draw(st.integers(-2 * mod, 2 * mod)) for _ in range(nb)], dtype=np.int64
    )
    line0 = np.array(
        [(int(a) + draw(st.integers(-mod, 3 * mod))) // LINE * LINE for a in c0],
        dtype=np.int64,
    )
    cap = draw(st.sampled_from([1, 2, 3, 8]))
    return c0, exts, coeffs, wlo, line0, mod, LINE, cap


@given(hit_batches())
@settings(max_examples=300, deadline=None)
def test_hit_listing_matches_bruteforce(case):
    assert kernels.box_line_counts(*case).tolist() == brute_counts(*case)


def _progressions(monkeypatch, case):
    """The kernel's counts for ``case`` and, per box, its progression's
    coefficient, extent, gcd and period."""
    seen = []
    real = kernels._count_pass

    def spy(*args):
        seen.append(args[-5:-1])
        return real(*args)

    monkeypatch.setattr(kernels, "_count_pass", spy)
    got = kernels.box_line_counts(*case)
    c, n, g, period = (np.concatenate(a) for a in zip(*seen))
    return got, c, n, g, period


def _hit_case(c0, exts, coeffs, wlo, line0, mod=MOD, cap=8):
    as64 = lambda v: np.array(v, dtype=np.int64)  # noqa: E731
    return (as64(c0), as64(exts), as64(coeffs), as64(wlo), as64(line0), mod,
            LINE, cap)


HIT_BRANCHES = {
    # c = 8: g = 8 < LINE, so each row has four residues in the window.
    "several-residues-per-row": (
        _hit_case([5, 1000], [[40], [200]], [8], [0, 992], [96, 0]),
        lambda c, n, g, period, mod, cap: (g < LINE).all(),
    ),
    # c = 2·MOD: every step returns to the same residue (period one).
    "coefficient-0-mod-M": (
        _hit_case([7, 40], [[5, 1], [3, 2]], [2 * MOD, 1], [0, 32], [0, 0]),
        lambda c, n, g, period, mod, cap: ((c % mod == 0) & (period == 1)).all(),
    ),
    # A class of ten hits, capped at two: its first three decide.
    "class-beyond-cap-plus-one": (
        _hit_case([64, 3], [[10], [12]], [MOD], [64, 0], [64, 1024], cap=2),
        lambda c, n, g, period, mod, cap: (n > (cap + 1) * period).all(),
    ),
    # A way of one line: an unaligned window straddles two lines, and
    # every address is in the set.
    "way-below-two-lines": (
        _hit_case([0, 17, 5], [[9, 2], [4, 4], [16, 1]], [4, 9], [17, 3, 30],
                  [0, 32, 64], mod=LINE, cap=3),
        lambda c, n, g, period, mod, cap: mod < 2 * LINE,
    ),
    # One call, two progressions: along 8 for the box that moves only
    # along it, along 4000 (g = 32, one residue a row) for the others.
    "progressions-differ": (
        _hit_case([0, 8, 16, 24], [[40, 1, 1], [1, 40, 1], [40, 40, 1],
                                   [1, 1, 3]],
                  [8, 4000, 0], [0, 0, 0, 0], [4096, 0, 0, 0]),
        lambda c, n, g, period, mod, cap: len(set(c.tolist())) == 2,
    ),
}


@pytest.mark.parametrize("branch", sorted(HIT_BRANCHES))
def test_hit_listing_branches(monkeypatch, branch):
    """Each branch the hit listing takes, shown taken on its boxes and
    counted as brute force counts."""
    case, taken = HIT_BRANCHES[branch]
    got, c, n, g, period = _progressions(monkeypatch, case)
    assert taken(c, n, g, period, case[5], case[7])
    assert got.tolist() == brute_counts(*case)


def test_constant_addresses_count_one_point():
    """A box no dimension spans (no coefficients) is its one address."""
    c0 = np.array([5, 40, 1030, 1060], dtype=np.int64)
    case = (
        c0, np.empty((4, 0), dtype=np.int64), np.empty(0, dtype=np.int64),
        np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64), MOD, LINE, 2,
    )
    # 5 is the reused line itself, 40 and 1060 lie outside the set.
    assert kernels.box_line_counts(*case).tolist() == [0, 0, 1, 0]


def test_box_line_counts_entry_cap(monkeypatch):
    """Passes hold whole boxes up to the (row, residue) entry cap; a
    box above it runs alone."""
    passes = []
    real = kernels._count_pass

    def spy(c0, *args):
        passes.append(len(c0))
        return real(c0, *args)

    # Along c = 8 or c = -40 a row has 4 residues (g = 8); along the
    # idle third dimension (g = MOD) every point is its own row with one.
    coeffs = np.array([8, -40, 0], dtype=np.int64)
    exts = np.array(
        [[3, 1, 1], [2, 1, 4], [7, 1, 1], [1, 1, 1], [1, 1, 2], [3, 3, 1],
         [2, 1, 1]],
        dtype=np.int64,
    )
    n = len(exts)
    c0 = np.arange(n, dtype=np.int64) * 100
    wlo = np.zeros(n, dtype=np.int64)
    line0 = np.full(n, LINE, dtype=np.int64)
    case = (c0, exts, coeffs, wlo, line0, MOD, LINE, 8)
    whole = kernels.box_line_counts(*case)
    monkeypatch.setattr(kernels, "_ENTRY_CAP", 8)
    monkeypatch.setattr(kernels, "_count_pass", spy)
    got = kernels.box_line_counts(*case)
    assert got.tolist() == whole.tolist() == brute_counts(*case)
    # Cheapest rows x residues: 3, 2, 4 (one row along c = 8), 1, 1, 9
    # (above the cap: alone), 2.
    assert passes == [2, 3, 1, 1]


def test_box_line_counts_empty_batch():
    empty = np.empty(0, dtype=np.int64)
    got = kernels.box_line_counts(
        empty, np.empty((0, 2), dtype=np.int64), np.array([8, 1]),
        empty, empty, MOD, LINE, 2,
    )
    assert got.shape == (0,)
