"""The split-sum box kernel against brute-force enumeration.

``boxes_interfere`` decides, per integer box, whether some reference
address lands in the reused line's cache set on a different line — the
verdict the solver's direct-mapped interval enumeration needs.  The
brute force lists every point of every box.
"""

import numpy as np
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


def test_wide_address_spans_split_the_batch(monkeypatch):
    """Segment keys would leave int64: the batch is decided in parts,
    down to single boxes."""
    calls = []

    def spy(lo, *args):
        calls.append(len(lo))
        return real(lo, *args)

    real = kernels.boxes_interfere
    monkeypatch.setattr(kernels, "boxes_interfere", spy)
    coeffs = np.array([[8, 1 << 58]], dtype=np.int64)
    consts = np.zeros(1, dtype=np.int64)
    exts = np.array([[3, e] for e in range(1, 9)], dtype=np.int64)
    lo = np.zeros_like(exts)
    line0 = np.array([0, LINE] * 4, dtype=np.int64)
    got = kernels.boxes_interfere(lo, exts, coeffs, consts, line0, MOD, LINE)
    assert got.tolist() == [False, False, True, False, True, False, True, False]
    assert got.tolist() == brute(lo, exts, coeffs, consts, line0)
    assert max(calls) == 8 and min(calls) == 1


def test_empty_batch():
    got = kernels.boxes_interfere(
        np.empty((0, 2), dtype=np.int64), np.empty((0, 2), dtype=np.int64),
        np.ones((1, 2), dtype=np.int64), np.zeros(1, dtype=np.int64),
        np.empty(0, dtype=np.int64), MOD, LINE,
    )
    assert got.shape == (0,)
