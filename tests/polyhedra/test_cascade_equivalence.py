"""Batched-vs-scalar congruence cascade equivalence.

The batched cascade's contract is exactness: for every query it must
return the *same* ``True``/``False``/``None`` verdict as the scalar
cascade AND charge the same :class:`TesterStats` tier attributions, so
that search trajectories and accuracy-regression counters are
bit-identical whichever engine runs.  This suite cross-checks both over
thousands of seeded random (box, modulus, window) queries, including
degenerate dimensions, full-period subgroup collapses, and
budget-exhaustion (``None``) regimes.  Each query's verdict and
attribution are its own: the same queries fed in uneven slices, down to
one query per call, give the same answers and the same summed stats.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.polyhedra import cascade, congruence
from repro.polyhedra.box import Box
from repro.polyhedra.cascade import BatchCascade, verdicts_to_py
from repro.polyhedra.congruence import CongruenceTester

#: Uneven call sizes for :class:`SplitCascade`, single queries included.
SLICE_SIZES = (1, 2, 5, 13, 1, 37, 97)


def _uneven_slices(n):
    starts = itertools.accumulate(itertools.cycle(SLICE_SIZES), initial=0)
    bounds = list(itertools.takewhile(lambda b: b < n, starts)) + [n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


class SplitCascade(BatchCascade):
    """The batched rung answering each batch in uneven slices.

    The solver's waves vary in size and mix queries of many boxes, so a
    query's verdict and tier attribution must not depend on which other
    queries share its call.
    """

    def exists_interference_many(self, Blo, Bhi, wlo, line0):
        call = super().exists_interference_many
        return np.concatenate(
            [call(Blo[s], Bhi[s], wlo[s], line0[s])
             for s in _uneven_slices(len(Blo))]
        )

    def count_interfering_lines_many(self, Blo, Bhi, wlo, line0, cap):
        call = super().count_interfering_lines_many
        return np.concatenate(
            [call(Blo[s], Bhi[s], wlo[s], line0[s], cap)
             for s in _uneven_slices(len(Blo))]
        )


#: The batched rung of the dispatch ladder, whole and sliced, held to
#: the bit-identical contract against the scalar tester.
ENGINES = {"batched": BatchCascade, "split": SplitCascade}


def _random_ref(rng, d):
    """A random affine reference: coeffs (zeros allowed), const."""
    scale = int(rng.choice([1, 4, 8, 32, 120, 1000, 4096]))
    coeffs = []
    for _ in range(d):
        kind = rng.integers(0, 5)
        if kind == 0:
            coeffs.append(0)
        else:
            c = int(rng.integers(1, 40)) * scale // int(rng.choice([1, 2, 5]))
            coeffs.append(-c if rng.integers(0, 4) == 0 else max(c, 1))
    const = int(rng.integers(-500, 5000))
    return tuple(coeffs), const


def _random_queries(rng, d, n, m, line, *, big_extent=600):
    """(Blo, Bhi, wlo, line0) arrays, spanning every cascade tier."""
    lo = rng.integers(-8, 50, size=(n, d))
    kind = rng.integers(0, 4, size=(n, d))
    ext = np.where(
        kind == 0,
        1,  # degenerate dimension
        np.where(
            kind == 1,
            rng.integers(2, 9, size=(n, d)),  # small (enumeration tier)
            np.where(
                kind == 2,
                rng.integers(2, 70, size=(n, d)),  # medium (partial)
                rng.integers(60, big_extent, size=(n, d)),  # full-period
            ),
        ),
    )
    hi = lo + ext - 1
    # a few empty boxes
    empty = rng.random(n) < 0.05
    hi[empty, 0] = lo[empty, 0] - 1
    wlo = (rng.integers(0, m, size=n) // line) * line
    # line0 on the window's residue lattice (as the solver produces it),
    # sometimes far outside the reachable band, occasionally zero.
    line0 = wlo + rng.integers(-4, 60, size=n) * m
    line0[rng.random(n) < 0.1] = 0
    return lo, hi, wlo, line0


CONFIGS = [
    # (d, m, line, n_queries, budgets)
    (1, 256, 32, 300, {}),
    (2, 256, 32, 500, {}),
    (3, 8192, 32, 700, {}),
    (3, 1024, 64, 500, {}),
    (4, 8192, 32, 500, {}),
    # tiny budgets: force partial-over-limit, line-limit and abs-budget
    # exhaustion (None verdicts) through every tier
    (3, 8192, 32, 600, {"enum_limit": 64, "partial_limit": 128,
                        "line_candidate_limit": 8, "abs_search_budget": 16}),
    (2, 512, 32, 400, {"enum_limit": 16, "partial_limit": 32,
                       "abs_search_budget": 4}),
    (4, 32768, 32, 400, {"enum_limit": 256, "partial_limit": 512,
                         "line_candidate_limit": 64,
                         "abs_search_budget": 64}),
]


@pytest.mark.parametrize("engine", sorted(ENGINES), ids=sorted(ENGINES))
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cfg", CONFIGS, ids=[f"d{c[0]}-m{c[1]}-{'tight' if c[4] else 'default'}-n{c[3]}" for c in CONFIGS])
def test_exists_interference_equivalence(cfg, seed, engine):
    d, m, line, n, budgets = cfg
    rng = np.random.default_rng(seed * 7919 + d * 131 + m)
    coeffs, const = _random_ref(rng, d)
    lo, hi, wlo, line0 = _random_queries(rng, d, n, m, line)

    scalar = CongruenceTester(**budgets)
    expected = [
        scalar.exists_interference(
            coeffs, const, Box(tuple(lo[i]), tuple(hi[i])),
            m, int(wlo[i]), line, int(line0[i]),
        )
        for i in range(n)
    ]
    batch_tester = CongruenceTester(**budgets)
    cascade = ENGINES[engine](coeffs, const, m, line, batch_tester)
    got = verdicts_to_py(cascade.exists_interference_many(lo, hi, wlo, line0))
    assert got == expected
    # Same tier attribution, counter for counter.
    assert batch_tester.stats.as_dict() == scalar.stats.as_dict()


@pytest.mark.parametrize("engine", sorted(ENGINES), ids=sorted(ENGINES))
@pytest.mark.parametrize("cap", [1, 2, 4])
@pytest.mark.parametrize("cfg", [CONFIGS[2], CONFIGS[5]],
                         ids=["default", "tight"])
def test_count_interfering_lines_equivalence(cfg, cap, engine):
    d, m, line, n, budgets = cfg
    rng = np.random.default_rng(cap * 7717 + d)
    coeffs, const = _random_ref(rng, d)
    lo, hi, wlo, line0 = _random_queries(rng, d, n, m, line)

    scalar = CongruenceTester(**budgets)
    expected = [
        scalar.count_interfering_lines(
            coeffs, const, Box(tuple(lo[i]), tuple(hi[i])),
            m, int(wlo[i]), line, int(line0[i]), cap=cap,
        )
        for i in range(n)
    ]
    batch_tester = CongruenceTester(**budgets)
    cascade = ENGINES[engine](coeffs, const, m, line, batch_tester)
    counts = cascade.count_interfering_lines_many(lo, hi, wlo, line0, cap=cap)
    got = [None if c < 0 else int(c) for c in counts]
    assert got == expected
    assert batch_tester.stats.as_dict() == scalar.stats.as_dict()


#: Line-frontier edge cases on one reference, under budgets tight
#: enough that a 2-D box reaches the per-line search (``enum_limit`` 16)
#: and can run out of nodes (``abs_search_budget`` 4, node cap 16).
#: Each case is a query (lo, hi, wlo, line0) at cap 2 and the per-line
#: verdicts the scalar loop visits for it, in order.
FRONTIER_REF = ((336, 416), 4930, 8192, 32)
FRONTIER_BUDGETS = {"enum_limit": 16, "abs_search_budget": 4}
FRONTIER_CAP = 2
FRONTIER_CASES = {
    # The only candidate line's search runs out of budget: None, not 0.
    "ends-in-none": (((25, 34), (38, 52), 832, 418624), [None]),
    # An unknown line before the second hit: the count is 2, not None.
    "unknown-before-cap": (((46, 40), (112, 77), 128, 73856), [True, None, True]),
    # The second hit is the first line of a round with lines left in it.
    "cap-mid-round": (((57, 20), (118, 49), 7296, 72832), [False, True, True]),
    # Both lines share one pass, and one of them is past the node cap.
    "node-cap-shares-pass": (((35, 39), (77, 54), 1344, 468288), [True, True]),
}


def _frontier_run(monkeypatch, engine, queries):
    """Count ``queries`` on the scalar tester and on ``engine``.

    Records the scalar's per-line verdicts per query, and per tree pass
    of the batched rung its rows, the rows it replayed and the rows it
    handed to the scalar node-cap fallback.
    """
    coeffs, const, m, line = FRONTIER_REF
    lo, hi, wlo, line0 = (np.array(col) for col in zip(*queries))
    traces = []
    scalar_line = congruence.exists_absolute_interval

    def recording(*args, **kwargs):
        traces[-1].append(scalar_line(*args, **kwargs))
        return traces[-1][-1]

    monkeypatch.setattr(congruence, "exists_absolute_interval", recording)
    scalar = CongruenceTester(**FRONTIER_BUDGETS)
    expected = []
    for i in range(len(lo)):
        traces.append([])
        expected.append(scalar.count_interfering_lines(
            coeffs, const, Box(tuple(lo[i]), tuple(hi[i])),
            m, int(wlo[i]), line, int(line0[i]), cap=FRONTIER_CAP,
        ))

    passes = []
    tree, replay, fallback = (
        BatchCascade._abs_tree, BatchCascade._replay_abs,
        cascade.exists_absolute_interval,
    )

    def tree_spy(self, *args):
        levels, capped = tree(self, *args)
        passes.append({"rows": len(capped), "replayed": 0, "fallback": 0})
        return levels, capped

    def replay_spy(self, *args):
        passes[-1]["replayed"] += 1
        return replay(self, *args)

    def fallback_spy(*args, **kwargs):
        passes[-1]["fallback"] += 1
        return fallback(*args, **kwargs)

    monkeypatch.setattr(BatchCascade, "_abs_tree", tree_spy)
    monkeypatch.setattr(BatchCascade, "_replay_abs", replay_spy)
    monkeypatch.setattr(cascade, "exists_absolute_interval", fallback_spy)
    tester = CongruenceTester(**FRONTIER_BUDGETS)
    counts = ENGINES[engine](coeffs, const, m, line, tester) \
        .count_interfering_lines_many(lo, hi, wlo, line0, cap=FRONTIER_CAP)
    got = [None if c < 0 else int(c) for c in counts]
    assert got == expected
    assert tester.stats.as_dict() == scalar.stats.as_dict()
    return expected, traces, tester.stats, passes


@pytest.mark.parametrize("engine", sorted(ENGINES), ids=sorted(ENGINES))
@pytest.mark.parametrize("case", sorted(FRONTIER_CASES))
def test_line_frontier_edge_cases(monkeypatch, case, engine):
    query, trace = FRONTIER_CASES[case]
    expected, traces, stats, passes = _frontier_run(monkeypatch, engine, [query])
    assert traces == [trace]  # the case still takes the path it names
    assert expected == [None if case == "ends-in-none" else FRONTIER_CAP]
    built = sum(p["rows"] for p in passes)
    visited = sum(p["replayed"] + p["fallback"] for p in passes)
    assert visited == stats.line_queries == len(trace)
    if case == "cap-mid-round":
        assert built > visited  # rows past the cap: built, never charged
    if case == "node-cap-shares-pass":
        assert any(p["replayed"] and p["fallback"] for p in passes)


@pytest.mark.parametrize("engine", sorted(ENGINES), ids=sorted(ENGINES))
def test_line_frontier_edge_cases_share_one_call(monkeypatch, engine):
    """The same queries in one call: rows of different queries share
    passes, and each query is still charged only its own lines."""
    cases = [FRONTIER_CASES[c] for c in sorted(FRONTIER_CASES)]
    _, traces, stats, _ = _frontier_run(
        monkeypatch, engine, [q for q, _ in cases]
    )
    assert traces == [t for _, t in cases]
    assert stats.line_queries == sum(map(len, traces))


def _tiled_batch(rng, n):
    """``n`` queries of three tilings of a 2-D nest, mixed in one batch.

    Query ``x`` tests reference ``ref[x]`` of tiling ``owner[x]`` in the
    tiling's coordinates ``(t1, t2, u1, u2)``: its row is the original
    row composed with ``[diag(T) | I]`` (lower bounds 1, so the constant
    is the original's).  Each dimension's tile index is pinned (extent
    one) or spans several tiles with the whole element range, as
    between-boxes do, so pinned queries of every tiling share the
    original coefficients.  Then the frontier's edge cases (a count
    ending in ``None``, a node-cap row) and a box spanning more
    candidate lines than the limit, on their own rows, owned by the
    first tiling.
    """
    ocoef = np.array([[8, 4000], [4000, 8], [8, 0]], dtype=np.int64)
    oc0 = np.array([0, 2_000_000, 4_000_000], dtype=np.int64)
    tiles = rng.integers(1, 60, size=(3, 2))
    owner = rng.integers(0, 3, size=n)
    ref = rng.integers(0, 3, size=n)
    T = tiles[owner]
    coeffs = np.concatenate((ocoef[ref] * T, ocoef[ref]), axis=1)
    const = oc0[ref]
    pinned = rng.random((n, 2)) < 0.6
    t0 = rng.integers(0, 8, size=(n, 2))
    t1 = np.where(pinned, t0, t0 + rng.integers(1, 4, size=(n, 2)))
    a = rng.integers(1, T + 1)
    b = np.minimum(a + rng.integers(0, 40, size=(n, 2)), T)
    lo = np.concatenate((t0, np.where(pinned, a, 1)), axis=1)
    hi = np.concatenate((t1, np.where(pinned, b, T)), axis=1)
    wlo = (rng.integers(0, 8192, size=n) // 32) * 32
    line0 = wlo + rng.integers(-4, 600, size=n) * 8192
    frontier_row, frontier_const = (*FRONTIER_REF[0], 0, 0), FRONTIER_REF[1]
    edges = (
        (frontier_row, frontier_const, FRONTIER_CASES["ends-in-none"][0]),
        (frontier_row, frontier_const, FRONTIER_CASES["node-cap-shares-pass"][0]),
        ((8, 4000, 0, 0), 0, ((0, 0), (1, 1199), 4128, 3_000_000)),
    )
    for row, k, (elo, ehi, ew, el) in edges:
        coeffs, const = np.vstack((coeffs, row)), np.append(const, k)
        lo, hi = np.vstack((lo, (*elo, 0, 0))), np.vstack((hi, (*ehi, 0, 0)))
        wlo, line0 = np.append(wlo, ew), np.append(line0, el)
        owner = np.append(owner, 0)
    return coeffs, const, owner, lo, hi, wlo, line0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cap=st.sampled_from([None, 1, 2, 4]))
def test_merged_owners_equal_one_owner_calls(seed, cap):
    """One call over the queries of several owners, each query with its
    own row and constant, returns each query's one-owner verdict (``cap``
    None: `exists_interference_many`) or capped count, and charges each
    owner exactly the tiers its own one-owner calls charge its tester.
    The batch mixes pinned and unpinned tiled rows of three references
    and three tilings with a count ending in an abs-budget ``None``, a
    node-cap fallback row and a line-candidate overflow."""
    rng = np.random.default_rng(seed)
    coeffs, const, owner, lo, hi, wlo, line0 = _tiled_batch(rng, 60)
    m, line = 8192, 32

    def ask(engine, *query):
        if cap is None:
            return engine.exists_interference_many(*query)
        return engine.count_interfering_lines_many(*query, cap=cap)

    alone = [CongruenceTester(**FRONTIER_BUDGETS) for _ in range(3)]
    expected = np.zeros(len(lo), dtype=np.int64)
    for o, row, k in {(o, tuple(r), k) for o, r, k in
                      zip(owner.tolist(), coeffs.tolist(), const.tolist())}:
        sel = np.flatnonzero((owner == o) & (coeffs == row).all(axis=1) & (const == k))
        engine = BatchCascade(row, k, m, line, alone[o])
        expected[sel] = ask(engine, lo[sel], hi[sel], wlo[sel], line0[sel])
    merged = [CongruenceTester(**FRONTIER_BUDGETS) for _ in range(3)]
    fallback = cascade.exists_absolute_interval
    with mock.patch.object(
        cascade, "exists_absolute_interval", side_effect=fallback
    ) as spy:
        got = ask(
            BatchCascade.of_queries(coeffs, const, owner, merged, m, line),
            lo, hi, wlo, line0,
        )
    assert got.tolist() == expected.tolist()
    for a, b in zip(alone, merged):
        assert b.stats.as_dict() == a.stats.as_dict()
    if cap is not None:
        assert got[-3] == -1 and got[-1] == -1  # ends in None; overflow
        assert spy.called == (cap > 1)  # the node-cap row's second line


def _chunk_ends(first, growth, upto):
    ends, width = [first], first
    while ends[-1] < upto:
        width *= growth
        ends.append(ends[-1] + width)
    return ends


def _brute_any(c0, coeffs, E, hit_one):
    """Every value of every box, tested one by one."""
    out = []
    for q in range(len(c0)):
        pts = itertools.product(*(range(int(n)) for n in E[q]))
        vals = (int(c0[q]) + sum(int(c) * x for c, x in zip(coeffs, p))
                for p in pts)
        out.append(any(hit_one(q, v) for v in vals))
    return out


def _predicates(kind, c0, rng, m=8192):
    """A vectorised predicate for ``_ragged_any`` and its scalar twin."""
    n = len(c0)
    if kind == "abs":
        lo = c0 + rng.integers(-400, 400, size=n)
        hi = lo + rng.integers(0, 40, size=n)
        return (
            lambda vals, r: (vals >= lo[r, None]) & (vals <= hi[r, None]),
            lambda q, v: lo[q] <= v <= hi[q],
        )
    # `mod < m` is the partial tier's full_g path.
    wlen = 32
    mod = rng.choice([m, m // 2, 64, 256], size=n)
    wlo = rng.integers(0, m, size=n)
    return (
        lambda vals, r: ((vals - wlo[r, None]) % mod[r, None]) <= wlen - 1,
        lambda q, v: (v - wlo[q]) % mod[q] <= wlen - 1,
    )


CHUNKINGS = [(3, 2), (1, 3), (cascade._FIRST_CHUNK, cascade._CHUNK_GROWTH)]


@pytest.mark.parametrize("first, growth", CHUNKINGS)
@pytest.mark.parametrize("kind", ["abs", "mod"])
def test_ragged_any_matches_brute_force(monkeypatch, kind, first, growth):
    """Random boxes of several shapes in one call, negative and zero
    coefficients, volumes on and off chunk boundaries."""
    monkeypatch.setattr(cascade, "_FIRST_CHUNK", first)
    monkeypatch.setattr(cascade, "_CHUNK_GROWTH", growth)
    rng = np.random.default_rng(first * 31 + growth + len(kind))
    coeffs = np.array([-37, 5, 0, 96], dtype=np.int64)
    shapes = [(1, 1, 1, 1), (3, 1, 2, 1), (3, 3, 1, 1), (1, 7, 1, 3),
              (5, 9, 1, 1), (2, 1, 1, 1)]
    E = np.array([shapes[i] for i in rng.integers(0, len(shapes), 120)])
    c0 = rng.integers(-5000, 5000, size=len(E))
    hit, hit_one = _predicates(kind, c0, rng)
    bc = BatchCascade(tuple(coeffs), 0, 8192, 32, CongruenceTester())
    got = bc._ragged_any(c0, coeffs, E, hit).tolist()
    assert got == _brute_any(c0, coeffs, E, hit_one)
    assert any(got) and not all(got)


@pytest.mark.parametrize("first, growth", CHUNKINGS)
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("kind", ["abs", "mod"])
def test_ragged_any_witness_position(monkeypatch, kind, sign, first, growth):
    """One witness at each chunk's first and last offset — the last
    chunk included — and none at all, over volumes that end exactly on
    a chunk boundary and volumes that do not."""
    monkeypatch.setattr(cascade, "_FIRST_CHUNK", first)
    monkeypatch.setattr(cascade, "_CHUNK_GROWTH", growth)
    ends = _chunk_ends(first, growth, 3 * first * growth)
    m, wlen = 1 << 20, 1
    for vol in sorted({ends[2], ends[2] + 1, ends[1] - 1}):
        # Shape (2, vol // 2) or (vol,): offsets are ±(flat index), so a
        # window one value wide holds exactly one index.
        shape = (2, vol // 2) if vol % 2 == 0 else (1, vol)
        coeffs = np.array([sign * shape[1], sign], dtype=np.int64)
        starts = [0] + [e for e in ends if e < vol]
        witness = sorted({i for s in starts for i in (s, s - 1)
                          if 0 <= i < vol} | {vol - 1})
        targets = witness + [vol]  # index `vol` is past the box: no witness
        n = len(targets)
        c0 = np.full(n, 1000, dtype=np.int64)
        val = c0 + sign * np.array(targets)
        E = np.tile(shape, (n, 1))
        if kind == "abs":
            def hit(vals, r):
                return vals == val[r, None]
        else:
            def hit(vals, r):
                return ((vals - val[r, None]) % m) <= wlen - 1
        bc = BatchCascade(tuple(coeffs), 0, m, 32, CongruenceTester())
        got = bc._ragged_any(c0, coeffs, E, hit).tolist()
        assert got == [True] * (n - 1) + [False], (vol, targets)


def test_full_period_subgroup_collapse():
    """Extents covering the whole residue period collapse to one gcd."""
    m, line = 256, 32
    coeffs, const = (48, 1024, 8), 16
    rng = np.random.default_rng(3)
    n = 200
    lo = rng.integers(0, 4, size=(n, 3))
    # dim0: period m/gcd(48,256)=16 → extent >= 16 is full-period;
    # dim1 coeff ≡ 0 (mod 256) → period 1, always full.
    ext = np.column_stack([
        rng.integers(16, 120, size=n),
        rng.integers(2, 6, size=n),
        rng.integers(2, 2000, size=n),
    ])
    hi = lo + ext - 1
    wlo = (rng.integers(0, m, size=n) // line) * line
    line0 = wlo + rng.integers(-2, 20, size=n) * m
    scalar = CongruenceTester()
    expected = [
        scalar.exists_interference(
            coeffs, const, Box(tuple(lo[i]), tuple(hi[i])),
            m, int(wlo[i]), line, int(line0[i]),
        )
        for i in range(n)
    ]
    tester = CongruenceTester()
    cascade = BatchCascade(coeffs, const, m, line, tester)
    got = verdicts_to_py(cascade.exists_interference_many(lo, hi, wlo, line0))
    assert got == expected
    assert tester.stats.as_dict() == scalar.stats.as_dict()
    assert scalar.stats.subgroup + scalar.stats.partial_enum > 0


def test_budget_kwargs_and_env_override(monkeypatch):
    t = CongruenceTester(enum_limit=7, abs_search_budget=3)
    assert t.enum_limit == 7 and t.abs_search_budget == 3
    monkeypatch.setenv("REPRO_CASCADE_BUDGET_ENUM", "99")
    monkeypatch.setenv("REPRO_CASCADE_BUDGET_PARTIAL", "123")
    t2 = CongruenceTester()
    assert t2.enum_limit == 99 and t2.partial_limit == 123
    # explicit kwarg beats the environment
    t3 = CongruenceTester(enum_limit=5)
    assert t3.enum_limit == 5 and t3.partial_limit == 123
    with pytest.raises(ValueError):
        CongruenceTester(enum_limit=0)
