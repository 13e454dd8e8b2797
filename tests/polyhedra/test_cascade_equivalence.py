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

import numpy as np
import pytest

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
