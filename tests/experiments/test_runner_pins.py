"""Pinned outputs of the paper runners at a tiny GA budget.

Each case runs one runner end to end (selector seeding, padded layouts,
the paper-budget GA, a k-way cache) and compares every value it
reports with the one recorded before the runners moved onto
``search_tiling``, so a port that moves any of them fails here.  The
Table 2 answers are all selector seeds (Sarkar–Megiddo for T2D and the
two T3D orders, TSS for JACOBI3D), so losing the seeding shows too.
"""

from repro.experiments.associativity import run_associativity
from repro.experiments.convergence import run_convergence
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from tests.experiments.test_experiments import TINY


def test_table2_is_pinned():
    rows = run_table2(TINY)
    assert [
        (r.kernel, r.tile_sizes, r.total_before, r.repl_before,
         r.total_after, r.repl_after)
        for r in rows
    ] == [
        ("T2D", (4, 4), 0.6354166666666666, 0.4166666666666667,
         0.22916666666666666, 0.010416666666666666),
        ("T3DJIK", (4, 1, 4), 0.59375, 0.3645833333333333,
         0.22916666666666666, 0.0),
        ("T3DIKJ", (1, 4, 4), 0.53125, 0.2916666666666667,
         0.23958333333333334, 0.0),
        ("JACOBI3D", (198, 7, 24), 0.23809523809523808, 0.08333333333333333,
         0.18452380952380953, 0.02976190476190476),
    ]


def test_table3_padded_tiling_is_pinned():
    rows = run_table3(TINY, entries=[("BTRIX", 64, 8)])
    assert [
        (r.kernel, r.size, r.cache_kb, r.original, r.padding, r.padding_tiling)
        for r in rows
    ] == [
        ("BTRIX", 64, 8, 0.4583333333333333, 0.052083333333333336,
         0.013888888888888888),
    ]


def test_convergence_at_paper_budget_is_pinned():
    """471 distinct solves: a 450 distinct-solve cap would cut it short."""
    (r,) = run_convergence([("MM", 100)], config=TINY, paper_budget=True)
    assert (
        r.label, r.generations, r.converged_early, r.evaluations,
        r.distinct_evaluations, r.best_objective,
    ) == ("MM_100", 25, False, 750, 471, 1.0)
    averages = (
        8.733333333333333, 7.0, 5.5, 5.7, 5.466666666666667,
        4.033333333333333, 3.566666666666667, 3.2, 3.6, 3.6666666666666665,
        4.066666666666666, 3.7333333333333334, 3.533333333333333,
        3.433333333333333, 3.466666666666667, 3.1, 2.7666666666666666,
        2.533333333333333, 3.2666666666666666, 2.6, 2.7333333333333334,
        2.466666666666667, 2.3333333333333335, 2.3666666666666667, 2.2,
    )
    assert r.trace == tuple((g, 1.0, a) for g, a in enumerate(averages))


def test_associativity_two_way_is_pinned():
    rows = run_associativity(TINY, kernels=[("MM", 100)], associativities=(2,))
    assert [
        (r.label, r.associativity, r.repl_no_tiling, r.repl_tiling,
         r.tile_sizes)
        for r in rows
    ] == [("MM_100", 2, 0.052083333333333336, 0.020833333333333332,
           (100, 5, 5))]
