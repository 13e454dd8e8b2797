"""Golden work counters of the CME solver on MM_500.

Every :class:`SolverStats` field — the congruence tester's tier counts
included — and the hit/cold/replacement split are pinned for a fixed
sample on 8KB direct-mapped, 2-way and 4-way caches, one table per
cascade rung.  A solver change that claims to be behaviour-preserving must
leave all of them untouched: the counts follow which sources, boxes
and references the waves examine, and in which batches.

A second pin sums the same fields over every estimate of a whole GA
search, which reaches tiers and batch shapes the three fixed tilings
do not (the direct-mapped partial enumeration, long line frontiers).
"""

import collections
import dataclasses

import pytest

from repro.cache.config import CacheConfig
from repro.cme import sampling, solver
from repro.cme.analyzer import LocalityAnalyzer
from repro.kernels.registry import KERNELS
from repro.search.tiling import search_tiling

TILES = (None, (485, 31, 22), (81, 294, 40))
STAT_FIELDS = (
    "points",
    "ref_tests",
    "sources_checked",
    "intervals_decomposed",
    "intervals_vectorized",
    "boxes_tested",
    "unknown_conservative",
)
TIERS = (
    "enumerated",
    "interval_reject",
    "line_queries",
    "partial_enum",
    "recursive",
    "subgroup",
    "unknown",
)

# (assoc, tiles) -> ((hits, cold, replacement), STAT_FIELDS, TIERS)
# A direct-mapped walk ends at its first proven kill, so each of the
# 656 (point, reference) pairs tries one source.  When every kill walked
# on to the older sources, the three tilings tried 777, 673 and 676
# sources over 982, 590 and 570 boxes, and the untiled program charged
# one `unknown` verdict.
_DM = {
    (1, None): (
        (450, 0, 206), (164, 656, 656, 0, 490, 506, 0), (0, 0, 0, 0, 0, 0, 0)
    ),
    (1, (485, 31, 22)): (
        (631, 0, 25), (164, 656, 656, 0, 490, 529, 0), (0, 0, 0, 0, 0, 0, 0)
    ),
    (1, (81, 294, 40)): (
        (595, 0, 61), (164, 656, 656, 0, 490, 506, 0), (0, 0, 0, 0, 0, 0, 0)
    ),
}
# The batched rung's distinct-line counting tests each interval's first
# box, then the rest; the scalar rung counts intervals one by one, so
# their k-way tier counts differ.  At 4 ways four line counts of
# (81, 294, 40) span more candidate lines than `line_candidate_limit`:
# four `unknown` verdicts, each one counted as `unknown_conservative`.
GOLDEN = {
    "batched": {
        **_DM,
        (2, None): (
            (447, 0, 209), (164, 656, 779, 0, 615, 1000, 0), (814, 0, 0, 0, 0, 0, 0)
        ),
        (2, (485, 31, 22)): (
            (627, 0, 29), (164, 656, 672, 0, 508, 595, 0), (1957, 0, 0, 0, 0, 0, 0)
        ),
        (2, (81, 294, 40)): (
            (602, 0, 54), (164, 656, 670, 0, 506, 558, 0), (1440, 0, 13, 0, 13, 0, 0)
        ),
        (4, None): (
            (447, 0, 209), (164, 656, 779, 0, 615, 1000, 0), (808, 0, 0, 0, 0, 0, 0)
        ),
        (4, (485, 31, 22)): (
            (620, 0, 36), (164, 656, 670, 0, 506, 588, 0), (1930, 0, 0, 0, 0, 0, 0)
        ),
        (4, (81, 294, 40)): (
            (604, 0, 52), (164, 656, 669, 0, 505, 554, 4), (1434, 0, 0, 0, 0, 0, 4)
        ),
    },
    "scalar": {
        **_DM,
        (2, None): (
            (447, 0, 209), (164, 656, 779, 615, 0, 391, 0), (814, 0, 0, 0, 0, 0, 0)
        ),
        (2, (485, 31, 22)): (
            (627, 0, 29), (164, 656, 672, 508, 0, 501, 0), (1923, 0, 0, 0, 0, 0, 0)
        ),
        (2, (81, 294, 40)): (
            (602, 0, 54), (164, 656, 670, 506, 0, 392, 0), (1445, 0, 13, 0, 13, 0, 0)
        ),
        (4, None): (
            (447, 0, 209), (164, 656, 779, 615, 0, 387, 0), (808, 0, 0, 0, 0, 0, 0)
        ),
        (4, (485, 31, 22)): (
            (620, 0, 36), (164, 656, 670, 506, 0, 490, 0), (1884, 0, 0, 0, 0, 0, 0)
        ),
        (4, (81, 294, 40)): (
            (604, 0, 52), (164, 656, 669, 505, 0, 385, 4), (1433, 0, 0, 0, 0, 0, 4)
        ),
    },
}
RUNG_ENV = {
    "batched": {"REPRO_BATCH_CASCADE": "1"},
    "scalar": {"REPRO_BATCH_CASCADE": "0"},
}


@pytest.mark.parametrize("rung", sorted(GOLDEN))
@pytest.mark.parametrize(
    "assoc", [1, 2, 4], ids=["8KB-dm", "8KB-2way", "8KB-4way"]
)
def test_mm500_solver_stats_are_pinned(monkeypatch, rung, assoc):
    for name, value in RUNG_ENV[rung].items():
        monkeypatch.setenv(name, value)
    nest = KERNELS["MM"].build(500)
    analyzer = LocalityAnalyzer(nest, CacheConfig(8 * 1024, 32, assoc), seed=0)
    try:
        for tiles in TILES:
            est = analyzer.estimate(tile_sizes=tiles)
            stats = dataclasses.asdict(est.solver_stats)
            tiers = stats.pop("congruence")
            got = (
                (est.hits, est.cold, est.replacement),
                tuple(stats.pop(f) for f in STAT_FIELDS),
                tuple(tiers.pop(t) for t in TIERS),
            )
            # No field escapes the pin.
            assert not stats and not tiers, (stats, tiers)
            assert got == GOLDEN[rung][assoc, tiles], (rung, assoc, tiles)
    finally:
        analyzer.close()


# assoc -> answer, summed STAT_FIELDS, summed TIERS, summed (hits, cold,
# replacement) and classify passes over the 62 estimates of one GA
# search, then its locksteps, (kernel calls, kernel boxes) and (cascade
# calls, frontier tree passes).  The kernel answers the small boxes of
# both geometries: the direct-mapped interval rounds' boxes, and at k
# ways the queries of the cascade's enumeration tier (its `enumerated`
# count less the nodes of its line frontier).  At 4 ways, 45 line counts
# span more candidate lines than `line_candidate_limit`: their `unknown`
# verdicts are charged to their own tilings in merged cascade calls.
SEARCH_GOLDEN = {
    1: (
        (485, 31, 22),
        (10168, 40672, 40672, 0, 30382, 31992, 2),
        (6, 0, 6, 69, 6, 0, 2),
        (34961, 0, 5711),
        5,
        (5, (39, 33876), (12, 1)),
    ),
    2: (
        (485, 31, 22),
        (10168, 40672, 43239, 0, 33071, 42477, 0),
        (84772, 0, 1175, 0, 1246, 0, 0),
        (34616, 0, 6056),
        5,
        (5, (140, 84343), (28, 70)),
    ),
    4: (
        (470, 31, 19),
        (10168, 40672, 43523, 0, 33355, 43901, 45),
        (86758, 0, 620, 0, 675, 0, 45),
        (34357, 0, 6315),
        5,
        (5, (140, 86501), (21, 28)),
    ),
}


@pytest.mark.parametrize(
    "assoc", [1, 2, 4], ids=["8KB-dm", "8KB-2way", "8KB-4way"]
)
def test_mm500_ga_search_work_is_pinned(monkeypatch, assoc):
    """Solver work of ``search_tiling(MM_500, "ga", budget=60, seed=0)``
    on the batched rung: the answer, every field and tier summed over
    the search's estimates, the summed outcome split, the classify
    passes, and how the passes grouped that work into calls.

    The last three count calls, not work: the locksteps (one per pass),
    the kernel's calls over its boxes and the batched cascade's calls
    and frontier tree passes.  They moved on purpose, over the same
    boxes, queries, verdicts and stats fields, when a pass began running
    all of its tilings in one lockstep and answering each cascade step
    of every tiling in one call: from 18 lockstep batches of four
    tilings, 161/260/263 kernel calls, 73/92/53 cascade calls and
    20/246/85 tree passes (DM/2-way/4-way).  Before the lockstep batches
    the direct-mapped kernel made 139 calls, and 453 before any merging.

    The direct-mapped work fell on purpose, with the same answer and
    outcome split, when a walk began ending at its first proven kill
    (every older source's interval holds the access that proved it):
    `sources_checked` 43,028 → 40,672 (one per pair), intervals 32,613
    → 30,382, boxes 41,086 → 31,992, `unknown_conservative` 18 → 2,
    tiers (20, 0, 28, 222, 33, 0, 21) → (6, 0, 6, 69, 6, 0, 2), kernel
    calls 71 over 40,970 boxes → 39 over 33,876, cascade calls 18 → 12
    and tree passes 6 → 1.  The k-way walks are untouched."""
    monkeypatch.setenv("REPRO_BATCH_CASCADE", "1")
    sums: collections.Counter = collections.Counter()
    finalize = solver.PointClassifier.finalize_stats

    def summing(self):
        stats = finalize(self)
        fields = dataclasses.asdict(stats)
        sums.update(fields.pop("congruence"))
        sums.update(fields)
        sums["estimates"] += 1
        return stats

    def counting(kernel):
        def count(first, *args):
            sums["kernel_calls"] += 1
            sums["kernel_boxes"] += len(first)
            return kernel(first, *args)

        return count

    def calls(name, fn):
        def call(*args, **kwargs):
            sums[name] += 1
            return fn(*args, **kwargs)

        return call

    estimate = sampling._estimate

    def splitting(*args):
        est = estimate(*args)
        sums.update(hits=est.hits, cold=est.cold, replacement=est.replacement)
        return est

    monkeypatch.setattr(solver.PointClassifier, "finalize_stats", summing)
    for name in ("boxes_interfere", "box_line_counts"):
        monkeypatch.setattr(solver, name, counting(getattr(solver, name)))
    monkeypatch.setattr(sampling, "_estimate", splitting)
    monkeypatch.setattr(
        sampling, "classify_codes", calls("passes", sampling.classify_codes)
    )
    monkeypatch.setattr(
        solver._Lockstep, "run", calls("locksteps", solver._Lockstep.run)
    )
    cascade = solver.BatchCascade
    for name in ("exists_interference_many", "count_interfering_lines_many"):
        spy = calls("cascade_calls", getattr(cascade, name))
        monkeypatch.setattr(cascade, name, spy)
    spy = calls("tree_passes", cascade._abs_tree)
    monkeypatch.setattr(cascade, "_abs_tree", spy)
    out = search_tiling(
        KERNELS["MM"].build(500), CacheConfig(8 * 1024, 32, assoc),
        strategy="ga", budget=60, seed=0,
    )
    assert sums.pop("estimates") == 62
    got = (
        out.tile_sizes,
        tuple(sums.pop(f) for f in STAT_FIELDS),
        tuple(sums.pop(t) for t in TIERS),
        tuple(sums.pop(o, 0) for o in ("hits", "cold", "replacement")),
        sums.pop("passes"),
        (
            sums.pop("locksteps"),
            (sums.pop("kernel_calls", 0), sums.pop("kernel_boxes", 0)),
            (sums.pop("cascade_calls", 0), sums.pop("tree_passes", 0)),
        ),
    )
    assert not sums, sums  # no field escapes the pin
    assert got == SEARCH_GOLDEN[assoc]
