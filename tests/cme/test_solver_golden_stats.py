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
_DM = {
    (1, None): (
        (450, 0, 206), (164, 656, 777, 0, 609, 982, 1), (0, 0, 0, 0, 0, 0, 1)
    ),
    (1, (485, 31, 22)): (
        (631, 0, 25), (164, 656, 673, 0, 505, 590, 0), (0, 0, 0, 0, 0, 0, 0)
    ),
    (1, (81, 294, 40)): (
        (595, 0, 61), (164, 656, 676, 0, 508, 570, 0), (0, 0, 0, 0, 0, 0, 0)
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


# assoc -> summed STAT_FIELDS, summed TIERS, (kernel calls, kernel boxes),
# summed (hits, cold, replacement) over the 62 estimates of one GA search
# (answer (485, 31, 22)), and its classify passes.  The kernel answers
# the small boxes of both geometries: the direct-mapped interval rounds'
# boxes, and on 2-way the 84,343 queries of the cascade's enumeration
# tier (its `enumerated` count less the 429 nodes of its line frontier).
SEARCH_GOLDEN = {
    1: (
        (10168, 40672, 43028, 0, 32613, 41086, 18),
        (20, 0, 28, 222, 33, 0, 21),
        (161, 40970),
        (34961, 0, 5711),
        5,
    ),
    2: (
        (10168, 40672, 43239, 0, 33071, 42477, 0),
        (84772, 0, 1175, 0, 1246, 0, 0),
        (260, 84343),
        (34616, 0, 6056),
        5,
    ),
}


@pytest.mark.parametrize("assoc", [1, 2], ids=["8KB-dm", "8KB-2way"])
def test_mm500_ga_search_work_is_pinned(monkeypatch, assoc):
    """Solver work of ``search_tiling(MM_500, "ga", budget=60, seed=0)``
    on the batched rung: every field and tier summed over the search's
    estimates, the kernel's calls and boxes, the summed outcome split
    and the number of classify passes.

    The direct-mapped call count moved from 139 to 161 over the same
    40,970 boxes when classify passes began running their tilings in
    lockstep batches of four: a batch's rounds end with its slowest
    tiling, where the earlier merge admitted the next tiling as soon as
    one finished (453 calls before any merging).  It counts calls, not
    work: every box, verdict and stats field is unchanged."""
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

    estimate = sampling._estimate

    def splitting(*args):
        est = estimate(*args)
        sums.update(hits=est.hits, cold=est.cold, replacement=est.replacement)
        return est

    classify = sampling.classify_codes

    def passing(*args):
        sums["passes"] += 1
        return classify(*args)

    monkeypatch.setattr(solver.PointClassifier, "finalize_stats", summing)
    for name in ("boxes_interfere", "box_line_counts"):
        monkeypatch.setattr(solver, name, counting(getattr(solver, name)))
    monkeypatch.setattr(sampling, "_estimate", splitting)
    monkeypatch.setattr(sampling, "classify_codes", passing)
    out = search_tiling(
        KERNELS["MM"].build(500), CacheConfig(8 * 1024, 32, assoc),
        strategy="ga", budget=60, seed=0,
    )
    assert out.tile_sizes == (485, 31, 22)
    assert sums.pop("estimates") == 62
    got = (
        tuple(sums.pop(f) for f in STAT_FIELDS),
        tuple(sums.pop(t) for t in TIERS),
        (sums.pop("kernel_calls", 0), sums.pop("kernel_boxes", 0)),
        tuple(sums.pop(o, 0) for o in ("hits", "cold", "replacement")),
        sums.pop("passes"),
    )
    assert not sums, sums  # no field escapes the pin
    assert got == SEARCH_GOLDEN[assoc]
