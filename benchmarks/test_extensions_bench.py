"""Benchmarks for the implemented extensions.

* §2.2's set-associative CME path (the paper defines it but evaluates
  only direct-mapped caches);
* §4.3's future work: joint padding+tiling search vs the sequential
  Table 3 pipeline.
"""

from benchmarks.conftest import bench_config, publish
from repro.cache.config import CACHE_8KB_DM
from repro.experiments.associativity import format_associativity, run_associativity
from repro.experiments.common import format_table, paper_search, pct
from repro.ga.padding_search import (
    optimize_joint_padding_tiling,
    optimize_padding_then_tiling,
)
from repro.kernels.registry import get_kernel


def test_associativity_extension(benchmark):
    cfg = bench_config()
    rows = benchmark.pedantic(
        run_associativity,
        kwargs={"config": cfg, "kernels": [("MM", 500), ("VPENTA1", 128)]},
        rounds=1,
        iterations=1,
    )
    publish("associativity", format_associativity(rows))
    by = {(r.label, r.associativity): r for r in rows}
    # VPENTA's same-iteration conflicts involve ~6 colliding references:
    # 2 ways absorb some, tiling+associativity the rest; the k-way model
    # must at least never *increase* the tiled ratio vs untiled.
    for r in rows:
        assert r.repl_tiling <= r.repl_no_tiling + 0.02


def test_selection_scheme_ablation(benchmark):
    """Paper's remainder stochastic selection vs tournament + elitism."""
    from dataclasses import replace

    cfg = bench_config()
    nest = get_kernel("MM", 500)

    def run_all():
        out = {}
        for label, ga in (
            ("remainder (paper)", cfg.ga),
            ("tournament", replace(cfg.ga, selection="tournament")),
            ("remainder + elitism", replace(cfg.ga, elitism=True)),
        ):
            res = paper_search(nest, CACHE_8KB_DM, cfg, ga=ga,
                               seed_baselines=False)
            out[label] = res.after.replacement_ratio
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    publish(
        "ablation_selection",
        format_table(
            "Selection-scheme ablation on MM_500 (8KB DM, random init)",
            ["Scheme", "Replacement after"],
            [[k, pct(v)] for k, v in results.items()],
        ),
    )
    for v in results.values():
        assert v < 0.31  # all schemes beat the 31% untiled baseline


def test_two_level_hierarchy_extension(benchmark):
    """L1-chosen tiles evaluated through an L1→L2 hierarchy."""
    from repro.cache.config import CacheConfig
    from repro.ir.program import program_from_nest
    from repro.layout.memory import MemoryLayout
    from repro.simulator.hierarchy import simulate_hierarchy
    from repro.transform.tiling import tile_program

    nest = get_kernel("MM", 64)
    layout = MemoryLayout(nest.arrays())
    l1 = CacheConfig(8 * 1024, 32, 1)
    l2 = CacheConfig(64 * 1024, 32, 1)

    def run_both():
        untiled = simulate_hierarchy(program_from_nest(nest), layout, l1, l2)
        tiled = simulate_hierarchy(
            tile_program(nest, (16, 16, 16)), layout, l1, l2
        )
        return untiled, tiled

    untiled, tiled = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = [
        ["untiled", pct(untiled.l1_miss_ratio), pct(untiled.l2_global_miss_ratio),
         f"{untiled.amat():.2f}"],
        ["tiled 16³", pct(tiled.l1_miss_ratio), pct(tiled.l2_global_miss_ratio),
         f"{tiled.amat():.2f}"],
    ]
    publish(
        "hierarchy",
        format_table(
            "Two-level hierarchy on MM_64 (8KB L1 → 64KB L2, exact simulation)",
            ["Config", "L1 miss", "L2 global miss", "AMAT (cycles)"],
            rows,
        ),
    )
    assert tiled.amat() <= untiled.amat() + 0.5


def test_joint_vs_sequential_padding_tiling(benchmark):
    """The paper's future work (§4.3): one-step padding+tiling search."""
    cfg = bench_config()
    nest = get_kernel("ADI", 1000)

    def run_both():
        seq = optimize_padding_then_tiling(
            nest, CACHE_8KB_DM, config=cfg.ga, seed=cfg.seed
        )
        joint = optimize_joint_padding_tiling(
            nest, CACHE_8KB_DM, config=cfg.ga, seed=cfg.seed
        )
        return seq, joint

    seq, joint = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = [
        ["sequential (Table 3)", pct(seq.before.replacement_ratio),
         pct(seq.after_padding.replacement_ratio),
         pct(seq.after_padding_tiling.replacement_ratio)],
        ["joint genotype (future work)", pct(joint.before.replacement_ratio),
         "-", pct(joint.after_padding_tiling.replacement_ratio)],
    ]
    publish(
        "joint_padding_tiling",
        format_table(
            "Sequential vs joint padding+tiling on ADI_1000 (8KB DM)",
            ["Pipeline", "Original", "Padding", "Final"],
            rows,
        ),
    )
    assert seq.after_padding_tiling.replacement_ratio < seq.before.replacement_ratio
    assert joint.after_padding_tiling.replacement_ratio < joint.before.replacement_ratio
