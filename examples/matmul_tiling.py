"""Matrix-multiply deep dive: CME analysis, GA search, validation.

Walks the full pipeline on MM:

1. reuse vectors of each reference (the §2.1 example);
2. untiled locality analysis (sampled CMEs vs exact simulation at a
   small validation size);
3. GA tile search at the paper's size (N = 500);
4. generated Fortran for the chosen tiling (Fig. 3 shape).

Run:  python examples/matmul_tiling.py
"""

from repro import CACHE_8KB_DM, LocalityAnalyzer, kernels, search_tiling
from repro.ir.codegen import fortran_source
from repro.layout.memory import MemoryLayout
from repro.reuse.vectors import compute_reuse_candidates


def show_reuse_vectors(nest) -> None:
    layout = MemoryLayout(nest.arrays())
    cands = compute_reuse_candidates(nest, layout, CACHE_8KB_DM.line_size)
    print("reuse vector candidates (per reference):")
    for ref in nest.refs:
        vecs = ", ".join(
            f"{c.vector}[{c.kind[:6]}]" for c in cands[ref.position][:4]
        )
        print(f"  {ref!r:24s} {vecs}")
    print()


def validate_small() -> None:
    nest = kernels.make_mm(48)
    analyzer = LocalityAnalyzer(nest, CACHE_8KB_DM, seed=0)
    est = analyzer.estimate()
    sim = analyzer.simulate()
    print(f"validation at N=48: CME {est.miss_ratio:.2%} (±{est.ci_halfwidth():.2%})"
          f" vs simulator {sim.miss_ratio:.2%}\n")


def main() -> None:
    nest = kernels.make_mm(500)
    show_reuse_vectors(nest)
    validate_small()

    result = search_tiling(nest, CACHE_8KB_DM, seed=0, seed_baselines=True)
    print(result.summary())
    print("\ntiled source (Fig. 3 shape):\n")
    print(fortran_source(nest, tile_sizes=result.tile_sizes))


if __name__ == "__main__":
    main()
