"""Quickstart: near-optimal tiling of matrix multiply in ~20 lines.

Builds the paper's Fig. 1 kernel, estimates its miss ratio on the
evaluation cache (8KB direct-mapped, 32-byte lines), runs the GA tile
search, and prints the before/after comparison — the §6 headline result
(a factor ≈7 reduction of the miss ratio for MM).

Run:  python examples/quickstart.py
"""

from repro import CACHE_8KB_DM, kernels, search_tiling


def main() -> None:
    nest = kernels.make_mm(500)  # a(i,j) += b(i,k) * c(k,j)
    print(f"kernel: {nest.name} — {nest.description}")
    print(f"cache:  {CACHE_8KB_DM}\n")

    result = search_tiling(nest, CACHE_8KB_DM, seed=0, seed_baselines=True)

    before, after = result.before, result.after
    print(f"tile sizes found: {result.tile_sizes}")
    print(f"miss ratio:        {before.miss_ratio:7.2%} -> {after.miss_ratio:7.2%}")
    print(
        f"replacement ratio: {before.replacement_ratio:7.2%} -> "
        f"{after.replacement_ratio:7.2%}"
    )
    if after.miss_ratio > 0:
        print(f"miss-ratio reduction factor: "
              f"{before.miss_ratio / after.miss_ratio:.1f}x")
    search = result.search
    print(
        f"\nGA: {search.strategy_ref.generations} generations, "
        f"{search.consumed} evaluations "
        f"({search.distinct_evaluations} distinct after memoisation)"
    )


if __name__ == "__main__":
    main()
