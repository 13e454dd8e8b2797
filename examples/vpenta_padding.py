"""Conflict misses and padding: the VPENTA story (§4.3, Table 3).

VPENTA's eight power-of-two arrays alias set-for-set in a direct-mapped
cache, so tiling alone cannot help — the misses are conflicts, not
capacity.  The paper's answer is a GA search over padding parameters
(inter-array base shifts + intra-array leading-dimension pads),
followed by tiling on the padded layout.  This example reproduces that
pipeline and also runs the paper's stated future work: the single-step
joint padding+tiling search.

Run:  python examples/vpenta_padding.py
"""

from repro import (
    CACHE_8KB_DM,
    kernels,
    optimize_joint_padding_tiling,
    optimize_padding_then_tiling,
    search_tiling,
)


def main() -> None:
    nest = kernels.make_vpenta1(128)
    print(f"kernel: {nest.name} — {nest.description}\n")

    tiling_only = search_tiling(nest, CACHE_8KB_DM, seed=0, seed_baselines=True)
    print(f"tiling only:      repl {tiling_only.before.replacement_ratio:7.2%} -> "
          f"{tiling_only.after.replacement_ratio:7.2%}   (conflicts survive)")

    seq = optimize_padding_then_tiling(nest, CACHE_8KB_DM, seed=0)
    print(f"padding:          repl {seq.before.replacement_ratio:7.2%} -> "
          f"{seq.after_padding.replacement_ratio:7.2%}")
    print(f"padding + tiling: repl -> "
          f"{seq.after_padding_tiling.replacement_ratio:7.2%}")
    print(f"  inter-array pads (elements): {seq.padding.inter}")
    if seq.padding.intra:
        print(f"  intra-array pads: {seq.padding.intra}")

    joint = optimize_joint_padding_tiling(nest, CACHE_8KB_DM, seed=0)
    print(f"joint search (paper's future work): repl -> "
          f"{joint.after_padding_tiling.replacement_ratio:7.2%} "
          f"with tiles {joint.tile_sizes}")


if __name__ == "__main__":
    main()
