"""The sampled model against the exact trace, access by access.

For each untiled nest, the 2,000-point seed-0 sample that
``LocalityAnalyzer(nest, cache, n_samples=2000, seed=0)`` draws is
classified with ``PointClassifier.classify_batch``; each (point,
reference) outcome is compared with the exact trace's outcome for the
same access.  A trace miss on a line's first touch is compulsory
(COLD), any other trace miss a replacement.  The tests pin the six
off-diagonal counts (model → trace) per kernel and geometry, so a
reuse-vector or solver change shows as counts moving.  The model is
never a HIT where the trace misses: an access it cannot prove reused
is counted as a miss.

Known causes of the nonzero counts: group reuse is found along one
loop variable only (JACOBI3D's COLD → HIT and COLD → REPL), and a
spatial source that is not the line's last touch (MM_48's REPL → HIT).
"""

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cme.sampling import sample_original_points
from repro.cme.solver import OUTCOMES, PointClassifier
from repro.ir.program import program_from_nest
from repro.kernels.registry import KERNELS
from repro.layout.memory import MemoryLayout
from repro.simulator.cachesim import compulsory_mask, simulate_trace
from repro.simulator.trace import ref_address_matrix

NAMES = tuple(o.name for o in OUTCOMES)  # COLD, HIT, REPLACEMENT by code
_COLD, _HIT, _REPL = (NAMES.index(n) for n in ("COLD", "HIT", "REPLACEMENT"))
OFF_DIAGONAL = tuple(
    (m, t) for m in ("HIT", "COLD", "REPLACEMENT")
    for t in ("HIT", "COLD", "REPLACEMENT") if m != t
)

GEOMETRIES = {"8KB-dm": CacheConfig(8 * 1024, 32, 1),
              "8KB-2way": CacheConfig(8 * 1024, 32, 2)}

#: Nonzero (model, trace) mismatch counts per (kernel, size, geometry);
#: every other off-diagonal pair is pinned at 0.
PINNED = {
    ("JACOBI3D", 40, "8KB-dm"): {("COLD", "HIT"): 454, ("COLD", "REPLACEMENT"): 533},
    ("JACOBI3D", 20, "8KB-dm"): {("COLD", "HIT"): 958},
    ("MM", 48, "8KB-dm"): {("REPLACEMENT", "HIT"): 67},
    ("ADI", 150, "8KB-dm"): {
        ("COLD", "HIT"): 35, ("COLD", "REPLACEMENT"): 8, ("REPLACEMENT", "HIT"): 5,
    },
    ("T2D", 150, "8KB-dm"): {("COLD", "HIT"): 7, ("COLD", "REPLACEMENT"): 7},
    ("T3DIKJ", 100, "8KB-dm"): {},
    ("T3DJIK", 100, "8KB-dm"): {},
    ("JACOBI3D", 40, "8KB-2way"): {
        ("COLD", "HIT"): 454, ("COLD", "REPLACEMENT"): 533, ("REPLACEMENT", "HIT"): 19,
    },
    ("JACOBI3D", 20, "8KB-2way"): {("COLD", "HIT"): 546, ("COLD", "REPLACEMENT"): 412},
    ("MM", 48, "8KB-2way"): {("REPLACEMENT", "HIT"): 64},
    ("ADI", 150, "8KB-2way"): {
        ("COLD", "HIT"): 35, ("COLD", "REPLACEMENT"): 8, ("REPLACEMENT", "HIT"): 11,
    },
    ("T2D", 150, "8KB-2way"): {
        ("COLD", "HIT"): 7, ("COLD", "REPLACEMENT"): 7, ("REPLACEMENT", "HIT"): 14,
    },
    ("T3DIKJ", 100, "8KB-2way"): {("REPLACEMENT", "HIT"): 14},
    ("T3DJIK", 100, "8KB-2way"): {},
}


def mismatch_counts(nest, cache, n_samples=2000, seed=0):
    """(model, trace) -> accesses, over every off-diagonal pair."""
    program = program_from_nest(nest)
    layout = MemoryLayout(nest.arrays())
    points = np.asarray(sample_original_points(nest, n_samples, seed), np.int64)
    model = np.array(
        [[OUTCOMES.index(o) for o in row]
         for row in PointClassifier(program, layout, cache).classify_batch(points)],
        dtype=np.int64,
    )
    addrs = ref_address_matrix(program, layout)
    flat = addrs.ravel()
    miss = simulate_trace(flat, cache).reshape(addrs.shape)
    first = compulsory_mask(flat, cache).reshape(addrs.shape)
    # An untiled nest runs in lexicographic order of its box, so a
    # point's trace row is its mixed-radix rank.
    lo = [loop.lower for loop in nest.loops]
    rank = np.ravel_multi_index(
        tuple((points - lo).T), tuple(loop.extent for loop in nest.loops)
    )
    assert (program.space.coordinate_matrix_lex()[rank] == points).all()
    trace = np.where(~miss[rank], _HIT, np.where(first[rank], _COLD, _REPL))
    table = np.bincount((model * 3 + trace).ravel(), minlength=9).reshape(3, 3)
    return {
        (m, t): int(table[NAMES.index(m), NAMES.index(t)]) for m, t in OFF_DIAGONAL
    }


@pytest.mark.parametrize(
    "kernel,size,geometry", list(PINNED), ids=[f"{k}_{n}-{g}" for k, n, g in PINNED]
)
def test_model_vs_trace_mismatches_are_pinned(kernel, size, geometry):
    got = mismatch_counts(KERNELS[kernel].build(size), GEOMETRIES[geometry])
    pinned = PINNED[(kernel, size, geometry)]
    assert got == {pair: pinned.get(pair, 0) for pair in OFF_DIAGONAL}
    assert got[("HIT", "COLD")] == got[("HIT", "REPLACEMENT")] == 0
