"""The §5 analytical selectors' tiles on every figure instance.

The GA of Figures 8 and 9 seeds its first population with these tiles
(``baseline_seed_tiles``), so a selector that moves changes every
figure.  Each instance pins the four selectors at 8KB and 32KB
direct-mapped; the spy pins Sarkar–Megiddo's symbolic work (one
address expression per reference, not one per grid tile).
"""

import pytest

from repro.baselines.ghosh_cme import ghosh_cme_tiles
from repro.baselines.lrw import lrw_tiles
from repro.baselines.sarkar_megiddo import sarkar_megiddo_tiles
from repro.baselines.tss import coleman_mckinley_tiles
from repro.cache.config import CACHE_8KB_DM, CACHE_32KB_DM
from repro.kernels.registry import FIGURE_INSTANCES, KERNELS
from repro.layout.memory import MemoryLayout

SELECTORS = (lrw_tiles, coleman_mckinley_tiles, sarkar_megiddo_tiles, ghosh_cme_tiles)

#: (lrw, tss, sarkar-megiddo, ghosh) tiles per instance: at 8KB DM,
#: then at 32KB DM.
PINNED = {
    ("T2D", 100): (
        ((22, 22), (10, 100), (4, 4), (10, 10)),
        ((45, 45), (40, 100), (4, 4), (40, 40)),
    ),
    ("T2D", 500): (
        ((22, 22), (2, 500), (4, 4), (2, 2)),
        ((45, 45), (8, 500), (4, 4), (8, 8)),
    ),
    ("T2D", 2000): (
        ((22, 22), (1, 976), (4, 4), (64, 64)),
        ((45, 45), (2, 2000), (4, 4), (2, 2)),
    ),
    ("T3DJIK", 20): (
        ((20, 20, 20), (20, 20, 20), (4, 1, 4), (2, 2, 20)),
        ((20, 20, 20), (20, 20, 20), (4, 1, 4), (10, 10, 20)),
    ),
    ("T3DJIK", 100): (
        ((100, 22, 22), (100, 10, 100), (4, 1, 4), (64, 10, 10)),
        ((100, 45, 45), (100, 40, 100), (4, 1, 4), (100, 40, 40)),
    ),
    ("T3DJIK", 200): (
        ((200, 22, 22), (200, 5, 200), (4, 1, 4), (16, 5, 5)),
        ((200, 45, 45), (200, 20, 200), (4, 1, 4), (64, 20, 20)),
    ),
    ("T3DIKJ", 20): (
        ((20, 20, 20), (20, 20, 20), (1, 4, 4), (2, 2, 20)),
        ((20, 20, 20), (20, 20, 20), (1, 4, 4), (10, 10, 20)),
    ),
    ("T3DIKJ", 100): (
        ((100, 22, 22), (100, 10, 100), (1, 4, 4), (10, 64, 10)),
        ((100, 45, 45), (100, 40, 100), (1, 4, 4), (40, 100, 40)),
    ),
    ("T3DIKJ", 200): (
        ((200, 22, 22), (200, 5, 200), (1, 4, 4), (5, 16, 5)),
        ((200, 45, 45), (200, 20, 200), (1, 4, 4), (20, 64, 20)),
    ),
    ("JACOBI3D", 20): (
        ((18, 18, 18), (18, 18, 4), (1, 1, 4), (2, 18, 18)),
        ((18, 18, 18), (18, 18, 16), (1, 1, 4), (10, 18, 18)),
    ),
    ("JACOBI3D", 100): (
        ((98, 22, 22), (98, 7, 24), (1, 1, 4), (64, 10, 98)),
        ((98, 45, 45), (98, 7, 96), (1, 1, 4), (98, 40, 98)),
    ),
    ("JACOBI3D", 200): (
        ((198, 22, 22), (198, 7, 24), (1, 1, 4), (16, 5, 198)),
        ((198, 45, 45), (198, 7, 96), (1, 1, 4), (64, 20, 198)),
    ),
    ("MATMUL", 100): (
        ((8, 22, 22), (8, 3, 100), (8, 16, 32), (8, 100, 10)),
        ((8, 45, 45), (8, 13, 100), (8, 32, 100), (8, 100, 40)),
    ),
    ("MATMUL", 500): (
        ((8, 22, 22), (8, 1, 500), (8, 16, 32), (8, 500, 2)),
        ((8, 45, 45), (8, 2, 500), (8, 32, 64), (8, 500, 8)),
    ),
    ("MATMUL", 2000): (
        ((8, 22, 22), (8, 1, 976), (8, 16, 32), (8, 1024, 64)),
        ((8, 45, 45), (8, 1, 2000), (8, 32, 64), (8, 2000, 2)),
    ),
    ("MM", 100): (
        ((100, 22, 22), (100, 3, 100), (8, 16, 32), (100, 10, 10)),
        ((100, 45, 45), (100, 13, 100), (16, 32, 64), (100, 40, 40)),
    ),
    ("MM", 500): (
        ((500, 22, 22), (500, 1, 500), (8, 16, 32), (500, 2, 2)),
        ((500, 45, 45), (500, 2, 500), (16, 32, 64), (500, 8, 8)),
    ),
    ("MM", 2000): (
        ((2000, 22, 22), (2000, 1, 976), (8, 16, 32), (1024, 64, 64)),
        ((2000, 45, 45), (2000, 1, 2000), (16, 32, 64), (2000, 2, 2)),
    ),
    ("ADI", 100): (
        ((22, 22), (2, 100), (4, 4), (10, 10)),
        ((45, 45), (8, 100), (4, 4), (40, 40)),
    ),
    ("ADI", 500): (
        ((22, 22), (1, 500), (4, 4), (2, 2)),
        ((45, 45), (1, 500), (4, 4), (8, 8)),
    ),
    ("ADI", 2000): (
        ((22, 22), (1, 976), (4, 4), (64, 64)),
        ((45, 45), (1, 2000), (4, 4), (2, 2)),
    ),
    ("ADD", 64): (
        ((64, 64, 22, 5), (64, 64, 64, 5), (1, 1, 1, 4), (1, 3, 64, 5)),
        ((64, 64, 45, 5), (64, 64, 64, 5), (1, 1, 1, 4), (1, 12, 64, 5)),
    ),
    ("BTRIX", 64): (
        ((30, 22, 22), (30, 3, 64), (30, 1, 4), (1, 8, 64)),
        ((30, 45, 45), (30, 12, 64), (30, 1, 4), (1, 32, 64)),
    ),
    ("VPENTA2", 128): (
        ((22, 22), (128, 1), (1, 4), (8, 126)),
        ((45, 45), (128, 1), (1, 4), (32, 126)),
    ),
    ("DPSSB", 256): (
        ((256, 22, 22), (256, 1, 241), (8, 16, 32), (8, 60, 3)),
        ((256, 45, 45), (256, 7, 181), (16, 32, 64), (34, 60, 15)),
    ),
    ("DRADBG1", 100): (
        ((6, 22, 22), (6, 3, 100), (1, 62, 4), (6, 1, 100)),
        ((6, 45, 45), (6, 13, 100), (1, 62, 4), (6, 5, 100)),
    ),
    ("DRADFG1", 100): (
        ((6, 22, 22), (6, 3, 100), (1, 62, 4), (6, 1, 100)),
        ((6, 45, 45), (6, 13, 100), (1, 62, 4), (6, 5, 100)),
    ),
}


@pytest.mark.parametrize(
    "name,size", FIGURE_INSTANCES, ids=[f"{n}_{s}" for n, s in FIGURE_INSTANCES]
)
def test_selector_tiles_are_pinned(name, size):
    nest = KERNELS[name].build(size)
    for cache, pinned in zip((CACHE_8KB_DM, CACHE_32KB_DM), PINNED[(name, size)]):
        assert tuple(tuple(fn(nest, cache)) for fn in SELECTORS) == pinned


def test_sarkar_megiddo_builds_one_address_per_reference(monkeypatch):
    calls = []
    real = MemoryLayout.address_expr

    def spy(self, ref):
        calls.append(ref)
        return real(self, ref)

    monkeypatch.setattr(MemoryLayout, "address_expr", spy)
    nest = KERNELS["JACOBI3D"].build(100)
    assert sarkar_megiddo_tiles(nest, CACHE_8KB_DM) == PINNED[("JACOBI3D", 100)][0][2]
    assert calls == list(nest.refs)
