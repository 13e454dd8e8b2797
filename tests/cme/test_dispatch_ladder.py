"""The cascade dispatch ladder: batched-numpy → scalar.

Both rungs must be forcible (knob or kwarg) and must produce identical
classification outcomes and identical cascade-level tier attribution —
the ladder trades wall-clock only.  These tests force each rung
explicitly, the way an operator would.
"""

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cme.sampling import sample_original_points
from repro.cme.solver import Outcome, PointClassifier
from repro.kernels.registry import KERNELS, get_kernel
from repro.layout.memory import MemoryLayout
from repro.polyhedra.box import Box
from repro.polyhedra.cascade import BatchCascade, verdicts_to_py
from repro.polyhedra.congruence import CongruenceTester
from repro.transform.tiling import tile_program
from tests.conftest import make_small_mm

CACHE = CacheConfig(2048, 32, 2)


def _classify_all(monkeypatch, batch_env):
    # None means the knob's default, whatever the calling environment
    # sets (the scalar-fallback lane exports REPRO_BATCH_CASCADE=0).
    if batch_env is None:
        monkeypatch.delenv("REPRO_BATCH_CASCADE", raising=False)
    else:
        monkeypatch.setenv("REPRO_BATCH_CASCADE", batch_env)
    nest = make_small_mm(12)
    layout = MemoryLayout(nest.arrays())
    prog = tile_program(nest, (4, 6, 6))
    pc = PointClassifier(prog, layout, CACHE)
    pts = [
        prog.point_map.from_original((i, j, k))
        for i, j, k in [(0, 0, 0), (3, 4, 5), (11, 11, 11), (6, 1, 9)]
    ]
    return pc.cascade_tier, pc.classify_batch(pts)


def test_env_knobs_select_every_rung(monkeypatch):
    """REPRO_BATCH_CASCADE walks the ladder."""
    tier_default, out_default = _classify_all(monkeypatch, None)
    tier_scalar, out_scalar = _classify_all(monkeypatch, "0")
    assert tier_default == "batched"
    assert tier_scalar == "scalar"
    assert out_default == out_scalar


def test_kwargs_override_environment(monkeypatch):
    monkeypatch.setenv("REPRO_BATCH_CASCADE", "1")
    nest = make_small_mm(12)
    layout = MemoryLayout(nest.arrays())
    prog = tile_program(nest, (6, 6, 6))
    assert PointClassifier(
        prog, layout, CACHE, batch_cascade=False
    ).cascade_tier == "scalar"
    assert PointClassifier(prog, layout, CACHE).cascade_tier == "batched"
    monkeypatch.setenv("REPRO_BATCH_CASCADE", "0")
    assert PointClassifier(
        prog, layout, CACHE, batch_cascade=True
    ).cascade_tier == "batched"


def _ladder_queries():
    rng = np.random.default_rng(11)
    coeffs, const, m, line = (40, 512, 4), 64, 2048, 32
    n = 400
    lo = rng.integers(-4, 30, size=(n, 3))
    hi = lo + rng.integers(1, 90, size=(n, 3)) - 1
    wlo = (rng.integers(0, m, size=n) // line) * line
    line0 = wlo + rng.integers(-3, 30, size=n) * m
    return coeffs, const, m, line, lo, hi, wlo, line0


def test_batched_rung_is_bit_identical():
    """The batched rung's cascade gives the scalar tester's verdicts
    and tier attribution under tight budgets."""
    coeffs, const, m, line, lo, hi, wlo, line0 = _ladder_queries()
    budgets = {"enum_limit": 64, "partial_limit": 128,
               "line_candidate_limit": 8, "abs_search_budget": 16}
    scalar = CongruenceTester(**budgets)
    expected = [
        scalar.exists_interference(
            coeffs, const, Box(tuple(lo[i]), tuple(hi[i])),
            m, int(wlo[i]), line, int(line0[i]),
        )
        for i in range(len(lo))
    ]
    tester = CongruenceTester(**budgets)
    cascade = BatchCascade(coeffs, const, m, line, tester)
    got = verdicts_to_py(cascade.exists_interference_many(lo, hi, wlo, line0))
    assert got == expected
    assert tester.stats.as_dict() == scalar.stats.as_dict()


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_rungs_agree_on_every_table1_kernel(name):
    """Each Table 1 kernel at its smallest size, tiled to a third of
    every loop, at 8KB direct-mapped, 2-way and 4-way: both rungs'
    `classify_batch` give the outcomes of per-point `classify_point`
    and do the same work (points, reference tests, sources)."""
    nest = get_kernel(name, KERNELS[name].sizes[0])
    layout = MemoryLayout(nest.arrays())
    prog = tile_program(nest, tuple(max(1, lp.extent // 3) for lp in nest.loops))
    pm = prog.point_map
    mapped = [pm.from_original(p) for p in sample_original_points(nest, 40, 5)]
    replacements = 0
    for ways in (1, 2, 4):
        cache = CacheConfig(8 * 1024, 32, ways)
        expected = [
            PointClassifier(prog, layout, cache).classify_point(p)
            for p in mapped
        ]
        rungs = [
            PointClassifier(prog, layout, cache, batch_cascade=flag)
            for flag in (True, False)
        ]
        assert [pc.cascade_tier for pc in rungs] == ["batched", "scalar"]
        for pc in rungs:
            assert pc.classify_batch(mapped) == expected, (ways, pc.cascade_tier)
        batched, scalar = (pc.stats for pc in rungs)
        assert batched.points == scalar.points == len(mapped)
        assert batched.ref_tests == scalar.ref_tests
        assert batched.sources_checked == scalar.sources_checked
        replacements += sum(o.count(Outcome.REPLACEMENT) for o in expected)
    assert replacements > 0
