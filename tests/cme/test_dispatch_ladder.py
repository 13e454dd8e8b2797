"""The cascade dispatch ladder: compiled → batched-numpy → scalar.

Every rung must be forcible (knob or kwarg) and every rung must
produce identical classification outcomes and identical cascade-level
tier attribution — the ladder trades wall-clock only.  These tests
force each rung explicitly, the way an operator would.
"""

import numpy as np

from repro.cache.config import CacheConfig
from repro.cme.solver import PointClassifier
from repro.layout.memory import MemoryLayout
from repro.polyhedra.box import Box
from repro.polyhedra.cascade import CompiledCascade, verdicts_to_py
from repro.polyhedra.congruence import CongruenceTester
from repro.transform.tiling import tile_program
from tests.conftest import make_small_mm

CACHE = CacheConfig(2048, 32, 2)


def _classify_all(monkeypatch, batch_env, compiled_env):
    # None means the knob's default, whatever the calling environment
    # sets (the scalar-fallback lane exports REPRO_BATCH_CASCADE=0).
    for name, value in (
        ("REPRO_BATCH_CASCADE", batch_env),
        ("REPRO_COMPILED_CASCADE", compiled_env),
    ):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
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
    """REPRO_BATCH_CASCADE / REPRO_COMPILED_CASCADE walk the ladder."""
    tier_default, out_default = _classify_all(monkeypatch, None, None)
    tier_batched, out_batched = _classify_all(monkeypatch, None, "0")
    tier_scalar, out_scalar = _classify_all(monkeypatch, "0", None)
    assert tier_default == "compiled"
    assert tier_batched == "batched"
    assert tier_scalar == "scalar"
    assert out_default == out_batched == out_scalar


def test_compiled_rung_needs_the_batched_rung(monkeypatch):
    """The ladder is layered: no batching ⇒ no compiled engine either,
    even with REPRO_COMPILED_CASCADE explicitly on."""
    monkeypatch.setenv("REPRO_COMPILED_CASCADE", "1")
    tier, _ = _classify_all(monkeypatch, "0", None)
    assert tier == "scalar"


def test_kwargs_override_environment(monkeypatch):
    monkeypatch.setenv("REPRO_BATCH_CASCADE", "1")
    monkeypatch.setenv("REPRO_COMPILED_CASCADE", "1")
    nest = make_small_mm(12)
    layout = MemoryLayout(nest.arrays())
    prog = tile_program(nest, (6, 6, 6))
    assert PointClassifier(
        prog, layout, CACHE, compiled_cascade=False
    ).cascade_tier == "batched"
    assert PointClassifier(
        prog, layout, CACHE, batch_cascade=False
    ).cascade_tier == "scalar"
    assert PointClassifier(prog, layout, CACHE).cascade_tier == "compiled"


def _ladder_queries():
    rng = np.random.default_rng(11)
    coeffs, const, m, line = (40, 512, 4), 64, 2048, 32
    n = 400
    lo = rng.integers(-4, 30, size=(n, 3))
    hi = lo + rng.integers(1, 90, size=(n, 3)) - 1
    wlo = (rng.integers(0, m, size=n) // line) * line
    line0 = wlo + rng.integers(-3, 30, size=n) * m
    return coeffs, const, m, line, lo, hi, wlo, line0


def test_table_kernels_are_bit_identical():
    """The compiled rung's table kernels give the scalar tester's
    verdicts and tier attribution."""
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
    cascade = CompiledCascade(coeffs, const, m, line, tester)
    got = verdicts_to_py(cascade.exists_interference_many(lo, hi, wlo, line0))
    assert got == expected
    assert tester.stats.as_dict() == scalar.stats.as_dict()
