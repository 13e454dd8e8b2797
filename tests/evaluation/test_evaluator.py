"""Shared evaluation layer: memoisation, batching, parallel fan-out.

The load-bearing property is the equivalence contract of
:mod:`repro.evaluation`: ``workers`` may change wall-clock time but
never a result.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cache.config import CacheConfig
from repro.evaluation import BatchObjective, Evaluator, as_batch_objective
from repro.evaluation.batch import guided_grab
from repro.ga.engine import GAConfig
from repro.search import GAStrategy, run_search, search_tiling
from repro.search.tiling import tiling_genome
from tests.conftest import make_small_mm

CACHE = CacheConfig(1024, 32, 1)
QUICK = GAConfig(population_size=8, min_generations=3, max_generations=4, seed=0)


def _square(values):
    """Module-level (picklable) objective for worker tests."""
    return float(sum(v * v for v in values))


def test_evaluator_memoises_and_counts():
    calls = []

    def fn(values):
        calls.append(values)
        return float(values[0])

    ev = Evaluator(fn)
    assert ev((3,)) == 3.0
    assert ev((3,)) == 3.0
    assert ev((4,)) == 4.0
    assert ev.calls == 3
    assert ev.distinct_evaluations == 2
    assert calls == [(3,), (4,)]


def test_evaluate_batch_dedups_and_preserves_order():
    calls = []

    def fn(values):
        calls.append(values)
        return float(values[0])

    ev = Evaluator(fn)
    out = ev.evaluate_batch([(5,), (2,), (5,), (2,), (7,)])
    assert out.tolist() == [5.0, 2.0, 5.0, 2.0, 7.0]
    assert calls == [(5,), (2,), (7,)]  # distinct, first-appearance order
    assert ev.calls == 5
    assert ev.distinct_evaluations == 3
    # A second batch reuses the cache entirely.
    out2 = ev.evaluate_batch([(2,), (5,)])
    assert out2.tolist() == [2.0, 5.0]
    assert len(calls) == 3


def test_parallel_batch_matches_serial():
    serial = Evaluator(_square, workers=1)
    with Evaluator(_square, workers=4) as parallel:
        batch = [(i % 5, i % 3) for i in range(20)]
        a = serial.evaluate_batch(batch)
        b = parallel.evaluate_batch(batch)
    assert a.tolist() == b.tolist()
    assert not parallel.parallel_fallback
    assert serial.distinct_evaluations == parallel.distinct_evaluations


def test_unpicklable_objective_falls_back_to_serial():
    with Evaluator(lambda v: float(v[0]), workers=4) as ev:
        out = ev.evaluate_batch([(1,), (2,)])
    assert out.tolist() == [1.0, 2.0]
    assert ev.parallel_fallback


def test_workers_validation():
    with pytest.raises(ValueError):
        Evaluator(_square, workers=0)


def test_as_batch_objective_passthrough_and_wrap():
    ev = Evaluator(_square)
    assert as_batch_objective(ev) is ev
    wrapped = as_batch_objective(_square)
    assert isinstance(wrapped, Evaluator)
    assert isinstance(ev, BatchObjective)
    assert wrapped((2, 2)) == 8.0


def test_ga_engine_uses_batch_hook():
    """The GA hands whole populations to evaluate_batch."""
    batches = []

    class Spy(Evaluator):
        def evaluate_batch(self, batch):
            batches.append(list(batch))
            return super().evaluate_batch(batch)

    genome = tiling_genome(make_small_mm(8))
    spy = Spy(_square)
    ga = GAStrategy(genome, QUICK)
    res = run_search(ga, spy)
    assert batches, "evaluate_batch never called"
    assert all(len(b) == QUICK.population_size for b in batches)
    assert res.consumed == ga.generations * QUICK.population_size
    assert res.distinct_evaluations == spy.distinct_evaluations


def test_ga_parallel_equals_serial_on_mm():
    """Same seeds → same best_values/best_objective for any workers."""
    nest = make_small_mm(16)
    r1, r4 = (
        search_tiling(
            nest, CACHE, ga_config=QUICK, seed=3, workers=workers,
            seed_baselines=True,
        )
        for workers in (1, 4)
    )
    assert r1.tile_sizes == r4.tile_sizes
    assert r1.search.best_objective == r4.search.best_objective
    assert r1.search.strategy_ref.history == r4.search.strategy_ref.history
    assert r1.search.distinct_evaluations == r4.search.distinct_evaluations


def test_close_is_idempotent():
    ev = Evaluator(_square, workers=2)
    ev.evaluate_batch([(1,), (2,)])
    ev.close()
    ev.close()
    # the evaluator still answers after close (cache + serial path)
    assert ev((9,)) == 81.0


def test_pool_wave_matches_serial_values():
    """Process-pool fan-out is a pure wall-clock optimisation: values,
    order and cache contents are identical to the serial path."""
    batch = [(i, i + 1) for i in range(16)]
    serial = Evaluator(_square)
    parallel = Evaluator(_square, workers=2)
    try:
        a = serial.evaluate_batch(batch)
        b = parallel.evaluate_batch(batch)
        assert np.array_equal(a, b)
        assert parallel.cache == serial.cache
        # second wave: only new candidates travel, order still holds
        batch2 = batch + [(99, 7), (98, 6), (97, 5), (96, 4)]
        assert np.array_equal(
            serial.evaluate_batch(batch2), parallel.evaluate_batch(batch2)
        )
    finally:
        serial.close()
        parallel.close()


class _BatchSquare:
    """Picklable `_square` with a batch method that logs every call."""

    def __init__(self, log=None):
        self.log = log
        self.batches = []

    def __call__(self, values):
        return _square(values)

    def evaluate_many(self, batch):
        self.batches.append(list(batch))
        if self.log is not None:
            with open(self.log, "a") as fh:
                fh.write(f"{len(batch)}\n")
        return [_square(v) for v in batch]


WAVES = [[(5,), (2,), (5,), (7,)], [(2,), (9,), (9,), (5,), (1,)], [(7,), (2,)]]


def test_batch_method_gets_each_waves_missing_genotypes_once(monkeypatch):
    """Each wave's uncached genotypes reach the objective's batch method
    in one call, deduplicated in first-appearance order; values and
    accounting equal a plain callable's, which takes the same path."""
    from repro.evaluation import batch as batch_mod

    routed = []

    def spy(fn, missing):
        routed.append((fn, list(missing)))
        return solve_many(fn, missing)

    solve_many = batch_mod.solve_many
    monkeypatch.setattr(batch_mod, "solve_many", spy)
    objective = _BatchSquare()
    batched, plain = Evaluator(objective), Evaluator(_square)
    for wave in WAVES:
        assert batched.evaluate_batch(wave).tolist() == (
            plain.evaluate_batch(wave).tolist()
        )
    missing = [[(5,), (2,), (7,)], [(9,), (1,)]]
    assert objective.batches == missing
    assert routed == [(fn, m) for m in missing for fn in (objective, _square)]
    for ev in (batched, plain):
        assert (ev.calls, ev.new_solves, ev.distinct_evaluations) == (11, 5, 5)
    assert batched.cache == plain.cache


def test_each_process_pool_span_is_one_batch_call(tmp_path):
    """A ``workers=2`` wave of 16 misses goes out as guided spans
    8, 4, 2, 1, 1, each one call of the objective's batch method."""
    log = tmp_path / "calls.log"
    batch = [(i, i + 1) for i in range(16)]
    with Evaluator(_BatchSquare(str(log)), workers=2) as ev:
        got = ev.evaluate_batch(batch + batch[:4])
    assert got.tolist() == [_square(v) for v in batch + batch[:4]]
    sizes = sorted(int(n) for n in log.read_text().split())
    assert sizes == sorted([8, 4, 2, 1, 1])


def _grabs(n, workers, floor=1):
    sizes = []
    while n:
        sizes.append(guided_grab(n, workers, floor))
        n -= sizes[-1]
    return sizes


def test_guided_grab_takes_an_equal_share_of_what_is_left():
    assert _grabs(30, 1) == [30]
    assert _grabs(30, 2) == [15, 8, 4, 2, 1]
    assert _grabs(16, 2) == [8, 4, 2, 1, 1]
    assert _grabs(30, 2, floor=4) == [15, 8, 4, 3]
    assert _grabs(3, 8) == [1, 1, 1]
    assert _grabs(5, 1, floor=8) == [5]


@given(st.integers(1, 300), st.integers(1, 16), st.integers(0, 20))
def test_guided_grabs_partition_the_wave(n, workers, floor):
    """Grabs cover the wave, shrink, and each is an equal share of what
    is left (at least, and no more unless the floor asks for more)."""
    sizes = _grabs(n, workers, floor)
    assert sum(sizes) == n
    assert sizes == sorted(sizes, reverse=True)
    left = n
    for size in sizes:
        assert min(left, floor) <= size <= left
        assert size * workers >= left
        assert size <= floor or (size - 1) * workers < left
        left -= size
