"""Memoised, batched, optionally parallel objective evaluation.

See the package docstring for the equivalence contract.  The design
constraint throughout is determinism: parallelism must never change a
search result, only its wall-clock time.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro import telemetry

Values = tuple[int, ...]

# -- worker-side plumbing -----------------------------------------------------
#
# The objective is shipped to each worker exactly once (at pool start,
# via the initializer) instead of once per task; tasks then carry only
# the small genotype tuples.

_WORKER_FN: Callable[[Values], float] | None = None


def _init_worker(fn: Callable[[Values], float]) -> None:
    global _WORKER_FN
    _WORKER_FN = fn


def _eval_in_worker(batch: list[Values]) -> list[float]:
    assert _WORKER_FN is not None, "worker used before initialisation"
    return [float(v) for v in solve_many(_WORKER_FN, batch)]


def solve_many(fn: Callable[[Values], float], batch: list[Values]) -> list:
    """``fn`` on each genotype: one ``fn.evaluate_many(batch)`` call if the
    objective offers it (same values by contract), else a loop."""
    many = getattr(fn, "evaluate_many", None)
    if many is None:
        return [fn(v) for v in batch]
    return list(many(batch))


def guided_grab(remaining: int, workers: int, floor: int = 1) -> int:
    """Size of the next chunk under guided self-scheduling.

    Polychronopoulos & Kuck (1987): each grab is an equal share of what
    is still unassigned, ``ceil(remaining / workers)``, at least
    ``floor`` (the taker's own capacity) and at most ``remaining``.  A
    lone worker takes a whole wave, so the objective's batch method
    sees it in one merged pass; with several, the grabs shrink (30
    items on 2 workers: 15, 8, 4, 2, 1), so the small late ones even
    out a straggler's tail.
    """
    return min(remaining, max(floor, -(-remaining // workers)))


@runtime_checkable
class BatchObjective(Protocol):
    """What the GA engine and the baselines accept as an objective."""

    def __call__(self, values: Values) -> float: ...

    def evaluate_batch(self, batch: list[Values]) -> np.ndarray: ...


class Evaluator:
    """Memoising batch evaluator around a pure objective function.

    ``workers=1`` (the default) evaluates serially and is bit-for-bit
    identical to calling a memoised objective in a loop.  ``workers>1``
    fans distinct uncached genotypes out over a process pool; results
    land in the same cache, so downstream consumers are unaffected.

    The wrapped function must be deterministic.  For parallel use it
    must also be picklable; if it is not (e.g. a test lambda), the
    evaluator falls back to the serial path and records the fact in
    :attr:`parallel_fallback`.
    """

    def __init__(self, fn: Callable[[Values], float], workers: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._fn = fn
        self.workers = workers
        self.cache: dict[Values, float] = {}
        self.calls = 0
        self.new_solves = 0
        self.parallel_fallback = False
        self._pool: ProcessPoolExecutor | None = None

    # -- single-candidate path (back-compat) -------------------------------
    def __call__(self, values: Values) -> float:
        self.calls += 1
        values = tuple(values)
        if values not in self.cache:
            self.cache[values] = self._evaluate_missing([values])[0]
        return self.cache[values]

    # -- batch path ---------------------------------------------------------
    def evaluate_batch(self, batch: list[Values]) -> np.ndarray:
        """Objective value per candidate, deduped against the cache."""
        batch = [tuple(v) for v in batch]
        self.calls += len(batch)
        missing: list[Values] = []
        seen: set[Values] = set()
        for v in batch:
            if v not in self.cache and v not in seen:
                seen.add(v)
                missing.append(v)
        hits = len(batch) - len(missing)
        if hits:
            telemetry.recorder().count("evaluator.memo_hits", hits)
        if missing:
            for v, obj in zip(missing, self._evaluate_missing(missing)):
                self.cache[v] = obj
        return np.array([self.cache[v] for v in batch], dtype=float)

    def _evaluate_missing(self, missing: list[Values]) -> list[float]:
        self.new_solves += len(missing)
        telemetry.recorder().count("evaluator.new_solves", len(missing))
        if self.workers > 1 and len(missing) > 1:
            pool = self._ensure_pool()
            if pool is not None:
                # Guided spans, taken by the pool's workers in order:
                # each one batch call, large first for merged passes,
                # small last so a straggler can't serialise the tail.
                spans, start = [], 0
                while start < len(missing):
                    stop = start + guided_grab(
                        len(missing) - start, self.workers
                    )
                    spans.append(missing[start:stop])
                    start = stop
                chunks = pool.map(_eval_in_worker, spans)
                return [v for chunk in chunks for v in chunk]
        return solve_many(self._fn, missing)

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self.parallel_fallback:
            return None
        if self._pool is None:
            try:
                pickle.dumps(self._fn)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_worker,
                    initargs=(self._fn,),
                )
            # Unpicklable fn, fork failure, pool spawn error, …: any
            # failure to stand the pool up must degrade to the serial
            # path (results are identical, only wall-clock changes) —
            # crashing the search over a parallelism knob would be
            # strictly worse than ignoring the knob.
            except Exception:  # repro: lint-ok[broad-except]
                self.parallel_fallback = True
                return None
        return self._pool

    # -- accounting ---------------------------------------------------------
    @property
    def distinct_evaluations(self) -> int:
        """Actual objective computations — the memo cache's size."""
        return len(self.cache)

    #: ``new_solves`` counts the objective computations *this process
    #: actually paid for this run* — unlike ``distinct_evaluations`` it
    #: excludes values served by a warm source such as the persistent
    #: memo store of :class:`repro.distributed.DistributedEvaluator`.

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getstate__(self):
        # Workers receive a pool-less copy (executors don't pickle).
        state = self.__dict__.copy()
        state["_pool"] = None
        return state


def as_batch_objective(
    objective: Callable[[Values], float], workers: int = 1
) -> BatchObjective:
    """Adapt any callable to the :class:`BatchObjective` protocol.

    Objects already exposing ``evaluate_batch`` (the shared
    :class:`Evaluator` subclasses) pass through unchanged so that one
    cache/pool serves the whole search.
    """
    if isinstance(objective, BatchObjective):
        return objective
    return Evaluator(objective, workers=workers)
