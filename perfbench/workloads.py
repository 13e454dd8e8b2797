"""The benchmark workloads: inputs, one timed search, answer checks.

Every workload is a closed loop: one client, one search at a time.  A
*round* is one search (for ``mm-dm-cluster`` a cold search that writes
the memo store plus a warm rerun that reads it back).  Round ``r`` of a
run with ``--seed s`` searches with GA seed ``s * 1000 + r``, so a run's
median averages over several seeds and a seed always means the same
inputs.

While a workload is open, the process that solves is pinned to one CPU,
``solve_cpu``, the one the host-speed probe is timed on (see
``hostspeed.py``).  ``mm-dm`` is not one of the measured workloads; it
is the local reference the cluster's pinned answers come from.

Checks never trust the search's own bookkeeping alone:

* the returned tiles are re-solved with a fresh ``LocalityAnalyzer``
  and must give the reported objective and before/after counts;
* the MM searches must spend exactly the distinct-solve budget;
* the cluster's warm rerun must answer from the memo store alone and
  equal the cold answer;
* answers for the GA seeds listed in ``expected.json`` must equal the
  pinned values (the cluster is held to the ``mm-dm`` pins);
* the model-accuracy set's exact simulation counts must equal the pins.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext

#: Distinct CME solves per MM_500 search (binding for every seed, so each
#: search does the same amount of work).
BUDGET = 60
MM_SIZE = 500
#: Model-accuracy set: sampled CME vs exact trace simulation on 8KB DM.
#: Fixed inputs (seed 0, 2000 points) so the gap measures the model, not
#: the sample.
VALIDATION_KERNELS = (("MM", 48), ("T2D", 150), ("JACOBI3D", 40), ("ADI", 150))
VALIDATION_SAMPLES = 2000
VALIDATION_SEED = 0
#: Untimed warm-up before the first round: one GA wave over a small MM
#: nest imports the search path (on the agent too) and lets first-call
#: costs finish.
WARMUP_SEED = 999_999
WARMUP_BUDGET = 30
WARMUP_MM_SIZE = 24


def ga_seed(seed: int, round_index: int) -> int:
    return seed * 1000 + round_index


def cache_8kb(assoc: int):
    from repro.cache.config import CacheConfig

    return CacheConfig(8 * 1024, 32, assoc)


def mm_nest():
    from repro.kernels.registry import KERNELS

    return KERNELS["MM"].build(MM_SIZE)


def fresh_estimates(nest, cache, seed: int, tiles):
    """Before/after estimates from an analyzer the search never saw."""
    from repro.cme.analyzer import LocalityAnalyzer

    analyzer = LocalityAnalyzer(nest, cache, seed=seed)
    try:
        return analyzer.estimate(), analyzer.estimate(tile_sizes=tiles)
    finally:
        analyzer.close()


def compare_pin(label: str, got: dict, pins: dict, seed: int) -> list[str]:
    pinned = pins.get(str(seed))
    if pinned is None or pinned == got:
        return []
    return [f"{label} seed {seed}: got {got}, pinned {pinned}"]


class Round:
    """One round's outcome: wall times, work done, answer, failures."""

    def __init__(self, seed: int):
        self.seed = seed
        self.search_s = 0.0
        self.new_solves = 0
        self.attempted = 0
        self.errors: list[str] = []
        self.answer: dict = {}
        self.repl_after_pct = 0.0
        self.evaluation: dict = {}
        self.extra: dict = {}

    def as_dict(self) -> dict:
        return {
            "ga_seed": self.seed,
            "search_s": self.search_s,
            "new_solves": self.new_solves,
            "attempted": self.attempted,
            "errors": self.errors,
            "answer": self.answer,
            "repl_after_pct": self.repl_after_pct,
            "evaluation": self.evaluation,
            **self.extra,
        }


# -- MM_500 through search_tiling ---------------------------------------------
class MMWorkload:
    """GA over MM_500's tile sizes, serial, one process."""

    def __init__(self, name: str, assoc: int, why: str):
        self.name = name
        self.assoc = assoc
        self.why = why

    def cold_setup(self, seed: int) -> None:
        from repro.cme.analyzer import LocalityAnalyzer
        from repro.reuse.vectors import compute_reuse_candidates
        from repro.search.tiling import make_tiling_strategy

        nest = mm_nest()
        cache = cache_8kb(self.assoc)
        analyzer = LocalityAnalyzer(nest, cache, seed=seed)
        compute_reuse_candidates(nest, analyzer.layout, cache.line_size)
        make_tiling_strategy("ga", nest, budget=BUDGET, seed=seed)

    def open(self) -> None:
        from hostspeed import solve_cpu

        self._affinity = os.sched_getaffinity(0)
        self.solve_cpu = solve_cpu()
        os.sched_setaffinity(0, {self.solve_cpu})
        self.nest = mm_nest()
        self.cache = cache_8kb(self.assoc)
        self._warm_up()

    def _warm_up(self, **backend) -> None:
        from repro.kernels.registry import KERNELS
        from repro.search.tiling import search_tiling

        search_tiling(
            KERNELS["MM"].build(WARMUP_MM_SIZE), self.cache, budget=WARMUP_BUDGET,
            seed=WARMUP_SEED, **backend,
        )

    def close(self) -> None:
        os.sched_setaffinity(0, self._affinity)

    def _search(self, seed: int, **backend):
        from repro.search.tiling import search_tiling

        start = time.perf_counter()
        outcome = search_tiling(
            self.nest, self.cache, strategy="ga", budget=BUDGET, seed=seed,
            **backend,
        )
        return outcome, time.perf_counter() - start

    @staticmethod
    def answer(outcome) -> dict:
        return {
            "tiles": list(outcome.search.best_values),
            "objective": int(outcome.search.best_objective),
            "before": int(outcome.before.replacement),
            "after": int(outcome.after.replacement),
        }

    def check(self, outcome, seed: int, pins: dict) -> list[str]:
        got = self.answer(outcome)
        errors = []
        tiles = got["tiles"]
        if len(tiles) != 3 or not all(1 <= t <= MM_SIZE for t in tiles):
            errors.append(f"tiles {tiles} outside the iteration space")
        if outcome.search.distinct_evaluations != BUDGET:
            errors.append(
                f"{outcome.search.distinct_evaluations} distinct solves, "
                f"budget {BUDGET}"
            )
        if outcome.search.best_objective != outcome.after.replacement:
            errors.append("best objective differs from the after estimate")
        before, after = fresh_estimates(self.nest, self.cache, seed, tiles)
        if (before.replacement, after.replacement) != (
            got["before"], got["objective"]
        ):
            errors.append(
                f"re-solve gives {before.replacement} -> {after.replacement}, "
                f"search reported {got['before']} -> {got['objective']}"
            )
        if not got["after"] < got["before"]:
            errors.append("tiling did not reduce replacement misses")
        return errors + compare_pin(self.name, got, pins.get(self.name, {}), seed)

    def run_round(self, seed: int, pins: dict, tracer=None) -> Round:
        rnd = Round(seed)
        rnd.attempted = 1
        with tracer or nullcontext():
            outcome, rnd.search_s = self._search(seed)
        rnd.new_solves = outcome.evaluation["new_solves"]
        rnd.evaluation = dict(outcome.evaluation)
        rnd.answer = self.answer(outcome)
        rnd.repl_after_pct = 100.0 * outcome.after.replacement_ratio
        rnd.errors = self.check(outcome, seed, pins)
        return rnd


class ClusterWorkload(MMWorkload):
    """``mm-dm`` through a one-agent loopback cluster and a memo store."""

    def __init__(self, name: str, why: str, work_dir: str):
        super().__init__(name, 1, why)
        self.work_dir = work_dir

    def cold_setup(self, seed: int) -> None:
        from repro.distributed.cluster import LoopbackCluster

        super().cold_setup(seed)
        LoopbackCluster(1, capacity=1).close()

    def open(self) -> None:
        from repro.distributed.cluster import LoopbackCluster

        # The agent, which solves, inherits the solve CPU; the
        # coordinator then moves to another CPU where there is one.
        from hostspeed import solve_cpu

        self._affinity = os.sched_getaffinity(0)
        self.solve_cpu = solve_cpu()
        os.sched_setaffinity(0, {self.solve_cpu})
        self.nest = mm_nest()
        self.cache = cache_8kb(self.assoc)
        self.cluster = LoopbackCluster(1, capacity=1)
        os.sched_setaffinity(0, {min(self._affinity)})
        self._warm_up(backend="cluster", hosts=self.cluster.hosts_spec)

    def close(self) -> None:
        try:
            self.cluster.close()
        finally:
            os.sched_setaffinity(0, self._affinity)

    def run_round(self, seed: int, pins: dict, tracer=None) -> Round:
        rnd = Round(seed)
        rnd.attempted = 2
        memo = os.path.join(self.work_dir, f"memo-{os.getpid()}-{seed}.db")
        if os.path.exists(memo):
            os.remove(memo)
        backend = dict(
            backend="cluster", hosts=self.cluster.hosts_spec, memo_path=memo
        )
        try:
            with tracer or nullcontext():
                cold, rnd.search_s = self._search(seed, **backend)
            warm, warm_s = self._search(seed, **backend)
        finally:
            if os.path.exists(memo):
                os.remove(memo)
        rnd.new_solves = cold.evaluation["new_solves"]
        rnd.evaluation = dict(cold.evaluation)
        rnd.answer = self.answer(cold)
        rnd.repl_after_pct = 100.0 * cold.after.replacement_ratio
        rnd.extra = {"warm_s": warm_s, "cold": cold.backend, "warm": warm.backend}
        errors = []
        if cold.backend["remote_solves"] != BUDGET or cold.backend["local_solves"]:
            errors.append(f"cold search did not solve remotely: {cold.backend}")
        if warm.evaluation["new_solves"] or warm.backend["store_hits"] != BUDGET:
            errors.append(f"warm rerun did not read the memo: {warm.backend}")
        if self.answer(warm) != rnd.answer:
            errors.append(f"warm answer {self.answer(warm)} != cold {rnd.answer}")
        # The cluster answers the mm-dm question: hold it to those pins.
        rnd.errors = errors + self.check(
            cold, seed, {self.name: pins.get("mm-dm", {})}
        )
        return rnd


def make_workloads(work_dir: str) -> dict:
    workloads = [
        MMWorkload(
            "mm-dm", 1,
            "MM_500 GA on 8KB direct-mapped, serial: the paper's geometry; "
            "time is CME interval enumeration",
        ),
        MMWorkload(
            "mm-2way", 2,
            "MM_500 GA on 8KB 2-way, serial: cascade line counting is about "
            "half of each solve",
        ),
        ClusterWorkload(
            "mm-dm-cluster",
            "mm-dm through a one-agent loopback cluster with a memo store: "
            "the wire, remote solves, store reads",
            work_dir,
        ),
    ]
    return {w.name: w for w in workloads}


# -- model accuracy --------------------------------------------------------------
def model_gap(pins: dict) -> tuple[float, list[str], dict]:
    """Mean |sampled - exact| replacement ratio in percentage points."""
    from repro.cache.config import CACHE_8KB_DM
    from repro.cme.analyzer import LocalityAnalyzer
    from repro.kernels.registry import KERNELS

    gaps, errors, detail = [], [], {}
    pinned = pins.get("validation", {})
    for kernel, size in VALIDATION_KERNELS:
        label = f"{kernel}_{size}"
        analyzer = LocalityAnalyzer(
            KERNELS[kernel].build(size), CACHE_8KB_DM,
            n_samples=VALIDATION_SAMPLES, seed=VALIDATION_SEED,
        )
        estimate, exact = analyzer.estimate(), analyzer.simulate()
        gaps.append(abs(estimate.replacement_ratio - exact.replacement_ratio))
        exact_counts = {
            "accesses": exact.accesses, "misses": exact.misses,
            "compulsory": exact.compulsory,
        }
        detail[label] = {
            "exact": exact_counts,
            "sampled_replacement_ratio": estimate.replacement_ratio,
        }
        if label in pinned and pinned[label] != exact_counts:
            errors.append(
                f"exact simulation of {label}: {exact_counts}, "
                f"pinned {pinned[label]}"
            )
    return 100.0 * sum(gaps) / len(gaps), errors, detail
