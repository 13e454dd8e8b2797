"""Shared candidate-evaluation subsystem: batching, memoisation, fan-out.

Every search strategy in this repository — the GA (§3), the baseline
searches (§5), and the experiment harnesses — ultimately evaluates the
same kind of function: a pure objective ``f(values) -> float`` backed by
a sampled CME solve.  Candidate evaluations are independent of one
another and order-invariant (the same argument Bond & Levine make for
abelian networks: the final state does not depend on firing order), so
they can be deduplicated, batched, and fanned out across worker
processes without changing any result.

This package provides the one evaluation layer all consumers share:

* :class:`Evaluator` — memoising, batching wrapper around a plain
  objective, optionally parallel over a ``ProcessPoolExecutor``;
* :class:`BatchObjective` — the structural protocol the GA engine and
  the baselines accept (``__call__`` plus ``evaluate_batch``);
* :func:`as_batch_objective` — adapt any callable to the protocol.

Equivalence contract
--------------------
The batched and parallel paths are *bit-for-bit* equivalent to the
serial path:

* ``workers=1`` evaluates cache misses serially, in first-appearance
  order — exactly what a per-candidate loop over a memoised objective
  does today;
* ``workers>1`` evaluates the same deduplicated set in worker
  processes; because objectives are pure functions of their argument,
  the cache ends up with identical values and every consumer (GA,
  baselines) reads results back in its own candidate order.  Same
  seeds therefore give the same ``best_values`` regardless of
  ``workers``.

The same contract holds one layer down: the batched
``PointClassifier.classify_batch`` path agrees outcome-for-outcome with
scalar ``classify_point`` (see :mod:`repro.cme.solver`).

One search, one cache
---------------------
:func:`repro.search.run_search` owns a single :class:`Evaluator` per
search, so everything proposed through it — generational populations,
speculative lookahead, and every member of a
:class:`repro.search.PortfolioStrategy` composite — shares one memo:
a candidate solved for one proposer is a free cache hit for all the
others.
"""

from repro.evaluation.batch import (
    BatchObjective,
    Evaluator,
    as_batch_objective,
)

__all__ = [
    "BatchObjective",
    "Evaluator",
    "as_batch_objective",
]
