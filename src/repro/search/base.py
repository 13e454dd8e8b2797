"""The batch-proposer strategy protocol and its shared machinery.

A :class:`SearchStrategy` is a resumable serial algorithm whose value
reads have been turned into batch proposals.  Subclasses implement
``_algorithm()`` as a generator that *yields lists of candidates* and
reads their objective values from ``self._memo`` (via the
``yield from self._need(cand)`` idiom for one value, or a plain
``yield batch`` followed by :meth:`_consume` calls for a whole
population).  The framework guarantees that when the generator
resumes, every yielded candidate has a value in the memo.

Two evaluation counters are kept per strategy, so a search reports
both what it asked for and what it cost:

``consumed``
    Values the serial algorithm read, *including* memo revisits — the
    pre-refactor baselines' ``evals`` number.
``consumed_distinct``
    Distinct candidates the serial algorithm read — the actual CME
    solves the algorithm is responsible for.  **Budgets are charged
    here**: revisiting a memoised genotype no longer burns budget
    (the pre-refactor hill climber charged ``max_evals`` for memo
    hits), and speculative evaluations are never charged because the
    algorithm did not ask for them.

Checkpointing: ``state_dict()`` captures the constructor parameters
plus the observation memo.  ``restore_strategy`` re-instantiates the
class and replays the generator against the memo — a deterministic
fast-forward that performs no objective evaluations — so a resumed
search continues exactly where it stopped (see the package docstring
for the on-disk format).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

Values = tuple[int, ...]

#: Concrete strategy classes by :attr:`SearchStrategy.name`
#: (auto-populated by ``__init_subclass__``; checkpoint restore uses it).
REGISTRY: dict[str, type["SearchStrategy"]] = {}


@dataclass
class StepRecord:
    """One driver step: a proposed wave and the best-so-far after it."""

    step: int
    proposed: int
    new_distinct: int
    best_objective: float
    best_values: Values | None


@dataclass
class SearchResult:
    """Outcome of one :func:`repro.search.run_search` run.

    ``evaluations``/``distinct_evaluations`` count what the *evaluator*
    did (calls issued / distinct genotypes solved, speculation
    included); ``consumed``/``consumed_distinct`` count what the
    *algorithm* asked for (see :mod:`repro.search.base`).  Budget
    comparisons against the paper's 450 evaluations should quote
    ``distinct_evaluations``.
    """

    strategy: str
    best_values: Values | None
    best_objective: float
    steps: int
    evaluations: int
    distinct_evaluations: int
    consumed: int
    consumed_distinct: int
    finished: bool
    trace: list[StepRecord] = field(default_factory=list)
    #: The strategy object that produced this result (the restored one
    #: on a resumed run).  Identity is not part of the outcome, so it
    #: is excluded from equality/repr.
    strategy_ref: "SearchStrategy | None" = field(
        default=None, compare=False, repr=False
    )


class SearchStrategy(ABC):
    """A search algorithm expressed as a batch proposer.

    Lifecycle: the driver alternates ``propose()`` →
    ``observe(batch, values)`` until ``propose()`` returns an empty
    list.  ``propose()`` internally advances the algorithm generator
    past every wave it can already answer from the memo, so a
    fully-memoised wave costs no driver round-trip.

    The interface composes: :class:`repro.search.PortfolioStrategy`
    drives *member* strategies through this same
    ``advance``/``_pending``/``observe`` contract one level down,
    merging their waves into the super-waves it proposes upward.
    """

    #: Registry key; subclasses must override.
    name: str = "base"

    def __init__(self):
        self._memo: dict[Values, float] = {}
        self._charged: set[Values] = set()
        self._gen: Iterator[list[Values]] | None = None
        self._pending: list[Values] = []
        self._finished = False
        self.consumed = 0
        self.consumed_distinct = 0
        self.best_values: Values | None = None
        self.best_objective = float("inf")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if getattr(cls, "name", "base") != "base":
            REGISTRY[cls.name] = cls

    # -- subclass interface -------------------------------------------------
    @abstractmethod
    def _algorithm(self) -> Iterator[list[Values]]:
        """The serial algorithm as a generator yielding candidate waves."""

    @abstractmethod
    def _params(self) -> dict:
        """Constructor kwargs reproducing this strategy (checkpointing)."""

    def _speculate(self) -> list[Values]:
        """Extra candidates worth evaluating alongside the pending wave.

        Pure lookahead: wrong guesses waste worker time but can never
        change a decision, because the algorithm only reads values it
        explicitly asked for.
        """
        return []

    # -- generator-side helpers ---------------------------------------------
    def _need(self, cand: Values):
        """Read one candidate's value, requesting evaluation if unknown.

        Usage inside ``_algorithm``: ``val = yield from self._need(c)``.
        """
        cand = tuple(cand)
        if cand not in self._memo:
            yield [cand]
        return self._consume(cand)

    def _consume(self, cand: Values) -> float:
        """Read a memoised value, charging the accounting counters."""
        cand = tuple(cand)
        self.consumed += 1
        if cand not in self._charged:
            self._charged.add(cand)
            self.consumed_distinct += 1
        return self._memo[cand]

    def _record_best(self, cand: Values, val: float) -> None:
        """Track the incumbent under strict improvement (first wins ties)."""
        if val < self.best_objective:
            self.best_objective = val
            self.best_values = tuple(cand)

    # -- driver interface ---------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._finished

    def best(self) -> tuple[Values | None, float]:
        return self.best_values, self.best_objective

    def advance(self) -> None:
        """Consume every fully-memoised pending wave (evaluation-free).

        The driver calls this right after ``observe`` so that the wave
        it just evaluated is consumed — best/counters updated — before
        the step is recorded or a budget cap ends the loop.
        """
        if self._gen is None and not self._finished:
            self._gen = self._algorithm()
            self._step()
        while not self._finished and all(
            c in self._memo for c in self._pending
        ):
            self._step()

    def propose(self) -> list[Values]:
        """Next wave of candidates to evaluate; empty when finished.

        Advances the algorithm until it demands a value the memo lacks,
        then returns the pending wave (in full, so population-style
        algorithms hand whole populations to the batched evaluator)
        plus any speculative extras.
        """
        self.advance()
        if self._finished:
            return []
        batch = list(self._pending)
        known = set(batch)
        for extra in self._speculate():
            extra = tuple(extra)
            if extra not in self._memo and extra not in known:
                known.add(extra)
                batch.append(extra)
        return batch

    def observe(self, candidates: list[Values], values: np.ndarray) -> None:
        """Record one evaluated wave into the observation memo."""
        for cand, val in zip(candidates, values):
            self._memo[tuple(cand)] = float(val)

    def _step(self) -> None:
        try:
            self._pending = self._gen.send(None)
        except StopIteration:
            self._finished = True
            self._pending = []

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        """Portable state: constructor params + observation memo."""
        return {
            "strategy": self.name,
            "params": self._params(),
            "memo": dict(self._memo),
        }


def restore_strategy(state: dict) -> SearchStrategy:
    """Rebuild a strategy from :meth:`SearchStrategy.state_dict` output.

    The algorithm generator is *not* serialised; it is replayed against
    the memo on the first ``propose()`` — deterministic and free of
    objective evaluations — which reconstructs every internal counter,
    RNG state and incumbent exactly.
    """
    cls = REGISTRY.get(state["strategy"])
    if cls is None:
        raise ValueError(f"unknown strategy {state['strategy']!r}")
    strategy = cls(**state["params"])
    strategy._memo = {tuple(k): float(v) for k, v in state["memo"].items()}
    return strategy
