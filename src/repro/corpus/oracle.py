"""Differential oracle: CME estimate vs exact trace simulation per case.

For every corpus case the oracle computes both sides of the paper's
accuracy claim — the CME classification and the ground-truth trace
simulation — and classifies their agreement under an explicit,
documented tolerance class (``docs/CORPUS.md`` carries the policy and
its derivation; the classes themselves live here so reports are
self-describing):

``exact-dm`` / ``exact-assoc``
    Small iteration spaces: *every* point is classified, so the only
    allowed disagreement is the CME model band.  The model is
    conservative by construction (finite reuse-candidate sets and
    budget-exhausted cascades degrade to *miss*, never to *hit*), so
    the band is asymmetric: ``est - sim`` may reach +0.15 (+0.20 on
    k-way caches, whose distinct-line counting is deliberately
    conservative) but only −0.06 the other way.  These are the same
    constants the long-standing ``tests/cme/test_solver_vs_simulator``
    suite pins on the hand-built kernels.

``sampled-dm`` / ``sampled-assoc``
    Large spaces: the CME side sees only a CRN sample of
    ``PAPER_SAMPLE_SIZE`` points while the simulator runs the full
    trace, so the model band is widened by the sample's normal-
    approximation CI half-width (2× below, 3× above — the asymmetric
    factors of ``repro.experiments.solver_speed.ValidationRow``).

``*-nonuniform``
    Nests containing same-array reference pairs with *different*
    address coefficient vectors (non-uniformly generated — outside
    the paper's §4.1 class).  Their mutual reuse is invisible to the
    model, so the upper bound additionally widens by
    :func:`nonuniform_fraction` — the share of accesses that may be
    over-reported as misses.  The sharp invariant for these cases is
    the conservatism *lower* bound: the model must never under-report.

A case *diverges* when ``est.miss_ratio - sim.miss_ratio`` leaves its
class band, when its replacement-miss delta leaves the same band, or
when one of the piggy-backed invariant checks fails:

* **cascade ladder** — the batched and scalar congruence engines
  must classify identical outcomes on the same points (the
  dispatch-ladder contract, fuzzed here on nests nobody hand-wrote);
* **hierarchy consistency** — for two-level geometries,
  :func:`repro.simulator.hierarchy.simulate_hierarchy`'s L1 numbers
  must equal the single-level simulation exactly, and the L2 miss
  stream must be a subset of L1 misses.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro import envs
from repro.cme.sampling import (
    PAPER_SAMPLE_SIZE,
    estimate_at_points,
    sample_original_points,
)
from repro.cme.solver import PointClassifier
from repro.corpus.generator import (
    GENERATOR_VERSION,
    CorpusCase,
    generate_corpus,
)
from repro.ir.parser import parse_nest
from repro.ir.program import program_from_nest
from repro.ir.validate import validate_nest
from repro.layout.memory import MemoryLayout
from repro.simulator.classify import simulate_program
from repro.simulator.hierarchy import simulate_hierarchy

#: Model band (lower, upper) for ``est - sim`` on direct-mapped caches.
DM_BAND = (-0.06, 0.15)
#: Model band on k-way caches (conservative distinct-line counting).
ASSOC_BAND = (-0.06, 0.20)
#: CI half-width multipliers (below, above) added in sampled mode.
SAMPLED_CI_FACTORS = (2.0, 3.0)


@dataclass(frozen=True)
class ToleranceClass:
    """One documented agreement band for ``est - sim`` miss ratios."""

    name: str
    lower: float
    upper: float
    note: str = ""

    def admits(self, delta: float) -> bool:
        return self.lower <= delta <= self.upper


def nonuniform_fraction(nest, layout) -> float:
    """Share of accesses whose reference has a same-array partner with
    a *different* address coefficient vector.

    Such pairs are non-uniformly generated — outside the paper's §4.1
    class — so their mutual reuse is invisible to the CME model: every
    one of those accesses may be over-reported as a miss.  The oracle
    widens the upper tolerance bound by exactly this fraction.
    """
    vars_ = nest.vars
    coeffs = {
        r.position: layout.address_expr(r).coeff_vector(vars_)
        for r in nest.refs
    }
    involved = sum(
        any(
            o.position != r.position
            and o.array.name == r.array.name
            and coeffs[o.position] != coeffs[r.position]
            for o in nest.refs
        )
        for r in nest.refs
    )
    return involved / len(nest.refs)


def tolerance_for(mode: str, cache, est, nonuniform: float = 0.0) -> ToleranceClass:
    """The tolerance class a case is judged under.

    ``mode`` is ``"exact"`` or ``"sampled"``; ``cache`` the L1
    geometry; ``est`` the case's :class:`~repro.cme.sampling.CMEEstimate`
    (its CI half-width widens the sampled bands); ``nonuniform`` is
    :func:`nonuniform_fraction` — a nonzero value widens the upper
    bound by that access share and tags the class ``-nonuniform``
    (for such cases the sharp invariant is the conservatism *lower*
    bound; the upper bound only caps model-visible accesses).
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown oracle mode {mode!r}")
    if not 0.0 <= nonuniform <= 1.0:
        raise ValueError(f"nonuniform fraction out of range: {nonuniform}")
    kway = cache.associativity > 1
    lower, upper = ASSOC_BAND if kway else DM_BAND
    suffix = "assoc" if kway else "dm"
    notes = []
    if nonuniform:
        suffix += "-nonuniform"
        upper += nonuniform
        notes.append(
            f"upper widened by non-uniform access share {nonuniform:.3f}"
        )
    if mode == "exact":
        notes.insert(0, "full-point classification; model band"
                     + ("" if nonuniform else " only"))
        return ToleranceClass(
            name=f"exact-{suffix}",
            lower=lower,
            upper=upper,
            note="; ".join(notes),
        )
    hw = est.ci_halfwidth()
    below, above = SAMPLED_CI_FACTORS
    notes.insert(
        0, f"model band widened by CI half-width {hw:.4f} (x{below}/x{above})"
    )
    return ToleranceClass(
        name=f"sampled-{suffix}",
        lower=lower - below * hw,
        upper=upper + above * hw,
        note="; ".join(notes),
    )


@dataclass(frozen=True)
class CaseReport:
    """Machine-readable outcome of one differential case."""

    index: int
    name: str
    mode: str
    geometry: str
    depth: int = 0
    points: int = 0
    accesses: int = 0
    est_miss: float = 0.0
    sim_miss: float = 0.0
    delta: float = 0.0
    est_repl: float = 0.0
    sim_repl: float = 0.0
    repl_delta: float = 0.0
    tolerance: ToleranceClass | None = None
    within_tolerance: bool = False
    ladder_ok: bool | None = None
    hierarchy_ok: bool | None = None
    l2_global_miss: float | None = None
    wall_s: float = 0.0
    error: str | None = None

    @property
    def ok(self) -> bool:
        """No divergence: tolerance respected and every piggy-backed
        invariant check passed (or was skipped: ``None``)."""
        return (
            self.error is None
            and self.within_tolerance
            and self.ladder_ok is not False
            and self.hierarchy_ok is not False
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ok"] = self.ok
        return d

    def summary(self) -> str:
        if self.error is not None:
            return f"[{self.index:4d}] {self.name} ERROR: {self.error}"
        tol = self.tolerance
        verdict = "ok" if self.ok else "DIVERGED"
        return (
            f"[{self.index:4d}] {self.name} {self.mode}/{tol.name} "
            f"geom={self.geometry} est={self.est_miss:.4f} "
            f"sim={self.sim_miss:.4f} delta={self.delta:+.4f} "
            f"band=[{tol.lower:+.3f},{tol.upper:+.3f}] {verdict}"
        )


def _ladder_outcomes_identical(program, layout, cache, mapped_points) -> bool:
    """Batched and scalar cascade engines classify identically."""
    batched, scalar = (
        PointClassifier(program, layout, cache, batch_cascade=flag)
        .classify_batch(mapped_points)
        for flag in (True, False)
    )
    return batched == scalar


def run_case(
    case: CorpusCase,
    ladder: bool = True,
    ladder_points: int | None = None,
) -> CaseReport:
    """Differentially evaluate one case; never raises — a crash inside
    the pipeline becomes an ``error`` report (counted as a divergence)."""
    t0 = time.perf_counter()
    try:
        return _run_case(case, ladder, ladder_points, t0)
    except Exception as exc:  # noqa: BLE001  # repro: lint-ok[broad-except]
        # The sweep must report a crashing case, not die on it.
        return CaseReport(
            index=case.index,
            name=case.name,
            mode=case.mode,
            geometry=case.geometry.label,
            wall_s=time.perf_counter() - t0,
            error=f"{type(exc).__name__}: {exc}",
        )


def _run_case(
    case: CorpusCase, ladder: bool, ladder_points: int | None, t0: float
) -> CaseReport:
    nest = parse_nest(case.source, name=case.name)
    validate_nest(nest)
    program = program_from_nest(nest)
    layout = MemoryLayout(nest.arrays())
    l1 = case.geometry.l1

    if case.mode == "exact":
        points = [tuple(int(x) for x in p) for p in program.space.all_points_lex()]
    else:
        points = sample_original_points(nest, PAPER_SAMPLE_SIZE, case.sample_seed)

    est = estimate_at_points(program, layout, l1, points)
    sim = simulate_program(program, layout, l1)
    delta = est.miss_ratio - sim.miss_ratio
    repl_delta = est.replacement_ratio - sim.replacement_ratio
    tol = tolerance_for(
        case.mode, l1, est, nonuniform=nonuniform_fraction(nest, layout)
    )
    # The replacement split is judged one-sided (upper bound only),
    # mirroring tests/cme/test_solver_vs_simulator: a miss whose reuse
    # source falls outside the candidate set is labelled *compulsory*
    # by the model, so est_repl systematically under-counts sim_repl —
    # only over-reporting replacement misses is a divergence.
    within = tol.admits(delta) and repl_delta <= tol.upper

    ladder_ok: bool | None = None
    if ladder:
        if ladder_points is None:
            ladder_points = envs.CORPUS_LADDER_POINTS.get()
        mapped = program.point_map.from_original_batch(
            np.asarray(points[:ladder_points], dtype=np.int64)
        )
        ladder_ok = _ladder_outcomes_identical(program, layout, l1, mapped)

    hierarchy_ok: bool | None = None
    l2_global: float | None = None
    if case.geometry.multi_level:
        hr = simulate_hierarchy(program, layout, l1, case.geometry.levels[1])
        hierarchy_ok = (
            hr.accesses == sim.accesses
            and hr.l1_misses == sim.misses
            and hr.compulsory == sim.compulsory
            and hr.l2_accesses == hr.l1_misses
            and hr.l2_misses <= hr.l1_misses
        )
        l2_global = hr.l2_global_miss_ratio

    return CaseReport(
        index=case.index,
        name=case.name,
        mode=case.mode,
        geometry=case.geometry.label,
        depth=nest.depth,
        points=len(points),
        accesses=sim.accesses,
        est_miss=est.miss_ratio,
        sim_miss=sim.miss_ratio,
        delta=delta,
        est_repl=est.replacement_ratio,
        sim_repl=sim.replacement_ratio,
        repl_delta=repl_delta,
        tolerance=tol,
        within_tolerance=within,
        ladder_ok=ladder_ok,
        hierarchy_ok=hierarchy_ok,
        l2_global_miss=l2_global,
        wall_s=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class CorpusReport:
    """One full sweep: every case report plus the sweep's identity."""

    corpus_seed: int
    n_cases: int
    reports: tuple[CaseReport, ...]
    generator_version: int = GENERATOR_VERSION

    @property
    def divergences(self) -> tuple[CaseReport, ...]:
        return tuple(r for r in self.reports if not r.ok)

    def by_class(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.reports:
            key = r.tolerance.name if r.tolerance else "error"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def summary(self) -> str:
        lines = [
            f"corpus sweep: seed={self.corpus_seed} cases={self.n_cases} "
            f"generator=v{self.generator_version}",
            "per tolerance class: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.by_class().items())),
            f"divergences: {len(self.divergences)}",
        ]
        worst = sorted(self.reports, key=lambda r: -abs(r.delta))[:3]
        for r in worst:
            lines.append("worst " + r.summary())
        for r in self.divergences:
            lines.append(r.summary())
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "corpus_seed": self.corpus_seed,
                "generator_version": self.generator_version,
                "n_cases": self.n_cases,
                "divergences": len(self.divergences),
                "cases": [r.to_dict() for r in self.reports],
            },
            indent=2,
            sort_keys=True,
        )


def run_corpus(
    corpus_seed: int,
    n_cases: int,
    ladder: bool = True,
    exact_limit: int | None = None,
    ladder_points: int | None = None,
    progress=None,
) -> CorpusReport:
    """Sweep cases ``0..n_cases-1`` of ``corpus_seed`` through the
    differential oracle.  ``progress`` (if given) is called with each
    finished :class:`CaseReport` — the CLI uses it for live output."""
    reports = []
    for case in generate_corpus(corpus_seed, n_cases, exact_limit):
        report = run_case(case, ladder=ladder, ladder_points=ladder_points)
        if progress is not None:
            progress(report)
        reports.append(report)
    return CorpusReport(
        corpus_seed=corpus_seed, n_cases=n_cases, reports=tuple(reports)
    )
