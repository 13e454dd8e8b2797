"""Central registry of every ``REPRO_*`` environment variable.

Every result- or schedule-affecting knob this repository reads from the
environment is declared here, once, as an :class:`EnvKnob` — name,
parser, default, and whether the knob can change *objective values*
(not just wall-clock time or search trajectory).  The rest of ``src/``
never touches ``os.environ`` for a ``REPRO_*`` name directly; it calls
``knob.get()`` on the registered accessor.  The ``env-registry`` lint
rule (:mod:`repro.contracts`) enforces this statically, which is what
makes the registry trustworthy: a knob that is not declared here cannot
be read anywhere.

Why it matters: the determinism contract (any worker/host/arrival-order
configuration is bit-identical to serial) only holds if remote workers
compute with the *coordinator's* configuration, and the persistent memo
store only stays correct if every value-affecting knob is part of the
objective fingerprint.  Both properties start from knowing the complete
knob list.  A knob declared with ``affects_results=True`` must also
name the ``fingerprint_field`` through which its resolved value reaches
the objective fingerprint (see :func:`repro.search.tiling.search_tiling`);
the ``fingerprint-coverage`` lint rule cross-checks that the named
field really flows into the fingerprint tuple.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

#: Every registered knob, by environment-variable name.
KNOBS: dict[str, "EnvKnob"] = {}


@dataclass(frozen=True)
class EnvKnob:
    """One declared ``REPRO_*`` environment variable.

    ``parser`` maps the raw string to the knob's value; an unset or
    empty variable yields ``default``.  ``strict`` controls what a
    malformed value does: raise (budget-style knobs, where silently
    ignoring a typo would change results without warning) or fall back
    to the default (worker-count-style knobs, where the historical
    behaviour is to degrade to serial).

    ``affects_results=True`` declares that the knob can change objective
    *values* — such a knob must name the ``fingerprint_field`` carrying
    it into the objective fingerprint, and the ``fingerprint-coverage``
    lint rule verifies the field is really part of every fingerprint
    construction in the source tree.
    """

    name: str
    parser: Callable[[str], Any]
    default: Any = None
    help: str = ""
    strict: bool = True
    affects_results: bool = False
    fingerprint_field: str | None = None

    def get(self) -> Any:
        """The knob's parsed value: environment > registered default."""
        raw = os.environ.get(self.name)
        if raw is None or raw == "":
            return self.default
        try:
            return self.parser(raw)
        except ValueError:
            if self.strict:
                raise ValueError(
                    f"{self.name}={raw!r} is not a valid value"
                ) from None
            return self.default

    def set(self, value: Any) -> None:
        """Export the knob (e.g. so worker subprocesses inherit it)."""
        os.environ[self.name] = str(value)

    def is_set(self) -> bool:
        return bool(os.environ.get(self.name))


def _register(
    name: str,
    parser: Callable[[str], Any],
    default: Any = None,
    *,
    help: str = "",
    strict: bool = True,
    affects_results: bool = False,
    fingerprint_field: str | None = None,
) -> EnvKnob:
    if name in KNOBS:
        raise ValueError(f"duplicate env knob {name}")
    knob = EnvKnob(
        name=name,
        parser=parser,
        default=default,
        help=help,
        strict=strict,
        affects_results=affects_results,
        fingerprint_field=fingerprint_field,
    )
    KNOBS[name] = knob
    return knob


def _flag(raw: str) -> bool:
    """The historical REPRO_FULL truthiness: anything but off-words."""
    return raw not in ("0", "false", "no")


def _not_zero(raw: str) -> bool:
    """The historical REPRO_BATCH_CASCADE truthiness: only "0" is off."""
    return raw != "0"


def _workers(raw: str) -> int:
    return max(1, int(raw))


FULL = _register(
    "REPRO_FULL",
    _flag,
    False,
    help="Run the paper's full GA budget instead of the quick one. "
    "Changes which candidates the search proposes, never the value "
    "of any candidate (objectives are pure), so the memo fingerprint "
    "is unaffected.",
)

WORKERS = _register(
    "REPRO_WORKERS",
    _workers,
    1,
    strict=False,
    help="Worker processes for candidate-level objective fan-out. "
    "Pure wall-clock knob: results are bit-identical for any value.",
)

HOSTS = _register(
    "REPRO_HOSTS",
    str,
    None,
    help="Cluster worker agents (host:port,…) for the distributed "
    "evaluation backend.  Pure wall-clock knob: the cluster backend "
    "is bit-identical to local.",
)

CLUSTER_TIMEOUT = _register(
    "REPRO_CLUSTER_TIMEOUT",
    float,
    600.0,
    help="Per-request straggler deadline (seconds) for cluster "
    "dispatch.  It covers one grab, a host's fair share of a wave "
    "(a lone host's is the whole wave).  Affects only when a grab is "
    "re-dispatched, never its value (objectives are pure, "
    "recomputation is free).",
)

BATCH_CASCADE = _register(
    "REPRO_BATCH_CASCADE",
    _not_zero,
    True,
    help="Use the vectorised congruence cascade (default) or the "
    "scalar reference path.  Outcome-identical by construction — "
    "pinned by the cascade equivalence property suite — so it is "
    "not part of the objective fingerprint.",
)

BENCH_TOLERANCE = _register(
    "REPRO_BENCH_TOLERANCE",
    float,
    0.25,
    help="Relative wall-time slack of the CI perf-regression gate "
    "(benchmarks/check_regression.py): a fresh BENCH_*.json row may "
    "be up to (1 + tolerance) times its committed baseline before "
    "the gate fails.  Raise it for known-noisy runners; it never "
    "affects results, only the gate's verdict.",
)

#: The cascade work budgets are the one knob family that changes
#: objective *values* (they trade solver accuracy for speed), so they
#: are declared result-affecting and must reach the fingerprint via the
#: resolved ``cascade_budgets`` mapping (see
#: :func:`repro.polyhedra.congruence.resolve_budget` for precedence and
#: :func:`repro.search.tiling.search_tiling` for the fingerprint).
CASCADE_BUDGET_ENUM = _register(
    "REPRO_CASCADE_BUDGET_ENUM",
    int,
    None,
    affects_results=True,
    fingerprint_field="cascade_budgets",
    help="Exact-enumeration volume limit of the congruence cascade.",
)

CASCADE_BUDGET_PARTIAL = _register(
    "REPRO_CASCADE_BUDGET_PARTIAL",
    int,
    None,
    affects_results=True,
    fingerprint_field="cascade_budgets",
    help="Partial-dimension enumeration volume limit of the cascade.",
)

CASCADE_BUDGET_LINE = _register(
    "REPRO_CASCADE_BUDGET_LINE",
    int,
    None,
    affects_results=True,
    fingerprint_field="cascade_budgets",
    help="Per-line candidate cap of the cascade's per-line queries.",
)

CASCADE_BUDGET_ABS = _register(
    "REPRO_CASCADE_BUDGET_ABS",
    int,
    None,
    affects_results=True,
    fingerprint_field="cascade_budgets",
    help="Node budget of the recursive absolute-interval search.",
)

#: Corpus knobs configure the *test harness* (which scenarios the
#: differential oracle sweeps and how), never an objective: corpus
#: reports are not objective values and nothing here reaches a
#: fingerprint, so all four are declared ``affects_results=False``.
CORPUS_SEED = _register(
    "REPRO_CORPUS_SEED",
    int,
    0,
    help="Default corpus seed for `repro.cli corpus` (generate/run/"
    "shrink).  Every case is reproducible from (seed, index) alone.",
)

CORPUS_CASES = _register(
    "REPRO_CORPUS_CASES",
    int,
    300,
    help="Default sweep size for `repro.cli corpus run` — the nightly "
    "CI lane's case count.",
)

CORPUS_EXACT_POINTS = _register(
    "REPRO_CORPUS_EXACT_POINTS",
    int,
    2048,
    help="Iteration-point threshold separating the oracle's exact mode "
    "(every point classified, pure model-band tolerance) from sampled "
    "mode (CRN sample, CI-widened tolerance).  See docs/CORPUS.md.",
)

CORPUS_LADDER_POINTS = _register(
    "REPRO_CORPUS_LADDER_POINTS",
    int,
    96,
    help="Per-case point budget of the cascade-ladder fuzz check "
    "(batched vs scalar bit-identity inside the corpus oracle).  "
    "Caps cost only; each engine sees the same points.",
)

#: Observability knobs.  Telemetry is write-only with respect to
#: results (architecture contract 8, enforced by the telemetry-purity
#: lint rule and the disabled-mode golden traces), so neither knob is
#: result-affecting and neither enters any fingerprint.
TELEMETRY = _register(
    "REPRO_TELEMETRY",
    _flag,
    False,
    help="Enable the run telemetry recorder (spans, counters, gauges; "
    "see docs/TELEMETRY.md).  Default off: hot paths hit a no-op "
    "singleton and trajectories are bit-identical to a build without "
    "telemetry.  An explicit REPRO_TELEMETRY=0 also overrides the "
    "--trace flag's implicit enable.  Worker agents inherit it from "
    "the environment the coordinator spawned them with.",
)

LOG_LEVEL = _register(
    "REPRO_LOG_LEVEL",
    str,
    "WARNING",
    help="Verbosity of the unified stderr logging channel "
    "(DEBUG|INFO|WARNING|ERROR|CRITICAL).  The --log-level CLI flag "
    "wins over this knob.  Diagnostics only — never affects results "
    "or stdout.",
)

EXAMPLE_KERNEL = _register(
    "REPRO_EXAMPLE_KERNEL",
    str,
    "MM",
    help="Kernel the examples/ scripts run (demo scale knob).",
)

EXAMPLE_SIZE = _register(
    "REPRO_EXAMPLE_SIZE",
    int,
    500,
    help="Problem size the examples/ scripts run (demo scale knob).",
)

EXAMPLE_BUDGET = _register(
    "REPRO_EXAMPLE_BUDGET",
    int,
    90,
    help="Distinct-solve budget the examples/ scripts run with.",
)


def fingerprint_fields() -> tuple[str, ...]:
    """Fingerprint field names owed by result-affecting knobs.

    Every name returned here must appear (transitively) in each
    objective-fingerprint tuple built anywhere in ``src/`` — enforced
    by the ``fingerprint-coverage`` lint rule.
    """
    return tuple(
        sorted(
            {
                knob.fingerprint_field
                for knob in KNOBS.values()
                if knob.affects_results and knob.fingerprint_field
            }
        )
    )
