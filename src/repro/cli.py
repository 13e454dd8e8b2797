"""Command-line experiment runner.

Usage::

    python -m repro.cli table2
    python -m repro.cli table3
    python -m repro.cli table4
    python -m repro.cli figure8
    python -m repro.cli figure9
    python -m repro.cli convergence
    python -m repro.cli validate
    python -m repro.cli associativity
    python -m repro.cli all
    python -m repro.cli kernels                 # list the Table 1 suite
    python -m repro.cli landscape MM 100        # ASCII objective heat map
    python -m repro.cli source MM 100           # export a kernel as DSL
    python -m repro.cli search MM 500 --strategy hillclimb --workers 4
    python -m repro.cli search MM 500 --strategy portfolio \
        --members ga,hillclimb,annealing --restart stagnation:5
    python -m repro.cli portfolio MM 100     # strategy comparison table
    python -m repro.cli serve --port 7070    # cluster worker agent
    python -m repro.cli lint                 # contract linter (docs/LINTS.md)
    python -m repro.cli search MM 500 --backend cluster \
        --hosts hostA:7070,hostB:7070 --memo /shared/mm500.memo
    python -m repro.cli search MM 500 --trace run.jsonl   # telemetry log
    python -m repro.cli report run.jsonl --chrome timeline.json

Uniform flags (accepted anywhere on the command line):

``--workers N``
    Fan candidate evaluation out over ``N`` worker processes
    (overrides ``REPRO_WORKERS``); results are identical for any
    value (see :mod:`repro.evaluation`), only wall-clock changes.
``--strategy NAME``
    Search strategy for the ``search`` command: ``ga`` (default),
    ``hillclimb``, ``annealing``, ``random``, ``exhaustive`` or
    ``portfolio`` — all run through the shared :mod:`repro.search`
    subsystem.
``--budget N``  ``--seed N``  ``--speculation K``
    Strategy knobs for ``search`` (distinct-solve budget, RNG seed,
    annealing lookahead depth).
``--members a,b,c``
    Portfolio member strategies (default ``ga,hillclimb,annealing``);
    each gets an even share of ``--budget`` and a distinct derived
    seed.  Only meaningful with ``--strategy portfolio``.
``--restart POLICY``
    Portfolio restart policy: ``never`` (default), ``interval:K`` or
    ``stagnation:K`` (see :mod:`repro.search.portfolio`).
``--portfolio-mode MODE``
    ``interleave`` (default: every member proposes each wave) or
    ``race`` (half the budget qualifies members evenly, the rest goes
    to the current best member in tranches).
``--checkpoint PATH`` / ``--resume PATH``
    Persist resumable search state every step / continue from it.
``--backend local|cluster`` ``--hosts host:port,…`` ``--memo PATH``
    Evaluation backend for ``search``: ``cluster`` dispatches candidate
    waves to ``repro.cli serve`` worker agents (``--hosts`` or
    ``REPRO_HOSTS``; results are bit-identical to local, see
    :mod:`repro.distributed`); ``--memo`` enables the persistent
    cross-run memo store (either backend).
``--port N`` ``--bind ADDR`` ``--capacity N``
    Worker-agent knobs for the ``serve`` command: TCP port (0 picks a
    free one and prints it), bind address (default loopback; use
    ``0.0.0.0`` for real cross-host serving on a trusted network), and
    advertised evaluation capacity (sizes the worker's own process
    pool).
``--cascade-enum-limit N`` ``--cascade-partial-limit N``
``--cascade-line-limit N`` ``--cascade-abs-budget N``
    Congruence-cascade work budgets (accuracy/speed trade-off): exact
    enumeration volume, partial-dimension enumeration volume, per-line
    candidate cap, and the absolute-interval search node budget.  Each
    sets the matching ``REPRO_CASCADE_BUDGET_*`` environment variable,
    so worker processes inherit the same budgets.
``--baseline PATH`` ``--format text|json``
    ``lint`` command knobs: the committed known-findings baseline
    (default ``lint_baseline.json`` in the linted root) and the output
    format.  ``lint`` exits non-zero iff any non-baselined contract
    violation remains (see ``docs/LINTS.md``).
``--trace PATH``
    Record run telemetry (spans, counters, worker events) to a JSONL
    file for ``search``/``portfolio`` — implies telemetry on unless
    ``REPRO_TELEMETRY=0`` explicitly forces it off.  Telemetry is
    write-only with respect to results (see ``docs/TELEMETRY.md``);
    summarize the file later with ``report``.
``--chrome PATH``
    Also export a Chrome/Perfetto ``trace_event`` timeline: with
    ``search``/``portfolio`` it is derived from the ``--trace`` file
    after the run; with ``report`` from the trace being summarized.
``--quiet``
    Print only the one-line result summary for ``search`` (suppresses
    the evaluation/backend/steps detail lines).
``--log-level LEVEL``
    Verbosity of the unified stderr logging channel (``DEBUG``,
    ``INFO``, ``WARNING`` (default), ``ERROR``, ``CRITICAL``);
    overrides ``REPRO_LOG_LEVEL``.  Diagnostics only — never touches
    stdout or results.

Set ``REPRO_FULL=1`` for the paper's full GA budget (population 30,
15–25 generations); the default quick budget reproduces the shapes in
minutes.
"""

from __future__ import annotations

import sys


#: Every uniform flag the CLI accepts: ``--flag → (name, converter)``.
#: ``docs/CLI.md`` documents each one; ``tests/test_docs.py`` enforces it.
FLAG_SPEC = {
    "--workers": ("workers", int),
    "--strategy": ("strategy", str),
    "--budget": ("budget", int),
    "--seed": ("seed", int),
    "--speculation": ("speculation", int),
    "--members": ("members", str),
    "--restart": ("restart", str),
    "--portfolio-mode": ("portfolio_mode", str),
    "--checkpoint": ("checkpoint", str),
    "--resume": ("resume", str),
    "--backend": ("backend", str),
    "--hosts": ("hosts", str),
    "--memo": ("memo", str),
    "--port": ("port", int),
    "--bind": ("bind", str),
    "--capacity": ("capacity", int),
    "--cascade-enum-limit": ("cascade_enum_limit", int),
    "--cascade-partial-limit": ("cascade_partial_limit", int),
    "--cascade-line-limit": ("cascade_line_limit", int),
    "--cascade-abs-budget": ("cascade_abs_budget", int),
    "--baseline": ("baseline", str),
    "--format": ("format", str),
    "--cases": ("cases", int),
    "--case": ("case", int),
    "--out": ("out", str),
    "--distributed-smoke": ("distributed_smoke", int),
    "--trace": ("trace", str),
    "--chrome": ("chrome", str),
    "--log-level": ("log_level", str),
    # Converter ``None`` marks a boolean presence flag (takes no value).
    "--quiet": ("quiet", None),
}

#: Commands understood by :func:`main` (anything else prints the
#: experiment-runner banner and runs nothing).
COMMANDS = (
    "search", "portfolio", "serve", "table2", "table3", "table4",
    "figure8", "figure9", "convergence", "validate", "associativity",
    "all", "kernels", "landscape", "source", "lint", "corpus", "report",
)


def parse_flags(args: list[str]) -> tuple[list[str], dict]:
    """Split ``--flag value`` pairs (anywhere) from positional args."""
    spec = FLAG_SPEC
    positional: list[str] = []
    flags: dict = {}
    i = 0
    while i < len(args):
        arg = args[i]
        if arg in spec:
            name, conv = spec[arg]
            if conv is None:  # boolean presence flag
                flags[name] = True
                i += 1
                continue
            if i + 1 >= len(args):
                raise SystemExit(f"{arg} requires a value")
            try:
                flags[name] = conv(args[i + 1])
            except ValueError:
                raise SystemExit(f"{arg} expects {conv.__name__}, got {args[i+1]!r}")
            i += 2
        elif arg.startswith("--") and arg != "--help":
            known = ", ".join(sorted(spec))
            raise SystemExit(f"unknown flag {arg!r} (known: {known})")
        else:
            positional.append(arg)
            i += 1
    return positional, flags


def _telemetry_session(flags: dict):
    """Configure run telemetry from ``--trace``; returns the trace path.

    The flag implies telemetry on; an explicitly-set ``REPRO_TELEMETRY``
    (either way) always wins — ``REPRO_TELEMETRY=0`` with ``--trace``
    records nothing and creates no file.
    """
    from repro import telemetry

    trace_path = flags.get("trace")
    if flags.get("chrome") and not trace_path:
        raise SystemExit("--chrome needs --trace (or use the report command)")
    telemetry.configure(trace_path, default=trace_path is not None)
    return trace_path


def _export_chrome(flags: dict, trace_path: str | None) -> None:
    """Write the ``--chrome`` timeline from a run's ``--trace`` file."""
    import os

    from repro.telemetry import load_events, write_chrome_trace

    out = flags.get("chrome")
    if not out or not trace_path:
        return
    if not os.path.exists(trace_path):
        return  # telemetry was forced off; nothing was recorded
    n = write_chrome_trace(out, load_events(trace_path))
    print(f"chrome timeline ({n} records) written to {out}")


def _run_search_command(args: list[str], flags: dict) -> int:
    """`search KERNEL [SIZE]`: any strategy through repro.search."""
    from repro import telemetry
    from repro.cache.config import CACHE_8KB_DM
    from repro.experiments.common import ExperimentConfig
    from repro.kernels.registry import get_kernel
    from repro.search.tiling import search_tiling

    name = args[1] if len(args) > 1 else "MM"
    size = int(args[2]) if len(args) > 2 else None
    nest = get_kernel(name, size)
    config = ExperimentConfig(
        workers=flags.get("workers"),
        seed=flags.get("seed", 0),
        hosts=flags.get("hosts"),
    )
    members = flags.get("members")
    trace_path = _telemetry_session(flags)
    try:
        outcome = search_tiling(
            nest,
            CACHE_8KB_DM,
            strategy=flags.get("strategy", "ga"),
            budget=flags.get("budget", 450),
            seed=config.seed,
            n_samples=config.n_samples,
            workers=config.workers,
            ga_config=config.ga,
            speculation=flags.get("speculation", 1),
            checkpoint_path=flags.get("checkpoint"),
            resume=flags.get("resume"),
            members=tuple(members.split(",")) if members else None,
            restart=flags.get("restart"),
            portfolio_mode=flags.get("portfolio_mode", "interleave"),
            backend=flags.get("backend"),
            hosts=config.hosts,
            memo_path=flags.get("memo"),
        )
    finally:
        telemetry.shutdown()
    print(outcome.summary())
    if not flags.get("quiet"):
        ev = outcome.evaluation
        if ev is not None:
            print(
                f"evals: {ev['calls']} calls, {ev['memo_hits']} memo hits, "
                f"{ev['new_solves']} new solves, {ev['store_hits']} store "
                f"hits, {ev['distinct']} distinct"
            )
        if outcome.backend is not None:
            b = outcome.backend
            print(
                f"backend: {b['remote_solves']} remote, {b['local_solves']} "
                f"local, {b['store_hits']} memo hits, "
                f"{b['payload_bytes']} payload bytes"
            )
        trace = outcome.search.trace
        if trace:
            print(
                f"steps={len(trace)} "
                f"consumed={outcome.search.consumed} "
                f"consumed_distinct={outcome.search.consumed_distinct}"
            )
    _export_chrome(flags, trace_path)
    return 0


def _run_report_command(args: list[str], flags: dict) -> int:
    """`report TRACE.jsonl`: summarize a run from its telemetry alone.

    Validates the JSONL against the event schema (exit 1 on any
    problem), prints the span/counter/gauge rollup, and with
    ``--chrome OUT.json`` exports the Chrome/Perfetto timeline.
    """
    from repro.telemetry import (
        load_events,
        summarize_events,
        validate_events,
        write_chrome_trace,
    )

    if len(args) < 2:
        raise SystemExit("usage: report TRACE.jsonl [--chrome OUT.json]")
    events = load_events(args[1])
    problems = validate_events(events)
    if problems:
        for problem in problems[:20]:
            print(f"schema: {problem}")
        print(f"{len(problems)} schema problem(s) in {args[1]}")
        return 1
    print(summarize_events(events))
    out = flags.get("chrome")
    if out:
        n = write_chrome_trace(out, events)
        print(f"chrome timeline ({n} records) written to {out}")
    return 0


def _run_corpus_command(args: list[str], flags: dict) -> int:
    """`corpus generate|run|shrink`: the scenario-corpus lane.

    * ``generate`` prints case sources (``--case I`` for one case,
      ``--cases N`` for a range);
    * ``run`` sweeps the differential oracle over ``--cases N`` cases,
      optionally writes the JSON report to ``--out`` and runs the
      distributed bit-identity smoke over ``--distributed-smoke K``
      cases; exits 1 on any divergence;
    * ``shrink I`` reduces diverging case ``I`` to a minimal DSL repro
      (written to ``--out`` as a regression file when given).

    ``--seed`` defaults to ``REPRO_CORPUS_SEED``, ``--cases`` to
    ``REPRO_CORPUS_CASES``.
    """
    import dataclasses

    from repro import envs
    from repro.corpus import (
        generate_case,
        run_case,
        run_corpus,
        shrink_source,
        write_regression,
    )

    sub = args[1] if len(args) > 1 else "run"
    seed = flags.get("seed", envs.CORPUS_SEED.get())
    n_cases = flags.get("cases", envs.CORPUS_CASES.get())

    if sub == "generate":
        indices = (
            [flags["case"]] if "case" in flags else range(n_cases)
        )
        for i in indices:
            case = generate_case(seed, i)
            print(f"! --- case ({seed}, {i}) geometry={case.geometry.label} "
                  f"mode={case.mode}")
            print(case.source)
        return 0

    if sub == "run":
        report = run_corpus(
            seed, n_cases, progress=lambda r: print(r.summary(), flush=True)
        )
        print()
        print(report.summary())
        out = flags.get("out")
        if out:
            with open(out, "w") as fh:
                fh.write(report.to_json())
            print(f"report written to {out}")
        smoke_n = flags.get("distributed_smoke", 0)
        if smoke_n:
            from repro.corpus import run_distributed_smoke

            results = run_distributed_smoke(seed, smoke_n)
            for r in results:
                verdict = "bit-identical" if r.identical else "MISMATCH"
                print(f"smoke {r.name}: {len(r.candidates)} candidates "
                      f"{verdict}")
            if not all(r.identical for r in results):
                return 1
        return 1 if report.divergences else 0

    if sub == "shrink":
        if len(args) < 3:
            raise SystemExit("usage: corpus shrink INDEX [--seed N] [--out PATH]")
        index = int(args[2])
        case = generate_case(seed, index)
        base = run_case(case)
        if base.ok:
            print(f"case ({seed}, {index}) does not diverge — nothing to shrink")
            print(base.summary())
            return 0

        def diverges(src: str) -> bool:
            return not run_case(
                dataclasses.replace(case, source=src)
            ).ok

        minimal = shrink_source(case.source, diverges, name=case.name)
        print(f"shrunk case ({seed}, {index}) "
              f"[geometry={case.geometry.label} mode={case.mode}]:")
        print(minimal)
        out = flags.get("out")
        if out:
            write_regression(
                out, minimal, case.geometry, case.mode,
                sample_seed=case.sample_seed,
                reason=f"shrunk corpus divergence ({seed}, {index})",
            )
            print(f"regression written to {out}")
        return 0

    raise SystemExit(
        f"unknown corpus subcommand {sub!r} (known: generate, run, shrink)"
    )


def _cascade_knobs():
    """CLI flag → registered cascade-budget env knob (worker-inherited)."""
    from repro import envs

    return {
        "cascade_enum_limit": envs.CASCADE_BUDGET_ENUM,
        "cascade_partial_limit": envs.CASCADE_BUDGET_PARTIAL,
        "cascade_line_limit": envs.CASCADE_BUDGET_LINE,
        "cascade_abs_budget": envs.CASCADE_BUDGET_ABS,
    }


def _apply_cascade_flags(flags: dict) -> None:
    for flag, knob in _cascade_knobs().items():
        if flag in flags:
            value = flags[flag]
            if value < 1:
                name = "--" + flag.replace("_", "-")
                raise SystemExit(f"{name} must be >= 1, got {value}")
            knob.set(value)


def main(argv: list[str] | None = None) -> int:
    args, flags = parse_flags(list(sys.argv[1:] if argv is None else argv))
    if not args or "-h" in args or "--help" in args:
        print(__doc__)
        return 0
    _apply_cascade_flags(flags)
    from repro.telemetry import init_logging

    init_logging(flags.get("log_level"))
    what = args[0]

    if what == "kernels":
        from repro.kernels.registry import KERNELS

        for spec in KERNELS.values():
            sizes = ",".join(map(str, spec.sizes))
            print(
                f"{spec.name:10s} {spec.program:9s} depth={spec.depth} "
                f"sizes=[{sizes}]  {spec.description}"
            )
        return 0

    if what == "landscape":
        from repro.analysis.landscape import count_local_minima, scan_2d_landscape
        from repro.cache.config import CACHE_8KB_DM
        from repro.kernels.registry import get_kernel

        name = args[1] if len(args) > 1 else "MM"
        size = int(args[2]) if len(args) > 2 else None
        scan = scan_2d_landscape(get_kernel(name, size), CACHE_8KB_DM, points=14)
        print(scan.render())
        print(f"grid-local minima: {count_local_minima(scan)}")
        return 0

    if what == "source":
        from repro.ir.parser import nest_to_dsl
        from repro.kernels.registry import get_kernel

        name = args[1] if len(args) > 1 else "MM"
        size = int(args[2]) if len(args) > 2 else None
        print(nest_to_dsl(get_kernel(name, size)))
        return 0

    if what == "lint":
        from repro.contracts import lint_main

        return lint_main(
            root=args[1] if len(args) > 1 else ".",
            baseline=flags.get("baseline"),
            format=flags.get("format", "text"),
        )

    if what == "serve":
        from repro.distributed import serve

        return serve(
            flags.get("port", 7070),
            host=flags.get("bind", "127.0.0.1"),
            capacity=flags.get("capacity", 1),
        )

    if what == "corpus":
        return _run_corpus_command(args, flags)

    if what == "search":
        return _run_search_command(args, flags)

    if what == "report":
        return _run_report_command(args, flags)

    if what == "portfolio":
        from repro import telemetry
        from repro.experiments.common import ExperimentConfig
        from repro.experiments.portfolio import (
            DEFAULT_MEMBERS,
            format_portfolio,
            run_portfolio_comparison,
        )

        members = flags.get("members")
        trace_path = _telemetry_session(flags)
        try:
            rows, sharing = run_portfolio_comparison(
                kernel=args[1] if len(args) > 1 else "MM",
                size=int(args[2]) if len(args) > 2 else 100,
                config=ExperimentConfig(
                    workers=flags.get("workers"),
                    seed=flags.get("seed", 0),
                ),
                budget=flags.get("budget"),
                members=tuple(members.split(",")) if members else DEFAULT_MEMBERS,
                restart=flags.get("restart", "stagnation:5"),
                mode=flags.get("portfolio_mode", "interleave"),
            )
        finally:
            telemetry.shutdown()
        print(format_portfolio(rows, sharing))
        _export_chrome(flags, trace_path)
        return 0

    from repro.experiments.associativity import format_associativity, run_associativity
    from repro.experiments.common import ExperimentConfig, full_mode
    from repro.experiments.convergence import format_convergence, run_convergence
    from repro.experiments.figure8 import format_figure, run_figure8
    from repro.experiments.figure9 import run_figure9
    from repro.experiments.solver_speed import format_validation, run_solver_validation
    from repro.experiments.table2 import format_table2, run_table2
    from repro.experiments.table3 import format_table3, run_table3
    from repro.experiments.table4 import format_table4, run_table4

    config = ExperimentConfig(
        workers=flags.get("workers"),
        seed=flags.get("seed", 0),
    )
    mode = "full (paper budget)" if full_mode() else "quick"
    if config.workers > 1:
        mode += f", {config.workers} workers"
    print(f"# repro experiment runner — {mode} mode\n")

    if what in ("table2", "all"):
        print(format_table2(run_table2(config)), "\n")
    if what in ("table3", "all"):
        print(format_table3(run_table3(config)), "\n")
    if what in ("figure8", "figure9", "table4", "all"):
        fig8 = run_figure8(config) if what in ("figure8", "table4", "all") else None
        fig9 = run_figure9(config) if what in ("figure9", "table4", "all") else None
        if fig8 is not None and what != "table4":
            print(format_figure(fig8, "Figure 8: replacement miss ratio (8KB DM)"), "\n")
        if fig9 is not None and what != "table4":
            print(format_figure(fig9, "Figure 9: replacement miss ratio (32KB DM)"), "\n")
        if what in ("table4", "all"):
            print(format_table4(run_table4(config, fig8, fig9)), "\n")
    if what in ("convergence", "all"):
        print(format_convergence(run_convergence(config=config)), "\n")
    if what in ("validate", "all"):
        print(format_validation(run_solver_validation()), "\n")
    if what in ("associativity", "all"):
        print(format_associativity(run_associativity(config)), "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
