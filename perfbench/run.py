"""End-to-end tile-search benchmark: closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mm-2way --seed 0 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
time to a search answer and solves per second, both at the reference
host speed (see ``hostspeed.py``), cold set-up time, peak memory and the
CME model's gap to exact simulation.  ``--trace 1`` alternates untraced
and traced searches on the same GA seed and reports the per-layer
metrics (see ``layers.py``), the raw wall time and probe time, and the
tracing overhead.
Both modes check every answer (see ``workloads.py``).  Metric names and
units come from ``BENCHMARK.json``; the last stdout line is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.  Provenance
and per-round detail go to the line before it and to
``.perfbench_work/results/``.

``--pin`` re-derives ``expected.json`` (the pinned answers) instead of
measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
PINS_PATH = os.path.join(HERE, "expected.json")

#: Untraced searches per run, at least (the reported time is their median).
MIN_ROUNDS = 3
#: Untraced/traced search pairs per traced run, at least.
MIN_PAIRS = 1
MAX_ROUNDS = 60
#: Cold starts per untraced run (``setup_s`` is their median).
SETUP_REPS = 3
PIN_SEEDS = (0, 1)
PIN_ROUNDS = 12


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


# -- provenance ------------------------------------------------------------------
def source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, rounds: int) -> dict:
    import numpy

    from workloads import BUDGET

    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "reps": rounds,
        "budget": BUDGET,
    }


# -- measurement loop -------------------------------------------------------------
def failed_round(workload, seed: int, exc: BaseException):
    from workloads import Round

    rnd = Round(seed)
    rnd.attempted = 1
    rnd.search_s = None
    rnd.errors = [
        f"{workload.name} raised: "
        + "".join(traceback.format_exception_only(type(exc), exc)).strip()
    ]
    traceback.print_exc()
    return rnd


def measure(run_one, seconds: float, min_rounds: int, probe) -> tuple[list, list]:
    """Run rounds until the next one would end past ``seconds``.

    ``probe()`` is timed before the first round and after each one, so
    round ``i`` lies between probes ``i`` and ``i + 1``.
    """
    results, probes = [], [probe()]
    start = time.perf_counter()
    while len(results) < MAX_ROUNDS:
        began = time.perf_counter()
        results.append(run_one(len(results)))
        probes.append(probe())
        now = time.perf_counter()
        if len(results) >= min_rounds and (now - start) + (now - began) > seconds:
            break
    return results, probes


def reference_scale(probes: list) -> list:
    """Per round: the factor that takes its wall time to the reference speed."""
    from hostspeed import REFERENCE_S

    return [
        REFERENCE_S / statistics.fmean(probes[i:i + 2])
        for i in range(len(probes) - 1)
    ]


def guarded(workload, pins, seed: int, tracer=None):
    try:
        return workload.run_round(seed, pins, tracer)
    except Exception as exc:  # a failed search is counted, not fatal
        return failed_round(workload, seed, exc)


def cold_setup_s(workload, seed: int, cpu: int) -> float:
    """Wall time of one cold start, pinned (with its agent) to ``cpu``."""
    from hostspeed import on_cpu

    env = dict(os.environ, PYTHONPATH=SRC)
    with on_cpu(cpu):
        start = time.perf_counter()
        subprocess.run(
            [
                sys.executable, os.path.join(HERE, "cold_setup.py"),
                "--workload", workload.name, "--seed", str(seed),
                "--work-dir", WORK_DIR,
            ],
            cwd=ROOT, env=env, check=True, timeout=120,
        )
        return time.perf_counter() - start


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_untraced(workload, args, pins) -> tuple[dict, list, dict]:
    from hostspeed import probe_s, solve_cpu
    from workloads import Round, ga_seed, model_gap

    cpu = solve_cpu()
    setups, setup_probes = [], [probe_s(cpu)]
    for _ in range(SETUP_REPS):
        setups.append(cold_setup_s(workload, args.seed, cpu))
        setup_probes.append(probe_s(cpu))
    workload.open()
    try:
        rounds, probes = measure(
            lambda r: guarded(workload, pins, ga_seed(args.seed, r)),
            args.seconds, MIN_ROUNDS, lambda: probe_s(workload.solve_cpu),
        )
    finally:
        workload.close()
    timed = [
        (r, r.search_s * scale)
        for r, scale in zip(rounds, reference_scale(probes))
        if r.search_s is not None
    ]
    if not timed:
        raise RuntimeError("no search completed")
    gap, gap_errors, gap_detail = model_gap(pins)
    metrics = {
        "search_ref_s": median([ref_s for _, ref_s in timed]),
        "solves_per_ref_s": median([r.new_solves / ref_s for r, ref_s in timed]),
        "setup_s": median(
            [s * scale for s, scale in zip(setups, reference_scale(setup_probes))]
        ),
        "peak_rss_mb": peak_rss_mb(),
        "model_gap_pp": gap,
    }
    # The model-accuracy set counts as one more checked round.
    validation = Round(seed=None)
    validation.attempted = len(gap_detail)
    validation.errors = gap_errors
    validation.extra = {"validation": gap_detail}
    detail = {
        "setup_wall_s": setups, "setup_probe_s": setup_probes, "probe_s": probes,
    }
    return metrics, rounds + [validation], detail


def run_traced(workload, args, pins) -> tuple[dict, list, dict]:
    from hostspeed import probe_s
    from layers import LayerTracer
    from workloads import ga_seed

    tracer = LayerTracer()
    pairs = []
    first_waves = []

    def one_pair(r):
        seed = ga_seed(args.seed, r)
        if r % 2:  # alternate the order so neither side always goes first
            mark = len(tracer.spans)
            traced = guarded(workload, pins, seed, tracer)
            plain = guarded(workload, pins, seed)
        else:
            plain = guarded(workload, pins, seed)
            mark = len(tracer.spans)
            traced = guarded(workload, pins, seed, tracer)
        waves = [
            s for s in tracer.spans[mark:]
            if s is not None and s[1] == "evaluate_batch"
        ]
        if waves:
            first_waves.append(waves[0][3] - waves[0][2])
        return plain, traced

    workload.open()
    try:
        pairs, probes = measure(
            one_pair, args.seconds, MIN_PAIRS, lambda: probe_s(workload.solve_cpu)
        )
    finally:
        workload.close()
    tracer.dump(
        os.path.join(
            WORK_DIR, "results", f"{workload.name}-seed{args.seed}-spans.json"
        )
    )
    rounds = [r for pair in pairs for r in pair]
    plain = [p for p, _ in pairs if p.search_s is not None]
    traced = [t for _, t in pairs if t.search_s is not None]
    if not traced or not plain:
        raise RuntimeError("no search completed")
    metrics = layer_metrics(tracer, traced, rounds, first_waves)
    metrics["search.wall_s"] = median([p.search_s for p in plain])
    metrics["host.probe_s"] = median(probes)
    metrics["trace.overhead_pct"] = 100.0 * (
        median([t.search_s for t in traced]) / median([p.search_s for p in plain])
        - 1.0
    )
    return metrics, rounds, {"probe_s": probes}


def layer_metrics(tracer, traced: list, rounds: list, first_waves: list) -> dict:
    n = len(traced)
    traced_s = sum(r.search_s for r in traced)
    times = tracer.layer_times()

    def total(layer):
        return times.get(layer, {}).get("total", 0.0)

    def by_layer(layer, op):
        return [
            s[3] - s[2] for s in tracer.spans
            if s is not None and s[0] == layer and s[1] == op
        ]

    solve_ms = [1000.0 * d for d in tracer.durations("estimate_at_points")]
    waves = by_layer("evaluation", "evaluate_batch")
    remote_waves = by_layer("distributed", "evaluate_batch")
    polyhedra_calls = sum(
        1 for s in tracer.spans if s is not None and s[0] == "polyhedra"
    )
    evaluations = [r.evaluation for r in traced if r.evaluation]
    calls = sum(e["calls"] for e in evaluations)
    memo_hits = sum(e["memo_hits"] for e in evaluations)
    cold = [r.extra["cold"] for r in traced if "cold" in r.extra]
    warm = [r.extra["warm"] for r in traced if "warm" in r.extra]
    remote = sum(c["remote_solves"] for c in cold)
    store_hits = sum(w["store_hits"] for w in warm)
    warm_lookups = sum(w["store_hits"] + w["new_solves"] for w in warm)
    metrics = {
        "search.waves": tracer.waves / n,
        "search.propose_s": sum(tracer.durations("propose")) / n,
        "search.resolve_s": sum(tracer.durations("observe")) / n,
        "search.repl_after_pct": statistics.fmean(
            r.repl_after_pct for r in rounds if r.search_s is not None
        ),
        "evaluation.calls": calls / n,
        "evaluation.memo_hits": memo_hits / n,
        "evaluation.new_solves": statistics.fmean(r.new_solves for r in traced),
        "evaluation.memo_hit_ratio": memo_hits / calls if calls else 0.0,
        "evaluation.first_wave_s": statistics.fmean(first_waves) if first_waves else 0.0,
        "evaluation.wave_s_p50": median(waves),
        "evaluation.wave_s_max": max(waves, default=0.0),
        "transform.tile_program_s": total("transform") / n,
        "transform.tile_program_calls": tracer.count("tile_program") / n,
        "reuse.candidates_s": total("reuse") / n,
        "reuse.candidates": tracer.reuse_candidates / n,
        "cme.solves": len(solve_ms) / n,
        "cme.solve_ms_p50": median(solve_ms),
        "cme.solve_ms_p95": percentile(solve_ms, 95),
        "cme.classify_s": sum(tracer.durations("classify_batch")) / n,
        "cme.self_s": times.get("cme", {}).get("self", 0.0) / n,
        "cme.self_share": times.get("cme", {}).get("self", 0.0) / traced_s,
        "polyhedra.cascade_s": total("polyhedra") / n,
        "polyhedra.cascade_calls": polyhedra_calls / n,
        "polyhedra.share": total("polyhedra") / traced_s,
        "distributed.remote_solves": remote / n,
        "distributed.local_solves": sum(c["local_solves"] for c in cold) / n,
        "distributed.store_hits": store_hits / n,
        "distributed.store_hit_ratio": store_hits / warm_lookups if warm_lookups else 0.0,
        "distributed.bytes_per_solve": (
            sum(c["payload_bytes"] for c in cold) / remote if remote else 0.0
        ),
        "distributed.redispatched_chunks": (
            sum(c["redispatched_chunks"] for c in cold) / n
        ),
        "distributed.wave_s_p50": median(remote_waves),
        "distributed.warm_s": median(
            [r.extra["warm_s"] for r in rounds if "warm_s" in r.extra]
        ),
    }
    for key, value in tracer.solver.items():
        metrics[f"cme.{key}"] = value / n
    for key, value in tracer.tester.items():
        metrics[f"polyhedra.{key}"] = value / n
    return metrics


# -- pinning -------------------------------------------------------------------------
def pin(workload_names: list[str]) -> int:
    from workloads import ga_seed, make_workloads, model_gap

    pins = load_pins()
    workloads = make_workloads(WORK_DIR)
    for name in workload_names:
        workload = workloads[name]
        answers = pins.setdefault(name, {})
        workload.open()
        try:
            for seed in PIN_SEEDS:
                for r in range(PIN_ROUNDS):
                    rnd = workload.run_round(ga_seed(seed, r), {})
                    if rnd.errors:
                        print("\n".join(rnd.errors), file=sys.stderr)
                        return 1
                    answers[str(rnd.seed)] = rnd.answer
                    print(name, rnd.seed, rnd.answer, flush=True)
        finally:
            workload.close()
    _gap, _errors, detail = model_gap({})
    pins["validation"] = {k: v["exact"] for k, v in detail.items()}
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


# -- entry point ------------------------------------------------------------------------
def prepare_environment() -> None:
    # The benchmark pins its own configuration: no inherited knobs.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    tmp = os.path.join(WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    os.environ["TMPDIR"] = tmp
    sys.path.insert(0, SRC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", nargs="*", metavar="WORKLOAD",
        help="re-derive expected.json for these workloads and exit",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package under {SRC}", file=sys.stderr)
        return 2
    if not os.path.exists(SPEC_PATH):
        print(f"perfbench: {SPEC_PATH} missing", file=sys.stderr)
        return 2
    prepare_environment()
    if args.pin is not None:
        return pin(args.pin or ["mm-dm", "mm-2way"])

    from workloads import make_workloads

    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    workloads = make_workloads(WORK_DIR)
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {sorted(workloads)}")
    workload = workloads[args.workload]
    pins = load_pins()
    runner = run_traced if args.trace else run_untraced
    values, rounds, detail = runner(workload, args, pins)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(
            f"metric names differ from {SPEC_PATH}: "
            f"missing {sorted(set(units) - set(values))}, "
            f"extra {sorted(set(values) - set(units))}"
        )
    attempted = sum(r.attempted for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    failed = sum(min(r.attempted, len(r.errors)) for r in rounds)
    for error in errors:
        print(f"perfbench: FAILED {error}", file=sys.stderr)

    prov = provenance(args, sum(1 for r in rounds if r.seed is not None))
    record = {
        "provenance": prov,
        "metrics": values,
        "rounds": [r.as_dict() for r in rounds],
        "errors": errors,
        **detail,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK_DIR, "results", name), "w") as fh:
        json.dump(record, fh, indent=1)
    for key in units:
        print(f"{key:32s} {values[key]:14.6g} {units[key]}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": values[key], "unit": units[key]} for key in units
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
