"""CI perf-regression gate over the ``BENCH_*.json`` trajectory.

``bench_results/BENCH_*.json`` is the machine-readable perf record the
benchmarks commit to the repository.  This gate re-runs nothing itself:
it compares a *fresh* set of bench JSON files (produced by the CI bench
steps) against the *committed baseline* set, row by row, and fails when
any row's ``wall_s`` regressed by more than the tolerance:

    fresh_wall > baseline_wall * (1 + tolerance)  →  FAIL

Usage (benchmarks write into the pytest session's temp dir, so the
committed files stay put; files a run does not regenerate keep their
committed rows)::

    pytest benchmarks/... -m slow --basetemp=bench-out
    cp -n bench_results/BENCH_*.json bench-out/bench_results/
    python benchmarks/check_regression.py --baseline bench_results \
        --fresh bench-out/bench_results

Row matching and comparability rules:

* rows pair by ``(file, bench, config)``;
* ``wall_s`` is compared only between rows with a numeric value on
  both sides **and** the same ``cpu_count`` — wall-clock across
  different core counts is not a regression signal (the multi-core
  lane records its own rows);
* ``speedup`` — dimensionless, so comparable across machines — is
  additionally gated whenever both sides carry it: a fresh speedup
  below ``baseline * (1 - tolerance)`` fails even where the walls
  were skipped (this is what keeps the gate armed on CI runners whose
  hardware differs from the box that committed the baseline);
* new rows (no baseline) pass with a notice; vanished rows fail, so a
  bench cannot dodge the gate by silently dropping its output;
* every wall and speedup line names the commit and CPU model of both
  sides (``unknown`` for rows that predate them), so a failure says
  which machines it compared.

The tolerance defaults to the registered ``REPRO_BENCH_TOLERANCE``
knob (0.25 — CI runners are noisy; benches here are min-of-N which
tames most of it) and can be overridden per run with ``--tolerance``.
Speed *improvements* are never failures; they simply become the new
committed baseline when the JSON is checked in.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro import envs


def load_rows(directory: pathlib.Path) -> dict[tuple, dict]:
    """All bench rows under ``directory``, keyed by (file, bench, config)."""
    rows: dict[tuple, dict] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        for row in json.loads(path.read_text()):
            key = (path.name, row.get("bench"), row.get("config"))
            rows[key] = row
    return rows


def _origin(row: dict) -> str:
    """``<commit> on <cpu model>`` of one row."""
    commit = row.get("commit")
    commit = commit[:12] if commit else "unknown commit"
    return f"{commit} on {row.get('cpu_model') or 'unknown CPU'}"


def compare(
    baseline: dict[tuple, dict],
    fresh: dict[tuple, dict],
    tolerance: float,
) -> tuple[list[str], list[str]]:
    """(failures, notices) from one baseline/fresh row-set comparison."""
    failures: list[str] = []
    notices: list[str] = []
    for key, base_row in sorted(baseline.items()):
        label = "{}:{}:{}".format(*key)
        fresh_row = fresh.get(key)
        if fresh_row is None:
            failures.append(f"{label}: row vanished from the fresh run")
            continue
        sides = f"[baseline {_origin(base_row)}; fresh {_origin(fresh_row)}]"
        base_wall = base_row.get("wall_s")
        fresh_wall = fresh_row.get("wall_s")
        walls_numeric = isinstance(base_wall, (int, float)) and isinstance(
            fresh_wall, (int, float)
        )
        if not walls_numeric:
            notices.append(f"{label}: no wall_s on both sides, skipped")
        elif base_row.get("cpu_count") != fresh_row.get("cpu_count"):
            notices.append(
                f"{label}: cpu_count {base_row.get('cpu_count')} → "
                f"{fresh_row.get('cpu_count')}, walls not comparable, "
                f"skipped {sides}"
            )
        else:
            limit = base_wall * (1.0 + tolerance)
            verdict = "ok" if fresh_wall <= limit else "FAIL"
            line = (
                f"{label}: wall {base_wall:.4f}s → {fresh_wall:.4f}s "
                f"(limit {limit:.4f}s) {verdict} {sides}"
            )
            (notices if fresh_wall <= limit else failures).append(line)
        base_sp = base_row.get("speedup")
        fresh_sp = fresh_row.get("speedup")
        if isinstance(base_sp, (int, float)) and isinstance(
            fresh_sp, (int, float)
        ):
            floor = base_sp * (1.0 - tolerance)
            verdict = "ok" if fresh_sp >= floor else "FAIL"
            line = (
                f"{label}: speedup {base_sp:.3f}x → {fresh_sp:.3f}x "
                f"(floor {floor:.3f}x) {verdict} {sides}"
            )
            (notices if fresh_sp >= floor else failures).append(line)
    for key in sorted(set(fresh) - set(baseline)):
        notices.append("{}:{}:{}: new row (no baseline), passes".format(*key))
    return failures, notices


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail CI when a BENCH_*.json wall time regressed "
        "beyond the tolerance vs the committed baseline."
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        required=True,
        help="directory holding the committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--fresh",
        type=pathlib.Path,
        default=pathlib.Path("bench_results"),
        help="directory holding the freshly generated BENCH_*.json files "
        "(default: bench_results)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative slack before a row fails; defaults to the "
        "REPRO_BENCH_TOLERANCE environment knob (%(default)s → "
        f"{envs.BENCH_TOLERANCE.default})",
    )
    args = parser.parse_args(argv)
    tolerance = (
        args.tolerance
        if args.tolerance is not None
        else envs.BENCH_TOLERANCE.get()
    )
    if tolerance < 0:
        parser.error("tolerance must be >= 0")
    failures, notices = compare(
        load_rows(args.baseline), load_rows(args.fresh), tolerance
    )
    for line in notices:
        print(f"[bench-gate] {line}")
    for line in failures:
        print(f"[bench-gate] {line}", file=sys.stderr)
    if failures:
        print(
            f"[bench-gate] {len(failures)} regression(s) beyond "
            f"{tolerance:.0%} tolerance (override: REPRO_BENCH_TOLERANCE "
            "or --tolerance)",
            file=sys.stderr,
        )
        return 1
    print(f"[bench-gate] all rows within {tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
