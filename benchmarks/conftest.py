"""Shared benchmark configuration.

``pytest benchmarks/ --benchmark-only`` regenerates every table and
figure of the paper at a reduced GA budget (the pipeline is identical;
only population/generations shrink — set ``REPRO_FULL=1`` for the
paper's exact budget).  Each module prints its paper-vs-measured table
and also writes it to ``bench_results/`` under the pytest session's
temp dir (pick it with ``--basetemp``), so the output survives pytest's
capture without a test run rewriting the committed ``bench_results/``.
To refresh the committed record, copy a run's files over it::

    pytest benchmarks/ --basetemp=bench-out
    cp bench-out/bench_results/* bench_results/
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess

import pytest

from repro.experiments.common import ExperimentConfig, full_mode
from repro.ga.engine import GAConfig

BENCH_DIR = pathlib.Path(__file__).resolve().parent
#: This session's output directory, ``<basetemp>/bench_results``; set
#: by the session fixture below before any benchmark runs.
RESULTS_DIR: pathlib.Path | None = None


def pytest_collection_modifyitems(config, items):
    """Everything under benchmarks/ is a long-running experiment
    reproduction: mark it ``slow`` so ``pytest -m "not slow"`` gives a
    fast lane (the tests/ suite) without listing files by hand."""
    for item in items:
        if BENCH_DIR in pathlib.Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session", autouse=True)
def _session_results_dir(tmp_path_factory):
    # Pytest loads this file as a conftest module of its own; the
    # benchmark modules import ``benchmarks.conftest``, so set the
    # directory on that instance.
    from benchmarks import conftest as shared

    shared.RESULTS_DIR = tmp_path_factory.getbasetemp() / "bench_results"
    shared.RESULTS_DIR.mkdir(exist_ok=True)


def results_path(name: str) -> pathlib.Path:
    """Path of a result file in this session's output directory."""
    if RESULTS_DIR is None:
        raise RuntimeError("benchmark results directory not set up")
    return RESULTS_DIR / name


def bench_config(seed: int = 0) -> ExperimentConfig:
    """Benchmark-scale budget: smaller population, baseline-seeded."""
    if full_mode():
        return ExperimentConfig(seed=seed)
    return ExperimentConfig(
        ga=GAConfig(
            population_size=8, min_generations=4, max_generations=6, seed=seed
        ),
        n_samples=164,
        seed=seed,
    )


def publish(name: str, text: str) -> None:
    """Print a result table and persist it under bench_results/."""
    results_path(f"{name}.txt").write_text(text + "\n")
    print("\n" + text + "\n")


def _split_sections(text: str) -> list[list[str]]:
    """Split a results file into format_table sections.

    A section starts at a title line whose next line is its ``===``
    underline (the :func:`repro.experiments.common.format_table`
    layout); leading content before the first title forms its own
    block.
    """
    lines = text.split("\n")
    sections: list[list[str]] = [[]]
    for i, line in enumerate(lines):
        underlined = (
            i + 1 < len(lines)
            and line
            and lines[i + 1] == "=" * len(line)
        )
        if underlined:
            sections.append([])
        sections[-1].append(line)
    return [s for s in sections if any(ln.strip() for ln in s)]


def publish_section(name: str, text: str) -> None:
    """Write one table into a multi-section bench_results file.

    The section with the same title line is replaced in place (other
    sections are preserved), so tests can regenerate their own table
    in any order — standalone or repeated — without clobbering or
    duplicating their neighbours'.
    """
    path = results_path(f"{name}.txt")
    title = text.splitlines()[0]
    sections = _split_sections(path.read_text()) if path.exists() else []
    new = "\n".join(ln for ln in text.split("\n")).strip("\n")
    replaced = False
    rendered: list[str] = []
    for section in sections:
        if section[0] == title:
            rendered.append(new)
            replaced = True
        else:
            rendered.append("\n".join(section).strip("\n"))
    if not replaced:
        rendered.append(new)
    path.write_text("\n".join(rendered) + "\n")
    print("\n" + text + "\n")


def _git_commit() -> str | None:
    """``git rev-parse HEAD`` of this checkout, or None outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=BENCH_DIR, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    """The ``model name`` line of ``/proc/cpuinfo``, else the platform's."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def publish_bench_rows(name: str, rows: list[dict]) -> None:
    """Machine-readable perf trajectory: ``bench_results/BENCH_<name>.json``.

    Each row is ``{bench, commit, cpu_model, cpu_count, config, wall_s,
    speedup}`` so the numbers are comparable across PRs, tell which
    machine and commit made them, and upload as a CI artifact.
    """
    origin = {
        "commit": _git_commit(),
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
    }
    payload = [{"bench": name, **origin, **row} for row in rows]
    path = results_path(f"BENCH_{name}.json")
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[bench] wrote {path}")


@pytest.fixture(scope="session")
def experiment_config() -> ExperimentConfig:
    return bench_config()
