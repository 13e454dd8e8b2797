"""Benchmark: regenerate Figure 9 (27 kernel bars, 32KB direct-mapped)."""

from benchmarks.conftest import publish, results_path
from repro.experiments.figure8 import CONFLICT_KERNELS, format_figure
from repro.experiments.figure9 import run_figure9
from repro.report.export import figure_rows_to_json


def test_figure9_reproduction(benchmark, experiment_config):
    rows = benchmark.pedantic(
        run_figure9, args=(experiment_config,), rounds=1, iterations=1
    )
    publish("figure9", format_figure(rows, "Figure 9: replacement miss ratio (32KB DM)"))
    results_path("figure9.json").write_text(
        figure_rows_to_json(rows, "32KB-DM") + "\n"
    )
    assert len(rows) == 27
    for r in rows:
        assert r.repl_tiling <= r.repl_no_tiling + 0.02, r.label
        if r.kernel not in CONFLICT_KERNELS | {"ADI"}:
            assert r.repl_tiling < 0.12, (r.label, r.repl_tiling)
