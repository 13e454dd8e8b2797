"""Benchmark: regenerate Figure 8 (27 kernel bars, 8KB direct-mapped)."""

from benchmarks.conftest import publish, results_path
from repro.experiments.figure8 import CONFLICT_KERNELS, format_figure, run_figure8
from repro.report.charts import paired_bar_chart
from repro.report.export import figure_rows_to_json


def test_figure8_reproduction(benchmark, experiment_config):
    rows = benchmark.pedantic(
        run_figure8, args=(experiment_config,), rounds=1, iterations=1
    )
    publish("figure8", format_figure(rows, "Figure 8: replacement miss ratio (8KB DM)"))
    publish(
        "figure8_chart",
        paired_bar_chart(
            [r.label for r in rows],
            [r.repl_no_tiling for r in rows],
            [r.repl_tiling for r in rows],
            title="Figure 8 (8KB direct-mapped)",
        ),
    )
    results_path("figure8.json").write_text(
        figure_rows_to_json(rows, "8KB-DM") + "\n"
    )
    assert len(rows) == 27
    # Shape claims: tiling never hurts, and removes nearly all
    # replacement misses outside the kernels the paper hands to padding
    # (Table 3 lists ADD/BTRIX/VPENTA plus the large ADI instances).
    for r in rows:
        assert r.repl_tiling <= r.repl_no_tiling + 0.02, r.label
        if r.kernel not in CONFLICT_KERNELS | {"ADI"}:
            assert r.repl_tiling < 0.12, (r.label, r.repl_tiling)
