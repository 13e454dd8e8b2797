"""The telemetry recorder: write API, schema stamping, the no-op
disabled mode, and the (host, pid, seq) merge order."""

import json

import pytest

from repro import telemetry
from repro.telemetry import (
    NULL_RECORDER,
    SCHEMA_VERSION,
    MemorySink,
    merge_events,
    validate_events,
)


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    """Every test starts disabled and leaves nothing installed."""
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    telemetry.shutdown()
    yield
    telemetry.shutdown()


def test_disabled_by_default_returns_null_singleton():
    assert telemetry.recorder() is NULL_RECORDER
    assert not telemetry.active()
    assert not telemetry.recorder().enabled
    # the whole write API is a no-op and drain yields nothing
    with telemetry.recorder().span("x", a=1):
        telemetry.recorder().count("c")
        telemetry.recorder().gauge("g", 1.0)
        telemetry.recorder().event("e")
    assert telemetry.drain_events() == []


def test_write_api_emits_schema_valid_events():
    sink = MemorySink()
    rec = telemetry.configure(sink=sink, default=True)
    assert rec is telemetry.recorder() and rec.enabled
    rec.count("evaluator.new_solves", 3)
    rec.gauge("search.best_objective", 1.5, step=2)
    rec.event("worker.serve", capacity=4)
    with rec.span("search.wave", step=1):
        with rec.span("search.propose"):
            pass
    events = sink.drain()
    assert validate_events(events) == []
    assert [e["kind"] for e in events] == [
        "count", "gauge", "event", "span", "span"
    ]
    assert all(e["v"] == SCHEMA_VERSION for e in events)
    assert [e["seq"] for e in events] == list(range(5))
    # inner span closes first and links to its parent
    inner, outer = events[3], events[4]
    assert inner["name"] == "search.propose"
    assert inner["parent"] == outer["span"]
    assert outer["parent"] is None
    assert outer["dur"] >= inner["dur"] >= 0
    assert events[1]["attrs"] == {"step": 2}


def test_counters_accumulate_and_gauges_overwrite():
    rec = telemetry.configure(default=True)
    rec.count("hits")
    rec.count("hits", 4)
    rec.gauge("best", 9.0)
    rec.gauge("best", 3.0)
    assert rec.counters["hits"] == 5
    assert rec.gauges["best"] == 3.0


def test_env_zero_beats_caller_default(tmp_path, monkeypatch):
    """Explicit REPRO_TELEMETRY=0 forces telemetry off even when
    --trace asks for it: configure installs nothing, creates no file."""
    trace = tmp_path / "run.jsonl"
    monkeypatch.setenv("REPRO_TELEMETRY", "0")
    assert telemetry.enabled(default=True) is False
    assert telemetry.configure(str(trace), default=True) is None
    assert not telemetry.active()
    assert not trace.exists()


def test_env_one_beats_caller_default(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    assert telemetry.enabled(default=False) is True
    assert telemetry.configure() is not None


def test_jsonl_sink_round_trip(tmp_path):
    trace = tmp_path / "run.jsonl"
    rec = telemetry.configure(str(trace), default=True)
    rec.count("x", 2)
    rec.event("done")
    telemetry.shutdown()
    lines = trace.read_text().splitlines()
    assert len(lines) == 2
    events = [json.loads(line) for line in lines]
    assert validate_events(events) == []
    assert telemetry.load_events(trace) == events


def test_nonfinite_values_stay_json_strict(tmp_path):
    trace = tmp_path / "run.jsonl"
    rec = telemetry.configure(str(trace), default=True)
    rec.gauge("portfolio.member_best", float("inf"), slot=0)
    telemetry.shutdown()
    evt = json.loads(trace.read_text())  # strict JSON must parse it
    assert evt["value"] == "inf"


def test_merge_is_independent_of_batch_order():
    batches = []
    for host, pid in (("a:1", 10), ("b:2", 20), ("local", 5)):
        batches.append(
            [
                {"v": 1, "kind": "event", "name": f"e{i}", "ts": 0.0,
                 "host": host, "pid": pid, "seq": i}
                for i in range(3)
            ]
        )
    forward = merge_events(batches)
    backward = merge_events(reversed(batches))
    assert forward == backward
    assert [e["seq"] for e in forward if e["host"] == "a:1"] == [0, 1, 2]


def test_ingest_preserves_foreign_stamps():
    rec = telemetry.configure(default=True)
    foreign = [
        {"v": 1, "kind": "count", "name": "remote", "ts": 1.0,
         "host": "w:9", "pid": 99, "seq": 7, "value": 1, "attrs": {}}
    ]
    rec.count("local.first")
    telemetry.ingest(foreign)
    events = telemetry.drain_events()
    shipped = [e for e in events if e["host"] == "w:9"]
    assert shipped == foreign  # host/pid/seq untouched, no re-stamping


def test_ingest_without_recorder_is_a_no_op():
    telemetry.ingest([{"kind": "event", "name": "x"}])  # must not raise
    assert telemetry.drain_events() == []


def test_memory_sink_bounds_and_counts_drops():
    sink = MemorySink(limit=4)
    rec = telemetry.configure(sink=sink, default=True)
    for i in range(10):
        rec.count("c", i)
    assert len(sink.events) == 4
    assert sink.dropped == 6


def _cme_counts(sink) -> dict:
    totals: dict = {}
    for e in sink.drain():
        if e["kind"] == "count" and e["name"].startswith("cme."):
            totals[e["name"]] = totals.get(e["name"], 0) + e["value"]
    return totals


def _skipped_by_scalar_walks(analyzer, tilings) -> int:
    """The older sources `classify_ref` leaves untried after the kills
    that end its REPLACEMENT walks, over the analyzer's sample."""
    from repro.cme.solver import Outcome, PointClassifier

    skipped = 0
    for tiles in tilings:
        prog = analyzer.program(tiles)
        clf = PointClassifier(
            prog, analyzer.layout, analyzer.cache,
            cascade_budgets=analyzer.cascade_budgets,
        )
        for o in analyzer._points:
            p = prog.point_map.from_original(o)
            for idx, ref in enumerate(clf._refs):
                line0 = clf._addr(idx, p) // clf._L
                tried = clf.stats.sources_checked
                if clf.classify_ref(ref.position, p) is Outcome.REPLACEMENT:
                    skipped += len(clf._reuse_sources(idx, p, line0)) - (
                        clf.stats.sources_checked - tried
                    )
    return skipped


def test_classify_pass_counts_candidates_and_merged_kernel_calls(monkeypatch):
    """`classify_many` records per pass how many candidates it classified,
    the locksteps they ran in (two: the untiled program's coordinate rank
    is not the tilings'), how many kernel calls their lockstep rounds
    took on either geometry, the boxes those calls answered, the (row,
    residue) entries the kernel listed, the batched cascade calls (a
    small `enum_limit` sends boxes there), the older sources its
    direct-mapped walks left untried after proven kills (none at 2
    ways), and the reuse-source tables (and their rows) the pass built:
    one for four tilings of one nest and sample.  The batched rung is
    pinned: the scalar one makes no cascade calls."""
    from repro.cache.config import CacheConfig
    from repro.cme import solver
    from repro.cme.analyzer import LocalityAnalyzer
    from repro.polyhedra import kernels
    from tests.conftest import make_small_mm

    monkeypatch.setenv("REPRO_BATCH_CASCADE", "1")
    calls, entries, rows, steps = [], [], [], []

    def spying(kernel):
        def spy(first, *args):
            before = kernels.entries_listed()
            out = kernel(first, *args)
            calls.append(len(first))
            entries.append(kernels.entries_listed() - before)
            return out

        return spy

    class Table(solver.SourceTable):
        def __init__(self, *args):
            super().__init__(*args)
            rows.append(len(self.src))

    def stepping(name, fn):
        def step(*args, **kwargs):
            steps.append(name)
            return fn(*args, **kwargs)

        return step

    for name in ("boxes_interfere", "box_line_counts"):
        monkeypatch.setattr(solver, name, spying(getattr(solver, name)))
    monkeypatch.setattr(solver, "SourceTable", Table)
    monkeypatch.setattr(
        solver._Lockstep, "run", stepping("lockstep", solver._Lockstep.run)
    )
    cascade = solver.BatchCascade
    for name in ("exists_interference_many", "count_interfering_lines_many"):
        monkeypatch.setattr(cascade, name, stepping("cascade", getattr(cascade, name)))
    for assoc in (1, 2):
        for acc in (calls, entries, rows, steps):
            acc.clear()
        sink = MemorySink()
        telemetry.configure(sink=sink, default=True)
        analyzer = LocalityAnalyzer(
            make_small_mm(24), CacheConfig(8192, 32, assoc), n_samples=40,
            cascade_budgets={"enum_limit": 24},
        )
        tilings = [(5, 7, 24), (3, 24, 8), (12, 12, 12), None]
        analyzer.estimate_many(tilings)
        skipped = _skipped_by_scalar_walks(analyzer, tilings)
        assert _cme_counts(sink) == {
            "cme.classify_passes": 1,
            "cme.classify_candidates": 4,
            "cme.locksteps": 2,
            "cme.kernel_calls": len(calls),
            "cme.kernel_boxes": sum(calls),
            "cme.kernel_entries": sum(entries),
            "cme.cascade_calls": steps.count("cascade"),
            "cme.sources_skipped": skipped,
            "cme.source_tables": 1,
            "cme.source_rows": rows[0],
        }, assoc
        assert steps.count("lockstep") == 2 and steps.count("cascade") > 0
        assert (skipped > 0) if assoc == 1 else (skipped == 0)
        assert calls and sum(entries) > 0 and len(rows) == 1 and rows[0] > 0


def test_ga_search_builds_one_source_table():
    """A GA seed-0 search of MM_500 (budget 60, 8KB DM) classifies its
    62 estimates (3 waves, then before and after) in 5 passes of one nest
    and sample: the first builds the table of the analyzer's sample and
    the other four take it from the analyzer's rows, where each pass
    built its own (5 tables).  The answer is the pinned one."""
    from repro.cache.config import CacheConfig
    from repro.kernels.registry import KERNELS
    from repro.search.tiling import search_tiling
    from tests.cme.test_solver_golden_stats import SEARCH_GOLDEN

    sink = MemorySink()
    telemetry.configure(sink=sink, default=True)
    out = search_tiling(
        KERNELS["MM"].build(500), CacheConfig(8 * 1024, 32, 1),
        strategy="ga", budget=60, seed=0,
    )
    totals = _cme_counts(sink)
    assert out.tile_sizes == SEARCH_GOLDEN[1][0]
    assert totals["cme.classify_candidates"] == 62
    assert totals["cme.classify_passes"] == 5
    assert totals["cme.source_tables"] == 1
