"""The CI perf gate: row pairing, tolerance, and override semantics."""

import json

import pytest

from benchmarks.check_regression import compare, load_rows, main


def _write(directory, name, rows):
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(json.dumps(rows))


def _row(config, wall, cpu=1, bench="solver"):
    return {"bench": bench, "cpu_count": cpu, "config": config, "wall_s": wall}


def test_within_tolerance_passes(tmp_path, capsys):
    _write(tmp_path / "base", "BENCH_solver.json", [_row("8KB", 0.100)])
    _write(tmp_path / "fresh", "BENCH_solver.json", [_row("8KB", 0.120)])
    rc = main(["--baseline", str(tmp_path / "base"),
               "--fresh", str(tmp_path / "fresh"), "--tolerance", "0.25"])
    assert rc == 0
    assert "all rows within 25%" in capsys.readouterr().out


def test_regression_beyond_tolerance_fails(tmp_path, capsys):
    _write(tmp_path / "base", "BENCH_solver.json", [_row("8KB", 0.100)])
    _write(tmp_path / "fresh", "BENCH_solver.json", [_row("8KB", 0.126)])
    rc = main(["--baseline", str(tmp_path / "base"),
               "--fresh", str(tmp_path / "fresh"), "--tolerance", "0.25"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().err


def test_env_knob_sets_default_tolerance(tmp_path, monkeypatch, capsys):
    _write(tmp_path / "base", "BENCH_solver.json", [_row("8KB", 0.100)])
    _write(tmp_path / "fresh", "BENCH_solver.json", [_row("8KB", 0.140)])
    args = ["--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh")]
    monkeypatch.setenv("REPRO_BENCH_TOLERANCE", "0.25")
    assert main(args) == 1
    capsys.readouterr()
    # the documented noisy-runner override
    monkeypatch.setenv("REPRO_BENCH_TOLERANCE", "0.50")
    assert main(args) == 0


def test_vanished_row_fails_new_row_passes(tmp_path, capsys):
    _write(tmp_path / "base", "BENCH_solver.json",
           [_row("gone", 0.1)])
    _write(tmp_path / "fresh", "BENCH_solver.json",
           [_row("brand-new", 0.9)])
    rc = main(["--baseline", str(tmp_path / "base"),
               "--fresh", str(tmp_path / "fresh"), "--tolerance", "0.25"])
    out = capsys.readouterr()
    assert rc == 1
    assert "vanished" in out.err
    assert "new row" in out.out


def test_cpu_count_mismatch_is_skipped_not_failed(tmp_path, capsys):
    _write(tmp_path / "base", "BENCH_solver.json", [_row("8KB", 0.100, cpu=1)])
    _write(tmp_path / "fresh", "BENCH_solver.json", [_row("8KB", 9.999, cpu=4)])
    rc = main(["--baseline", str(tmp_path / "base"),
               "--fresh", str(tmp_path / "fresh"), "--tolerance", "0.25"])
    assert rc == 0
    assert "not comparable" in capsys.readouterr().out


def test_speedup_drop_fails_even_across_cpu_counts(tmp_path, capsys):
    """The dimensionless column keeps the gate armed on foreign hardware."""
    base = dict(_row("8KB", 0.100, cpu=1), speedup=2.5)
    fresh = dict(_row("8KB", 0.080, cpu=4), speedup=1.2)
    _write(tmp_path / "base", "BENCH_solver.json", [base])
    _write(tmp_path / "fresh", "BENCH_solver.json", [fresh])
    rc = main(["--baseline", str(tmp_path / "base"),
               "--fresh", str(tmp_path / "fresh"), "--tolerance", "0.25"])
    out = capsys.readouterr()
    assert rc == 1
    assert "not comparable" in out.out  # the wall check stood down...
    assert "speedup" in out.err  # ...the speedup check did not


def test_speedup_within_tolerance_passes():
    base = {("f", "b", "c"): {"wall_s": 1.0, "cpu_count": 1, "speedup": 2.0}}
    fresh = {("f", "b", "c"): {"wall_s": 1.0, "cpu_count": 1, "speedup": 1.6}}
    failures, notices = compare(base, fresh, 0.25)
    assert not failures
    assert any("speedup" in n for n in notices)


def test_null_speedup_rows_are_skipped():
    base = {("f", "b", "c"): {"wall_s": 1.0, "cpu_count": 1, "speedup": None}}
    fresh = {("f", "b", "c"): {"wall_s": 1.0, "cpu_count": 1, "speedup": None}}
    failures, _ = compare(base, fresh, 0.0)
    assert not failures


def test_non_numeric_walls_are_skipped():
    base = {("f", "b", "c"): {"wall_s": None, "cpu_count": 1}}
    fresh = {("f", "b", "c"): {"wall_s": 1.0, "cpu_count": 1}}
    failures, notices = compare(base, fresh, 0.25)
    assert not failures
    assert any("skipped" in n for n in notices)


def test_improvements_never_fail():
    base = {("f", "b", "c"): {"wall_s": 1.0, "cpu_count": 1}}
    fresh = {("f", "b", "c"): {"wall_s": 0.2, "cpu_count": 1}}
    failures, _ = compare(base, fresh, 0.0)
    assert not failures


def test_load_rows_keys_by_file_bench_config(tmp_path):
    _write(tmp_path, "BENCH_a.json",
           [_row("x", 0.1, bench="a"), _row("y", 0.2, bench="a")])
    _write(tmp_path, "BENCH_b.json", [_row("x", 0.3, bench="b")])
    rows = load_rows(tmp_path)
    assert set(rows) == {
        ("BENCH_a.json", "a", "x"),
        ("BENCH_a.json", "a", "y"),
        ("BENCH_b.json", "b", "x"),
    }


def test_negative_tolerance_is_rejected(tmp_path):
    (tmp_path / "base").mkdir()
    with pytest.raises(SystemExit) as exc:
        main(["--baseline", str(tmp_path / "base"), "--tolerance", "-0.1"])
    assert exc.value.code == 2


def test_lines_name_both_sides_commit_and_cpu(tmp_path, capsys):
    """A wall or speedup line says which commits and machines it compared."""
    base = dict(
        _row("8KB", 0.100), speedup=2.0, commit="a" * 40, cpu_model="Old CPU"
    )
    fresh = dict(
        _row("8KB", 0.200), speedup=1.0, commit="b" * 40, cpu_model="New CPU"
    )
    _write(tmp_path / "base", "BENCH_solver.json", [base])
    _write(tmp_path / "fresh", "BENCH_solver.json", [fresh])
    rc = main(["--baseline", str(tmp_path / "base"),
               "--fresh", str(tmp_path / "fresh"), "--tolerance", "0.25"])
    err = capsys.readouterr().err
    assert rc == 1
    sides = "[baseline aaaaaaaaaaaa on Old CPU; fresh bbbbbbbbbbbb on New CPU]"
    wall = [ln for ln in err.splitlines() if ": wall " in ln]
    speedup = [ln for ln in err.splitlines() if ": speedup " in ln]
    assert len(wall) == 1 and wall[0].endswith(sides)
    assert len(speedup) == 1 and speedup[0].endswith(sides)


def test_rows_without_provenance_say_unknown():
    base = {("f", "b", "c"): {"wall_s": 1.0, "cpu_count": 1}}
    fresh = {("f", "b", "c"): {"wall_s": 1.0, "cpu_count": 2, "commit": None,
                               "cpu_model": "X"}}
    _, notices = compare(base, fresh, 0.25)
    assert notices == [
        "f:b:c: cpu_count 1 → 2, walls not comparable, skipped [baseline "
        "unknown commit on unknown CPU; fresh unknown commit on X]"
    ]


def test_publish_bench_rows_stamps_provenance(tmp_path, monkeypatch):
    from benchmarks import conftest

    monkeypatch.setattr(conftest, "RESULTS_DIR", tmp_path)
    conftest.publish_bench_rows("probe", [{"config": "c", "wall_s": 0.5}])
    (row,) = json.loads((tmp_path / "BENCH_probe.json").read_text())
    assert row["bench"] == "probe" and row["wall_s"] == 0.5
    assert row["cpu_count"] >= 1
    assert row["cpu_model"] and isinstance(row["cpu_model"], str)
    # A 40-hex commit inside a git checkout, null outside one.
    assert row["commit"] is None or len(row["commit"]) == 40


def test_provenance_commit_is_null_outside_git(monkeypatch, tmp_path):
    from benchmarks import conftest

    monkeypatch.setattr(conftest, "BENCH_DIR", tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert conftest._git_commit() is None


def test_committed_baseline_matches_itself():
    """The repo's own BENCH files gate green against themselves."""
    import pathlib

    committed = pathlib.Path(__file__).resolve().parent.parent / "bench_results"
    failures, _ = compare(load_rows(committed), load_rows(committed), 0.0)
    assert not failures
