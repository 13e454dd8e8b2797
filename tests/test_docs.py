"""Documentation anti-rot checks.

The docs are part of the contract surface, so they are tested:

* every registered CLI flag (``repro.cli.FLAG_SPEC``) and every
  ``REPRO_*`` environment variable referenced in the source appears in
  ``docs/CLI.md``, every knob in ``repro.envs.KNOBS`` has a row in its
  environment table, and every variable that table lists is registered;
* every ``python -m repro.cli`` invocation shown in the docs parses —
  unknown flags or commands in an example would raise here;
* fenced ``python`` blocks in README/docs compile, and blocks not
  marked ``<!-- docs-exec: skip -->`` also execute;
* relative links in the markdown files resolve to real files.
"""

from __future__ import annotations

import pathlib
import re
import shlex

import pytest

from repro import cli, envs

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = [
    ROOT / "README.md",
    ROOT / "docs" / "ARCHITECTURE.md",
    ROOT / "docs" / "CLI.md",
    ROOT / "docs" / "CORPUS.md",
    ROOT / "docs" / "LINTS.md",
    ROOT / "docs" / "TELEMETRY.md",
]
CLI_DOC = ROOT / "docs" / "CLI.md"
LINTS_DOC = ROOT / "docs" / "LINTS.md"


def test_doc_files_exist():
    for path in DOC_FILES:
        assert path.is_file(), f"missing documentation file {path}"


def test_every_cli_flag_is_documented():
    text = CLI_DOC.read_text()
    missing = [flag for flag in cli.FLAG_SPEC if flag not in text]
    assert not missing, f"flags absent from docs/CLI.md: {missing}"


def test_every_cli_command_is_documented():
    text = CLI_DOC.read_text()
    missing = [cmd for cmd in cli.COMMANDS if f"`{cmd}" not in text]
    assert not missing, f"commands absent from docs/CLI.md: {missing}"


def _source_env_vars() -> set[str]:
    found: set[str] = set()
    for directory in ("src", "examples"):
        for path in (ROOT / directory).rglob("*.py"):
            found.update(re.findall(r"REPRO_[A-Z]+(?:_[A-Z]+)*", path.read_text()))
    # Drop strict prefixes of longer names (e.g. the REPRO_CASCADE_BUDGET
    # stem matched out of an f-string template).
    return {
        var
        for var in found
        if not any(other.startswith(var + "_") for other in found)
    }


def test_every_env_var_is_documented():
    text = CLI_DOC.read_text()
    missing = sorted(v for v in _source_env_vars() if v not in text)
    assert not missing, f"env vars absent from docs/CLI.md: {missing}"


def _env_table_vars() -> set[str]:
    """``REPRO_*`` names in the first column of CLI.md's environment table."""
    section = CLI_DOC.read_text().split("## Environment variables", 1)[1]
    section = section.split("\n## ", 1)[0]
    found: set[str] = set()
    for line in section.splitlines():
        cell = re.match(r"\|((?:[^|\\]|\\.)*)\|", line)
        if cell:
            found.update(re.findall(r"REPRO_[A-Z]+(?:_[A-Z]+)*", cell.group(1)))
    return found


def test_every_documented_env_var_is_registered():
    documented = _env_table_vars()
    assert documented, "no environment table found in docs/CLI.md"
    stale = sorted(documented - set(envs.KNOBS))
    assert not stale, f"docs/CLI.md documents unregistered env vars: {stale}"


def test_every_registered_env_var_has_a_table_row():
    missing = sorted(set(envs.KNOBS) - _env_table_vars())
    assert not missing, f"knobs without a docs/CLI.md table row: {missing}"


def _fenced_blocks(path: pathlib.Path, language: str):
    """(block text, skip-execution?) for each ``language`` code fence."""
    lines = path.read_text().split("\n")
    blocks = []
    i = 0
    while i < len(lines):
        if lines[i].strip() == f"```{language}":
            skip = any(
                "docs-exec: skip" in lines[j]
                for j in range(max(0, i - 2), i)
            )
            body = []
            i += 1
            while i < len(lines) and lines[i].strip() != "```":
                body.append(lines[i])
                i += 1
            blocks.append(("\n".join(body), skip))
        i += 1
    return blocks


def test_python_code_blocks_compile_and_run():
    ran = 0
    for path in DOC_FILES:
        for block, skip in _fenced_blocks(path, "python"):
            compile(block, f"{path.name}:code-block", "exec")
            if not skip:
                exec(block, {"__name__": "__docs__"})  # noqa: S102
                ran += 1
    assert ran >= 1  # at least one executable block guards against rot


def test_cli_invocations_in_docs_parse():
    """Every `python -m repro.cli …` line shown in the docs must parse
    against the real flag spec and name a real command."""
    checked = 0
    for path in DOC_FILES:
        for block, _skip in _fenced_blocks(path, "bash"):
            # Join backslash line-continuations, then scan for cli calls.
            joined = block.replace("\\\n", " ")
            for line in joined.split("\n"):
                if "python -m repro.cli" not in line:
                    continue
                argv = shlex.split(line.split("#", 1)[0])
                args = argv[argv.index("repro.cli") + 1 :]
                positional, flags = cli.parse_flags(args)  # raises on typos
                assert positional, f"no command in doc line: {line!r}"
                assert positional[0] in cli.COMMANDS, (
                    f"unknown command {positional[0]!r} in doc line: {line!r}"
                )
                checked += 1
    assert checked >= 5  # the docs really do show invocations


def test_every_lint_rule_is_documented():
    """docs/LINTS.md carries one ``### `rule-id` `` heading per
    registered contract rule — no more, no fewer (plus the engine's
    ``parse-error`` pseudo-rule)."""
    from repro.contracts import RULES

    documented = set(re.findall(r"^### `([a-z\-]+)`", LINTS_DOC.read_text(),
                                flags=re.MULTILINE))
    assert documented == set(RULES) | {"parse-error"}


def test_lints_doc_shows_the_suppression_syntax():
    text = LINTS_DOC.read_text()
    assert "# repro: lint-ok[" in text
    assert "lint_baseline.json" in text


def test_markdown_links_resolve():
    link = re.compile(r"\]\((?!https?://|#)([^)#]+)(?:#[^)]*)?\)")
    for path in DOC_FILES:
        for target in link.findall(path.read_text()):
            resolved = (path.parent / target).resolve()
            assert resolved.exists(), f"{path.name} links to missing {target}"


def test_readme_documents_the_layer_map():
    text = (ROOT / "README.md").read_text()
    for layer in ("ir", "transform", "polyhedra", "cme", "evaluation",
                  "search"):
        assert layer in text
    assert "ARCHITECTURE.md" in text and "CLI.md" in text


@pytest.mark.slow
def test_readme_quickstart_block_runs_scaled_down():
    """The README quickstart executes for real (slow lane): same calls,
    a smaller kernel so it finishes in seconds."""
    block = next(
        b for b, skip in _fenced_blocks(ROOT / "README.md", "python") if skip
    )
    scaled = block.replace("make_mm(500)", "make_mm(48)")
    assert scaled != block
    exec(scaled, {"__name__": "__docs__"})  # noqa: S102
