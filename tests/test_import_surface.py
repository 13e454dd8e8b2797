"""The package's import surface: numpy is the only third-party module.

Cold start is import time, and every CLI run, cold-started search and
``repro.cli serve`` agent pays it.  A fresh interpreter imports the
entry points and reports which top-level modules appeared; anything
beyond ``numpy`` and ``repro`` is a new runtime dependency.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
before = set(sys.modules)
import repro, repro.cli, repro.distributed.worker, repro.search.tiling, repro.corpus
new = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(
    name for name in new
    if name not in sys.stdlib_module_names and not name.startswith("_")
)))
"""


def test_entry_points_import_only_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    assert set(json.loads(out.splitlines()[-1])) == {"numpy", "repro"}
