"""One cold start of a workload, timed from outside by ``run.py``.

Runs in a fresh interpreter: imports the package, builds the workload's
nests, analyzers (sampling), reuse candidates and strategy, and stands
up its cluster agent if it has one, then exits.  Usage::

    python3 perfbench/cold_setup.py --workload mm-dm --seed 0
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import make_workloads

    make_workloads(args.work_dir)[args.workload].cold_setup(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
