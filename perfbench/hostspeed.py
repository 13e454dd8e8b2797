"""Host-speed probe: a fixed computation timed on one CPU.

The benchmark runs on a share of a machine whose per-core speed drifts
by up to 1.8x over tens of seconds (one GA seed's MM_500 search took
2.1 s to 3.6 s in one sitting), and the CPUs of the share drift
independently of each other.  So the solving process is pinned to one
CPU and this probe is timed on that CPU between rounds and between cold
starts; ``run.py`` scales each one's wall time by ``REFERENCE_S`` over
the mean of the probes before and after it, which reports it at the
reference speed.  The probe runs no ``repro`` code: a change to the
program moves the scaled time exactly as much as the wall time.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np

#: Probe seconds at the reference speed: about its time in the faster
#: phases of the 2-vCPU x86 host the benchmark was written on.
REFERENCE_S = 0.15
#: Interpreter half: dict updates and integer arithmetic.
DICT_STEPS = 300_000
#: Array half: sorts, scans, binary searches and histograms over 200k ints.
ARRAY_REPS = 16
_ARRAY = np.random.default_rng(0).integers(0, 1 << 20, size=200_000)


def _interpreter_work() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(DICT_STEPS):
        key = (i * 7919) % 4093
        table[key] = table.get(key, 0) + i
        acc += key & 15
    return acc


def _array_work() -> int:
    acc = 0
    for _ in range(ARRAY_REPS):
        ordered = np.sort(_ARRAY % 9973)
        acc += int(np.cumsum(ordered)[-1])
        index = np.searchsorted(ordered, _ARRAY[:50_000])
        acc += int(np.bincount(index % 4096).max())
    return acc


def solve_cpu() -> int:
    """The CPU the solving process is pinned to and the probe runs on."""
    return max(os.sched_getaffinity(0))


@contextmanager
def on_cpu(cpu: int):
    """Pin this process (and children it starts) to ``cpu`` meanwhile."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def probe_s(cpu: int) -> float:
    """Seconds the fixed work takes on ``cpu``."""
    with on_cpu(cpu):
        start = time.perf_counter()
        _interpreter_work()
        _array_work()
        return time.perf_counter() - start
