"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the *public* entry points of each ``repro``
layer (strategy ``propose``/``observe``, ``Evaluator.evaluate_batch``,
``tile_program``, ``compute_reuse_candidates``, ``estimate_at_points``,
``PointClassifier.classify_batch`` and the congruence cascade) while it
is installed, and restores the originals when it is removed.  Nothing
under ``src/`` is edited: module-level functions are rebound in every
``repro.*`` module that imported them by name, methods are replaced on
their class.

Spans are kept in memory as ``(layer, op, start, end, parent)`` rows and
written out once, at the end of the run (:meth:`LayerTracer.dump`).  A
layer's *self* time is its spans' duration minus the part covered by
child spans of other layers; a layer's *total* time counts only its
outermost spans, so nested calls within one layer are not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: (layer, op, import path of the owner, attribute, kind) for every
#: wrapped entry point.  ``kind`` is "function" (rebind the name in every
#: ``repro.*`` module) or "method" (replace it on the class).
ENTRY_POINTS = (
    ("search", "propose", "repro.search.base:SearchStrategy", "propose", "method"),
    ("search", "observe", "repro.search.base:SearchStrategy", "observe", "method"),
    ("evaluation", "evaluate_batch", "repro.evaluation.batch:Evaluator",
     "evaluate_batch", "method"),
    ("transform", "tile_program", "repro.transform.tiling", "tile_program",
     "function"),
    ("reuse", "compute_reuse_candidates", "repro.reuse.vectors",
     "compute_reuse_candidates", "function"),
    ("cme", "estimate_at_points", "repro.cme.sampling", "estimate_at_points",
     "function"),
    ("cme", "classify_batch", "repro.cme.solver:PointClassifier",
     "classify_batch", "method"),
    ("polyhedra", "exists_interference_many",
     "repro.polyhedra.cascade:BatchCascade", "exists_interference_many",
     "method"),
    ("polyhedra", "count_interfering_lines_many",
     "repro.polyhedra.cascade:BatchCascade", "count_interfering_lines_many",
     "method"),
    ("polyhedra", "exists_interference",
     "repro.polyhedra.congruence:CongruenceTester", "exists_interference",
     "method"),
    ("polyhedra", "count_interfering_lines",
     "repro.polyhedra.congruence:CongruenceTester", "count_interfering_lines",
     "method"),
)

#: ``SolverStats`` fields summed over every traced estimate.
SOLVER_FIELDS = (
    "points", "ref_tests", "sources_checked", "intervals_decomposed",
    "intervals_vectorized", "boxes_tested",
)
#: ``TesterStats`` tiers (``SolverStats.congruence``) summed likewise.
TESTER_FIELDS = (
    "interval_reject", "enumerated", "subgroup", "partial_enum",
    "recursive", "unknown", "line_queries",
)


def _resolve(path: str):
    module_name, _, cls_name = path.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return module, (getattr(module, cls_name) if cls_name else None)


class LayerTracer:
    """Record spans and counters at the layer boundaries while installed.

    Use as a context manager around the code to trace; ``spans`` and the
    counters accumulate across installs.
    """

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        #: (layer, op, start, end, parent index or -1)
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.solver = dict.fromkeys(SOLVER_FIELDS, 0)
        self.tester = dict.fromkeys(TESTER_FIELDS, 0)
        self.reuse_candidates = 0
        self.waves = 0
        self._stack: list[int] = []

    # -- installation ---------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, op, owner, attr, kind in ENTRY_POINTS:
            module, cls = _resolve(owner)
            if kind == "method":
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(layer, op, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, op, original)
            for name, mod in list(sys.modules.items()):
                if (
                    (name == "repro" or name.startswith("repro."))
                    and getattr(mod, attr, None) is original
                ):
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._stack.clear()

    def _wrap(self, layer: str, op: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        on_result = {
            "estimate_at_points": self._on_estimate,
            "compute_reuse_candidates": self._on_candidates,
            "propose": self._on_propose,
        }.get(op)

        remote = None
        if op == "evaluate_batch":
            # The distributed evaluator inherits evaluate_batch: its waves
            # belong to the distributed layer.
            from repro.distributed import DistributedEvaluator as remote

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_layer = (
                "distributed"
                if remote is not None and isinstance(args[0], remote)
                else layer
            )
            index = len(spans)
            spans.append(None)  # reserved: parents precede children
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (
                    span_layer, op, start, end, stack[-1] if stack else -1
                )
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- counters taken from return values ------------------------------------
    def _on_estimate(self, estimate) -> None:
        stats = estimate.solver_stats
        for key in SOLVER_FIELDS:
            self.solver[key] += int(getattr(stats, key))
        for key, value in (stats.congruence or {}).items():
            if key in self.tester:
                self.tester[key] += int(value)

    def _on_candidates(self, candidates) -> None:
        self.reuse_candidates += len(candidates)

    def _on_propose(self, batch) -> None:
        if batch:
            self.waves += 1

    # -- aggregation ----------------------------------------------------------
    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per layer: ``total`` (outermost spans) and ``self`` seconds."""
        spans = [s for s in self.spans if s is not None]
        child = [0.0] * len(self.spans)
        for layer, _op, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            layer, _op, start, end, parent = span
            entry = out.setdefault(layer, {"total": 0.0, "self": 0.0})
            entry["self"] += (end - start) - child[i]
            if not self._has_ancestor(i, layer):
                entry["total"] += end - start
        return out

    def _has_ancestor(self, index: int, layer: str) -> bool:
        parent = self.spans[index][4]
        while parent >= 0:
            if self.spans[parent][0] == layer:
                return True
            parent = self.spans[parent][4]
        return False

    def durations(self, op: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s is not None and s[1] == op]

    def count(self, op: str) -> int:
        return sum(1 for s in self.spans if s is not None and s[1] == op)

    def dump(self, path: str) -> None:
        """Write every span as one JSON list row (written once, at the end)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["layer", "op", "start", "end", "parent"],
                    "spans": [list(s) for s in self.spans if s is not None],
                },
                fh,
            )
