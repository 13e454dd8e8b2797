"""``wire-pickle``: objects crossing the wire must unpickle remotely.

Everything the cluster ships — objective closures, candidate batches, memo
records — goes through pickle, and pickle resolves classes by *module
path + qualname* on the receiving host.  Three statically-checkable
ways to break that:

* **function-local classes**: a class defined inside a function has a
  qualname (``f.<locals>.C``) the remote interpreter cannot import.
  Flagged in every package whose objects are pickled across the wire
  (:data:`PICKLED_PACKAGES`).
* **``__slots__`` + frozen ``__setattr__``**: pickle's default
  restore path sets attributes; a class that both declares
  ``__slots__`` and overrides ``__setattr__``/``__delattr__`` to
  refuse writes must provide ``__reduce__`` / ``__reduce_ex__`` /
  ``__getstate__``+``__setstate__`` or it will construct and then
  fail to populate (see :class:`repro.ir.affine.AffineExpr` for the
  canonical fix).
* **lambdas in payload position**: a lambda anywhere inside the
  arguments of ``pickle.dumps(...)`` or a wire ``send_frame(...)``
  payload fails to pickle at runtime; the lint moves that crash to
  commit time.
"""

from __future__ import annotations

import ast

from repro.contracts.base import LintContext, ParsedModule, Rule, dotted_name

#: Packages whose classes are pickled across process/host boundaries
#: (objective blobs close over the analyzer: IR, CME, cache, polyhedra).
PICKLED_PACKAGES = (
    "ir", "cme", "cache", "polyhedra", "simulator", "kernels",
    "evaluation", "distributed", "search",
)

_DUMP_FUNCS = {"pickle.dumps", "pickle.dump"}
_SEND_FUNCS = {"send_frame", "wire.send_frame"}
_ESCAPES = {"__reduce__", "__reduce_ex__", "__getstate__"}


class WireSafetyRule(Rule):
    id = "wire-pickle"

    def visit(self, module: ParsedModule, ctx: LintContext) -> None:
        in_pickled = module.in_package(*PICKLED_PACKAGES)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if in_pickled:
                    for stmt in ast.walk(node):
                        if isinstance(stmt, ast.ClassDef):
                            self.report(
                                ctx, module, stmt.lineno,
                                f"class {stmt.name!r} is defined inside "
                                f"{node.name}(); function-local classes "
                                "cannot be unpickled on a remote host — "
                                "move it to module top level",
                            )
            elif isinstance(node, ast.ClassDef):
                self._check_slots(node, module, ctx)
            elif isinstance(node, ast.Call):
                self._check_payload_lambda(node, module, ctx)

    def _check_slots(
        self, node: ast.ClassDef, module: ParsedModule, ctx: LintContext
    ) -> None:
        has_slots = False
        frozen = False
        escapes = False
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name) and tgt.id == "__slots__":
                        has_slots = True
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name in ("__setattr__", "__delattr__"):
                    frozen = True
                if stmt.name in _ESCAPES:
                    escapes = True
        if has_slots and frozen and not escapes:
            self.report(
                ctx, module, node.lineno,
                f"class {node.name!r} has __slots__ and overrides "
                "__setattr__/__delattr__ but defines none of "
                "__reduce__/__reduce_ex__/__getstate__ — pickle's "
                "default restore path will fail",
            )

    def _check_payload_lambda(
        self, node: ast.Call, module: ParsedModule, ctx: LintContext
    ) -> None:
        name = dotted_name(node.func)
        if name not in _DUMP_FUNCS and name not in _SEND_FUNCS:
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Lambda):
                    self.report(
                        ctx, module, sub.lineno,
                        f"lambda in a {name}() payload cannot be "
                        "pickled; use a module-level function",
                    )
