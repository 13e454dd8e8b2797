"""``wire-ops``: the op vocabulary is closed and fully implemented.

``repro/distributed/wire.py`` declares every protocol op once
(``OP_X = "x"``) and assigns each a role (``HANDSHAKE_OPS`` /
``REQUEST_OPS`` / ``REPLY_OPS``).  This rule statically cross-checks
the declaration against both endpoint implementations, so an op can
never exist on one side only — the failure mode where a new message
type works in the author's direction and silently errors in the other:

* every ``OP_*`` constant belongs to at least one role group;
* every **request** op has a worker-side ``_op_<value>`` dispatch
  method (or, for loop-handled ops like ``shutdown``, is referenced by
  name in ``worker.py``) *and* is sent coordinator-side
  (``client.py``);
* every **reply** op is produced by ``worker.py`` and recognised
  coordinator-side (both must reference the constant);
* the worker defines no ``_op_<x>`` handler for an op that is not a
  declared request (dead or undeclared protocol).

Findings anchor at the ``OP_*`` declaration in ``wire.py`` (or the
stray handler in ``worker.py``), so the fix site is always the line
reported.  Trees without a ``distributed/wire.py`` module (fixture
trees, other projects) are skipped entirely.
"""

from __future__ import annotations

import ast

from repro.contracts.base import LintContext, ParsedModule, Rule, dotted_name


def _op_constants(wire_mod: ParsedModule) -> dict[str, tuple[str, int]]:
    """Module-level ``OP_X = "x"`` assigns: name -> (value, line)."""
    out: dict[str, tuple[str, int]] = {}
    for node in wire_mod.tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.startswith("OP_")
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            out[node.targets[0].id] = (node.value.value, node.lineno)
    return out


def _role_group(wire_mod: ParsedModule, group: str) -> list[str]:
    """Constant names listed in ``HANDSHAKE_OPS``-style tuples."""
    for node in wire_mod.tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == group
            and isinstance(node.value, (ast.Tuple, ast.List))
        ):
            return [
                el.id for el in node.value.elts if isinstance(el, ast.Name)
            ]
    return []


def _referenced_ops(module: ParsedModule) -> set[str]:
    """``wire.OP_X`` / bare ``OP_X`` names referenced in a module."""
    refs: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("OP_"):
            if dotted_name(node.value) in ("wire", "repro.distributed.wire"):
                refs.add(node.attr)
        elif isinstance(node, ast.Name) and node.id.startswith("OP_"):
            refs.add(node.id)
    return refs


def _handler_names(module: ParsedModule) -> dict[str, int]:
    """``_op_<x>`` method names -> line, anywhere in the module."""
    return {
        node.name[len("_op_"):]: node.lineno
        for node in ast.walk(module.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_op_")
    }


class WireOpsRule(Rule):
    id = "wire-ops"

    def finalize(self, ctx: LintContext) -> None:
        wire_mod = ctx.module("distributed/wire.py")
        if wire_mod is None:
            return
        consts = _op_constants(wire_mod)
        groups = {
            g: _role_group(wire_mod, g)
            for g in ("HANDSHAKE_OPS", "REQUEST_OPS", "REPLY_OPS")
        }
        grouped = {name for names in groups.values() for name in names}
        for name, (_, line) in consts.items():
            if name not in grouped:
                self.report(
                    ctx, wire_mod, line,
                    f"{name} is declared but assigned no protocol role "
                    "(HANDSHAKE_OPS / REQUEST_OPS / REPLY_OPS)",
                )

        worker = ctx.module("distributed/worker.py")
        client = ctx.module("distributed/client.py")
        worker_refs = _referenced_ops(worker) if worker else set()
        client_refs = _referenced_ops(client) if client else set()
        handlers = _handler_names(worker) if worker else {}

        request_values = set()
        for name in groups["REQUEST_OPS"]:
            if name not in consts:
                continue
            value, line = consts[name]
            request_values.add(value)
            if worker and value not in handlers and name not in worker_refs:
                self.report(
                    ctx, wire_mod, line,
                    f"request op {value!r} has no worker handler: "
                    f"worker.py defines no _op_{value}() and never "
                    f"references wire.{name}",
                )
            if client and name not in client_refs:
                self.report(
                    ctx, wire_mod, line,
                    f"request op {value!r} is never sent: client.py "
                    f"does not reference wire.{name}",
                )
        for name in groups["REPLY_OPS"]:
            if name not in consts:
                continue
            value, line = consts[name]
            if worker and name not in worker_refs:
                self.report(
                    ctx, wire_mod, line,
                    f"reply op {value!r} is never produced: worker.py "
                    f"does not reference wire.{name}",
                )
            if client and name not in client_refs:
                self.report(
                    ctx, wire_mod, line,
                    f"reply op {value!r} is never recognised: client.py "
                    f"does not reference wire.{name}",
                )
        if worker:
            for value, line in handlers.items():
                if value not in request_values:
                    self.report(
                        ctx, worker, line,
                        f"worker handler _op_{value}() has no matching "
                        "op in wire.REQUEST_OPS — dead or undeclared "
                        "protocol",
                    )
