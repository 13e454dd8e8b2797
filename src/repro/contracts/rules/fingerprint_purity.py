"""``fingerprint-purity``: wall-clock knobs stay OUT of the fingerprint.

The mirror image of ``fingerprint-coverage``.  Coverage proves every
*result-affecting* knob reaches the objective fingerprint; purity
proves no *non*-result-affecting knob does.  The failure it prevents is
quieter than coverage's wrong-numbers bug but just as real: a
transport or engine-selection knob (``REPRO_BATCH_CASCADE``,
``REPRO_CLUSTER_TIMEOUT``, worker counts…) folded into the fingerprint
splits the persistent memo store and every checkpoint by a setting
that *cannot change any value* — a warm store goes cold because
someone toggled a speed knob, and "resume" quietly re-solves the
world.  Outcome-identical knobs are exactly the ones operators flip
freely; the fingerprint must be blind to them.

Statically (same machinery as coverage): knob accessors are the
``NAME = _register(...)`` assignments in ``repro/envs.py``
whose ``affects_results`` is not literally ``True``.  For every
``fingerprint = (...)`` construction in the walked tree, the rule
takes the def-use closure of the tuple (the names that flow into it)
and flags any closure expression that touches a pure knob's accessor —
``envs.NAME`` attribute or bare ``NAME`` — whether in the tuple itself
or in an assignment feeding it.
"""

from __future__ import annotations

import ast

from repro.contracts.base import LintContext, ParsedModule, Rule
from repro.contracts.rules.fingerprint import (
    _enclosing_function,
    _names_in,
    _reachable_names,
)


def _pure_knobs(envs_mod: ParsedModule) -> dict[str, str]:
    """``accessor var -> env name`` for non-result-affecting knobs."""
    knobs: dict[str, str] = {}
    for node in ast.walk(envs_mod.tree):
        if not (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "_register"
        ):
            continue
        affects = next(
            (
                kw.value
                for kw in node.value.keywords
                if kw.arg == "affects_results"
            ),
            None,
        )
        if isinstance(affects, ast.Constant) and affects.value is True:
            continue
        env_name = ""
        if node.value.args and isinstance(node.value.args[0], ast.Constant):
            env_name = str(node.value.args[0].value)
        for tgt in node.targets:
            if isinstance(tgt, ast.Name):
                knobs[tgt.id] = env_name or tgt.id
    return knobs


def _knob_touches(expr: ast.AST, knobs: dict[str, str]) -> list[tuple[str, int]]:
    """(accessor, line) for every pure-knob access inside ``expr``."""
    touches: list[tuple[str, int]] = []
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr in knobs:
            touches.append((node.attr, node.lineno))
        elif isinstance(node, ast.Name) and node.id in knobs:
            touches.append((node.id, node.lineno))
    return touches


class FingerprintPurityRule(Rule):
    id = "fingerprint-purity"

    def finalize(self, ctx: LintContext) -> None:
        envs_mod = ctx.module("repro/envs.py")
        if envs_mod is None:
            return
        knobs = _pure_knobs(envs_mod)
        if not knobs:
            return
        for module in ctx.modules:
            for assign, func in self._fingerprint_sites(module):
                covered = _reachable_names(func, _names_in(assign.value))
                exprs: list[ast.AST] = [assign.value]
                if func is not None:
                    for node in ast.walk(func):
                        if isinstance(node, ast.Assign) and any(
                            isinstance(t, ast.Name) and t.id in covered
                            for t in node.targets
                        ):
                            exprs.append(node.value)
                seen: set[str] = set()
                for expr in exprs:
                    for accessor, line in _knob_touches(expr, knobs):
                        if accessor in seen:
                            continue
                        seen.add(accessor)
                        self.report(
                            ctx, module, line,
                            f"objective fingerprint depends on "
                            f"{knobs[accessor]} ({accessor}), a knob "
                            "registered as NOT result-affecting — "
                            "outcome-identical speed/transport knobs must "
                            "not split the memo/checkpoint fingerprint",
                        )

    @staticmethod
    def _fingerprint_sites(module: ParsedModule):
        sites = []
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Tuple)
                and any(
                    isinstance(t, ast.Name) and t.id == "fingerprint"
                    for t in node.targets
                )
            ):
                sites.append((node, _enclosing_function(module.tree, node)))
        return sites
