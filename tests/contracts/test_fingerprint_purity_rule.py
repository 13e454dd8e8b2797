"""The ``fingerprint-purity`` rule: speed knobs must NOT reach the
fingerprint (the mirror of ``fingerprint-coverage``)."""

import textwrap

from repro.contracts.engine import run_lint
from repro.contracts.rules.fingerprint_purity import FingerprintPurityRule


def lint(root):
    return run_lint(root, [FingerprintPurityRule()])


ENVS = textwrap.dedent(
    """
    def _register(name, parser, default=None, **kw):
        return (name, parser, default, kw)


    BUDGET = _register(
        "REPRO_BUDGET", int, None,
        affects_results=True, fingerprint_field="budgets",
    )

    BATCH_CASCADE = _register("REPRO_BATCH_CASCADE", bool, True)

    SHARD_DISPATCH = _register(
        "REPRO_SHARD_DISPATCH", str, "auto", affects_results=False,
    )
    """
)


def _search(tuple_src: str, prelude: str = "") -> str:
    return textwrap.dedent(
        f"""
        from repro import envs

        def run(nest, cache, seed):
            budgets = resolve_budgets()
        {prelude}
            fingerprint = {tuple_src}
            return fingerprint
        """
    )


def test_clean_fingerprint_passes(make_tree):
    root = make_tree(
        {
            "src/repro/envs.py": ENVS,
            "src/repro/search/tiling.py": _search(
                "(nest, repr(cache), seed, tuple(sorted(budgets.items())))"
            ),
        }
    )
    assert lint(root) == []


def test_pure_knob_in_tuple_is_flagged(make_tree):
    root = make_tree(
        {
            "src/repro/envs.py": ENVS,
            "src/repro/search/tiling.py": _search(
                "(nest, seed, envs.BATCH_CASCADE.get())"
            ),
        }
    )
    findings = lint(root)
    assert len(findings) == 1
    assert "REPRO_BATCH_CASCADE" in findings[0].message
    assert findings[0].path == "src/repro/search/tiling.py"


def test_pure_knob_through_assignment_chain_is_flagged(make_tree):
    """engine = knob → fingerprint: the def-use closure must catch it."""
    root = make_tree(
        {
            "src/repro/envs.py": ENVS,
            "src/repro/search/tiling.py": _search(
                "(nest, seed, engine)",
                prelude="    engine = 's' if envs.SHARD_DISPATCH.get() else 'c'",
            ),
        }
    )
    findings = lint(root)
    assert len(findings) == 1
    assert "REPRO_SHARD_DISPATCH" in findings[0].message


def test_unrelated_knob_read_in_same_function_passes(make_tree):
    """Reading a speed knob for dispatch (not fingerprinting) is fine."""
    root = make_tree(
        {
            "src/repro/envs.py": ENVS,
            "src/repro/search/tiling.py": _search(
                "(nest, seed, tuple(sorted(budgets.items())))",
                prelude="    use_fast = envs.BATCH_CASCADE.get()",
            ),
        }
    )
    assert lint(root) == []


def test_result_affecting_knob_is_allowed(make_tree):
    """Coverage mandates BUDGET in the fingerprint; purity must not
    contradict it."""
    root = make_tree(
        {
            "src/repro/envs.py": ENVS,
            "src/repro/search/tiling.py": _search(
                "(nest, seed, envs.BUDGET.get())"
            ),
        }
    )
    assert lint(root) == []


def test_bare_name_import_is_flagged(make_tree):
    src = textwrap.dedent(
        """
        from repro.envs import BATCH_CASCADE

        def run(nest, seed):
            fingerprint = (nest, seed, BATCH_CASCADE.get())
            return fingerprint
        """
    )
    root = make_tree(
        {"src/repro/envs.py": ENVS, "src/repro/search/tiling.py": src}
    )
    findings = lint(root)
    assert len(findings) == 1
    assert "BATCH_CASCADE" in findings[0].message


def test_suppression_comment_is_honoured(make_tree):
    src = textwrap.dedent(
        """
        from repro import envs

        def run(nest, seed):
            # repro: lint-ok[fingerprint-purity]
            fingerprint = (nest, seed, envs.BATCH_CASCADE.get())
            return fingerprint
        """
    )
    root = make_tree(
        {"src/repro/envs.py": ENVS, "src/repro/search/tiling.py": src}
    )
    assert lint(root) == []


def test_tree_without_registry_passes(make_tree):
    root = make_tree(
        {"src/repro/search/tiling.py": _search("(nest, seed)")}
    )
    assert lint(root) == []
