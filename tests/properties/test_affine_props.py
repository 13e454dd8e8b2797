"""Property-based tests for the affine algebra."""

from hypothesis import given, strategies as st

from repro.ir.affine import AffineExpr

VARS = ("i", "j", "k")


@st.composite
def affine_exprs(draw):
    coeffs = {v: draw(st.integers(-50, 50)) for v in VARS}
    return AffineExpr(coeffs, draw(st.integers(-1000, 1000)))


envs = st.fixed_dictionaries({v: st.integers(-100, 100) for v in VARS})


@given(affine_exprs(), affine_exprs(), envs)
def test_addition_pointwise(a, b, env):
    assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)


@given(affine_exprs(), affine_exprs(), envs)
def test_subtraction_pointwise(a, b, env):
    assert (a - b).evaluate(env) == a.evaluate(env) - b.evaluate(env)


@given(affine_exprs(), st.integers(-20, 20), envs)
def test_scaling_pointwise(a, k, env):
    assert (a * k).evaluate(env) == k * a.evaluate(env)


@given(affine_exprs(), affine_exprs(), envs)
def test_substitution_commutes_with_evaluation(outer, inner, env):
    """outer[i := inner] evaluated == outer evaluated at i = inner(env)."""
    substituted = outer.substitute({"i": inner})
    env2 = dict(env)
    env2["i"] = inner.evaluate(env)
    assert substituted.evaluate(env) == outer.evaluate(env2)


@given(affine_exprs())
def test_double_negation_identity(a):
    assert -(-a) == a


@given(affine_exprs(), envs)
def test_range_over_bounds_evaluation(a, env):
    bounds = {v: (env[v] - 3, env[v] + 3) for v in VARS}
    lo, hi = a.range_over(bounds)
    assert lo <= a.evaluate(env) <= hi


@given(affine_exprs(), affine_exprs())
def test_equality_consistent_with_hash(a, b):
    if a == b:
        assert hash(a) == hash(b)


def _chained_substitute(expr, bindings):
    """Substitution through the algebra: one temporary per term."""
    out = AffineExpr.constant(expr.const)
    for var, c in expr.coeffs.items():
        if var in bindings:
            out = out + AffineExpr.as_expr(bindings[var]) * c
        else:
            out = out + AffineExpr.var(var, c)
    return out


#: Small coefficients over the same variables, so substituted terms
#: often cancel.
small_exprs = st.builds(
    lambda cs, c: AffineExpr(dict(zip(VARS, cs)), c),
    st.tuples(*[st.integers(-2, 2)] * len(VARS)),
    st.integers(-5, 5),
)


@given(
    small_exprs,
    st.dictionaries(
        st.sampled_from(VARS), st.one_of(small_exprs, st.integers(-3, 3))
    ),
)
def test_one_pass_substitute_equals_chained(expr, bindings):
    got, want = expr.substitute(bindings), _chained_substitute(expr, bindings)
    assert got == want
    assert hash(got) == hash(want) and repr(got) == repr(want)
    assert 0 not in got.coeffs.values()


def test_substitute_cancelling_terms():
    """A variable that cancels is dropped, also when it comes back."""
    i, j, k = (AffineExpr.var(v) for v in VARS)
    e = 2 * i + 4 * j
    cancelled = e.substitute({"i": -2 * j + 5})
    assert cancelled == _chained_substitute(e, {"i": -2 * j + 5}) == 10
    assert cancelled.coeffs == {} and repr(cancelled) == "10"
    back = (i + j + k).substitute({"i": -1 * j, "k": j})
    assert back == _chained_substitute(i + j + k, {"i": -1 * j, "k": j}) == j
    assert back.coeffs == {"j": 1}
