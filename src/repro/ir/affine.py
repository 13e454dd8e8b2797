"""Integer affine expressions over named induction variables.

An :class:`AffineExpr` is an immutable value ``const + sum(coeff[v] * v)``
with integer coefficients.  It is the common currency of the whole
library: array subscripts, linearised byte addresses, loop bounds after
tiling, and the Cache Miss Equation terms are all affine expressions.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterable


class AffineExpr:
    """Immutable integer affine expression ``const + Σ coeffs[v]·v``.

    Coefficients with value 0 are never stored, so two expressions are
    equal iff they denote the same function.
    """

    __slots__ = ("coeffs", "const", "_hash")

    def __init__(self, coeffs: Mapping[str, int] | None = None, const: int = 0):
        items = {}
        if coeffs:
            for var, c in coeffs.items():
                c = int(c)
                if c != 0:
                    items[str(var)] = c
        object.__setattr__(self, "coeffs", items)
        object.__setattr__(self, "const", int(const))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("AffineExpr is immutable")

    def __reduce__(self):
        # Slots + the immutability guard defeat default pickling;
        # rebuild through the constructor instead.  Required by the
        # process-pool paths (spawn-start platforms, cluster workers).
        return (AffineExpr, (self.coeffs, self.const))

    # -- constructors -------------------------------------------------
    @staticmethod
    def var(name: str, coeff: int = 1) -> "AffineExpr":
        """The expression ``coeff * name``."""
        return AffineExpr({name: coeff})

    @staticmethod
    def constant(value: int) -> "AffineExpr":
        """The constant expression ``value``."""
        return AffineExpr({}, value)

    @staticmethod
    def as_expr(value: "AffineExpr | int") -> "AffineExpr":
        """Coerce an int into a constant expression."""
        if isinstance(value, AffineExpr):
            return value
        return AffineExpr({}, int(value))

    # -- algebra -------------------------------------------------------
    def __add__(self, other: "AffineExpr | int") -> "AffineExpr":
        other = AffineExpr.as_expr(other)
        coeffs = dict(self.coeffs)
        for var, c in other.coeffs.items():
            coeffs[var] = coeffs.get(var, 0) + c
        return AffineExpr(coeffs, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return AffineExpr({v: -c for v, c in self.coeffs.items()}, -self.const)

    def __sub__(self, other: "AffineExpr | int") -> "AffineExpr":
        return self + (-AffineExpr.as_expr(other))

    def __rsub__(self, other: int) -> "AffineExpr":
        return AffineExpr.as_expr(other) - self

    def __mul__(self, k: int) -> "AffineExpr":
        k = int(k)
        return AffineExpr({v: c * k for v, c in self.coeffs.items()}, self.const * k)

    __rmul__ = __mul__

    # -- queries -------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def coeff(self, var: str) -> int:
        """Coefficient of ``var`` (0 when absent)."""
        return self.coeffs.get(var, 0)

    def variables(self) -> frozenset[str]:
        return frozenset(self.coeffs)

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate with integer variable bindings; all vars must be bound."""
        total = self.const
        for var, c in self.coeffs.items():
            total += c * env[var]
        return total

    def substitute(self, bindings: Mapping[str, "AffineExpr | int"]) -> "AffineExpr":
        """Replace variables by affine expressions (or ints).

        One pass: every term adds into one coefficient dict, and one
        expression is built from it.
        """
        coeffs: dict[str, int] = {}
        const = self.const
        for var, c in self.coeffs.items():
            if var in bindings:
                sub = AffineExpr.as_expr(bindings[var])
                const += sub.const * c
                terms = sub.coeffs.items()
            else:
                terms = ((var, 1),)
            for v, s in terms:
                coeffs[v] = coeffs.get(v, 0) + s * c
        return AffineExpr(coeffs, const)

    def coeff_vector(self, order: Iterable[str]) -> tuple[int, ...]:
        """Coefficients laid out in the given variable order."""
        return tuple(self.coeffs.get(v, 0) for v in order)

    def range_over(self, bounds: Mapping[str, tuple[int, int]]) -> tuple[int, int]:
        """Inclusive (min, max) over a box of inclusive variable bounds."""
        lo = hi = self.const
        for var, c in self.coeffs.items():
            b_lo, b_hi = bounds[var]
            if c >= 0:
                lo += c * b_lo
                hi += c * b_hi
            else:
                lo += c * b_hi
                hi += c * b_lo
        return lo, hi

    # -- dunder plumbing ----------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_constant and self.const == other
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return self.const == other.const and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.const, tuple(sorted(self.coeffs.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        parts = []
        for var in sorted(self.coeffs):
            c = self.coeffs[var]
            if c == 1:
                parts.append(f"+{var}")
            elif c == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{c:+d}*{var}")
        if self.const or not parts:
            parts.append(f"{self.const:+d}")
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s
