"""Existence and counting tests for affine forms over integer boxes.

These are the "replacement polyhedra" primitives of the fast CME solver
(§2.3 of the paper): after substituting the sampled iteration point,
each replacement equation asks whether some iteration ``q`` in a box
makes an interfering reference ``B`` touch a given cache set, i.e.

    ``f(q) mod M ∈ [w, w + L)``            (same cache set)
    ``f(q) ∉ [line0, line0 + L)``          (but a different memory line)

with ``f`` the affine byte-address of ``B``, ``M`` the way-size
(``sets × line``), and ``L`` the line size.  A direct enumeration is
infeasible for the huge boxes produced by long-distance reuse, so the
tests use a cascade of exact methods:

1. O(1) interval rejection (the reachable address band misses the
   window entirely);
2. exact vectorised enumeration for small boxes;
3. subgroup reachability: a dimension whose extent covers a full period
   ``M / gcd(c, M)`` contributes the whole subgroup ``⟨gcd(c, M)⟩`` of
   residues, so full-period dimensions collapse to a single gcd;
4. a recursive absolute-interval feasibility test with interval and
   divisibility pruning for the per-line queries.

Each test returns ``True``/``False`` when it can decide exactly and
``None`` when its work budget is exhausted; callers treat ``None``
conservatively (as interference) and the solver counts how often that
happens so accuracy regressions are visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from repro import envs
from repro.polyhedra.box import Box
from repro.polyhedra.intmath import gcd_all

#: Boxes up to this many points are enumerated exactly with NumPy.
ENUM_LIMIT = 1 << 14
#: Partial-dimension sum enumerations up to this many values are allowed.
PARTIAL_LIMIT = 1 << 16
#: Maximum candidate memory lines examined by per-line queries.
LINE_CANDIDATE_LIMIT = 512
#: Node budget for the recursive absolute-interval search.
ABS_SEARCH_BUDGET = 4096

#: Environment overrides for the cascade work budgets (accuracy/speed
#: trade-off knobs; see :class:`CongruenceTester`).  These knobs change
#: objective *values*, so they are declared result-affecting in the
#: :mod:`repro.envs` registry and must reach the objective fingerprint.
_BUDGET_KNOBS = {
    "enum_limit": envs.CASCADE_BUDGET_ENUM,
    "partial_limit": envs.CASCADE_BUDGET_PARTIAL,
    "line_candidate_limit": envs.CASCADE_BUDGET_LINE,
    "abs_search_budget": envs.CASCADE_BUDGET_ABS,
}


def resolve_budget(name: str, override: int | None, default: int) -> int:
    """One cascade budget: explicit kwarg > env var > module default."""
    if override is not None:
        value = int(override)
    else:
        from_env = _BUDGET_KNOBS[name].get()
        value = default if from_env is None else int(from_env)
    if value < 1:
        raise ValueError(f"cascade budget {name} must be >= 1, got {value}")
    return value


@dataclass
class TesterStats:
    """Instrumentation: how each congruence query was resolved."""

    interval_reject: int = 0
    enumerated: int = 0
    subgroup: int = 0
    partial_enum: int = 0
    recursive: int = 0
    unknown: int = 0
    line_queries: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)

    def merge(self, other: "TesterStats | dict[str, int]") -> "TesterStats":
        """Accumulate another tester's (or a tally's) counters."""
        items = other.items() if isinstance(other, dict) else other.__dict__.items()
        for key, val in items:
            setattr(self, key, getattr(self, key, 0) + int(val))
        return self


def _normalize(
    coeffs: tuple[int, ...], const: int, box: Box
) -> tuple[list[tuple[int, int]], int]:
    """Shift box to the origin and drop degenerate dimensions.

    Returns ``(dims, c0)`` where ``dims`` is a list of ``(coeff, extent)``
    with extent >= 2 and coeff != 0, and the affine form equals
    ``c0 + Σ coeff_j · x_j`` with ``x_j ∈ [0, extent_j - 1]``.
    """
    c0 = const
    dims: list[tuple[int, int]] = []
    for c, lo, hi in zip(coeffs, box.lo, box.hi):
        if hi < lo:
            raise ValueError("empty box")
        c0 += c * lo
        n = hi - lo + 1
        if c != 0 and n > 1:
            dims.append((c, n))
    dims.sort(key=lambda cn: -abs(cn[0]))
    return dims, c0


def _f_range(dims: list[tuple[int, int]], c0: int) -> tuple[int, int]:
    lo = hi = c0
    for c, n in dims:
        if c > 0:
            hi += c * (n - 1)
        else:
            lo += c * (n - 1)
    return lo, hi


def _enum_values(dims: list[tuple[int, int]], c0: int) -> np.ndarray:
    """All values of the affine form (may contain duplicates)."""
    vals = np.array([c0], dtype=np.int64)
    for c, n in dims:
        vals = (vals[:, None] + np.arange(n, dtype=np.int64)[None, :] * c).ravel()
    return vals


def _wrapped_interval_intersects(
    lo: int, span: int, m: int, wlo: int, wlen: int
) -> bool:
    """Does ``[lo, lo+span] mod m`` intersect ``[wlo, wlo+wlen-1] mod m``?

    ``span`` and ``wlen-1`` are both < m.
    """
    a = lo % m
    # Interval A = [a, a+span] (wrapped); B = [wlo, wlo+wlen-1] (wrapped).
    # They intersect iff (wlo - a) mod m <= span or (a - wlo) mod m <= wlen - 1.
    return ((wlo - a) % m) <= span or ((a - wlo) % m) <= wlen - 1


def exists_mod_window(
    coeffs: tuple[int, ...],
    const: int,
    box: Box,
    m: int,
    wlo: int,
    wlen: int,
    stats: TesterStats | None = None,
    enum_limit: int = ENUM_LIMIT,
    partial_limit: int = PARTIAL_LIMIT,
) -> bool | None:
    """Is there ``q ∈ box`` with ``f(q) mod m ∈ [wlo, wlo + wlen)``?

    Exact; returns ``None`` when the enumeration budget is exhausted.
    """
    if box.is_empty:
        return False
    if wlen >= m:
        return True
    dims, c0 = _normalize(coeffs, const, box)
    if not dims:
        hit = ((c0 - wlo) % m) <= wlen - 1
        return hit
    fmin, fmax = _f_range(dims, c0)
    span = fmax - fmin
    if span < m and not _wrapped_interval_intersects(fmin, span, m, wlo, wlen):
        if stats:
            stats.interval_reject += 1
        return False

    volume = 1
    for _, n in dims:
        volume *= n
        if volume > enum_limit:
            break
    if volume <= enum_limit:
        if stats:
            stats.enumerated += 1
        vals = _enum_values(dims, c0)
        return bool((((vals - wlo) % m) <= wlen - 1).any())

    # Split dimensions into "full period" (reach their whole residue
    # subgroup) and "partial" ones.
    full_g = 0
    partial: list[tuple[int, int]] = []
    for c, n in dims:
        g = gcd(abs(c), m)
        period = m // g
        if n >= period:
            full_g = gcd(full_g, g)
        else:
            partial.append((c, n))
    if not partial:
        if stats:
            stats.subgroup += 1
        # reachable residues: c0 + <full_g> (mod m)
        if full_g == 0:
            return ((c0 - wlo) % m) <= wlen - 1
        return ((c0 - wlo) % full_g) <= wlen - 1

    pvol = 1
    for _, n in partial:
        pvol *= n
        if pvol > partial_limit:
            if stats:
                stats.unknown += 1
            return None
    if stats:
        stats.partial_enum += 1
    vals = _enum_values(partial, c0)
    if full_g == 0:
        return bool((((vals - wlo) % m) <= wlen - 1).any())
    # window contains t ≡ v (mod full_g) iff (v - wlo) mod full_g <= wlen-1,
    # provided the window is shorter than full_g; otherwise always true.
    if wlen >= full_g:
        return True
    return bool((((vals - wlo) % full_g) <= wlen - 1).any())


def exists_absolute_interval(
    coeffs: tuple[int, ...],
    const: int,
    box: Box,
    lo: int,
    hi: int,
    stats: TesterStats | None = None,
    budget: int = ABS_SEARCH_BUDGET,
    enum_limit: int = ENUM_LIMIT,
) -> bool | None:
    """Is there ``q ∈ box`` with ``lo <= f(q) <= hi``?  Exact or ``None``."""
    if box.is_empty or hi < lo:
        return False
    dims, c0 = _normalize(coeffs, const, box)
    return _exists_abs(dims, c0, lo, hi, stats, [budget], enum_limit)


def _exists_abs(
    dims: list[tuple[int, int]],
    c0: int,
    lo: int,
    hi: int,
    stats: TesterStats | None,
    budget: list[int],
    enum_limit: int = ENUM_LIMIT,
) -> bool | None:
    if not dims:
        return lo <= c0 <= hi
    fmin, fmax = _f_range(dims, c0)
    if fmax < lo or fmin > hi:
        return False
    g = gcd_all(abs(c) for c, _ in dims)
    if g > 1:
        # every value ≡ c0 (mod g)
        first = lo + ((c0 - lo) % g)
        if first > hi:
            return False
    volume = 1
    for _, n in dims:
        volume *= n
        if volume > enum_limit:
            break
    if volume <= enum_limit:
        if stats:
            stats.enumerated += 1
        vals = _enum_values(dims, c0)
        return bool(((vals >= lo) & (vals <= hi)).any())

    if stats:
        stats.recursive += 1
    # Branch on the largest-coefficient dimension (fewest feasible values).
    (c, n), rest = dims[0], dims[1:]
    rmin, rmax = _f_range(rest, 0)
    # need lo <= c0 + c*x + r <= hi with r in [rmin, rmax]
    if c > 0:
        x_lo = -(-(lo - rmax - c0) // c)  # ceil
        x_hi = (hi - rmin - c0) // c
    else:
        x_lo = -(-(hi - rmin - c0) // c)
        x_hi = (lo - rmax - c0) // c
    x_lo = max(x_lo, 0)
    x_hi = min(x_hi, n - 1)
    unknown = False
    for x in range(x_lo, x_hi + 1):
        if budget[0] <= 0:
            if stats:
                stats.unknown += 1
            return None
        budget[0] -= 1
        sub = _exists_abs(rest, c0 + c * x, lo, hi, stats, budget, enum_limit)
        if sub is True:
            return True
        if sub is None:
            unknown = True
    return None if unknown else False


def count_distinct_lines_in_window(
    coeffs: tuple[int, ...],
    const: int,
    box: Box,
    m: int,
    set_window_lo: int,
    line_size: int,
    cap: int,
    exclude_line_start: int | None = None,
    stats: TesterStats | None = None,
    enum_limit: int = ENUM_LIMIT,
    line_candidate_limit: int = LINE_CANDIDATE_LIMIT,
    abs_search_budget: int = ABS_SEARCH_BUDGET,
) -> int | None:
    """Count distinct memory lines mapping into a cache-set window.

    Counts distinct values ``f(q) // line_size`` among ``q ∈ box`` with
    ``f(q) mod m ∈ [set_window_lo, set_window_lo + line_size)``,
    excluding the line starting at ``exclude_line_start``.  The count is
    capped at ``cap`` (set-associativity), which enables early exit.
    Returns ``None`` when undecidable within budget.
    """
    if box.is_empty or cap == 0:
        return 0
    dims, c0 = _normalize(coeffs, const, box)
    volume = 1
    for _, n in dims:
        volume *= n
        if volume > enum_limit:
            break
    if volume <= enum_limit:
        if stats:
            stats.enumerated += 1
        vals = _enum_values(dims, c0)
        sel = ((vals - set_window_lo) % m) <= line_size - 1
        lines = np.unique(vals[sel] // line_size)
        if exclude_line_start is not None:
            lines = lines[lines != exclude_line_start // line_size]
        return int(min(len(lines), cap))

    # Candidate lines are spaced m bytes apart within the reachable band.
    fmin, fmax = _f_range(dims, c0)
    k_lo = -(-(fmin - set_window_lo) // m)  # ceil((fmin - w)/m)
    k_hi = (fmax - set_window_lo) // m
    n_candidates = k_hi - k_lo + 1
    if n_candidates <= 0:
        return 0
    if n_candidates > line_candidate_limit:
        if stats:
            stats.unknown += 1
        return None
    found = 0
    unknown = False
    # Examine candidates nearest the excluded line first: spatial
    # locality makes them the likeliest interferers, so early exit fires.
    ks = sorted(
        range(k_lo, k_hi + 1),
        key=lambda k: abs(
            (set_window_lo + k * m) - (exclude_line_start or fmin)
        ),
    )
    for k in ks:
        line_start = set_window_lo + k * m
        if exclude_line_start is not None and line_start == exclude_line_start:
            continue
        if stats:
            stats.line_queries += 1
        hit = exists_absolute_interval(
            coeffs,
            const,
            box,
            line_start,
            line_start + line_size - 1,
            stats,
            budget=abs_search_budget,
            enum_limit=enum_limit,
        )
        if hit is True:
            found += 1
            if found >= cap:
                return found
        elif hit is None:
            unknown = True
    if unknown:
        if stats:
            stats.unknown += 1
        return None
    return found


class CongruenceTester:
    """Facade bundling the congruence queries with shared statistics.

    The work budgets trade accuracy (fewer ``None`` verdicts) against
    speed and are resolved per tester: explicit keyword > environment
    variable (``REPRO_CASCADE_BUDGET_ENUM`` / ``_PARTIAL`` / ``_LINE``
    / ``_ABS``) > module default.
    """

    def __init__(
        self,
        *,
        enum_limit: int | None = None,
        partial_limit: int | None = None,
        line_candidate_limit: int | None = None,
        abs_search_budget: int | None = None,
    ) -> None:
        self.stats = TesterStats()
        self.enum_limit = resolve_budget("enum_limit", enum_limit, ENUM_LIMIT)
        self.partial_limit = resolve_budget(
            "partial_limit", partial_limit, PARTIAL_LIMIT
        )
        self.line_candidate_limit = resolve_budget(
            "line_candidate_limit", line_candidate_limit, LINE_CANDIDATE_LIMIT
        )
        self.abs_search_budget = resolve_budget(
            "abs_search_budget", abs_search_budget, ABS_SEARCH_BUDGET
        )

    def budgets(self) -> dict[str, int]:
        """The resolved budgets, as kwargs for a twin tester."""
        return {
            "enum_limit": self.enum_limit,
            "partial_limit": self.partial_limit,
            "line_candidate_limit": self.line_candidate_limit,
            "abs_search_budget": self.abs_search_budget,
        }

    def exists_interference(
        self,
        coeffs: tuple[int, ...],
        const: int,
        box: Box,
        m: int,
        set_window_lo: int,
        line_size: int,
        line0_start: int,
    ) -> bool | None:
        """Direct-mapped interference: window hit on a line != line0.

        This is the heart of the replacement-equation test: does any
        access of the candidate reference inside ``box`` fall into the
        cache set of the reused line while being a *different* memory
        line?
        """
        any_hit = exists_mod_window(
            coeffs,
            const,
            box,
            m,
            set_window_lo,
            line_size,
            self.stats,
            enum_limit=self.enum_limit,
            partial_limit=self.partial_limit,
        )
        if any_hit is False:
            return False
        # Is line0 itself even reachable?  If not, any window hit is an
        # interfering line and the plain test's answer stands.
        dims, c0 = _normalize(coeffs, const, box)
        fmin, fmax = _f_range(dims, c0)
        if line0_start + line_size - 1 < fmin or line0_start > fmax:
            return any_hit
        count = count_distinct_lines_in_window(
            coeffs,
            const,
            box,
            m,
            set_window_lo,
            line_size,
            cap=1,
            exclude_line_start=line0_start,
            stats=self.stats,
            enum_limit=self.enum_limit,
            line_candidate_limit=self.line_candidate_limit,
            abs_search_budget=self.abs_search_budget,
        )
        if count is None:
            return None
        return count > 0

    def count_interfering_lines(
        self,
        coeffs: tuple[int, ...],
        const: int,
        box: Box,
        m: int,
        set_window_lo: int,
        line_size: int,
        line0_start: int,
        cap: int,
    ) -> int | None:
        """Distinct interfering lines (for set-associative caches)."""
        return count_distinct_lines_in_window(
            coeffs,
            const,
            box,
            m,
            set_window_lo,
            line_size,
            cap=cap,
            exclude_line_start=line0_start,
            stats=self.stats,
            enum_limit=self.enum_limit,
            line_candidate_limit=self.line_candidate_limit,
            abs_search_budget=self.abs_search_budget,
        )
