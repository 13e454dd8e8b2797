"""Vectorised congruence cascade: batches of replacement-equation queries.

:mod:`repro.polyhedra.congruence` decides one ``(box, window)`` query
per call; the solver's hot waves produce thousands of them, for many
references of many tilings.  :class:`BatchCascade` decides a whole batch
at once while staying *verdict-identical* to the scalar cascade — every
query yields the same ``True``/``False``/``None`` and the same
:class:`~repro.polyhedra.congruence.TesterStats` tier attribution the
scalar code would have produced, so downstream search trajectories and
accuracy counters are untouched.  Each query carries its own coefficient
row, constant and owner (the tester its tiers are charged to).  The
speed comes from sharing work the scalar path repeats per query:

* a query's tiers depend only on its normalised form, the coefficients
  of its active dimensions (non-zero coefficient, extent above one) in
  the scalar's order.  Queries are grouped by those coefficients, and
  each group's gcd/period tables (a plan) are built once and cached by
  value, whatever reference or tiling asked;
* tier selection (interval reject / exact enumeration / subgroup
  collapse / partial enumeration / unknown) is array arithmetic over a
  whole group, and a call charges its owners by one bincount per tier;
* mixed-radix enumerations of many boxes with one shape share one
  offset table and one NumPy pass, scanned in growing chunks so that a
  query stops at the chunk holding its first witness (the scalar code
  lists every value, then asks ``.any()``); distinct-line counting
  lists every enumerable box of a batch in one ragged pass per
  coefficient row;
* the per-line absolute-interval searches of a distinct-line count
  run in widening rounds: round ``r`` submits the next ``4 · cap · 2^r``
  candidate lines of every undecided query as rows of one
  level-synchronous search tree.  Each query's rows are then replayed
  in the scalar's line order and depth-first node order until ``cap``
  lines are found, so budget semantics (and therefore ``None``
  verdicts) and every stats charge cover exactly the lines and nodes
  the scalar code would have visited; rows built past that point are
  never charged.

Pathological trees whose full expansion would dwarf the scalar node
budget fall back to the scalar recursion for that one row — exactness
by construction, never by luck.  The same node cap bounds one tree
pass: at most ``_ROW_CAP // (_NODE_CAP_FACTOR · budget)`` rows, so one
pass holds about ``_ROW_CAP`` nodes at worst.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from types import SimpleNamespace
from typing import Callable

import numpy as np

from repro.polyhedra import kernels
from repro.polyhedra.box import Box
from repro.polyhedra.congruence import (
    CongruenceTester,
    TesterStats,
    exists_absolute_interval,
)

#: Most rows one enumeration or search-tree pass holds (memory guard).
_ROW_CAP = 1 << 20

#: A query whose full frontier expansion exceeds this many times the
#: scalar node budget falls back to the scalar recursion (the frontier
#: has no depth-first early exit, so an explicit cap keeps adversarial
#: trees bounded).
_NODE_CAP_FACTOR = 4

#: Early-exit enumeration: offsets scanned in the first chunk, the
#: factor each later chunk grows by, and the most values one block of
#: a chunk's queries, or the cached offset tables, hold (memory guard).
_FIRST_CHUNK = 1024
_CHUNK_GROWTH = 4
_BLOCK = 1 << 16

#: Verdict encoding: scalar ``False`` / ``True`` / ``None``.
FALSE, TRUE, UNKNOWN = np.int8(0), np.int8(1), np.int8(2)

# Frontier node statuses.
_PRUNE, _LEAF, _ENUM, _EXPAND = 0, 1, 2, 3

#: The tiers, in the column order of a call's charge table.
_TIERS = tuple(TesterStats().as_dict())
_ENUMERATED, _RECURSIVE, _UNKNOWN = (
    _TIERS.index(t) for t in ("enumerated", "recursive", "unknown")
)


def verdicts_to_py(verdicts: np.ndarray) -> list[bool | None]:
    """Decode an int8 verdict array into scalar-cascade return values."""
    return [None if v == UNKNOWN else bool(v) for v in verdicts]


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, list[tuple]]:
    """Each row's index among the distinct rows, and those rows in order
    of first appearance (cheaper than ``np.unique`` at a call's few rows)."""
    keys: dict[tuple, int] = {}
    idx = [keys.setdefault(row, len(keys)) for row in map(tuple, rows.tolist())]
    return np.array(idx, dtype=np.intp), list(keys)


class _Plan:
    """Invariants of one normalised coefficient sequence (the scalar
    ``_normalize`` order), shared by every query whose active dimensions
    have it; built once per sequence and way size."""

    __slots__ = ("coeffs", "ndims", "g", "period", "suffix_g", "cneg", "cpos")

    def __init__(self, coeffs: tuple[int, ...], m: int):
        self.coeffs = np.array(coeffs, dtype=np.int64)
        self.ndims = len(coeffs)
        self.g = np.array([gcd(abs(c), m) for c in coeffs], dtype=np.int64)
        self.period = m // self.g
        # gcd of |coeffs| over each suffix (abs-search divisibility prune).
        suffix = [0] * (self.ndims + 1)
        for level in range(self.ndims - 1, -1, -1):
            suffix[level] = gcd(suffix[level + 1], abs(coeffs[level]))
        self.suffix_g = suffix
        self.cneg = np.minimum(self.coeffs, 0)
        self.cpos = np.maximum(self.coeffs, 0)


_plan = lru_cache(maxsize=4096)(_Plan)


class _Queries(SimpleNamespace):
    """One call's non-empty queries as arrays: extents, coefficient rows
    ``C``, first addresses ``c0``, reachable band ``fmin``..``fmax``,
    owner indexes ``own``, windows ``wlo`` and reused lines ``l0``."""

    def take(self, sel) -> _Queries:
        return _Queries(**{k: v[sel] for k, v in vars(self).items()})


class BatchCascade:
    """Batched congruence queries under one geometry.

    Query ``x`` of a call has its own coefficient row, constant and
    owner, a :class:`CongruenceTester`: every tier attribution lands in
    its owner's ``stats`` exactly as the scalar cascade would have
    counted it.  The owners share one set of work budgets.
    ``BatchCascade(coeffs, const, m, line_size, tester)`` binds one
    reference and one tester to every query of its calls, the
    broadcast case; :meth:`of_queries` binds one call's rows.
    """

    def __init__(
        self,
        coeffs: tuple[int, ...],
        const: int,
        m: int,
        line_size: int,
        tester: CongruenceTester,
    ):
        # The broadcast case: row 0 serves every query.
        self._bind([coeffs], [const], [0], [tester], m, line_size, False)

    @classmethod
    def of_queries(cls, coeffs, const, owner, testers, m, line_size):
        """The cascade of one call whose query ``x`` has the row
        ``coeffs[x]``, constant ``const[x]`` and owner ``testers[owner[x]]``."""
        cascade = cls.__new__(cls)
        cascade._bind(coeffs, const, owner, testers, m, line_size, True)
        return cascade

    def _bind(self, coeffs, const, owner, testers, m, line_size, per_query):
        self.coeffs = np.asarray(coeffs, dtype=np.int64)
        self.const = np.asarray(const, dtype=np.int64)
        self.owner = np.asarray(owner, dtype=np.intp)
        self.testers, self.tester = testers, testers[0]
        self.m, self.L = int(m), int(line_size)
        self._per_query = per_query
        self._offs_cache: dict[tuple, np.ndarray] = {}
        self._offs_held = 0

    # -- public API ---------------------------------------------------------
    def exists_interference_many(
        self,
        Blo: np.ndarray,
        Bhi: np.ndarray,
        wlo: np.ndarray,
        line0: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`CongruenceTester.exists_interference`.

        One verdict per query row, encoded ``FALSE``/``TRUE``/``UNKNOWN``
        and identical to the scalar facade on every row (stats included).
        """
        out = np.full(len(Blo), FALSE, dtype=np.int8)
        keep, q = self._open(Blo, Bhi, wlo, line0)
        if len(keep):
            res = self._mod_window_many(q, self.L)
            # line0 unreachable: the plain window test's answer stands.
            sel = np.flatnonzero(
                (res != FALSE) & (q.l0 + self.L - 1 >= q.fmin) & (q.l0 <= q.fmax)
            )
            counts = self._count_lines_many(q.take(sel), cap=1)
            res[sel] = np.where(counts < 0, UNKNOWN, (counts > 0).astype(np.int8))
            out[keep] = res
            self._settle()
        return out

    def count_interfering_lines_many(
        self,
        Blo: np.ndarray,
        Bhi: np.ndarray,
        wlo: np.ndarray,
        line0: np.ndarray,
        cap: int,
    ) -> np.ndarray:
        """Batched :meth:`CongruenceTester.count_interfering_lines`.

        Returns one capped distinct-line count per query row, ``-1``
        standing for the scalar ``None``.
        """
        out = np.zeros(len(Blo), dtype=np.int64)
        keep, q = self._open(Blo, Bhi, wlo, line0)
        if len(keep) and cap:
            out[keep] = self._count_lines_many(q, cap)
            self._settle()
        return out

    def _open(self, Blo, Bhi, wlo, line0) -> tuple[np.ndarray, _Queries]:
        """A call's non-empty queries: their indexes and arrays.  Opens
        the call's charge table, one row of tiers per owner."""
        if len(Blo) == 0:
            return np.empty(0, dtype=np.intp), None
        Blo, Bhi, wlo, line0 = (
            np.asarray(a, dtype=np.int64) for a in (Blo, Bhi, wlo, line0)
        )
        keep = np.flatnonzero((Bhi >= Blo).all(axis=1))
        at = keep if self._per_query else np.zeros_like(keep)
        C, K, own = self.coeffs[at], self.const[at], self.owner[at]
        exts = Bhi[keep] - Blo[keep] + 1
        c0 = (Blo[keep] * C).sum(axis=1) + K
        self._tally = np.zeros((len(self.testers), len(_TIERS)), dtype=np.int64)
        return keep, _Queries(
            exts=exts, C=C, c0=c0, own=own, wlo=wlo[keep], l0=line0[keep],
            fmin=c0 + ((exts - 1) * np.minimum(C, 0)).sum(axis=1),
            fmax=c0 + ((exts - 1) * np.maximum(C, 0)).sum(axis=1),
        )

    def _charge(self, tier: str, owners: np.ndarray) -> None:
        """One ``tier`` charge per entry of ``owners``, on its owner."""
        self._tally[:, _TIERS.index(tier)] += np.bincount(
            owners, minlength=len(self.testers)
        )

    def _settle(self) -> None:
        """Add the call's charges to each owner's stats."""
        for o in np.flatnonzero(self._tally.any(axis=1)).tolist():
            self.testers[o].stats.merge(dict(zip(_TIERS, self._tally[o].tolist())))

    def _plans(self, q: _Queries):
        """Each query's normalised form, as the scalar ``_normalize``
        builds it: its active dimensions (non-zero coefficient, extent
        above one) in dimension order, stably sorted by descending
        ``|coefficient|``.  Returns their extents in that order (each row
        padded with ones), each query's plan index and the plans."""
        active = (q.C != 0) & (q.exts > 1)
        order = np.argsort(np.where(active, -np.abs(q.C), 1), axis=1, kind="stable")
        active = np.take_along_axis(active, order, axis=1)
        pid, keys = _distinct_rows(
            np.where(active, np.take_along_axis(q.C, order, axis=1), 0)
        )
        plans = [_plan(tuple(c for c in key if c), self.m) for key in keys]
        Es = np.where(active, np.take_along_axis(q.exts, order, axis=1), 1)
        return Es, pid, plans

    # -- mod-window tier cascade -------------------------------------------
    def _mod_window_many(self, q: _Queries, wlen: int) -> np.ndarray:
        """Tiers 1–3 of ``exists_mod_window`` over non-empty boxes."""
        verdict = np.full(len(q.c0), TRUE if wlen >= self.m else FALSE, dtype=np.int8)
        if wlen < self.m:
            Es, pid, plans = self._plans(q)
            for p, plan in enumerate(plans):
                sel = np.flatnonzero(pid == p)
                verdict[sel] = self._mod_window_group(
                    plan, q.take(sel), Es[sel, : plan.ndims], wlen
                )
        return verdict

    def _mod_window_group(
        self, plan: _Plan, q: _Queries, E: np.ndarray, wlen: int
    ) -> np.ndarray:
        """The queries of one plan, ``E`` their extents in plan order."""
        m = self.m
        c0, wl, own = q.c0, q.wlo, q.own
        if plan.ndims == 0:
            return (((c0 - wl) % m) <= wlen - 1).astype(np.int8)
        verdict = np.full(len(q.c0), FALSE, dtype=np.int8)
        span = q.fmax - q.fmin
        a = q.fmin % m
        intersects = (((wl - a) % m) <= span) | (((a - wl) % m) <= wlen - 1)
        reject = (span < m) & ~intersects
        self._charge("interval_reject", own[reject])
        alive = ~reject
        volf = E.astype(np.float64).prod(axis=1)
        small = alive & (volf <= self.tester.enum_limit)
        if small.any():
            self._charge("enumerated", own[small])
            sub = np.flatnonzero(small)
            wsub = wl[sub]
            hit = self._ragged_any(
                c0[sub], plan.coeffs, E[sub],
                lambda vals, r: ((vals - wsub[r, None]) % m) <= wlen - 1,
            )
            verdict[sub] = hit
        big = alive & ~small
        if not big.any():
            return verdict
        full = E >= plan.period[None, :]
        full_g = np.gcd.reduce(np.where(full, plan.g[None, :], 0), axis=1)
        all_full = full.all(axis=1)
        no_partial = big & all_full
        if no_partial.any():
            self._charge("subgroup", own[no_partial])
            sub = np.flatnonzero(no_partial)
            fg = full_g[sub]
            mod = np.where(fg == 0, m, fg)
            verdict[sub] = ((c0[sub] - wl[sub]) % mod) <= wlen - 1
        partial_q = big & ~all_full
        if not partial_q.any():
            return verdict
        pvolf = np.where(full, 1.0, E.astype(np.float64)).prod(axis=1)
        over = partial_q & (pvolf > self.tester.partial_limit)
        if over.any():
            self._charge("unknown", own[over])
            verdict[over] = UNKNOWN
        pe = partial_q & ~over
        if not pe.any():
            return verdict
        self._charge("partial_enum", own[pe])
        sub = np.flatnonzero(pe)
        fg = full_g[sub]
        trivial = (fg > 0) & (wlen >= fg)
        verdict[sub[trivial]] = TRUE
        rest = sub[~trivial]
        if rest.size:
            mod = np.where(full_g[rest] == 0, m, full_g[rest])
            Epart = np.where(full[rest], 1, E[rest])
            wrest = wl[rest]
            verdict[rest] = self._ragged_any(
                c0[rest], plan.coeffs, Epart,
                lambda vals, r: ((vals - wrest[r, None]) % mod[r, None])
                <= wlen - 1,
            )
        return verdict

    # -- distinct-line counting --------------------------------------------
    def _count_lines_many(self, q: _Queries, cap: int) -> np.ndarray:
        """Capped distinct-line counts over non-empty boxes.

        Every query whose projected volume is within ``enum_limit`` —
        whatever its support, single points included — is counted by
        one :func:`~repro.polyhedra.kernels.box_line_counts` pass per
        coefficient row and charged one ``enumerated``, as the scalar
        enumeration tier is.  Larger queries go through the per-line
        frontier of their plan.
        """
        m = self.m
        counts = np.zeros(len(q.c0), dtype=np.int64)
        volf = np.where(q.C != 0, q.exts, 1).astype(np.float64).prod(axis=1)
        small = volf <= self.tester.enum_limit
        sub = np.flatnonzero(small)
        if sub.size:
            self._charge("enumerated", q.own[sub])
            which, rows = _distinct_rows(q.C[sub])
            for r, row in enumerate(rows):
                s = sub[which == r]
                counts[s] = kernels.box_line_counts(
                    q.c0[s], q.exts[s], row, q.wlo[s], q.l0[s], m, self.L, cap
                )
        big = np.flatnonzero(~small)
        if big.size == 0:
            return counts
        b = q.take(big)
        k_lo = -((b.wlo - b.fmin) // m)
        ncand = (b.fmax - b.wlo) // m - k_lo + 1
        over = ncand > self.tester.line_candidate_limit
        self._charge("unknown", b.own[over])
        counts[big[over]] = -1
        go = (ncand > 0) & ~over
        Es, pid, plans = self._plans(b)
        for p, plan in enumerate(plans):
            sel = np.flatnonzero(go & (pid == p))
            if sel.size:
                counts[big[sel]] = self._line_frontier(
                    plan, b.take(sel), Es[sel, : plan.ndims], k_lo[sel],
                    ncand[sel], cap,
                )
        return counts

    def _line_frontier(
        self, plan: _Plan, q: _Queries, E: np.ndarray, k_lo: np.ndarray,
        ncand: np.ndarray, cap: int,
    ) -> np.ndarray:
        """Per-line queries of one plan, nearest-the-reused-line first,
        batched.

        Each query's candidate lines are ordered as the scalar loop
        visits them.  Rounds widen: round ``r`` submits the next
        ``4 · cap · 2^r`` lines of every still undecided query as rows
        of one search tree (:meth:`_abs_tree`, at most ``pass_rows``
        rows a pass).  Each query's rows are then walked in scalar
        order, replaying the tree (or, for a node-cap row, running the
        scalar search on the query's normalised form) until ``cap``
        lines are found.  Rows past that point are never replayed, so
        ``line_queries`` and every tier are charged only for the lines
        the scalar loop visits.
        """
        budget = self.tester.abs_search_budget
        m = self.m
        L = self.L
        c0, wlo, line0 = q.c0, q.wlo, q.l0
        nq = len(q.c0)
        maxc = int(ncand.max())
        cols = np.arange(maxc, dtype=np.int64)[None, :]
        starts = wlo[:, None] + (k_lo[:, None] + cols) * m
        # Scalar quirk preserved: an excluded line start of 0 is falsy,
        # so proximity is measured from fmin instead.
        target = np.where(line0 == 0, q.fmin, line0)
        dist = np.abs(starts - target[:, None])
        invalid = cols >= ncand[:, None]
        dist[invalid] = np.iinfo(np.int64).max
        order = np.argsort(dist, axis=1, kind="stable")
        seq = np.take_along_axis(starts, order, axis=1)
        valid = np.take_along_axis(~invalid, order, axis=1)
        valid &= seq != line0[:, None]  # the reused line itself: skipped
        # Compact each row: surviving candidates first, original order kept.
        pack = np.argsort(~valid, axis=1, kind="stable")
        seq = np.take_along_axis(seq, pack, axis=1)
        seq_len = valid.sum(axis=1)
        found = np.zeros(nq, dtype=np.int64)
        unknown = np.zeros(nq, dtype=bool)
        submitted = np.zeros(nq, dtype=np.int64)
        visited: list[int] = []
        # Memory guard: a row holds at most `_NODE_CAP_FACTOR * budget`
        # tree nodes, so one pass holds about `_ROW_CAP` at most.
        pass_rows = max(1, _ROW_CAP // (_NODE_CAP_FACTOR * budget))
        width = 4 * cap
        while True:
            live = np.flatnonzero((found < cap) & (submitted < seq_len))
            if live.size == 0:
                break
            take = np.minimum(seq_len[live] - submitted[live], width)
            rq = np.repeat(live, take)
            rc = (
                np.arange(len(rq), dtype=np.int64)
                - np.repeat(np.cumsum(take) - take, take)
                + submitted[rq]
            )
            submitted[live] += take
            width *= 2
            for s in range(0, len(rq), pass_rows):
                part = rq[s : s + pass_rows]
                line_lo = seq[part, rc[s : s + pass_rows]]
                levels, fallback = self._abs_tree(
                    plan, E[part], c0[part], line_lo, line_lo + L - 1
                )
                for row, i in enumerate(part.tolist()):
                    if found[i] >= cap:
                        continue
                    visited.append(i)
                    if fallback[row]:
                        first = int(line_lo[row])
                        res = exists_absolute_interval(
                            plan.coeffs.tolist(), int(c0[i]),
                            Box((0,) * plan.ndims, tuple((E[i] - 1).tolist())),
                            first, first + L - 1, self.testers[q.own[i]].stats,
                            budget=budget, enum_limit=self.tester.enum_limit,
                        )
                    else:
                        res = self._replay_abs(
                            levels, row, budget, self._tally[q.own[i]]
                        )
                    if res is None:
                        unknown[i] = True
                    elif res:
                        found[i] += 1
        self._charge("line_queries", q.own[visited])
        out = found.copy()
        exhausted = (found < cap) & unknown
        self._charge("unknown", q.own[exhausted])
        out[exhausted] = -1
        return out

    # -- batched absolute-interval search ----------------------------------
    def _abs_tree(
        self,
        plan: _Plan,
        E: np.ndarray,
        c0_root: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
    ) -> tuple[list[dict], np.ndarray]:
        """Search tree of ``exists_absolute_interval`` for a batch of rows.

        The scalar recursion branches one dimension at a time; here one
        level-synchronous frontier expands every row's branch nodes
        together and concatenates the enumerations.  Nothing is charged
        to the stats: :meth:`_replay_abs` walks a row's recorded tree in
        scalar depth-first order to reproduce its budget consumption
        (and hence ``None`` verdicts) exactly.  Returns the levels and a
        per-row mask of rows whose tree outgrew the node cap and were
        not expanded; those rows take the scalar recursion instead.
        """
        enum_limit = self.tester.enum_limit
        budget = self.tester.abs_search_budget
        nq = len(c0_root)
        nd = plan.ndims
        em1 = E - 1
        sneg = np.zeros((nq, nd + 1), dtype=np.int64)
        spos = np.zeros((nq, nd + 1), dtype=np.int64)
        svolf = np.ones((nq, nd + 1), dtype=np.float64)
        for level in range(nd - 1, -1, -1):
            sneg[:, level] = sneg[:, level + 1] + plan.cneg[level] * em1[:, level]
            spos[:, level] = spos[:, level + 1] + plan.cpos[level] * em1[:, level]
            svolf[:, level] = svolf[:, level + 1] * E[:, level]
        fallback = np.zeros(nq, dtype=bool)
        node_count = np.ones(nq, dtype=np.int64)
        levels: list[dict] = []
        qi = np.arange(nq, dtype=np.int64)
        c0 = c0_root.astype(np.int64, copy=True)
        for level in range(nd + 1):
            n_nodes = len(qi)
            nodes = {
                "status": np.full(n_nodes, _PRUNE, dtype=np.int8),
                "res": np.zeros(n_nodes, dtype=bool),
                "cstart": np.full(n_nodes, -1, dtype=np.int64),
                "ccnt": np.zeros(n_nodes, dtype=np.int64),
            }
            levels.append(nodes)
            if n_nodes == 0:
                break
            if level == nd:
                nodes["status"][:] = _LEAF
                nodes["res"][:] = (lo[qi] <= c0) & (c0 <= hi[qi])
                break
            node_lo = lo[qi]
            node_hi = hi[qi]
            pruned = (c0 + spos[qi, level] < node_lo) | (
                c0 + sneg[qi, level] > node_hi
            )
            g = plan.suffix_g[level]
            if g > 1:
                pruned |= node_lo + ((c0 - node_lo) % g) > node_hi
            enum_mask = ~pruned & (svolf[qi, level] <= enum_limit)
            nodes["status"][enum_mask] = _ENUM
            if enum_mask.any():
                sub = np.flatnonzero(enum_mask)
                sub_lo, sub_hi = node_lo[sub], node_hi[sub]
                nodes["res"][sub] = self._ragged_any(
                    c0[sub],
                    plan.coeffs[level:],
                    E[np.ix_(qi[sub], np.arange(level, nd))],
                    lambda vals, r: (vals >= sub_lo[r, None])
                    & (vals <= sub_hi[r, None]),
                )
            expand = ~pruned & ~enum_mask
            sub = np.flatnonzero(expand)
            if sub.size == 0:
                qi = np.empty(0, dtype=np.int64)
                c0 = np.empty(0, dtype=np.int64)
                continue
            nodes["status"][sub] = _EXPAND
            cq = int(plan.coeffs[level])
            qs = qi[sub]
            c0s = c0[sub]
            rmin = sneg[qs, level + 1]
            rmax = spos[qs, level + 1]
            los = lo[qs]
            his = hi[qs]
            if cq > 0:
                xlo = -((-(los - rmax - c0s)) // cq)
                xhi = (his - rmin - c0s) // cq
            else:
                xlo = -((-(his - rmin - c0s)) // cq)
                xhi = (los - rmax - c0s) // cq
            xlo = np.maximum(xlo, 0)
            xhi = np.minimum(xhi, E[qs, level] - 1)
            cnt = np.maximum(xhi - xlo + 1, 0)
            np.add.at(node_count, qs, cnt)
            fallback |= node_count > budget * _NODE_CAP_FACTOR
            keep = ~fallback[qs]
            cnt_k = np.where(keep, cnt, 0)
            offs = np.zeros(sub.size, dtype=np.int64)
            np.cumsum(cnt_k[:-1], out=offs[1:])
            nodes["cstart"][sub] = offs
            nodes["ccnt"][sub] = cnt_k
            total = int(cnt_k.sum())
            parent = np.repeat(np.arange(sub.size, dtype=np.int64), cnt_k)
            local = np.arange(total, dtype=np.int64) - offs[parent]
            qi = qs[parent]
            c0 = c0s[parent] + cq * (xlo[parent] + local)
        return levels, fallback

    def _replay_abs(
        self, levels: list[dict], root: int, budget: int, tally: np.ndarray
    ) -> bool | None:
        """Walk one query's recorded tree in scalar depth-first order.

        Consumes the node budget child-by-child exactly like
        ``_exists_abs``, charging ``tally``, its owner's row of the
        call's charges, only for the nodes the scalar recursion would
        have visited.
        """
        remaining = budget

        def visit(level: int, idx: int) -> bool | None:
            nonlocal remaining
            nodes = levels[level]
            status = nodes["status"][idx]
            if status == _PRUNE:
                return False
            if status == _LEAF:
                return bool(nodes["res"][idx])
            if status == _ENUM:
                tally[_ENUMERATED] += 1
                return bool(nodes["res"][idx])
            tally[_RECURSIVE] += 1
            unknown = False
            start = int(nodes["cstart"][idx])
            for k in range(int(nodes["ccnt"][idx])):
                if remaining <= 0:
                    tally[_UNKNOWN] += 1
                    return None
                remaining -= 1
                sub = visit(level + 1, start + k)
                if sub is True:
                    return True
                if sub is None:
                    unknown = True
            return None if unknown else False

        return visit(0, root)

    # -- shared-projection enumerations ------------------------------------
    #
    # Boxes with a common projected shape share one mixed-radix offset
    # table (cached on the cascade object, at most `_BLOCK` values in
    # all — the invariant the scalar path rebuilds per query), so each
    # query reduces to a broadcast add over (queries × volume).

    def _enum_offsets(self, coeffs: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """All values of ``Σ c_j · x_j`` with ``x_j ∈ [0, shape_j)``."""
        key = (coeffs.tobytes(), shape)
        offs = self._offs_cache.get(key)
        if offs is None:
            offs = np.zeros(1, dtype=np.int64)
            for c, n in zip(coeffs, shape):
                if n > 1:
                    offs = (
                        offs[:, None]
                        + np.arange(n, dtype=np.int64)[None, :] * int(c)
                    ).ravel()
            if self._offs_held + len(offs) > _BLOCK:
                self._offs_cache.clear()
                self._offs_held = 0
            self._offs_cache[key] = offs
            self._offs_held += len(offs)
        return offs

    def _ragged_any(
        self,
        c0: np.ndarray,
        coeffs: np.ndarray,
        E: np.ndarray,
        hit: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Per query: does some value ``c0 + Σ coeffs_j · x_j`` of its
        box (extents ``E``) satisfy ``hit``?

        ``hit(vals, rows)`` maps a block of values, one row per query
        index in ``rows``, to a boolean block.  The offset table of each
        shape is scanned in mixed-radix order, in chunks growing from
        :data:`_FIRST_CHUNK` by :data:`_CHUNK_GROWTH`, for at most
        :data:`_BLOCK` values of its queries at a time (memory guard);
        a query leaves the scan at the chunk holding its first witness.
        """
        out = np.zeros(len(c0), dtype=bool)
        shapes: dict[tuple[int, ...], list[int]] = {}
        for q, shape in enumerate(map(tuple, E.tolist())):
            shapes.setdefault(shape, []).append(q)
        for shape, members in shapes.items():
            rows = np.array(members, dtype=np.int64)
            offs = self._enum_offsets(coeffs, shape)
            start, width = 0, _FIRST_CHUNK
            while rows.size and start < len(offs):
                part = offs[start : start + width]
                step = max(1, _BLOCK // len(part))
                got = np.concatenate([
                    hit(c0[r, None] + part[None, :], r).any(axis=1)
                    for r in (rows[i : i + step] for i in range(0, len(rows), step))
                ])
                out[rows[got]] = True
                rows = rows[~got]
                start += width
                width *= _CHUNK_GROWTH
        return out
