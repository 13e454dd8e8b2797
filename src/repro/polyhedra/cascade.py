"""Vectorised congruence cascade: batches of replacement-equation queries.

:mod:`repro.polyhedra.congruence` decides one ``(box, window)`` query
per call; the solver's hot waves produce thousands of them against the
same affine reference.  :class:`BatchCascade` decides a whole batch at
once while staying *verdict-identical* to the scalar cascade — every
query yields the same ``True``/``False``/``None`` and the same
:class:`~repro.polyhedra.congruence.TesterStats` tier attribution the
scalar code would have produced, so downstream search trajectories and
accuracy counters are untouched.  The speed comes from sharing work the
scalar path repeats per query:

* normalisation, gcd/period tables and dimension orderings are
  precomputed once per reference (the solver's per-candidate invariant
  cache) and reused across every box;
* queries are grouped by support mask, so tier selection (interval
  reject / exact enumeration / subgroup collapse / partial enumeration
  / unknown) becomes array arithmetic over the whole group;
* mixed-radix enumerations of many boxes with one shape share one
  offset table and one NumPy pass, scanned in growing chunks so that a
  query stops at the chunk holding its first witness (the scalar code
  lists every value, then asks ``.any()``); distinct-line counting
  lists every enumerable box of a batch, whatever its support mask, in
  one ragged pass;
* the per-line absolute-interval searches of a distinct-line count
  run in widening rounds: round ``r`` submits the next ``cap · 2^r``
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

from math import gcd
from typing import Callable

import numpy as np

from repro.polyhedra import kernels
from repro.polyhedra.box import Box
from repro.polyhedra.congruence import CongruenceTester, exists_absolute_interval

#: Most rows one enumeration or search-tree pass holds (memory guard).
_ROW_CAP = 1 << 20

#: A query whose full frontier expansion exceeds this many times the
#: scalar node budget falls back to the scalar recursion (the frontier
#: has no depth-first early exit, so an explicit cap keeps adversarial
#: trees bounded).
_NODE_CAP_FACTOR = 4

#: Early-exit enumeration: offsets scanned in the first chunk, and the
#: factor each later chunk grows by.
_FIRST_CHUNK = 1024
_CHUNK_GROWTH = 4

#: Verdict encoding: scalar ``False`` / ``True`` / ``None``.
FALSE, TRUE, UNKNOWN = np.int8(0), np.int8(1), np.int8(2)

# Frontier node statuses.
_PRUNE, _LEAF, _ENUM, _EXPAND = 0, 1, 2, 3


def verdicts_to_py(verdicts: np.ndarray) -> list[bool | None]:
    """Decode an int8 verdict array into scalar-cascade return values."""
    return [None if v == UNKNOWN else bool(v) for v in verdicts]


class _Plan:
    """Per-(reference, support-mask) invariants shared by every query."""

    __slots__ = (
        "dims", "coeffs", "ndims", "g", "period", "suffix_g", "cneg", "cpos"
    )

    def __init__(self, dims: list[int], coeffs: np.ndarray, m: int):
        # Scalar `_normalize` order: dimension order, then stable sort
        # by descending |coefficient|.
        order = sorted(dims, key=lambda d: -abs(int(coeffs[d])))
        self.dims = np.array(order, dtype=np.intp)
        self.coeffs = coeffs[self.dims]
        self.ndims = len(order)
        self.g = np.array(
            [gcd(abs(int(c)), m) for c in self.coeffs], dtype=np.int64
        )
        self.period = (m // self.g) if self.ndims else self.g
        # gcd of |coeffs| over each suffix (abs-search divisibility prune).
        suffix = [0] * (self.ndims + 1)
        for level in range(self.ndims - 1, -1, -1):
            suffix[level] = gcd(suffix[level + 1], abs(int(self.coeffs[level])))
        self.suffix_g = suffix
        self.cneg = np.minimum(self.coeffs, 0)
        self.cpos = np.maximum(self.coeffs, 0)


class BatchCascade:
    """Batched congruence queries for one reference under one geometry.

    Bound to a :class:`CongruenceTester`: work budgets come from the
    tester and every tier attribution lands in ``tester.stats`` exactly
    as the scalar cascade would have counted it.
    """

    def __init__(
        self,
        coeffs: tuple[int, ...],
        const: int,
        m: int,
        line_size: int,
        tester: CongruenceTester,
    ):
        self.coeffs = np.asarray(coeffs, dtype=np.int64)
        self.coeffs_tuple = tuple(int(c) for c in coeffs)
        self.const = int(const)
        self.m = int(m)
        self.L = int(line_size)
        self.tester = tester
        self._d = len(self.coeffs)
        self._cneg_full = np.minimum(self.coeffs, 0)
        self._cpos_full = np.maximum(self.coeffs, 0)
        self._pow2 = (1 << np.arange(self._d, dtype=np.int64))
        self._plans: dict[int, _Plan] = {}
        self._offs_cache: dict[tuple, np.ndarray] = {}

    def release_tables(self) -> None:
        """Drop the cached per-shape tables; they are rebuilt on demand."""
        self._offs_cache.clear()

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
        Blo = np.asarray(Blo, dtype=np.int64)
        Bhi = np.asarray(Bhi, dtype=np.int64)
        wlo = np.asarray(wlo, dtype=np.int64)
        line0 = np.asarray(line0, dtype=np.int64)
        nq = Blo.shape[0]
        out = np.full(nq, FALSE, dtype=np.int8)
        if nq == 0:
            return out
        nonempty = np.flatnonzero((Bhi >= Blo).all(axis=1))
        if nonempty.size == 0:
            return out
        blo, bhi, wl, l0 = (
            Blo[nonempty], Bhi[nonempty], wlo[nonempty], line0[nonempty]
        )
        any_hit, fmin, fmax = self._mod_window_many(blo, bhi, wl, self.L)
        res = any_hit.copy()
        # line0 unreachable: the plain window test's answer stands.
        counting = (any_hit != FALSE) & (l0 + self.L - 1 >= fmin) & (l0 <= fmax)
        sel = np.flatnonzero(counting)
        if sel.size:
            counts = self._count_lines_many(
                blo[sel], bhi[sel], wl[sel], l0[sel], cap=1
            )
            res[sel] = np.where(
                counts < 0, UNKNOWN, (counts > 0).astype(np.int8)
            )
        out[nonempty] = res
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
        Blo = np.asarray(Blo, dtype=np.int64)
        Bhi = np.asarray(Bhi, dtype=np.int64)
        wlo = np.asarray(wlo, dtype=np.int64)
        line0 = np.asarray(line0, dtype=np.int64)
        nq = Blo.shape[0]
        out = np.zeros(nq, dtype=np.int64)
        if nq == 0 or cap == 0:
            return out
        nonempty = np.flatnonzero((Bhi >= Blo).all(axis=1))
        if nonempty.size == 0:
            return out
        out[nonempty] = self._count_lines_many(
            Blo[nonempty], Bhi[nonempty], wlo[nonempty], line0[nonempty], cap
        )
        return out

    # -- mod-window tier cascade -------------------------------------------
    def _mod_window_many(
        self, Blo: np.ndarray, Bhi: np.ndarray, wlo: np.ndarray, wlen: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tiers 1–3 of ``exists_mod_window`` over non-empty boxes.

        Also returns the per-query reachable address band (fmin, fmax),
        which the interference test reuses for the line0 check.
        """
        m = self.m
        exts = Bhi - Blo + 1
        c0 = Blo @ self.coeffs + self.const
        em1 = exts - 1
        fmin = c0 + em1 @ self._cneg_full
        fmax = c0 + em1 @ self._cpos_full
        nq = len(c0)
        verdict = np.full(nq, FALSE, dtype=np.int8)
        if wlen >= m:
            verdict[:] = TRUE
            return verdict, fmin, fmax
        mask = (self.coeffs[None, :] != 0) & (exts > 1)
        keys = mask @ self._pow2
        for key in np.unique(keys):
            qsel = np.flatnonzero(keys == key)
            plan = self._plan(int(key))
            self._mod_window_group(
                plan, qsel, c0, exts, wlo, wlen, fmin, fmax, verdict
            )
        return verdict, fmin, fmax

    def _plan(self, bits: int) -> _Plan:
        plan = self._plans.get(bits)
        if plan is None:
            dims = [d for d in range(self._d) if (bits >> d) & 1]
            plan = _Plan(dims, self.coeffs, self.m)
            self._plans[bits] = plan
        return plan

    def _mod_window_group(
        self,
        plan: _Plan,
        qsel: np.ndarray,
        c0_all: np.ndarray,
        exts_all: np.ndarray,
        wlo_all: np.ndarray,
        wlen: int,
        fmin_all: np.ndarray,
        fmax_all: np.ndarray,
        verdict: np.ndarray,
    ) -> None:
        st = self.tester.stats
        m = self.m
        c0 = c0_all[qsel]
        wl = wlo_all[qsel]
        if plan.ndims == 0:
            verdict[qsel] = (((c0 - wl) % m) <= wlen - 1).astype(np.int8)
            return
        E = exts_all[np.ix_(qsel, plan.dims)]
        span = fmax_all[qsel] - fmin_all[qsel]
        a = fmin_all[qsel] % m
        intersects = (((wl - a) % m) <= span) | (((a - wl) % m) <= wlen - 1)
        reject = (span < m) & ~intersects
        st.interval_reject += int(reject.sum())
        alive = ~reject
        volf = E.astype(np.float64).prod(axis=1)
        small = alive & (volf <= self.tester.enum_limit)
        if small.any():
            st.enumerated += int(small.sum())
            sub = np.flatnonzero(small)
            wsub = wl[sub]
            hit = self._ragged_any(
                c0[sub], plan.coeffs, E[sub],
                lambda vals, r: ((vals - wsub[r, None]) % m) <= wlen - 1,
            )
            verdict[qsel[sub]] = hit.astype(np.int8)
        big = alive & ~small
        if not big.any():
            return
        full = E >= plan.period[None, :]
        full_g = np.gcd.reduce(np.where(full, plan.g[None, :], 0), axis=1)
        all_full = full.all(axis=1)
        no_partial = big & all_full
        if no_partial.any():
            st.subgroup += int(no_partial.sum())
            sub = np.flatnonzero(no_partial)
            fg = full_g[sub]
            mod = np.where(fg == 0, m, fg)
            hit = ((c0[sub] - wl[sub]) % mod) <= wlen - 1
            verdict[qsel[sub]] = hit.astype(np.int8)
        partial_q = big & ~all_full
        if not partial_q.any():
            return
        pvolf = np.where(full, 1.0, E.astype(np.float64)).prod(axis=1)
        over = partial_q & (pvolf > self.tester.partial_limit)
        if over.any():
            st.unknown += int(over.sum())
            verdict[qsel[np.flatnonzero(over)]] = UNKNOWN
        pe = partial_q & ~over
        if not pe.any():
            return
        st.partial_enum += int(pe.sum())
        sub = np.flatnonzero(pe)
        fg = full_g[sub]
        trivial = (fg > 0) & (wlen >= fg)
        verdict[qsel[sub[trivial]]] = TRUE
        rest = sub[~trivial]
        if rest.size:
            mod = np.where(full_g[rest] == 0, m, full_g[rest])
            Epart = np.where(full[rest], 1, E[rest])
            wrest = wl[rest]
            hit = self._ragged_any(
                c0[rest], plan.coeffs, Epart,
                lambda vals, r: ((vals - wrest[r, None]) % mod[r, None])
                <= wlen - 1,
            )
            verdict[qsel[rest]] = hit.astype(np.int8)

    # -- distinct-line counting --------------------------------------------
    def _count_lines_many(
        self,
        Blo: np.ndarray,
        Bhi: np.ndarray,
        wlo: np.ndarray,
        line0: np.ndarray,
        cap: int,
    ) -> np.ndarray:
        """Capped distinct-line counts over non-empty boxes.

        Every query whose projected volume is within ``enum_limit`` —
        whatever its support mask, single points included — is counted
        by one :func:`~repro.polyhedra.kernels.box_line_counts` pass and
        charged one ``enumerated``, as the scalar enumeration tier is.
        Larger queries go through the per-line frontier of their
        support mask.
        """
        st = self.tester.stats
        m = self.m
        exts = Bhi - Blo + 1
        c0 = Blo @ self.coeffs + self.const
        counts = np.zeros(len(c0), dtype=np.int64)
        mask = (self.coeffs[None, :] != 0) & (exts > 1)
        volf = np.where(mask, exts, 1).astype(np.float64).prod(axis=1)
        small = volf <= self.tester.enum_limit
        sub = np.flatnonzero(small)
        if sub.size:
            st.enumerated += sub.size
            counts[sub] = kernels.box_line_counts(
                c0[sub], exts[sub], self.coeffs, wlo[sub], line0[sub],
                m, self.L, cap,
            )
        big = np.flatnonzero(~small)
        if big.size == 0:
            return counts
        em1 = exts[big] - 1
        fmin = c0[big] + em1 @ self._cneg_full
        fmax = c0[big] + em1 @ self._cpos_full
        wlb = wlo[big]
        k_lo = -((wlb - fmin) // m)
        ncand = (fmax - wlb) // m - k_lo + 1
        over = ncand > self.tester.line_candidate_limit
        st.unknown += int(over.sum())
        counts[big[over]] = -1
        go = (ncand > 0) & ~over
        keys = mask[big] @ self._pow2
        for key in np.unique(keys[go]):
            sel = np.flatnonzero(go & (keys == key))
            q = big[sel]
            plan = self._plan(int(key))
            counts[q] = self._line_frontier(
                plan,
                Blo[q],
                Bhi[q],
                exts[np.ix_(q, plan.dims)],
                c0[q],
                wlo[q],
                line0[q],
                fmin[sel],
                k_lo[sel],
                ncand[sel],
                cap,
            )
        return counts

    def _line_frontier(
        self,
        plan: _Plan,
        Blo: np.ndarray,
        Bhi: np.ndarray,
        E: np.ndarray,
        c0: np.ndarray,
        wlo: np.ndarray,
        line0: np.ndarray,
        fmin: np.ndarray,
        k_lo: np.ndarray,
        ncand: np.ndarray,
        cap: int,
    ) -> np.ndarray:
        """Per-line queries, nearest-the-reused-line first, batched.

        Each query's candidate lines are ordered as the scalar loop
        visits them.  Rounds widen: round ``r`` submits the next
        ``cap · 2^r`` lines of every still undecided query as rows of
        one search tree (:meth:`_abs_tree`, at most ``pass_rows`` rows a
        pass).  Each query's rows are then walked in scalar order,
        replaying the tree (or, for a node-cap row, running the scalar
        search) until ``cap`` lines are found.  Rows past that point are
        never replayed, so ``line_queries`` and every tier are charged
        only for the lines the scalar loop visits.
        """
        st = self.tester.stats
        budget = self.tester.abs_search_budget
        m = self.m
        L = self.L
        nq = len(c0)
        maxc = int(ncand.max())
        cols = np.arange(maxc, dtype=np.int64)[None, :]
        starts = wlo[:, None] + (k_lo[:, None] + cols) * m
        # Scalar quirk preserved: an excluded line start of 0 is falsy,
        # so proximity is measured from fmin instead.
        target = np.where(line0 == 0, fmin, line0)
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
        # Memory guard: a row holds at most `_NODE_CAP_FACTOR * budget`
        # tree nodes, so one pass holds about `_ROW_CAP` at most.
        pass_rows = max(1, _ROW_CAP // (_NODE_CAP_FACTOR * budget))
        width = cap
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
                q = rq[s : s + pass_rows]
                line_lo = seq[q, rc[s : s + pass_rows]]
                levels, fallback = self._abs_tree(
                    plan, E[q], c0[q], line_lo, line_lo + L - 1
                )
                for row, i in enumerate(q.tolist()):
                    if found[i] >= cap:
                        continue
                    st.line_queries += 1
                    if fallback[row]:
                        res = exists_absolute_interval(
                            self.coeffs_tuple,
                            self.const,
                            Box(tuple(Blo[i]), tuple(Bhi[i])),
                            int(line_lo[row]),
                            int(line_lo[row]) + L - 1,
                            st,
                            budget=budget,
                            enum_limit=self.tester.enum_limit,
                        )
                    else:
                        res = self._replay_abs(levels, row, budget)
                    if res is None:
                        unknown[i] = True
                    elif res:
                        found[i] += 1
        out = found.copy()
        exhausted = (found < cap) & unknown
        st.unknown += int(exhausted.sum())
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
        self, levels: list[dict], root: int, budget: int
    ) -> bool | None:
        """Walk one query's recorded tree in scalar depth-first order.

        Consumes the node budget child-by-child exactly like
        ``_exists_abs``, charging the tester's stats only for the nodes
        the scalar recursion would have visited.
        """
        st = self.tester.stats
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
                st.enumerated += 1
                return bool(nodes["res"][idx])
            st.recursive += 1
            unknown = False
            start = int(nodes["cstart"][idx])
            for k in range(int(nodes["ccnt"][idx])):
                if remaining <= 0:
                    st.unknown += 1
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
    # table (cached across waves on the cascade object — the invariant
    # the scalar path rebuilds per query), so each query reduces to a
    # broadcast add over (queries × volume).

    def _shape_batches(self, E: np.ndarray):
        """Yield (offset table index key, query rows) per common shape,
        chunked so each broadcast stays within the row cap."""
        groups: dict[tuple[int, ...], list[int]] = {}
        for t, key in enumerate(map(tuple, E.tolist())):
            groups.setdefault(key, []).append(t)
        for shape, members in groups.items():
            vol = 1
            for n in shape:
                vol *= int(n)
            per = max(1, _ROW_CAP // max(vol, 1))
            for s in range(0, len(members), per):
                yield shape, np.array(members[s : s + per], dtype=np.int64)

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
            if len(self._offs_cache) >= 64:
                self._offs_cache.clear()
            self._offs_cache[key] = offs
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
        index in ``rows``, to a boolean block.  Each shape batch's offset
        table is scanned in mixed-radix order, in chunks growing from
        :data:`_FIRST_CHUNK` by :data:`_CHUNK_GROWTH`; a query leaves the
        scan at the chunk holding its first witness.
        """
        out = np.zeros(len(c0), dtype=bool)
        for shape, rows in self._shape_batches(E):
            offs = self._enum_offsets(coeffs, shape)
            start, width = 0, _FIRST_CHUNK
            while rows.size and start < len(offs):
                part = offs[start : start + width]
                got = hit(c0[rows, None] + part[None, :], rows).any(axis=1)
                out[rows[got]] = True
                rows = rows[~got]
                start += width
                width *= _CHUNK_GROWTH
        return out
