"""Per-point CME solving — the fast solver of §2.2–§2.4.

A sampled iteration point is classified independently for every
reference ("traversing the iteration space"): the reference either

* has no earlier same-line access along any reuse vector → **COLD**
  (a compulsory-class miss; invariant under tiling),
* has some reuse source whose interval back to the use is free of
  interference → **HIT**,
* or every reuse source is killed by interference → **REPLACEMENT**
  (the misses loop tiling minimises).

Interference over the (possibly enormous) interval between source and
use is decided without enumeration: the interval is decomposed into
integer boxes per convex region, and each (box, reference) pair becomes
one replacement-equation feasibility query answered by the congruence
cascade in :mod:`repro.polyhedra.congruence`.  For a ``k``-way cache
the reuse dies only after ``k`` distinct interfering lines (§2.2), so
the same machinery counts distinct lines with early exit at ``k``.

Undecidable queries (budget exhaustion) are counted and treated as
interference — conservative in the direction of over-reporting misses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro import envs
from repro.cache.config import CacheConfig
from repro.ir.program import AccessProgram
from repro.layout.memory import MemoryLayout
from repro.polyhedra.box import Box
from repro.polyhedra.cascade import TRUE, UNKNOWN, BatchCascade, make_cascade
from repro.polyhedra.congruence import CongruenceTester
from repro.polyhedra.kernels import boxes_interfere
from repro.polyhedra.lexinterval import lex_between_boxes
from repro.reuse.vectors import ReuseCandidate, compute_reuse_candidates


class Outcome(enum.Enum):
    HIT = "hit"
    COLD = "cold"
    REPLACEMENT = "replacement"


@dataclass
class SolverStats:
    """Aggregate instrumentation for a classifier's lifetime."""

    points: int = 0
    ref_tests: int = 0
    sources_checked: int = 0
    intervals_decomposed: int = 0
    intervals_vectorized: int = 0
    boxes_tested: int = 0
    unknown_conservative: int = 0
    congruence: dict = field(default_factory=dict)


class PointClassifier:
    """Classify individual iteration points of one program/layout/cache."""

    def __init__(
        self,
        program: AccessProgram,
        layout: MemoryLayout,
        cache: CacheConfig,
        candidates: dict[int, list[ReuseCandidate]] | None = None,
        *,
        cascade_budgets: dict[str, int] | None = None,
        batch_cascade: bool | None = None,
        compiled_cascade: bool | None = None,
    ):
        self.program = program
        self.layout = layout
        self.cache = cache
        if candidates is None:
            candidates = compute_reuse_candidates(
                program.original, layout, cache.line_size
            )
        self.candidates = candidates
        self.stats = SolverStats()
        self._tester = CongruenceTester(**(cascade_budgets or {}))
        if batch_cascade is None:
            batch_cascade = envs.BATCH_CASCADE.get()
        if compiled_cascade is None:
            compiled_cascade = envs.COMPILED_CASCADE.get()
        self._use_batch_cascade = bool(batch_cascade)
        # Dispatch ladder: compiled → batched-numpy → scalar.  The
        # compiled rung is layered under the batch rung, so disabling
        # batching disables it too.
        self._use_compiled_cascade = (
            self._use_batch_cascade and bool(compiled_cascade)
        )
        self.cascade_tier = (
            "compiled"
            if self._use_compiled_cascade
            else "batched" if self._use_batch_cascade else "scalar"
        )

        vars_ = program.space.vars
        self._refs = sorted(program.refs, key=lambda r: r.position)
        self._coeffs: list[tuple[int, ...]] = []
        self._consts: list[int] = []
        for ref in self._refs:
            expr = layout.address_expr(ref)
            self._coeffs.append(expr.coeff_vector(vars_))
            self._consts.append(expr.const)
        # Coefficient matrix / constant vector for whole-batch address
        # computation: addresses = points @ C.T + c0.
        self._Cmat = np.array(self._coeffs, dtype=np.int64)
        self._c0vec = np.array(self._consts, dtype=np.int64)
        self._positions = np.array(
            [r.position for r in self._refs], dtype=np.int64
        )
        self._regions: tuple[Box, ...] = program.space.regions
        self._pm = program.point_map
        orig = program.original
        self._orig_lo = tuple(l.lower for l in orig.loops)
        self._orig_hi = tuple(l.upper for l in orig.loops)
        self._orig_lo_arr = np.array(self._orig_lo, dtype=np.int64)
        self._orig_hi_arr = np.array(self._orig_hi, dtype=np.int64)
        self._L = cache.line_size
        self._M = cache.way_bytes
        self._k = cache.associativity
        # Positive/negative coefficient parts for vectorised f-range
        # (min/max address over a box) computation in the batch path.
        self._Cpos = np.maximum(self._Cmat, 0)
        self._Cneg = np.minimum(self._Cmat, 0)
        # References grouped by coefficient support: refs depending on
        # the same dimensions enumerate together over the box projected
        # to those dimensions — the cascade's degenerate-dimension
        # dropping, vectorised.  Each entry: (dims, refs, Cg, c0g).
        supports: dict[tuple[int, ...], list[int]] = {}
        for i, coeffs in enumerate(self._coeffs):
            supp = tuple(d for d, c in enumerate(coeffs) if c != 0)
            supports.setdefault(supp, []).append(i)
        self._groups: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        for supp, refs in supports.items():
            dims = np.array(supp, dtype=np.intp)
            ridx = np.array(refs, dtype=np.intp)
            self._groups.append(
                (dims, ridx, self._Cmat[np.ix_(ridx, dims)], self._c0vec[ridx])
            )
        # Per-reference batched-cascade invariants (gcd tables, period
        # decompositions, dimension orderings), built lazily once per
        # candidate and reused across every wave of this classifier.
        self._ref_cascades: list[BatchCascade | None] = [None] * len(self._refs)

    def _ref_cascade(self, idx: int) -> BatchCascade:
        cascade = self._ref_cascades[idx]
        if cascade is None:
            cascade = make_cascade(
                self._coeffs[idx],
                self._consts[idx],
                self._M,
                self._L,
                self._tester,
                compiled=self._use_compiled_cascade,
            )
            self._ref_cascades[idx] = cascade
        return cascade

    # -- address helpers ---------------------------------------------------
    def _addr(self, ref_idx: int, point: tuple[int, ...]) -> int:
        total = self._consts[ref_idx]
        for c, x in zip(self._coeffs[ref_idx], point):
            if c:
                total += c * x
        return total

    # -- public API ----------------------------------------------------------
    def classify_point(self, point: tuple[int, ...]) -> list[Outcome]:
        """Outcome per reference (in position order) at one point."""
        self.stats.points += 1
        return [self._classify_ref(i, point) for i in range(len(self._refs))]

    def classify_ref(self, position: int, point: tuple[int, ...]) -> Outcome:
        for i, ref in enumerate(self._refs):
            if ref.position == position:
                self.stats.points += 1
                return self._classify_ref(i, point)
        raise KeyError(position)

    def classify_batch(
        self, points: list[tuple[int, ...]]
    ) -> list[list[Outcome]]:
        """Outcomes for a whole sample batch; one call per sample.

        Agrees outcome-for-outcome with :meth:`classify_point` on every
        point (the batched-vs-scalar equivalence contract of
        :mod:`repro.evaluation`).  Addresses and reuse sources are
        computed vectorised over the batch; per-source interference is
        then resolved in *waves*: every still-undecided (point, ref)
        pair submits its next reuse source, all small source→use
        intervals of the wave are enumerated in one concatenated numpy
        pass (exact wherever the serial cascade would enumerate exactly
        as well), and oversized intervals go through the *batched*
        congruence cascade (:mod:`repro.polyhedra.cascade`), which is
        verdict-identical to the scalar tester.  For associative
        caches the distinct-line counting is likewise batched per wave.
        The waves examine exactly the sources the scalar early-exit
        loop would examine, in the same order, so outcomes are
        identical by construction.
        """
        n = len(points)
        if n == 0:
            return []
        self.stats.points += n
        nrefs = len(self._refs)
        L = self._L
        M = self._M
        P = np.asarray(points, dtype=np.int64)
        addrs = P @ self._Cmat.T + self._c0vec  # (n, nrefs)
        all_sources = self._batch_reuse_sources(P, addrs)
        out: list[list[Outcome]] = [
            [Outcome.COLD] * nrefs for _ in range(n)
        ]
        # Work item: [i, idx, point, sources(desc), cursor, line0_start, wlo]
        active: list[list] = []
        pts = list(map(tuple, P.tolist()))
        for i in range(n):
            pt = pts[i]
            for idx in range(nrefs):
                self.stats.ref_tests += 1
                srcs = all_sources[idx][i]
                if not srcs:
                    continue  # COLD already in place
                # Most recent source first: first interference-free
                # source wins, as in the scalar path.
                srcs.sort(reverse=True)
                line0_start = (int(addrs[i, idx]) // L) * L
                active.append(
                    [i, idx, pt, srcs, 0, line0_start, line0_start % M]
                )
        while active:
            pending: list[list] = []  # wait on the batched interval pass
            jobs: list[tuple[list, list[tuple[int, int, int]]]] = []
            survivors: list[list] = []
            # Batched lanes: the boundary-iteration line counts of the
            # whole wave in one vectorised pass (identical to the
            # per-item loop below, which stays as the scalar rung).
            pre_counts = (
                self._endpoint_counts_wave(active)
                if self._use_batch_cascade
                else None
            )
            for t, w in enumerate(active):
                i, idx, pt, srcs, cursor, line0_start, wlo = w
                src, spos = srcs[cursor]
                self.stats.sources_checked += 1
                killed: bool | None
                if self._k != 1:
                    if pre_counts is None:
                        # Serial associative counting: the per-box
                        # distinct-line overcount is documented
                        # conservative behaviour batch mode reproduces.
                        killed = self._reuse_killed(
                            src, spos, pt, idx, line0_start, wlo
                        )
                    else:
                        pre = int(pre_counts[t])
                        if pre >= self._k:
                            killed = True
                        elif src == pt:
                            killed = False
                        else:
                            jobs.append((w, src, pre))
                            pending.append(w)
                            continue
                elif (
                    pre_counts[t] > 0
                    if pre_counts is not None
                    else self._endpoint_interference(
                        src, spos, pt, idx, line0_start, wlo
                    )
                ):
                    killed = True
                elif src == pt:
                    killed = False
                else:
                    jobs.append((w, src))
                    pending.append(w)
                    continue
                self._resolve(w, killed, out, survivors)
            if jobs:
                run = (
                    self._run_count_jobs
                    if self._k != 1
                    else self._run_interval_jobs
                )
                for w, killed in zip(pending, run(jobs)):
                    self._resolve(w, killed, out, survivors)
            active = survivors
        return out

    def _resolve(
        self, w: list, killed: bool, out: list, survivors: list
    ) -> None:
        """Apply one source's interference verdict to its work item."""
        if not killed:
            out[w[0]][w[1]] = Outcome.HIT
        elif w[4] + 1 < len(w[3]):
            w[4] += 1
            survivors.append(w)
        else:
            out[w[0]][w[1]] = Outcome.REPLACEMENT

    # -- core ------------------------------------------------------------------
    def _classify_ref(self, idx: int, p: tuple[int, ...]) -> Outcome:
        self.stats.ref_tests += 1
        L = self._L
        addr = self._addr(idx, p)
        line0 = addr // L
        line0_start = line0 * L
        wlo = line0_start % self._M

        sources = self._reuse_sources(idx, p, line0)
        if not sources:
            return Outcome.COLD
        # Most recent source first: any interference-free source → hit.
        sources.sort(key=lambda sp: (sp[0], sp[1]), reverse=True)
        for src, spos in sources:
            self.stats.sources_checked += 1
            if not self._reuse_killed(src, spos, p, idx, line0_start, wlo):
                return Outcome.HIT
        return Outcome.REPLACEMENT

    def _reuse_sources(
        self, idx: int, p: tuple[int, ...], line0: int
    ) -> list[tuple[tuple[int, ...], int]]:
        """Valid same-line earlier accesses along the reuse candidates.

        Candidates are expressed in original coordinates; both the
        backward (``p - r``) and forward (``p + r``) original neighbours
        are considered because tiling reorders execution — an original
        successor can execute earlier in the tiled order.
        """
        pos = self._refs[idx].position
        pm = self._pm
        orig_p = pm.to_original(p)
        lo, hi = self._orig_lo, self._orig_hi
        L = self._L
        out = []
        seen = set()
        for cand in self.candidates.get(pos, ()):  # noqa: B905
            sidx = self._position_index(cand.source_position)
            for sign in (1, -1) if not cand.is_intra_iteration else (1,):
                q_orig = tuple(
                    x - sign * r for x, r in zip(orig_p, cand.vector)
                )
                if any(q < l or q > h for q, l, h in zip(q_orig, lo, hi)):
                    continue
                q = pm.from_original(q_orig)
                if q == p:
                    # Intra-iteration reuse: source must precede in body.
                    if cand.source_position >= pos:
                        continue
                elif q > p:
                    continue
                key = (q, cand.source_position)
                if key in seen:
                    continue
                seen.add(key)
                if self._addr(sidx, q) // L != line0:
                    continue
                out.append((q, cand.source_position))
        return out

    def _batch_reuse_sources(
        self, P: np.ndarray, addrs: np.ndarray
    ) -> list[list[list[tuple[tuple[int, ...], int]]]]:
        """Reuse sources for every (reference, point) of a batch.

        Vectorises the candidate-source derivation of
        :meth:`_reuse_sources` over the whole batch: original-space
        neighbours, bounds checks, execution-order comparison, and the
        same-line test all become array operations.  Produces, per
        reference index, a per-point list of ``(source, position)``
        pairs equal *as a set* to the scalar method's output (order is
        irrelevant — the classifier sorts before use).
        """
        n = P.shape[0]
        L = self._L
        pm = self._pm
        O = pm.to_original_batch(P)
        lo, hi = self._orig_lo_arr, self._orig_hi_arr
        out: list[list[list[tuple[tuple[int, ...], int]]]] = []
        for idx, ref in enumerate(self._refs):
            pos = ref.position
            per_point: list[list[tuple[tuple[int, ...], int]]] = [
                [] for _ in range(n)
            ]
            seen: list[set] = [set() for _ in range(n)]
            line0 = addrs[:, idx] // L
            for cand in self.candidates.get(pos, ()):
                sidx = self._position_index(cand.source_position)
                vec = np.array(cand.vector, dtype=np.int64)
                if cand.is_intra_iteration:
                    # q == p for every point; source must precede in body.
                    if cand.source_position >= pos:
                        continue
                    src_addr = addrs[:, sidx]
                    keep = src_addr // L == line0
                    Q = P
                else:
                    keep = None
                for sign in (1, -1) if not cand.is_intra_iteration else (1,):
                    if not cand.is_intra_iteration:
                        Qo = O - sign * vec
                        inb = ((Qo >= lo) & (Qo <= hi)).all(axis=1)
                        if not inb.any():
                            continue
                        Q = pm.from_original_batch(Qo)
                        # Execution order: keep only q ≺ p (q == p is
                        # impossible here — the map is a bijection and
                        # the reuse vector is nonzero).
                        diff = Q - P
                        neq = diff != 0
                        first = neq.argmax(axis=1)
                        lead = np.take_along_axis(
                            diff, first[:, None], axis=1
                        )[:, 0]
                        earlier = lead < 0
                        src_addr = Q @ self._Cmat[sidx] + self._c0vec[sidx]
                        keep = inb & earlier & (src_addr // L == line0)
                    rows = np.flatnonzero(keep)
                    if not len(rows):
                        continue
                    # One C-level bulk conversion instead of a python
                    # int() loop per coordinate (hot: every candidate
                    # of every reference over the whole batch).
                    qs = map(tuple, Q[rows].tolist())
                    spos_c = cand.source_position
                    for i, q in zip(rows.tolist(), qs):
                        key = (q, spos_c)
                        if key in seen[i]:
                            continue
                        seen[i].add(key)
                        per_point[i].append(key)
            out.append(per_point)
        return out

    def _position_index(self, position: int) -> int:
        for i, ref in enumerate(self._refs):
            if ref.position == position:
                return i
        raise KeyError(position)

    # -- interference ------------------------------------------------------------
    def _reuse_killed(
        self,
        src: tuple[int, ...],
        spos: int,
        use: tuple[int, ...],
        use_idx: int,
        line0_start: int,
        wlo: int,
    ) -> bool:
        """Does the interval (src, use) evict line0 from its set?"""
        if self._k == 1:
            return self._interference_exists(
                src, spos, use, use_idx, line0_start, wlo
            )
        count = self._count_interfering_lines(
            src, spos, use, use_idx, line0_start, wlo, cap=self._k
        )
        return count >= self._k

    def _endpoint_refs(
        self, src: tuple[int, ...], spos: int, use: tuple[int, ...], use_pos: int
    ):
        """(point, ref_idx) accesses at the boundary iterations.

        At the source iteration, references after the source access run
        before the reuse completes; at the use iteration, references
        before the reused access run first.  When source and use are the
        same iteration only positions strictly between count.
        """
        if src == use:
            for i, ref in enumerate(self._refs):
                if spos < ref.position < use_pos:
                    yield src, i
            return
        for i, ref in enumerate(self._refs):
            if ref.position > spos:
                yield src, i
        for i, ref in enumerate(self._refs):
            if ref.position < use_pos:
                yield use, i

    def _endpoint_interference(
        self,
        src: tuple[int, ...],
        spos: int,
        use: tuple[int, ...],
        use_idx: int,
        line0_start: int,
        wlo: int,
    ) -> bool:
        """Window hit on a different line at a boundary iteration."""
        L = self._L
        M = self._M
        use_pos = self._refs[use_idx].position
        for point, i in self._endpoint_refs(src, spos, use, use_pos):
            a = self._addr(i, point)
            if (a % M) - (a % L) == wlo and a - (a % L) != line0_start:
                return True
        return False

    def _interference_exists(
        self,
        src: tuple[int, ...],
        spos: int,
        use: tuple[int, ...],
        use_idx: int,
        line0_start: int,
        wlo: int,
    ) -> bool:
        # Boundary iterations (partial bodies), then the interval.
        if self._endpoint_interference(src, spos, use, use_idx, line0_start, wlo):
            return True
        if src == use:
            return False
        return self._interval_interference_scalar(src, use, line0_start, wlo)

    def _interval_interference_scalar(
        self,
        src: tuple[int, ...],
        use: tuple[int, ...],
        line0_start: int,
        wlo: int,
    ) -> bool:
        """Strictly-between iterations, region by region (the cascade)."""
        L = self._L
        M = self._M
        self.stats.intervals_decomposed += 1
        nrefs = len(self._refs)
        for region in self._regions:
            for box in lex_between_boxes(src, use, region):
                self.stats.boxes_tested += 1
                for i in range(nrefs):
                    res = self._tester.exists_interference(
                        self._coeffs[i],
                        self._consts[i],
                        box,
                        M,
                        wlo,
                        L,
                        line0_start,
                    )
                    if res is None:
                        self.stats.unknown_conservative += 1
                        return True
                    if res:
                        return True
        return False

    def _raw_between_boxes(
        self, src: tuple[int, ...], use: tuple[int, ...]
    ) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """`lex_between_boxes` over all regions, as raw (lo, hi, volume).

        Same decomposition as the scalar path but without ``Box``
        object construction — the batch path creates thousands of these
        per wave and the dataclass overhead is measurable.
        """
        out: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
        d = len(src)
        for region in self._regions:
            rlo, rhi = region.lo, region.hi
            # {q ∈ region : q ≻ src}, prefix-peeling level by level.
            # Pieces are assembled from tuple slices (prefix pinned to
            # src, one dimension clamped, suffix full) — no list churn.
            gt: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
            for level in range(d):
                s = src[level]
                if s < rlo[level]:
                    gt.append((src[:level] + rlo[level:], src[:level] + rhi[level:]))
                    break
                if s + 1 <= rhi[level]:
                    gt.append(
                        (
                            src[:level] + (s + 1,) + rlo[level + 1:],
                            src[:level] + rhi[level:],
                        )
                    )
                if s > rhi[level]:
                    break
            # Intersect each piece with {q : q ≺ use}.
            for glo, ghi in gt:
                for level in range(d):
                    u = use[level]
                    if u > ghi[level]:
                        self._push_box(
                            out, use[:level] + glo[level:], use[:level] + ghi[level:]
                        )
                        break
                    if u - 1 >= glo[level]:
                        self._push_box(
                            out,
                            use[:level] + glo[level:],
                            use[:level] + (u - 1,) + ghi[level + 1:],
                        )
                    if u < glo[level]:
                        break
        return out

    @staticmethod
    def _push_box(
        out: list, lo: list[int], hi: list[int]
    ) -> None:
        vol = 1
        for l, h in zip(lo, hi):
            if h < l:
                return
            vol *= h - l + 1
        out.append((tuple(lo), tuple(hi), vol))

    def _between_boxes_wave(
        self, S: np.ndarray, U: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`_raw_between_boxes` for a whole wave of (src, use) pairs.

        Returns ``(Blo, Bhi, jid)`` where rows are grouped by job and,
        within a job, appear in exactly the order the scalar per-job
        decomposition emits them (region, then src-peel level, then
        use-peel level) — the frontier queues built on top of this
        order drive early exits, so it is part of the equivalence
        contract.  The per-job Python loops become a handful of masked
        array operations per (region, level, level) combination; the
        job dimension is fully vectorised.
        """
        n, d = S.shape
        los: list[np.ndarray] = []
        his: list[np.ndarray] = []
        jids: list[np.ndarray] = []
        keys: list[np.ndarray] = []

        def _emit(sel: np.ndarray, lo: np.ndarray, hi: np.ndarray, key: int):
            keep = np.all(hi >= lo, axis=1)
            if not keep.all():
                sel, lo, hi = sel[keep], lo[keep], hi[keep]
            if len(sel):
                los.append(lo)
                his.append(hi)
                jids.append(sel)
                keys.append(np.full(len(sel), key, dtype=np.int64))

        def _intersect_lt_use(sel: np.ndarray, glo, ghi, base_key: int):
            # {q ∈ piece : q ≺ use}, prefix-peeling on the use point.
            Us = U[sel]
            valid = np.ones(len(sel), dtype=bool)
            for l2 in range(d):
                u = Us[:, l2]
                full = valid & (u > ghi[:, l2])
                clamp = valid & (u <= ghi[:, l2]) & (u - 1 >= glo[:, l2])
                for cond, clamped in ((full, False), (clamp, True)):
                    if cond.any():
                        sub = np.flatnonzero(cond)
                        lo = np.empty((len(sub), d), dtype=np.int64)
                        hi = np.empty((len(sub), d), dtype=np.int64)
                        lo[:, :l2] = Us[sub, :l2]
                        hi[:, :l2] = Us[sub, :l2]
                        lo[:, l2:] = glo[sub, l2:]
                        hi[:, l2:] = ghi[sub, l2:]
                        if clamped:
                            hi[:, l2] = u[sub] - 1
                        _emit(sel[sub], lo, hi, base_key + 2 * l2 + clamped)
                valid &= (u >= glo[:, l2]) & (u <= ghi[:, l2])
                if not valid.any():
                    break

        for ri, region in enumerate(self._regions):
            rlo = np.asarray(region.lo, dtype=np.int64)
            rhi = np.asarray(region.hi, dtype=np.int64)
            # {q ∈ region : q ≻ src}, prefix-peeling level by level —
            # per level at most one piece per job (the two conditions
            # are disjoint), so (region, l1, l2, clamped?) is a total
            # order key over each job's boxes.
            valid = np.ones(n, dtype=bool)
            for l1 in range(d):
                s = S[:, l1]
                below = valid & (s < rlo[l1])
                inside = valid & (s >= rlo[l1]) & (s + 1 <= rhi[l1])
                for cond, bumped in ((below, False), (inside, True)):
                    if cond.any():
                        sel = np.flatnonzero(cond)
                        glo = np.empty((len(sel), d), dtype=np.int64)
                        ghi = np.empty((len(sel), d), dtype=np.int64)
                        glo[:, :l1] = S[sel, :l1]
                        ghi[:, :l1] = S[sel, :l1]
                        glo[:, l1:] = rlo[l1:]
                        ghi[:, l1:] = rhi[l1:]
                        if bumped:
                            glo[:, l1] = S[sel, l1] + 1
                        _intersect_lt_use(
                            sel, glo, ghi, 2 * d * (ri * d + l1)
                        )
                valid &= (s >= rlo[l1]) & (s <= rhi[l1])
                if not valid.any():
                    break
        if not los:
            empty = np.empty((0, d), dtype=np.int64)
            return empty, empty.copy(), np.empty(0, dtype=np.int64)
        Blo = np.concatenate(los)
        Bhi = np.concatenate(his)
        jid = np.concatenate(jids)
        key = np.concatenate(keys)
        order = np.lexsort((key, jid))
        return Blo[order], Bhi[order], jid[order]

    #: Point-volume cap per kernel call (memory guard).
    _JOB_CHUNK_ROWS = 1 << 20
    #: Per-job enumeration budget per round (early-exit granularity).
    _ROUND_ROWS = 1 << 12

    def _run_interval_jobs(self, jobs: list[tuple[list, tuple]]) -> list[bool]:
        """Resolve a wave of interval-interference queries at once.

        Each job is (work item, reuse source); its strictly-between set
        decomposes into the same boxes the serial cascade would visit.
        The cascade's O(1) address-band rejection is applied to *all*
        boxes of the wave in a handful of array operations; surviving
        small boxes are decided exactly by the split-sum kernel
        :func:`repro.polyhedra.kernels.boxes_interfere` (the regime
        where the cascade would enumerate exactly as well), and
        surviving big boxes fall back to the per-box congruence
        cascade.  Outcomes therefore match the scalar path on every job
        by construction.
        """
        self.stats.intervals_vectorized += len(jobs)
        L = self._L
        M = self._M
        enum_limit = self._tester.enum_limit
        killed = [False] * len(jobs)
        Blo, Bhi, jid_arr = self._between_boxes_wave(
            np.array([src for _w, src in jobs], dtype=np.int64),
            np.array([w[2] for w, _src in jobs], dtype=np.int64),
        )
        nb = len(jid_arr)
        if nb == 0:
            return killed
        self.stats.boxes_tested += nb
        wlo_box = np.array([jobs[j][0][6] for j in jid_arr], dtype=np.int64)
        l0_box = np.array([jobs[j][0][5] for j in jid_arr], dtype=np.int64)
        # Tier-1 rejection, vectorised over every (box, ref) pair: the
        # reachable address band [fmin, fmax] misses the set window.
        fmin = Blo @ self._Cpos.T + Bhi @ self._Cneg.T + self._c0vec
        fmax = Bhi @ self._Cpos.T + Blo @ self._Cneg.T + self._c0vec
        spans = fmax - fmin
        aa = fmin % M
        wl = wlo_box[:, None]
        alive = (
            (spans >= M)
            | (((wl - aa) % M) <= spans)
            | (((aa - wl) % M) <= L - 1)
        )
        # Per-group projected volumes and liveness.  The projected
        # volume equals the cascade's post-normalisation volume, so the
        # enumerate-vs-cascade split below matches the scalar path's
        # exactness regime per (box, reference) pair.
        exts_all = Bhi - Blo + 1
        ngroups = len(self._groups)
        pvol = np.empty((nb, ngroups), dtype=np.int64)
        galive = np.empty((nb, ngroups), dtype=bool)
        for gi, (dims, ridx, _, _) in enumerate(self._groups):
            pvol[:, gi] = exts_all[:, dims].prod(axis=1)
            galive[:, gi] = alive[:, ridx].any(axis=1)
        # Surviving boxes, queued per job in decomposition order.  The
        # rounds below preserve the scalar path's early exit where it
        # pays: each job submits boxes only up to a per-round row
        # budget, so cheap boxes batch together in one round while a
        # huge box runs alone and, if it shows interference, spares the
        # job's remaining work — without serialising the whole wave.
        queues: list[list[int]] = [[] for _ in jobs]
        for b in np.flatnonzero(galive.any(axis=1)):
            queues[int(jid_arr[b])].append(int(b))
        pending = [j for j, q in enumerate(queues) if q]
        cursor = [0] * len(jobs)
        while pending:
            batch: list[list[int]] = [[] for _ in range(ngroups)]
            batch_jobs: list[list[int]] = [[] for _ in range(ngroups)]
            cascades: list[tuple[int, int, int]] = []
            round_jobs: list[int] = []
            for j in pending:
                round_jobs.append(j)
                q = queues[j]
                budget = self._ROUND_ROWS
                while cursor[j] < len(q) and budget > 0:
                    b = q[cursor[j]]
                    cursor[j] += 1
                    for gi in range(ngroups):
                        if not galive[b, gi]:
                            continue
                        if pvol[b, gi] > enum_limit:
                            # Oversized projection: per-ref congruence
                            # cascade, as the scalar path runs it.
                            cascades.append((j, b, gi))
                            budget = 0
                        else:
                            batch[gi].append(b)
                            batch_jobs[gi].append(j)
                            budget -= int(pvol[b, gi])
            for gi, (dims, _, Cg, c0g) in enumerate(self._groups):
                if not batch[gi]:
                    continue
                boxes = np.array(batch[gi], dtype=np.int64)
                hits: list[np.ndarray] = []
                for sel in self._chunk_boxes(boxes, pvol[:, gi]):
                    # Boxes projected to the group's support dimensions:
                    # the value set of each address form is unchanged.
                    hits.append(
                        boxes_interfere(
                            Blo[np.ix_(sel, dims)],
                            exts_all[np.ix_(sel, dims)],
                            Cg,
                            c0g,
                            l0_box[sel],
                            M,
                            L,
                        )
                    )
                for j, h in zip(batch_jobs[gi], np.concatenate(hits)):
                    if h:
                        killed[j] = True
            if cascades and self._use_batch_cascade:
                self._run_cascades_batched(
                    cascades, Blo, Bhi, alive, wlo_box, l0_box, killed
                )
            else:
                for j, b, gi in cascades:
                    if killed[j]:
                        continue  # another box already decided this job
                    if self._cascade_box_group(
                        tuple(int(x) for x in Blo[b]),
                        tuple(int(x) for x in Bhi[b]),
                        gi,
                        alive[b],
                        int(wlo_box[b]),
                        int(l0_box[b]),
                    ):
                        killed[j] = True
            pending = [
                j
                for j in round_jobs
                if not killed[j] and cursor[j] < len(queues[j])
            ]
        return killed

    def _run_cascades_batched(
        self,
        cascades: list[tuple[int, int, int]],
        Blo: np.ndarray,
        Bhi: np.ndarray,
        alive: np.ndarray,
        wlo_box: np.ndarray,
        l0_box: np.ndarray,
        killed: list[bool],
    ) -> None:
        """All of a round's oversized-projection boxes, one batched call.

        Replaces the per-(box, reference) scalar cascade loop: boxes are
        grouped by reference group and decided by the vectorised cascade
        one reference rank at a time, so early exit per box (first
        reference that proves or cannot refute interference wins) is
        preserved while the actual congruence work is shared across the
        whole round.  Verdicts per (box, reference) are identical to the
        scalar cascade, hence job outcomes are unchanged.
        """
        by_group: dict[int, list[tuple[int, int]]] = {}
        for j, b, gi in cascades:
            by_group.setdefault(gi, []).append((j, b))
        for gi, pairs in by_group.items():
            pending = [(j, b) for j, b in pairs if not killed[j]]
            for i in self._groups[gi][1]:
                if not pending:
                    break
                todo = [(j, b) for j, b in pending if not killed[j]]
                sel = [(j, b) for j, b in todo if alive[b, i]]
                rest = [(j, b) for j, b in todo if not alive[b, i]]
                if not sel:
                    pending = rest
                    continue
                bidx = np.array([b for _, b in sel], dtype=np.int64)
                verdicts = self._ref_cascade(int(i)).exists_interference_many(
                    Blo[bidx], Bhi[bidx], wlo_box[bidx], l0_box[bidx]
                )
                keep: list[tuple[int, int]] = []
                for (j, b), v in zip(sel, verdicts):
                    if v == TRUE:
                        killed[j] = True
                    elif v == UNKNOWN:
                        self.stats.unknown_conservative += 1
                        killed[j] = True
                    else:
                        keep.append((j, b))
                pending = keep + rest

    def _cascade_box_group(
        self,
        lo: tuple[int, ...],
        hi: tuple[int, ...],
        gi: int,
        ref_alive: np.ndarray,
        wlo: int,
        line0_start: int,
    ) -> bool:
        """Congruence-cascade test of one box for one reference group."""
        box = Box(lo, hi)
        for i in self._groups[gi][1]:
            if not ref_alive[i]:
                continue
            res = self._tester.exists_interference(
                self._coeffs[i],
                self._consts[i],
                box,
                self._M,
                wlo,
                self._L,
                line0_start,
            )
            if res is None:
                self.stats.unknown_conservative += 1
                return True
            if res:
                return True
        return False

    def _chunk_boxes(
        self, idx: np.ndarray, vol_arr: np.ndarray
    ) -> list[np.ndarray]:
        """Split box indices so each enumerated chunk stays in memory."""
        chunks: list[np.ndarray] = []
        cur: list[int] = []
        rows = 0
        for b in idx:
            n = int(vol_arr[b])
            if cur and rows + n > self._JOB_CHUNK_ROWS:
                chunks.append(np.array(cur, dtype=np.int64))
                cur = []
                rows = 0
            cur.append(int(b))
            rows += n
        if cur:
            chunks.append(np.array(cur, dtype=np.int64))
        return chunks

    def _count_interfering_lines(
        self,
        src: tuple[int, ...],
        spos: int,
        use: tuple[int, ...],
        use_idx: int,
        line0_start: int,
        wlo: int,
        cap: int,
    ) -> int:
        """Distinct interfering lines in the interval, capped at ``cap``."""
        L = self._L
        M = self._M
        pre = self._endpoint_line_count(
            src, spos, use, use_idx, line0_start, wlo, cap
        )
        if pre >= cap or src == use:
            return pre
        self.stats.intervals_decomposed += 1
        nrefs = len(self._refs)
        # Summing per-box distinct counts can double-count a line seen
        # in several boxes; the resulting overestimate errs toward
        # reporting misses, the conservative direction.
        total = pre
        for region in self._regions:
            for box in lex_between_boxes(src, use, region):
                self.stats.boxes_tested += 1
                for i in range(nrefs):
                    n = self._tester.count_interfering_lines(
                        self._coeffs[i],
                        self._consts[i],
                        box,
                        M,
                        wlo,
                        L,
                        line0_start,
                        cap=cap,
                    )
                    if n is None:
                        self.stats.unknown_conservative += 1
                        return cap
                    total += n
                    if total >= cap:
                        return cap
        return total

    def _endpoint_line_count(
        self,
        src: tuple[int, ...],
        spos: int,
        use: tuple[int, ...],
        use_idx: int,
        line0_start: int,
        wlo: int,
        cap: int,
    ) -> int:
        """Distinct interfering lines at the boundary iterations only."""
        L = self._L
        M = self._M
        use_pos = self._refs[use_idx].position
        lines: set[int] = set()
        for point, i in self._endpoint_refs(src, spos, use, use_pos):
            a = self._addr(i, point)
            if (a % M) - (a % L) == wlo and a - (a % L) != line0_start:
                lines.add(a // L)
                if len(lines) >= cap:
                    return len(lines)
        return len(lines)

    def _endpoint_counts_wave(self, active: list[list]) -> np.ndarray:
        """Boundary-iteration distinct-line counts for a whole wave.

        Vectorises :meth:`_endpoint_line_count` (and, via ``count > 0``,
        :meth:`_endpoint_interference`) over every work item's current
        reuse source: both endpoint address rows come from two matrix
        products, position masks select the partial bodies, and the
        per-item distinct-line count is one row-sort away.  Counts are
        capped at ``k`` exactly like the scalar early exit.
        """
        L = self._L
        M = self._M
        pos = self._positions
        S = np.array([w[3][w[4]][0] for w in active], dtype=np.int64)
        U = np.array([w[2] for w in active], dtype=np.int64)
        spos_a = np.array([w[3][w[4]][1] for w in active], dtype=np.int64)
        upos_a = self._positions[
            np.array([w[1] for w in active], dtype=np.intp)
        ]
        wlo_a = np.array([w[6] for w in active], dtype=np.int64)
        l0_div = (
            np.array([w[5] for w in active], dtype=np.int64) // L
        )
        same = (S == U).all(axis=1)
        # Partial bodies: at the source iteration, references after the
        # source access; at the use iteration, references before the
        # reused access; same-iteration reuse counts strictly between.
        src_valid = pos[None, :] > spos_a[:, None]
        use_valid = pos[None, :] < upos_a[:, None]
        src_valid = np.where(
            same[:, None], src_valid & use_valid, src_valid
        )
        use_valid &= ~same[:, None]

        sent = np.iinfo(np.int64).min
        A_src = S @ self._Cmat.T + self._c0vec
        A_use = U @ self._Cmat.T + self._c0vec
        lines = np.empty((len(active), 2 * len(pos)), dtype=np.int64)
        for A, valid, half in (
            (A_src, src_valid, lines[:, : len(pos)]),
            (A_use, use_valid, lines[:, len(pos):]),
        ):
            al = A // L
            hit = (
                valid
                & ((A % M) - (A - al * L) == wlo_a[:, None])
                & (al != l0_div[:, None])
            )
            np.copyto(half, np.where(hit, al, sent))
        lines.sort(axis=1)
        distinct = np.ones(lines.shape, dtype=bool)
        distinct[:, 1:] = lines[:, 1:] != lines[:, :-1]
        counts = (distinct & (lines != sent)).sum(axis=1)
        return np.minimum(counts, max(self._k, 1))

    def _run_count_jobs(self, jobs: list[tuple[list, tuple, int]]) -> list[bool]:
        """Associative interval counting for a whole wave at once.

        Each job is (work item, reuse source, endpoint line count); the
        strictly-between boxes decompose exactly as in the scalar path
        and every (box, reference) pair contributes the same capped
        distinct-line count the scalar
        :meth:`_count_interfering_lines` would have accumulated —
        ``None`` collapsing to the cap, so verdicts are identical.  A
        box-rank frontier preserves the scalar early exit at the cap:
        job ``j`` only decomposes further counting work while its
        running total is still below ``k``.
        """
        self.stats.intervals_vectorized += len(jobs)
        k = self._k
        nrefs = len(self._refs)
        totals = [pre for (_, _, pre) in jobs]
        Blo, Bhi, jid = self._between_boxes_wave(
            np.array([src for (_w, src, _pre) in jobs], dtype=np.int64),
            np.array([w[2] for (w, _src, _pre) in jobs], dtype=np.int64),
        )
        nb = len(jid)
        self.stats.boxes_tested += nb
        if nb == 0:
            return [t >= k for t in totals]
        if self._use_compiled_cascade:
            # Compiled rung: a two-phase frontier instead of the strict
            # box-rank round-robin.  Phase one tests only each job's
            # first box — where nearly every early exit happens in an
            # associative cache.  Phase two sends every surviving job's
            # remaining boxes through each cascade in one maximal batch:
            # a surviving job rarely exits at all (an interference-free
            # source never reaches the cap), so the fused batch does the
            # work the scalar loop would have done anyway, minus the
            # per-round dispatch.  Counts are non-negative and a per-box
            # ``None`` collapses to the cap, so the summed total crosses
            # ``k`` exactly when the scalar early-exit prefix would
            # have; verdicts are identical by construction.
            wlo_b = np.array(
                [jobs[int(j)][0][6] for j in jid], dtype=np.int64
            )
            l0_b = np.array(
                [jobs[int(j)][0][5] for j in jid], dtype=np.int64
            )
            tot = np.array(totals, dtype=np.int64)
            first = np.zeros(nb, dtype=bool)
            first[np.unique(jid, return_index=True)[1]] = True
            for rows_all in (np.flatnonzero(first), np.flatnonzero(~first)):
                if not len(rows_all):
                    continue
                for i in range(nrefs):
                    rows = rows_all[tot[jid[rows_all]] < k]
                    if not len(rows):
                        break
                    counts = self._ref_cascade(
                        i
                    ).count_interfering_lines_many(
                        Blo[rows], Bhi[rows], wlo_b[rows], l0_b[rows], cap=k
                    )
                    unknown = counts < 0
                    nunk = int(unknown.sum())
                    if nunk:
                        self.stats.unknown_conservative += nunk
                    tot += np.bincount(
                        jid[rows],
                        weights=np.where(unknown, k, counts),
                        minlength=len(jobs),
                    ).astype(np.int64)
            return [bool(t >= k) for t in tot]
        # Rows come back grouped per job in decomposition order, so each
        # queue is a consecutive run of box indices.
        queues: list[list[int]] = [[] for _ in jobs]
        for b, j in enumerate(jid):
            queues[int(j)].append(b)
        wlo_arr = np.array([jobs[int(j)][0][6] for j in jid], dtype=np.int64)
        l0_arr = np.array([jobs[int(j)][0][5] for j in jid], dtype=np.int64)
        cursor = [0] * len(jobs)
        pending = [j for j, q in enumerate(queues) if q and totals[j] < k]
        while pending:
            batch_b = []
            batch_j = []
            for j in pending:
                batch_b.append(queues[j][cursor[j]])
                batch_j.append(j)
                cursor[j] += 1
            live = list(range(len(batch_b)))
            for i in range(nrefs):
                if not live:
                    break
                cascade = self._ref_cascade(i)
                idx = np.array([batch_b[t] for t in live], dtype=np.int64)
                counts = cascade.count_interfering_lines_many(
                    Blo[idx], Bhi[idx], wlo_arr[idx], l0_arr[idx], cap=k
                )
                nxt = []
                for t, c in zip(live, counts):
                    j = batch_j[t]
                    if c < 0:
                        self.stats.unknown_conservative += 1
                        totals[j] = k
                    else:
                        totals[j] += int(c)
                    if totals[j] < k:
                        nxt.append(t)
                live = nxt
            pending = [
                j
                for j in pending
                if totals[j] < k and cursor[j] < len(queues[j])
            ]
        return [t >= k for t in totals]

    def finalize_stats(self) -> SolverStats:
        self.stats.congruence = self._tester.stats.as_dict()
        return self.stats
