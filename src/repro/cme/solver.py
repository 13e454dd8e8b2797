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

from repro import envs, telemetry
from repro.cache.config import CacheConfig
from repro.ir.program import AccessProgram
from repro.layout.memory import MemoryLayout
from repro.polyhedra.box import Box
from repro.polyhedra.cascade import TRUE, UNKNOWN, BatchCascade
from repro.polyhedra.congruence import CongruenceTester
from repro.polyhedra.kernels import boxes_interfere
from repro.polyhedra.lexinterval import lex_between_boxes
from repro.reuse.vectors import ReuseCandidate, compute_reuse_candidates


class Outcome(enum.Enum):
    HIT = "hit"
    COLD = "cold"
    REPLACEMENT = "replacement"


#: Outcome codes of a classify pass's (point, ref) tables: ``OUTCOMES[c]``.
OUTCOMES = (Outcome.COLD, Outcome.HIT, Outcome.REPLACEMENT)
_HIT = 1
_REPLACEMENT = 2


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


def _prefix_all(mask: np.ndarray) -> np.ndarray:
    """``out[..., l] = mask[..., :l].all(axis=-1)`` (True at ``l = 0``)."""
    out = np.ones_like(mask)
    np.logical_and.accumulate(mask[..., :-1], axis=-1, out=out[..., 1:])
    return out


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
        # Dispatch ladder: batched-numpy → scalar reference.
        self._use_batch_cascade = bool(batch_cascade)
        self.cascade_tier = "batched" if self._use_batch_cascade else "scalar"

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
        # Non-empty regions as (R, depth) bound arrays for the wave
        # decomposition (an empty region holds no between-boxes).
        solid = [r for r in self._regions if not r.is_empty]
        self._region_lo = np.array(
            [r.lo for r in solid], dtype=np.int64
        ).reshape(len(solid), len(vars_))
        self._region_hi = np.array(
            [r.hi for r in solid], dtype=np.int64
        ).reshape(len(solid), len(vars_))
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
        # The groups in the original nest's coordinates, where all its
        # tilings share one coefficient matrix: the kernel queries of
        # _run_interval_jobs are built there, keyed by content so that
        # classify_many can merge them across classifiers.
        orefs = sorted(orig.refs, key=lambda r: r.position)
        exprs = [layout.address_expr(r) for r in orefs]
        ocoef = np.array(
            [e.coeff_vector(orig.vars) for e in exprs], np.int64
        ).reshape(len(exprs), orig.depth)
        oc0 = np.array([e.const for e in exprs], dtype=np.int64)
        self._ocoef, self._oc0 = ocoef, oc0
        # One kernel row per distinct address form: the kernel's verdict
        # is an OR over rows, so a repeated row can never add a hit.
        # Equal forms have equal supports, so they share a group.
        first: dict[tuple, int] = {}
        for i, form in enumerate(np.column_stack((ocoef, oc0)).tolist()):
            first.setdefault(tuple(form), i)
        distinct = np.zeros(len(orefs), dtype=bool)
        distinct[list(first.values())] = True
        self._kernel_groups = []
        for _, ridx, _, _ in self._groups:
            odims = np.flatnonzero(ocoef[ridx].any(axis=0))
            ridx = ridx[distinct[ridx]]
            spec = (ocoef[np.ix_(ridx, odims)], oc0[ridx], self._M, self._L)
            key = (len(odims), spec[0].tobytes(), spec[1].tobytes(), *spec[2:])
            self._kernel_groups.append((odims, key, spec))
        # Reuse-source offsets in original coordinates, one per distinct
        # (reference, source reference, candidate vector · sign); the
        # SourceTable of a sample applies them to every point.
        index = {ref.position: i for i, ref in enumerate(self._refs)}
        offsets: dict[tuple, None] = {}
        for idx, ref in enumerate(self._refs):
            for cand in self.candidates.get(ref.position, ()):
                vec = tuple(cand.vector)
                row = (idx, index[cand.source_position])
                if any(vec):
                    offsets[row + vec] = None
                    offsets[row + tuple(-r for r in vec)] = None
                elif cand.source_position < ref.position:
                    # Intra-iteration: q == p, the source precedes in body.
                    offsets[row + vec] = None
        offs = np.array(list(offsets), dtype=np.int64).reshape(
            len(offsets), 2 + orig.depth
        )
        self._src_ref, self._src_sref, self._src_off = (
            offs[:, 0], offs[:, 1], offs[:, 2:]
        )
        # Per-reference batched-cascade invariants (gcd tables, period
        # decompositions, dimension orderings), built lazily once per
        # candidate and reused across every wave of this classifier.
        self._ref_cascades: list[BatchCascade | None] = [None] * len(self._refs)

    def _ref_cascade(self, idx: int) -> BatchCascade:
        cascade = self._ref_cascades[idx]
        if cascade is None:
            cascade = BatchCascade(
                self._coeffs[idx],
                self._consts[idx],
                self._M,
                self._L,
                self._tester,
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
        self, points: np.ndarray | list[tuple[int, ...]]
    ) -> list[list[Outcome]]:
        """Outcomes for a whole sample batch; one call per sample.

        ``points`` is an ``(n, depth)`` integer array or a sequence of
        point tuples.  Agrees outcome-for-outcome with
        :meth:`classify_point` on every point (the batched-vs-scalar
        equivalence contract of :mod:`repro.evaluation`).  The reuse
        sources come from the pass's :class:`SourceTable`, built once
        for every tiling of the sample and ordered per program;
        per-source interference is then resolved in *waves*: every
        still-undecided (point, ref) pair submits its next reuse
        source, all small source→use intervals of the wave are
        enumerated in one concatenated numpy pass (exact wherever the
        serial cascade would enumerate exactly as well), and oversized
        intervals go through the *batched* congruence cascade
        (:mod:`repro.polyhedra.cascade`), which is verdict-identical to
        the scalar tester.  For associative caches the distinct-line
        counting is likewise batched per wave.  The waves examine
        exactly the sources the scalar early-exit loop would examine,
        in the same order, so outcomes are identical by construction.

        Work items are index arrays: item ``t`` is point ``ai[t]``,
        reference ``aidx[t]`` and its current source ``cur[t]`` in the
        run ``[cur, stop)`` of :meth:`_batch_reuse_sources`; a wave
        gathers everything else by index.

        This is the one-classifier case of :func:`classify_many`.
        """
        return classify_many([self], [points])[0]

    def _classify_waves(self, P: np.ndarray, table: SourceTable | None):
        """:meth:`classify_batch`'s waves over the points ``P`` (in this
        program's coordinates) and their :class:`SourceTable`: a
        generator that yields each interval round's kernel queries and
        returns the outcome codes."""
        n = len(P)
        nrefs = len(self._refs)
        if n == 0:
            return np.empty((0, nrefs), dtype=np.int8)
        self.stats.points += n
        self.stats.ref_tests += n * nrefs
        k = self._k
        # Every (point, ref) without a source stays COLD.
        codes = np.zeros((n, nrefs), dtype=np.int8)
        SRC, rows, ai, aidx, cur, stop = self._batch_reuse_sources(P, table)
        while len(cur):
            S = SRC[cur]
            U = P[ai]
            row = rows[cur]
            wlo = table.wlo[ai, aidx]
            l0 = table.l0[ai, aidx]
            self.stats.sources_checked += len(cur)
            same = table.same[row]
            pre = None
            if self._use_batch_cascade:
                # Boundary-iteration line counts, each table row's once
                # per pass; a count at the cap decides.
                pre = table.endpoint_counts(row)
                killed = pre >= max(k, 1)
                job = ~(killed | same)
            else:
                # Scalar rung: the per-item reference implementations.
                items = zip(
                    map(tuple, S.tolist()),
                    self._positions[table.sref[row]].tolist(),
                    map(tuple, U.tolist()),
                    aidx.tolist(),
                    l0.tolist(),
                    wlo.tolist(),
                )
                if k != 1:
                    # Serial associative counting: the per-box
                    # distinct-line overcount is documented
                    # conservative behaviour batch mode reproduces.
                    killed = np.array(
                        [self._reuse_killed(*item) for item in items], dtype=bool
                    )
                    job = np.zeros(len(cur), dtype=bool)
                else:
                    killed = np.array(
                        [self._endpoint_interference(*item) for item in items],
                        dtype=bool,
                    )
                    job = ~(killed | same)
            jobs = np.flatnonzero(job)
            if len(jobs):
                args = (S[jobs], U[jobs], wlo[jobs], l0[jobs])
                killed[jobs] = (
                    self._run_count_jobs(*args, pre[jobs])
                    if k != 1
                    else (yield from self._run_interval_jobs(*args))
                )
            hit = ~killed
            codes[ai[hit], aidx[hit]] = _HIT
            more = killed & (cur + 1 < stop)
            done = killed & ~more
            codes[ai[done], aidx[done]] = _REPLACEMENT
            # Survivors keep the wave's order: directly decided items
            # first, then interval jobs, each in active order.
            nxt = np.concatenate(
                (np.flatnonzero(more & ~job), np.flatnonzero(more & job))
            )
            ai, aidx, cur, stop = ai[nxt], aidx[nxt], cur[nxt] + 1, stop[nxt]
        return codes

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

    def _source_key(self, O: np.ndarray) -> tuple:
        """What the :class:`SourceTable` of original-space sample ``O``
        depends on, by content: classifiers with equal keys share one."""
        arrays = (
            self._ocoef, self._oc0, self._positions, self._orig_lo_arr,
            self._orig_hi_arr, self._src_ref, self._src_sref, self._src_off, O,
        )
        return (self._L, self._M, self._k) + tuple(
            (a.shape, a.tobytes()) for a in arrays
        )

    def _batch_reuse_sources(self, P: np.ndarray, table: SourceTable):
        """Reuse sources for every (point, reference) of a batch.

        Vectorises :meth:`_reuse_sources` over the whole batch, given
        the tiling-invariant :class:`SourceTable` of its sample: map the
        table's sources to this program's coordinates, keep those that
        run before their use (``q ⪯ p``; ``q == p`` only on the
        intra-iteration rows, whose source precedes in the body), and
        lay them out in runs per (point, reference), each in the order
        :meth:`_classify_ref` tries them (descending ``(q, position)``).
        The fields (run, q, position) are packed into as few int64
        words as their value ranges allow (:func:`_word_strides`), the
        coordinates reversed so that ascending words mean descending
        ``q``; the coordinate part of the same words decides execution
        order, and the words sort the rows.  Table rows are distinct, so
        no run holds a duplicate.

        Returns ``(src, rows, point, ref, start, stop)``: the sources
        in this program's coordinates and their table rows, then one
        entry per run that is not empty, in (point, reference) order,
        covering ``src[start:stop]``.
        """
        nrefs = len(self._refs)
        Q = self._pm.from_original_batch(table.src)
        # The program's bounding box holds every source and use.
        hi = self._region_hi.max(axis=0)
        extents = hi - self._region_lo.min(axis=0) + 1
        strides = _word_strides([len(P) * nrefs, *extents.tolist(), nrefs])
        coord = strides[1:-1]
        Wq = (hi - Q) @ coord
        Wp = ((hi - P) @ coord)[table.point]
        # q ⪯ p: Q's reversed coordinates are lexicographically >= P's.
        ge = np.ones(len(Q), dtype=bool)
        for wq, wp in zip(Wq.T[::-1], Wp.T[::-1]):
            ge = (wq > wp) | ((wq == wp) & ge)
        rows = np.flatnonzero(ge)
        run = table.point[rows] * np.int64(nrefs) + table.ref[rows]
        keys = (
            Wq[rows]
            + np.outer(run, strides[0])
            + np.outer(nrefs - 1 - table.sref[rows], strides[-1])
        )
        # Least significant word first; the later passes are stable.
        order = np.argsort(keys[:, -1])
        for word in keys.T[-2::-1]:
            order = order[np.argsort(word[order], kind="stable")]
        rows, run = rows[order], run[order]
        new_run = np.ones(len(rows), dtype=bool)
        new_run[1:] = run[1:] != run[:-1]
        start = np.flatnonzero(new_run)
        stop = np.append(start[1:], len(rows))
        first = rows[start]
        return Q[rows], rows, table.point[first], table.ref[first], start, stop

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

    def _between_boxes_wave(
        self, S: np.ndarray, U: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`lex_between_boxes` over every region for a wave of pairs.

        Returns ``(Blo, Bhi, jid)``: the boxes of job ``j`` are the rows
        with ``jid == j``, in the order the per-job decomposition emits
        them (region, then src level, then use level).  The frontier
        queues built on top of this order drive early exits, so it is
        part of the equivalence contract.  Two masked passes do the
        whole wave, and ``np.nonzero`` walks each mask in exactly that
        order:

        1. src-side pieces ``{q ∈ region : q ≻ src}`` over jobs ×
           regions × levels: at level ``l`` the prefix is pinned to
           ``src``, level ``l`` starts past it and the suffix is the
           region's.  Levels above the pair's first src/use difference
           ``f`` are skipped, since there the pinned prefix equals the
           use's and the piece lies wholly after the use; a pair with
           ``src ⊀ use`` has no boxes at all;
        2. use-side cuts ``{q ∈ piece : q ≺ use}`` over pieces ×
           levels, the same peeling against ``use``.

        Empty regions contribute nothing, so every piece and box that
        passes its level test is non-empty.
        """
        n, d = S.shape
        rlo, rhi = self._region_lo, self._region_hi
        lvl = np.arange(d)
        neq = S != U
        f = neq.argmax(axis=1)
        rows = np.arange(n)
        before = neq[rows, f] & (S[rows, f] < U[rows, f])
        Sx = S[:, None, :]
        start1 = np.maximum(Sx + 1, rlo)
        has = (
            _prefix_all((Sx >= rlo) & (Sx <= rhi))
            & (start1 <= rhi)
            & (before[:, None] & (lvl >= f[:, None]))[:, None, :]
        )
        pj, pr, pl = np.nonzero(has)
        Sp = S[pj]
        pin = lvl < pl[:, None]
        glo = np.where(
            pin,
            Sp,
            np.where(lvl == pl[:, None], start1[pj, pr], rlo[pr]),
        )
        ghi = np.where(pin, Sp, rhi[pr])
        Up = U[pj]
        cut = np.minimum(ghi, Up - 1)
        bp, bl = np.nonzero(
            _prefix_all((Up >= glo) & (Up <= ghi)) & (cut >= glo)
        )
        pin = lvl < bl[:, None]
        Ub = Up[bp]
        Blo = np.where(pin, Ub, glo[bp])
        Bhi = np.where(
            pin, Ub, np.where(lvl == bl[:, None], cut[bp], ghi[bp])
        )
        return Blo, Bhi, pj[bp]

    #: Per-job enumeration budget per round (early-exit granularity).
    _ROUND_ROWS = 1 << 12

    def _run_interval_jobs(
        self, S: np.ndarray, U: np.ndarray, wlo: np.ndarray, l0: np.ndarray
    ):
        """Resolve a wave of interval-interference queries at once.

        Job ``j`` asks whether the iterations strictly between source
        ``S[j]`` and use ``U[j]`` touch the window ``wlo[j]`` on a line
        other than the one starting at ``l0[j]``; the interval
        decomposes into the same boxes the serial cascade would visit.
        The cascade's O(1) address-band rejection is applied to *all*
        boxes of the wave in a handful of array operations; surviving
        small boxes are decided exactly by the split-sum kernel
        :func:`repro.polyhedra.kernels.boxes_interfere` (the regime
        where the cascade would enumerate exactly as well), and
        surviving big boxes fall back to the per-box congruence
        cascade.  Outcomes therefore match the scalar path on every job
        by construction.  Each round yields its kernel queries, one
        ``(key, (coeffs, consts, mod, line), lo, exts, line0)`` per
        reference group, and :func:`classify_many` sends the verdicts
        back.  Returns the killed flag per job.
        """
        njobs = len(S)
        self.stats.intervals_vectorized += njobs
        L = self._L
        M = self._M
        enum_limit = self._tester.enum_limit
        Blo, Bhi, jid_arr = self._between_boxes_wave(S, U)
        nb = len(jid_arr)
        if nb == 0:
            return np.zeros(njobs, dtype=bool)
        self.stats.boxes_tested += nb
        wlo_box = wlo[jid_arr]
        l0_box = l0[jid_arr]
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
        # Only what the rounds need stays alive while they suspend.
        del fmin, fmax, spans, aa, exts_all
        # Box-mapping property: in each dimension of a between-box of a
        # tiled space either the tile index is pinned or the element
        # offset spans its region's whole tile, so the box holds exactly
        # the points of the original-space box between its corners'
        # images.  The kernel queries are those boxes, projected to each
        # group's support: every address form keeps its value set.
        olo = self._pm.to_original_batch(Blo)
        oext = self._pm.to_original_batch(Bhi) - olo + 1
        # Surviving boxes, queued per job in decomposition order.  The
        # rounds below preserve the scalar path's early exit where it
        # pays: each job submits boxes only up to a per-round row
        # budget, so cheap boxes batch together in one round while a
        # huge box runs alone and, if it shows interference, spares the
        # job's remaining work — without serialising the whole wave.
        # A job's box joins the round while the rows its earlier boxes
        # of the round charged stay under the budget; an oversized box
        # charges all of it.
        live = np.flatnonzero(galive.any(axis=1))
        lj = jid_arr[live]
        small = galive & (pvol <= enum_limit)
        big = galive & ~small
        cost = np.where(
            big[live].any(axis=1),
            self._ROUND_ROWS,
            (pvol * small)[live].sum(axis=1),
        )
        charged = np.zeros(len(live) + 1, dtype=np.int64)
        np.cumsum(cost, out=charged[1:])
        bounds = np.searchsorted(lj, np.arange(njobs + 1))
        cursor = bounds[:-1].copy()
        stop = bounds[1:]
        pos = np.arange(len(live))
        killed = np.zeros(njobs, dtype=bool)
        pending = cursor < stop
        while pending.any():
            first = cursor[lj]
            take = (
                pending[lj]
                & (pos >= first)
                & (charged[:-1] - charged[first] < self._ROUND_ROWS)
            )
            cursor += np.bincount(lj[take], minlength=njobs)
            tb = live[take]
            tj = lj[take]
            queries, masks = [], []
            for (odims, key, spec), m in zip(self._kernel_groups, small[tb].T):
                if m.any():
                    b = tb[m]
                    queries.append((key, spec, olo[np.ix_(b, odims)],
                                    oext[np.ix_(b, odims)], l0_box[b]))
                    masks.append(m)
            if queries:
                for m, hits in zip(masks, (yield queries)):
                    killed[tj[m][hits]] = True
            # Oversized projections: per-ref congruence cascade, as the
            # scalar path runs it, in (job, box, group) order.
            rows, groups = np.nonzero(big[tb])
            cascades = list(
                zip(tj[rows].tolist(), tb[rows].tolist(), groups.tolist())
            )
            if cascades and self._use_batch_cascade:
                self._run_cascades_batched(
                    cascades, Blo, Bhi, alive, wlo_box, l0_box, killed
                )
            else:
                for j, b, gi in cascades:
                    if killed[j]:
                        continue  # another box already decided this job
                    if self._cascade_box_group(
                        tuple(Blo[b].tolist()),
                        tuple(Bhi[b].tolist()),
                        gi,
                        alive[b],
                        int(wlo_box[b]),
                        int(l0_box[b]),
                    ):
                        killed[j] = True
            pending = ~killed & (cursor < stop)
        return killed

    def _run_cascades_batched(
        self,
        cascades: list[tuple[int, int, int]],
        Blo: np.ndarray,
        Bhi: np.ndarray,
        alive: np.ndarray,
        wlo_box: np.ndarray,
        l0_box: np.ndarray,
        killed: np.ndarray,
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

    def _run_count_jobs(
        self,
        S: np.ndarray,
        U: np.ndarray,
        wlo: np.ndarray,
        l0: np.ndarray,
        pre: np.ndarray,
    ) -> np.ndarray:
        """Associative interval counting for a whole wave at once.

        Job ``j`` is a reuse source ``S[j]`` and use ``U[j]`` with the
        window and line of :meth:`_run_interval_jobs` and the endpoint
        line count ``pre[j]``; the strictly-between boxes decompose
        exactly as in the scalar path and every (box, reference) pair
        contributes the same capped distinct-line count the scalar
        :meth:`_count_interfering_lines` would have accumulated —
        ``None`` collapsing to the cap, so verdicts are identical.  A
        first-boxes-then-the-rest frontier keeps the scalar verdict at
        the cap: a job whose running total reached ``k`` submits no
        further boxes.  Returns the killed flag per job.
        """
        njobs = len(S)
        self.stats.intervals_vectorized += njobs
        k = self._k
        nrefs = len(self._refs)
        tot = pre.astype(np.int64)
        Blo, Bhi, jid = self._between_boxes_wave(S, U)
        nb = len(jid)
        self.stats.boxes_tested += nb
        if nb == 0:
            return tot >= k
        wlo_b = wlo[jid]
        l0_b = l0[jid]
        # A two-phase frontier.  Phase one tests only each job's first
        # box — where nearly every early exit happens in an associative
        # cache.  Phase two sends every surviving job's remaining boxes
        # through each cascade in one maximal batch: a surviving job
        # rarely exits at all (an interference-free source never
        # reaches the cap), so the batch does the work the scalar loop
        # would have done anyway, minus the per-box dispatch.  Counts
        # are non-negative and a per-box ``None`` collapses to the cap,
        # so the summed total crosses ``k`` exactly when the scalar
        # early-exit prefix would have; verdicts are identical by
        # construction.
        first = np.ones(nb, dtype=bool)
        first[1:] = jid[1:] != jid[:-1]
        for rows_all in (np.flatnonzero(first), np.flatnonzero(~first)):
            for i in range(nrefs):
                rows = rows_all[tot[jid[rows_all]] < k]
                if not len(rows):
                    break
                counts = self._ref_cascade(i).count_interfering_lines_many(
                    Blo[rows], Bhi[rows], wlo_b[rows], l0_b[rows], cap=k
                )
                unknown = counts < 0
                self.stats.unknown_conservative += int(unknown.sum())
                tot += np.bincount(
                    jid[rows],
                    weights=np.where(unknown, k, counts),
                    minlength=njobs,
                ).astype(np.int64)
        return tot >= k

    def finalize_stats(self) -> SolverStats:
        self.stats.congruence = self._tester.stats.as_dict()
        return self.stats


class SourceTable:
    """The tiling-invariant part of one sample's reuse sources.

    A tiled reference at tiled point ``Q`` has the address of the
    original reference at ``to_original(Q)``.  So whether a source lies
    inside the original bounds, whether it is on the use's line, whether
    it is the use's own iteration, and which lines the boundary
    iterations touch are facts about original iterations, true for
    every tiling of the nest.  :func:`classify_codes` builds one table
    per pass and key (:meth:`PointClassifier._source_key`) and shares
    it with every tiling; each program adds only what its tiling
    decides, execution order (:meth:`PointClassifier._batch_reuse_sources`).

    Row ``r`` is sample point ``point[r]``, use reference ``ref[r]``,
    source reference ``sref[r]`` and source iteration ``src[r]``, in
    original coordinates; ``same[r]`` flags a source at the use's own
    iteration.  The offsets are distinct, so the rows are too.  ``l0``
    and ``wlo`` are each (point, reference)'s line and cache-set window.
    """

    #: Cap on (offset, point) rows per stacked offset pass (memory guard).
    _SOURCE_CHUNK_ROWS = 1 << 14

    def __init__(self, clf: PointClassifier, O: np.ndarray):
        n, d = O.shape
        L = clf._L
        self._ocoef, self._oc0 = clf._ocoef, clf._oc0
        self._pos = clf._positions
        self._L, self._M, self._cap = L, clf._M, max(clf._k, 1)
        addrs = O @ clf._ocoef.T + clf._oc0  # (n, nrefs)
        lines = addrs // L
        self.l0 = lines * L
        self.wlo = self.l0 % clf._M
        off, ref, sref = clf._src_off, clf._src_ref, clf._src_sref
        lo, hi = clf._orig_lo_arr, clf._orig_hi_arr
        # A source's address is its reference's address at the use's
        # point minus the offset's share of it.
        shift = (clf._ocoef[sref] * off).sum(axis=1)
        # The table lives through the waves: narrowest dtypes (memory).
        coord_t = _narrow(int(lo.min()), int(hi.max()))
        point_t, offset_t = _narrow(n), _narrow(len(off))
        step = max(1, self._SOURCE_CHUNK_ROWS // n)
        srcs = [np.empty((0, d), coord_t)]
        pts, offs = [np.empty(0, point_t)], [np.empty(0, offset_t)]
        for first in range(0, len(off), step):
            sl = slice(first, first + step)
            Qo = O - off[sl, None, :]  # (c, n, d)
            inb = ((Qo >= lo) & (Qo <= hi)).all(axis=2)
            src_line = (addrs[:, sref[sl]].T - shift[sl, None]) // L
            ci, pi = np.nonzero(inb & (src_line == lines[:, ref[sl]].T))
            srcs.append(Qo[ci, pi].astype(coord_t))
            pts.append(pi.astype(point_t))
            offs.append((first + ci).astype(offset_t))
        rows = np.concatenate(offs)
        self.src = np.concatenate(srcs)
        self.point = np.concatenate(pts)
        self.ref = ref[rows].astype(_narrow(len(clf._refs)))
        self.sref = sref[rows].astype(self.ref.dtype)
        self.same = ~off.any(axis=1)[rows]
        self._addrs = addrs
        self._pre = np.full(len(rows), -1, dtype=_narrow(-1, self._cap))

    def endpoint_counts(self, rows: np.ndarray) -> np.ndarray:
        """Boundary-iteration line counts of table ``rows``, capped at k.

        A row's count is computed the first time a wave asks for it and
        kept for the pass, so each row costs one count however many
        tilings try it.
        """
        new = rows[self._pre[rows] < 0]
        if len(new):
            self._pre[new] = self._endpoint_counts(new)
        return self._pre[rows]

    def _endpoint_counts(self, rows: np.ndarray) -> np.ndarray:
        """Vectorises :meth:`PointClassifier._endpoint_line_count` (and,
        via ``count > 0``, ``_endpoint_interference``) over table rows:
        both endpoint address rows come from the table, position masks
        select the partial bodies, and the distinct-line count is one
        row-sort away."""
        L, M, pos = self._L, self._M, self._pos
        pt, ref = self.point[rows], self.ref[rows]
        spos, upos = pos[self.sref[rows]], pos[ref]
        same = self.same[rows]
        wlo, l0 = self.wlo[pt, ref], self.l0[pt, ref]
        # Partial bodies: at the source iteration, references after the
        # source access; at the use iteration, references before the
        # reused access; same-iteration reuse counts strictly between.
        src_valid = pos[None, :] > spos[:, None]
        use_valid = pos[None, :] < upos[:, None]
        src_valid = np.where(same[:, None], src_valid & use_valid, src_valid)
        use_valid &= ~same[:, None]

        sent = np.iinfo(np.int64).min
        l0_div = l0 // L
        A_src = self.src[rows] @ self._ocoef.T + self._oc0
        A_use = self._addrs[pt]
        lines = np.empty((len(rows), 2 * len(pos)), dtype=np.int64)
        for A, valid, half in (
            (A_src, src_valid, lines[:, : len(pos)]),
            (A_use, use_valid, lines[:, len(pos):]),
        ):
            al = A // L
            hit = (
                valid
                & ((A % M) - (A - al * L) == wlo[:, None])
                & (al != l0_div[:, None])
            )
            np.copyto(half, np.where(hit, al, sent))
        lines.sort(axis=1)
        distinct = np.ones(lines.shape, dtype=bool)
        distinct[:, 1:] = lines[:, 1:] != lines[:, :-1]
        counts = (distinct & (lines != sent)).sum(axis=1)
        return np.minimum(counts, self._cap)


def _narrow(*values: int) -> np.dtype:
    """The narrowest integer dtype that holds every one of ``values``."""
    return np.result_type(*map(np.min_scalar_type, values))


def _word_strides(radices: list[int]) -> np.ndarray:
    """Mixed-radix packing of fields into the fewest int64 words.

    Field ``f`` takes values in ``[0, radices[f])``; consecutive fields
    share a word while the product of their radices stays within
    2**63, so every word is exact.  Returns the ``(fields, words)``
    stride matrix: ``values @ strides`` gives the words, and comparing
    word tuples lexicographically compares the field tuples.
    """
    words: list[list[int]] = [[]]
    span = 1
    for f, r in enumerate(radices):
        if span * r > 1 << 63:
            words.append([])
            span = 1
        words[-1].append(f)
        span *= r
    strides = np.zeros((len(radices), len(words)), dtype=np.int64)
    for w, fields in enumerate(words):
        step = 1
        for f in reversed(fields):
            strides[f, w] = step
            step *= radices[f]
    return strides


#: Most classifiers :func:`classify_codes` keeps in flight (memory guard).
_IN_FLIGHT = 4
#: Point-volume cap per kernel call (memory guard).
_JOB_CHUNK_ROWS = 1 << 20


def classify_many(
    classifiers: list[PointClassifier], batches
) -> list[list[list[Outcome]]]:
    """:meth:`PointClassifier.classify_batch` of many classifiers at once:
    :func:`classify_codes` as :class:`Outcome` tables."""
    return [
        [[OUTCOMES[c] for c in r] for r in codes.tolist()]
        for codes in classify_codes(classifiers, batches)
    ]


def classify_codes(classifiers: list[PointClassifier], batches) -> list[np.ndarray]:
    """Outcome codes of many classifiers' samples, in one pass.

    ``batches[i]`` is classifier ``i``'s sample in its own coordinates;
    its result is an int8 (point, reference) table whose codes index
    :data:`OUTCOMES`.  Each classifier keeps its own waves, rounds,
    cascades and stats, but every turn of this loop answers the
    interval-round kernel queries of all classifiers in flight with one
    :func:`boxes_interfere` call per reference group (and memory chunk),
    so a call's fixed cost is paid once per round for all of them.  The
    kernel decides each box on its own, so outcomes and stats equal
    separate calls.  Classifiers whose samples map to the same original
    points under the same nest, layout, candidates and cache share one
    :class:`SourceTable`, which lives for this pass.  Memory guard: at
    most :data:`_IN_FLIGHT` classifiers are in flight, and each drops
    its cached cascade tables whenever it suspends or finishes.
    """
    out: list = [None] * len(classifiers)
    todo = iter(enumerate(zip(classifiers, batches)))
    live: dict[int, tuple] = {}  # index -> (generator, its queries)
    tables: dict[tuple, SourceTable] = {}
    calls = 0

    def source_table(classifier, P):
        if not len(P):
            return None
        O = classifier._pm.to_original_batch(P)
        key = classifier._source_key(O)
        if key not in tables:
            tables[key] = SourceTable(classifier, O)
        return tables[key]

    def resume(i, gen, answer):
        try:
            live[i] = (gen, gen.send(answer))
        except StopIteration as done:
            live.pop(i, None)
            out[i] = done.value
        for cascade in classifiers[i]._ref_cascades:
            if cascade is not None:
                cascade.release_tables()

    while True:
        while len(live) < _IN_FLIGHT and (nxt := next(todo, None)):
            i, (classifier, points) = nxt
            P = np.asarray(points, dtype=np.int64)
            gen = classifier._classify_waves(P, source_table(classifier, P))
            resume(i, gen, None)
        if not live:
            break
        merged: dict = {}
        for i, (_, queries) in live.items():
            for q, (key, spec, *args) in enumerate(queries):
                merged.setdefault(key, (spec, []))[1].append(((i, q), args))
        verdicts = {}
        for (coeffs, consts, mod, line), parts in merged.values():
            lo, exts, line0 = map(np.concatenate, zip(*(a for _, a in parts)))
            hits = [
                boxes_interfere(
                    lo[sel], exts[sel], coeffs, consts, line0[sel], mod, line
                )
                for sel in _chunks(exts.prod(axis=1))
            ]
            calls += len(hits)
            ends = np.cumsum([len(a[0]) for _, a in parts])[:-1]
            hits = np.split(np.concatenate(hits), ends)
            verdicts.update(zip((iq for iq, _ in parts), hits))
        for i, (gen, queries) in list(live.items()):
            resume(i, gen, [verdicts[i, q] for q in range(len(queries))])
    rec = telemetry.recorder()
    rec.count("cme.classify_passes")
    rec.count("cme.classify_candidates", len(classifiers))
    rec.count("cme.kernel_calls", calls)
    rec.count("cme.source_tables", len(tables))
    rec.count("cme.source_rows", sum(len(t.src) for t in tables.values()))
    return out


def _chunks(vols: np.ndarray) -> list[slice]:
    """Runs of boxes of at most :data:`_JOB_CHUNK_ROWS` points (or one box)."""
    if vols.sum() <= _JOB_CHUNK_ROWS:
        return [slice(None)]
    chunks: list[slice] = []
    first = rows = 0
    for t, n in enumerate(vols.tolist()):
        if t > first and rows + n > _JOB_CHUNK_ROWS:
            chunks.append(slice(first, t))
            first = t
            rows = 0
        rows += n
    chunks.append(slice(first, len(vols)))
    return chunks
