"""Per-point CME solving — the fast solver of §2.2–§2.4.

A sampled iteration point is classified independently for every
reference ("traversing the iteration space"): the reference either

* has no earlier same-line access along any reuse vector → **COLD**
  (a compulsory-class miss; invariant under tiling),
* has some reuse source whose interval back to the use is free of
  interference → **HIT**,
* or every reuse source is killed by interference → **REPLACEMENT**
  (the misses loop tiling minimises).  Sources are tried newest first,
  and on a direct-mapped cache the first *proven* kill decides: each
  older source's interval holds the interfering access that proved it.

Interference over the (possibly enormous) interval between source and
use is decided without enumeration: the interval is decomposed into
integer boxes per convex region, and each (box, reference) pair becomes
one replacement-equation feasibility query answered by the congruence
cascade in :mod:`repro.polyhedra.congruence`.  For a ``k``-way cache
the reuse dies only after ``k`` distinct interfering lines (§2.2), so
the same machinery counts distinct lines with early exit at ``k``.

Undecidable queries (budget exhaustion) are counted and treated as
interference — conservative in the direction of over-reporting misses —
but prove nothing, so the walk goes on to the next source.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from repro import envs, telemetry
from repro.cache.config import CacheConfig
from repro.ir.program import AccessProgram, TileMap
from repro.layout.memory import MemoryLayout
from repro.polyhedra.box import Box
from repro.polyhedra.cascade import FALSE, TRUE, UNKNOWN, BatchCascade
from repro.polyhedra.congruence import CongruenceTester
from repro.polyhedra.kernels import (
    box_line_counts,
    boxes_interfere,
    entries_listed,
)
from repro.polyhedra.lexinterval import (
    lex_between_boxes,
    lex_between_boxes_many,
)
from repro.reuse.vectors import ReuseCandidate, compute_reuse_candidates
from repro.transform.tiling import normalize_tiles, tile_region_bounds


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


class NestRows:
    """The classifiers' shared half, in original coordinates: address
    rows, positions, reference groups (one coefficient support each),
    kernel rows, reuse-source offsets and bounds of one nest, layout,
    cache and candidates.  A :class:`~repro.cme.analyzer.LocalityAnalyzer`
    builds them once per layout and runs every estimate on them;
    :func:`~repro.cme.sampling.estimate_many_at_points` builds them once
    per call, the public constructor once per classifier.  A program's
    point map is affine, ``to_original(Q) = A·Q + b``, so its rows are
    ``ocoef·A`` and ``oc0 + ocoef·b``, those of its substituted
    subscripts.  Groups hold for every tiling: with ``A = [diag(T) | I]``,
    ``T ≥ 1``, a tiled support has ``t_d`` and ``u_d`` where the
    original has ``d``.

    ``table`` is the last :class:`SourceTable` a pass built on these
    rows; a later pass of the same sample takes it (endpoint counts and
    all) instead of building its own.
    """

    def __init__(self, nest, layout, cache, candidates=None):
        if candidates is None:
            candidates = compute_reuse_candidates(nest, layout, cache.line_size)
        self.nest, self.layout, self.cache = nest, layout, cache
        self.candidates = candidates
        self.table: SourceTable | None = None
        self.L, self.M, self.k = cache.line_size, cache.way_bytes, cache.associativity
        refs = sorted(nest.refs, key=lambda r: r.position)
        self.refs = tuple(refs)
        exprs = [layout.address_expr(r) for r in refs]
        ocoef = np.array(
            [e.coeff_vector(nest.vars) for e in exprs], np.int64
        ).reshape(len(exprs), nest.depth)
        oc0 = np.array([e.const for e in exprs], dtype=np.int64)
        self.ocoef, self.oc0 = ocoef, oc0
        self.positions = np.array([r.position for r in refs], dtype=np.int64)
        supports: dict[tuple[int, ...], list[int]] = {}
        for i, row in enumerate(ocoef.tolist()):
            supp = tuple(d for d, c in enumerate(row) if c != 0)
            supports.setdefault(supp, []).append(i)
        groups = list(supports.values())
        self.groups = [np.array(g, dtype=np.intp) for g in groups]
        # The groups as one (groups × largest) table, padded with -1.
        width = max(map(len, groups))
        self.group_refs = np.array([g + [-1] * (width - len(g)) for g in groups])
        # One kernel row per distinct address form: the kernel's verdict
        # is an OR over rows, so a repeated row can never add a hit.
        # Equal forms have equal supports, so they share a group.
        first: dict[tuple, int] = {}
        for i, form in enumerate(np.column_stack((ocoef, oc0)).tolist()):
            first.setdefault(tuple(form), i)
        distinct = np.zeros(len(refs), dtype=bool)
        distinct[list(first.values())] = True
        # Each entry: (original support, coefficients, constants).
        self.kernel_groups = []
        for ridx in self.groups:
            odims = np.flatnonzero(ocoef[ridx].any(axis=0))
            ridx = ridx[distinct[ridx]]
            self.kernel_groups.append((odims, ocoef[np.ix_(ridx, odims)], oc0[ridx]))
        # Reuse-source offsets, one per distinct (reference, source
        # reference, candidate vector · sign); the SourceTable of a
        # sample applies them to every point.
        index = {ref.position: i for i, ref in enumerate(refs)}
        offsets: dict[tuple, None] = {}
        for idx, ref in enumerate(refs):
            for cand in candidates.get(ref.position, ()):
                vec = tuple(cand.vector)
                row = (idx, index[cand.source_position])
                if any(vec):
                    offsets[row + vec] = None
                    offsets[row + tuple(-r for r in vec)] = None
                elif cand.source_position < ref.position:
                    # Intra-iteration: q == p, the source precedes in body.
                    offsets[row + vec] = None
        offs = np.array(list(offsets), dtype=np.int64).reshape(
            len(offsets), 2 + nest.depth
        )
        self.src_ref, self.src_sref, self.src_off = offs[:, 0], offs[:, 1], offs[:, 2:]
        self.lo = tuple(l.lower for l in nest.loops)
        self.hi = tuple(l.upper for l in nest.loops)
        self.extents = tuple(l.extent for l in nest.loops)
        self.lo_arr = np.array(self.lo, np.int64)
        self.hi_arr = np.array(self.hi, np.int64)
        arrays = (
            ocoef, oc0, self.positions, self.lo_arr, self.hi_arr,
            self.src_ref, self.src_sref, self.src_off,
        )
        self.key = (self.L, self.M, self.k) + tuple(
            (a.shape, a.tobytes()) for a in arrays
        )


class PointClassifier:
    """Classify individual iteration points of one program/layout/cache.

    ``program`` is the classified program, or ``None`` for a tiling
    built from its tile vector (:meth:`for_tiles`).
    """

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
        rows = NestRows(program.original, layout, cache, candidates)
        self._setup_program(program, rows, cascade_budgets, batch_cascade)

    @classmethod
    def for_rows(cls, program: AccessProgram, rows: NestRows, **flags):
        """The classifier of ``program``, a tiling of ``rows.nest``, on
        rows built once for a pass; ``flags`` as the constructor's."""
        clf = cls.__new__(cls)
        clf._setup_program(program, rows, **flags)
        return clf

    @classmethod
    def for_tiles(cls, tile_sizes, rows: NestRows, **flags):
        """The classifier of ``rows.nest`` tiled by ``tile_sizes``, equal
        to ``for_rows(tile_program(rows.nest, tile_sizes), rows)`` but
        built from the tile vector: the strip-mine map and the region
        bounds of :func:`repro.transform.tiling.tile_region_bounds`,
        with no symbolic program.  Bad tile vectors raise as
        :func:`~repro.transform.tiling.tile_program` does."""
        ts = normalize_tiles(rows.nest, tile_sizes)
        clf = cls.__new__(cls)
        clf.program = None
        clf._setup(
            rows, TileMap(rows.lo, ts), *tile_region_bounds(rows.extents, ts), **flags
        )
        return clf

    def _setup_program(self, program, rows, cascade_budgets=None, batch_cascade=None):
        self.program = program
        # An iteration space keeps only its non-empty regions.
        regions = program.space.regions
        shape = (len(regions), program.space.rank)
        self._setup(
            rows, program.point_map,
            np.array([r.lo for r in regions], np.int64).reshape(shape),
            np.array([r.hi for r in regions], np.int64).reshape(shape),
            cascade_budgets, batch_cascade,
        )

    def _setup(
        self, rows, point_map, region_lo, region_hi,
        cascade_budgets=None, batch_cascade=None,
    ):
        self.layout, self.cache = rows.layout, rows.cache
        self.candidates = rows.candidates
        self.stats = SolverStats()
        self._tester = CongruenceTester(**(cascade_budgets or {}))
        if batch_cascade is None:
            batch_cascade = envs.BATCH_CASCADE.get()
        # Dispatch ladder: batched-numpy → scalar reference.
        self._use_batch_cascade = bool(batch_cascade)
        self.cascade_tier = "batched" if self._use_batch_cascade else "scalar"
        self._rows = rows
        self._L, self._M, self._k = rows.L, rows.M, rows.k
        self._orig_lo, self._orig_hi = rows.lo, rows.hi
        self._positions, self._groups = rows.positions, rows.groups
        # A tiling keeps every reference: only positions are read.
        self._refs = rows.refs
        self._pm = point_map
        # This program's address rows: the nest's, composed with its map.
        self._A, self._b = point_map.affine()
        self._coeffs = list(map(tuple, (rows.ocoef @ self._A).tolist()))
        self._consts = (rows.oc0 + rows.ocoef @ self._b).tolist()
        # Non-empty regions as (R, rank) bound arrays, the wave
        # decomposition's (the scalar paths' boxes: :attr:`_regions`).
        self._region_lo, self._region_hi = region_lo, region_hi

    @functools.cached_property
    def _regions(self) -> tuple[Box, ...]:
        """The non-empty regions as boxes, in bound-array order."""
        return tuple(
            Box(lo, hi)
            for lo, hi in zip(self._region_lo.tolist(), self._region_hi.tolist())
        )

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
        idx = self._position_index(position)
        self.stats.points += 1
        return self._classify_ref(idx, point)

    def classify_batch(
        self, points: np.ndarray | list[tuple[int, ...]]
    ) -> list[list[Outcome]]:
        """Outcomes for a whole sample batch (an ``(n, depth)`` integer
        array or point tuples), the one-classifier :func:`classify_many`.

        Agrees outcome-for-outcome with :meth:`classify_point` (the
        equivalence contract of :mod:`repro.evaluation`): waves try each
        (point, ref)'s sources in the scalar order, small intervals go to
        the kernel, oversized ones to the batched congruence cascade.
        """
        return classify_many([self], [points])[0]

    def _lockstep_key(self) -> tuple:
        """What a :class:`_Lockstep` batch shares beyond its
        :class:`SourceTable` (hence its nest rows): the cascade rung,
        the budgets and the coordinate rank."""
        return (
            self._use_batch_cascade,
            tuple(self._tester.budgets().values()),
            self._A.shape[1],
        )

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
        # Most recent source first: any interference-free source → hit,
        # a proven kill kills every older source too.
        sources.sort(key=lambda sp: (sp[0], sp[1]), reverse=True)
        for src, spos in sources:
            self.stats.sources_checked += 1
            verdict = self._reuse_killed(src, spos, p, idx, line0_start, wlo)
            if verdict == FALSE:
                return Outcome.HIT
            if verdict == TRUE:
                break
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
        return self._rows.key + ((O.shape, O.tobytes()),)

    def _batch_reuse_sources(self, table: SourceTable):
        """:meth:`_reuse_sources` for every (point, reference) of the
        sample of a :class:`SourceTable`: map the table's sample and
        sources to this program's coordinates, keep those that run before
        their use (``q ⪯ p``; ``q == p`` only on intra-iteration rows)
        and lay them out in runs per (point, reference), in the order
        :meth:`_classify_ref` tries them (descending ``(q, position)``).
        The fields (run, q, position) pack into the fewest int64 words
        (:func:`_word_strides`), coordinates reversed so that ascending
        words mean descending ``q``; the words decide execution order
        and sort the rows.

        Returns ``(rows, point, ref, start, stop)``: the sources' table
        rows, then one entry per non-empty run, in (point, reference)
        order, covering ``rows[start:stop]``.
        """
        nrefs = len(self._refs)
        P = self._pm.from_original_batch(table.O)
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
        return rows, table.point[first], table.ref[first], start, stop

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
    ) -> int:
        """Does the interval (src, use) evict line0 from its set?  FALSE
        if not, TRUE for a direct-mapped kill an interfering access
        proves, UNKNOWN for one resting on budget exhaustion and for any
        k-way kill (a summed count can hold one line twice)."""
        if self._k == 1:
            return self._interference_exists(
                src, spos, use, use_idx, line0_start, wlo
            )
        count = self._count_interfering_lines(
            src, spos, use, use_idx, line0_start, wlo, cap=self._k
        )
        return UNKNOWN if count >= self._k else FALSE

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
    ) -> int:
        # Boundary iterations (partial bodies), then the interval.
        if self._endpoint_interference(src, spos, use, use_idx, line0_start, wlo):
            return TRUE
        if src == use:
            return FALSE
        return self._interval_interference_scalar(src, use, line0_start, wlo)

    def _interval_interference_scalar(
        self,
        src: tuple[int, ...],
        use: tuple[int, ...],
        line0_start: int,
        wlo: int,
    ) -> int:
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
                        return UNKNOWN
                    if res:
                        return TRUE
        return FALSE

    def _cascade_box_group(
        self,
        lo: tuple[int, ...],
        hi: tuple[int, ...],
        gi: int,
        ref_alive: np.ndarray,
        wlo: int,
        line0_start: int,
    ) -> int:
        """Congruence-cascade test of one box for one reference group."""
        box = Box(lo, hi)
        for i in self._groups[gi]:
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
                return UNKNOWN
            if res:
                return TRUE
        return FALSE

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
    every tiling of the nest.  :func:`classify_codes` shares one table
    per key (:meth:`PointClassifier._source_key`, kept as ``key``) with
    every tiling of a pass, and keeps the last one it built on the
    classifiers' :class:`NestRows` for later passes: an analyzer's
    search builds one.  Each program adds only what its tiling decides,
    execution order (:meth:`PointClassifier._batch_reuse_sources`).

    ``O`` is the sample.  Row ``r`` is sample point ``point[r]``, use
    reference ``ref[r]``,
    source reference ``sref[r]`` and source iteration ``src[r]``, in
    original coordinates; ``same[r]`` flags a source at the use's own
    iteration.  The offsets are distinct, so the rows are too.  ``l0``
    and ``wlo`` are each (point, reference)'s line and cache-set window.
    """

    #: Cap on (offset, point) rows per stacked offset pass, and on rows
    #: per endpoint count pass (memory guards).
    _SOURCE_CHUNK_ROWS = 1 << 14
    _COUNT_CHUNK_ROWS = 1 << 12

    def __init__(self, clf: PointClassifier, O: np.ndarray):
        n, d = O.shape
        nr = clf._rows
        L = nr.L
        self._ocoef, self._oc0 = nr.ocoef, nr.oc0
        self._pos = nr.positions
        self._L, self._M, self._cap = L, nr.M, max(nr.k, 1)
        addrs = O @ nr.ocoef.T + nr.oc0  # (n, nrefs)
        lines = addrs // L
        self.l0 = lines * L
        self.wlo = self.l0 % nr.M
        off, ref, sref = nr.src_off, nr.src_ref, nr.src_sref
        lo, hi = nr.lo_arr, nr.hi_arr
        # A source's address is its reference's address at the use's
        # point minus the offset's share of it.
        shift = (nr.ocoef[sref] * off).sum(axis=1)
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
        self.ref = ref[rows].astype(_narrow(len(nr.positions)))
        self.sref = sref[rows].astype(self.ref.dtype)
        self.same = ~off.any(axis=1)[rows]
        # Its own copy of the sample: the table outlives the pass, and
        # its key says what the sample held when it was built.
        self.O = O.copy()
        self.key = clf._source_key(O)
        self._pre = np.full(len(rows), -1, dtype=_narrow(-1, self._cap))

    def endpoint_counts(self, rows: np.ndarray) -> np.ndarray:
        """Boundary-iteration line counts of table ``rows``, capped at k.

        A row's count is computed the first time a wave asks for it and
        kept with the table, so each row costs one count however many
        tilings try it, in one wave, later ones or later passes.
        """
        new = np.unique(rows[self._pre[rows] < 0])
        for first in range(0, len(new), self._COUNT_CHUNK_ROWS):
            part = new[first : first + self._COUNT_CHUNK_ROWS]
            self._pre[part] = self._endpoint_counts(part)
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
        A_use = self.O[pt] @ self._ocoef.T + self._oc0
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


#: Most source-table rows the tilings of one :class:`_Lockstep` hold
#: together, most items one wave chunk takes and most jobs one
#: between-box decomposition takes (memory guards).
_LOCKSTEP_ROWS = 1 << 17
_WAVE_ITEMS = 1 << 12
_DECOMPOSE_JOBS = 1 << 10

#: What a :class:`_Lockstep` charges its tilings, tallied per tiling:
#: :class:`SolverStats` fields, then the tester tier it counts itself.
_CHARGED = (
    "points", "ref_tests", "sources_checked", "intervals_vectorized",
    "boxes_tested", "unknown_conservative", "enumerated",
)


def classify_many(
    classifiers: list[PointClassifier], batches
) -> list[list[list[Outcome]]]:
    """:meth:`PointClassifier.classify_batch` of many classifiers at once:
    :func:`classify_codes` as :class:`Outcome` tables."""
    return [
        [[OUTCOMES[c] for c in r] for r in codes.tolist()]
        for codes in classify_codes(classifiers, batches)
    ]


def classify_codes(
    classifiers: list[PointClassifier], batches, *, original: bool = False
) -> list[np.ndarray]:
    """Outcome codes of many classifiers' samples, in one pass.

    ``batches[i]`` is classifier ``i``'s sample in its own coordinates,
    or in original coordinates when ``original`` is set (no map there
    and back: what an analyzer hands its tilings); its result is an int8
    (point, reference) table whose codes index :data:`OUTCOMES`.
    Classifiers of one nest, layout, candidates, cache and original
    sample share a :class:`SourceTable`, their rows' last one when its
    key matches; those that also share a
    :meth:`PointClassifier._lockstep_key` run through one
    :class:`_Lockstep` loop, admitted in input order while their table
    rows total at most :data:`_LOCKSTEP_ROWS` (always at least one).
    Outcomes and stats equal separate calls.  Raises ``ValueError``
    before any work when the lengths differ.
    """
    classifiers, batches = list(classifiers), list(batches)
    if len(classifiers) != len(batches):
        raise ValueError(
            "one point batch per classifier: "
            f"got {len(batches)} for {len(classifiers)}"
        )
    out: list = [None] * len(classifiers)
    tables: dict[tuple, SourceTable] = {}
    built: list[SourceTable] = []
    groups: dict[tuple, list[int]] = {}
    for i, classifier in enumerate(classifiers):
        P = np.asarray(batches[i], dtype=np.int64)
        if not len(P):
            out[i] = np.empty((0, len(classifier._refs)), dtype=np.int8)
            continue
        O = P if original else classifier._pm.to_original_batch(P)
        key = classifier._source_key(O)
        if key not in tables:
            rows = classifier._rows
            if rows.table is None or rows.table.key != key:
                rows.table = SourceTable(classifier, O)
                built.append(rows.table)
            tables[key] = rows.table
        groups.setdefault((key, classifier._lockstep_key()), []).append(i)
    # A sample lives on as its table's original points (memory).
    del batches
    steps = []
    entries = entries_listed()
    for (key, _), members in groups.items():
        per = max(1, _LOCKSTEP_ROWS // max(len(tables[key].src), 1))
        for first in range(0, len(members), per):
            batch = members[first : first + per]
            steps.append(_Lockstep([classifiers[i] for i in batch]))
            for i, c in zip(batch, steps[-1].run(tables[key])):
                out[i] = c
    rec = telemetry.recorder()
    rec.count("cme.classify_passes")
    rec.count("cme.classify_candidates", len(classifiers))
    rec.count("cme.locksteps", len(steps))
    rec.count("cme.kernel_calls", sum(s.calls for s in steps))
    rec.count("cme.kernel_boxes", sum(s.boxes for s in steps))
    rec.count("cme.kernel_entries", entries_listed() - entries)
    rec.count("cme.cascade_calls", sum(s.cascade_calls for s in steps))
    rec.count("cme.sources_skipped", sum(s.skipped for s in steps))
    rec.count("cme.source_tables", len(built))
    rec.count("cme.source_rows", sum(len(t.src) for t in built))
    return out


class _Lockstep:
    """One wave loop for the tilings of a pass that share what it uses.

    The tilings share a :class:`SourceTable` (so nest rows) and a
    :meth:`PointClassifier._lockstep_key`.  Every work item, job, box
    and cascade query carries its tiling's index (``tt``, ``jt``,
    ``bt``, owner), and each interval round, count step and cascade
    step runs over every job of a wave chunk.  A tiling's verdicts and
    stats depend only on its own jobs: jobs, rounds and count steps stay
    per job, kernel verdicts per box, cascade verdicts and tiers per
    query, each tiling meets its cascade steps in a lone run's order,
    and every charge lands on its tiling's row of one tally, added to
    its stats when the run ends.  Small boxes go to the kernel
    in original coordinates, exact by the box-mapping property
    (docs/ARCHITECTURE.md §3).
    """

    #: Per-job enumeration budget per round (early-exit granularity).
    _ROUND_ROWS = 1 << 12

    def __init__(self, clfs: list[PointClassifier]):
        self.clfs = clfs
        #: Kernel calls, the boxes they answered, cascade calls and the
        #: older sources proven kills left untried (telemetry).
        self.calls = self.boxes = self.cascade_calls = self.skipped = 0
        self.tally = np.zeros((len(clfs), len(_CHARGED)), dtype=np.int64)
        lead = clfs[0]
        self.lead, self.rows = lead, lead._rows
        self.k, self.L, self.M = lead._k, lead._L, lead._M
        self.enum_limit = lead._tester.enum_limit
        ocoef = self.rows.ocoef
        self.ocpos = np.maximum(ocoef, 0)
        self.ocneg = np.minimum(ocoef, 0)
        self.osupp = [np.flatnonzero(row) for row in ocoef]
        # The tilings' point maps, stacked: box b maps by A[bt[b]], and
        # reference r of tiling t has the address row C[t, r], K[t, r].
        self.A = np.stack([c._A for c in clfs])
        self.b = np.stack([c._b for c in clfs])
        self.C = ocoef @ self.A
        self.K = self.rows.oc0 + self.b @ ocoef.T
        # Strip-mines' tile sizes, the diagonal of A's tile columns (None
        # for identity maps), for the stacked inverse maps.
        d = ocoef.shape[1]
        tiles = self.A[:, :, :d].diagonal(axis1=1, axis2=2)
        self.T = tiles if self.A.shape[2] > d else None
        # Each tiling's non-empty regions, padded to the batch's count
        # with empty boxes (lo = 1 > hi = 0), in the narrowest dtype: the
        # between-box decomposition gathers them per job it keeps.
        nreg = max(len(c._region_lo) for c in clfs)
        shape = (len(clfs), nreg, lead._region_lo.shape[1])
        bound_t = _narrow(0, 1, *(
            int(x) for c in clfs
            for x in (c._region_lo.min(initial=0), c._region_hi.max(initial=0))
        ))
        self.rlo = np.ones(shape, dtype=bound_t)
        self.rhi = np.zeros(shape, dtype=bound_t)
        for t, c in enumerate(clfs):
            self.rlo[t, : len(c._region_lo)] = c._region_lo
            self.rhi[t, : len(c._region_hi)] = c._region_hi

    def charge(self, field: str, owner: np.ndarray) -> None:
        """Tally one of ``field`` (of :data:`_CHARGED`) per entry of
        ``owner``, the tiling index of what is charged."""
        self.tally[:, _CHARGED.index(field)] += np.bincount(
            owner, minlength=len(self.clfs)
        )

    def kernel(self, fn, *args) -> np.ndarray:
        """``fn(*args)``, a kernel call on ``len(args[0])`` boxes, tallied."""
        self.calls += 1
        self.boxes += len(args[0])
        return fn(*args)

    def cascade(self, owner: np.ndarray, ref) -> BatchCascade:
        """One batched cascade call: query ``x`` tests reference ``ref``
        (or ``ref[x]``) of tiling ``owner[x]``, charged to its tester."""
        self.cascade_calls += 1
        return BatchCascade.of_queries(
            self.C[owner, ref], self.K[owner, ref], owner,
            [c._tester for c in self.clfs], self.M, self.L,
        )

    def between_boxes(self, S, U, jt):
        """Each job's between-boxes over its tiling's regions, at most
        :data:`_DECOMPOSE_JOBS` jobs at a time (memory guard)."""
        parts = []
        for first in range(0, max(len(S), 1), _DECOMPOSE_JOBS):
            sl = slice(first, first + _DECOMPOSE_JOBS)
            Blo, Bhi, jid = lex_between_boxes_many(
                S[sl], U[sl], self.rlo, self.rhi, jt[sl]
            )
            parts.append((Blo, Bhi, jid + first))
        return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))

    def to_original(self, Blo, Bhi, bt):
        """Each box's original corner ``A·lo + b`` and extents
        ``A·(hi - lo) + 1``, by its tiling's affine map."""
        A = self.A[bt]
        return (
            (A @ Blo[:, :, None])[:, :, 0] + self.b[bt],
            (A @ (Bhi - Blo)[:, :, None])[:, :, 0] + 1,
        )

    def from_original(self, X, tt):
        """Original points ``X`` in their tilings' coordinates: the
        identity's ``X - b``, a strip-mine's ``(t, u - 1) = divmod(X - b - 1, T)``."""
        off = X - self.b[tt]
        if self.T is None:
            return off
        t, r = np.divmod(off - 1, self.T[tt])
        return np.concatenate((t, r + 1), axis=1)

    def wave_chunks(self, tt):
        """Slices of a wave's items (grouped by tiling) of whole tilings,
        at most :data:`_WAVE_ITEMS` items unless one tiling has more: a
        tiling's rounds and cascade steps are those of a lone run."""
        start = stop = 0
        for n in np.bincount(tt, minlength=len(self.clfs)).tolist():
            if stop > start and stop + n - start > _WAVE_ITEMS:
                yield slice(start, stop)
                start = stop
            stop += n
        if stop > start:
            yield slice(start, stop)

    def run(self, table: SourceTable) -> list[np.ndarray]:
        """The tilings' outcome codes for the sample of ``table``.

        Work items are index arrays: item ``x`` is tiling ``tt[x]``,
        point ``ai[x]``, reference ``aidx[x]`` and its current source
        ``cur[x]`` in the run ``[cur, stop)`` of the concatenated
        :meth:`PointClassifier._batch_reuse_sources` (table rows); a wave
        gathers the rest by index.  Items stay grouped by tiling.
        """
        clfs = self.clfs
        n, nrefs = len(table.O), len(self.lead._refs)
        self.tally[:, :2] += (n, n * nrefs)  # points, ref_tests
        # Every (point, ref) without a source stays COLD.
        codes = np.zeros((len(clfs), n, nrefs), dtype=np.int8)
        runs = [c._batch_reuse_sources(table) for c in clfs]
        base = np.cumsum([0] + [len(r[0]) for r in runs])
        tt = np.repeat(
            np.arange(len(clfs), dtype=_narrow(len(clfs))),
            [len(r[1]) for r in runs],
        )
        rows, ai, aidx, cur, stop = (
            parts[0] if len(parts) == 1 else np.concatenate(parts)
            for parts in zip(*runs)
        )
        del runs
        cur, stop = cur + base[tt], stop + base[tt]
        while len(cur):
            verdict = np.empty(len(cur), dtype=np.int8)
            job = np.empty(len(cur), dtype=bool)
            for part in self.wave_chunks(tt):
                verdict[part], job[part] = self.wave(
                    tt[part], ai[part], aidx[part], rows[cur[part]], table
                )
            hit = verdict == FALSE
            codes[tt[hit], ai[hit], aidx[hit]] = _HIT
            # A proven kill kills every older source; an unproven one
            # walks on.
            more = (verdict == UNKNOWN) & (cur + 1 < stop)
            done = ~(hit | more)
            codes[tt[done], ai[done], aidx[done]] = _REPLACEMENT
            self.skipped += int((stop - cur - 1)[verdict == TRUE].sum())
            # Survivors keep each tiling's wave order: directly decided
            # items first, then interval jobs, each in active order.
            nxt = np.flatnonzero(more)
            nxt = nxt[np.lexsort((job[nxt], tt[nxt]))]
            tt, ai, aidx = tt[nxt], ai[nxt], aidx[nxt]
            cur, stop = cur[nxt] + 1, stop[nxt]
        for clf, (*fields, enumerated) in zip(clfs, self.tally.tolist()):
            for name, value in zip(_CHARGED, fields):
                setattr(clf.stats, name, getattr(clf.stats, name) + value)
            clf._tester.stats.enumerated += enumerated
        return list(codes)

    def wave(self, tt, ai, aidx, row, table):
        """One wave chunk's items (tilings, points, references, source
        table rows): each item's verdict (as ``_reuse_killed``'s) and
        whether it was a job."""
        k = self.k
        wlo = table.wlo[ai, aidx]
        l0 = table.l0[ai, aidx]
        self.charge("sources_checked", tt)
        same = table.same[row]
        pre = None
        if self.lead._use_batch_cascade:
            # Boundary-iteration line counts, each table row's once per
            # pass; a count at the cap decides.
            pre = table.endpoint_counts(row)
            verdict = np.where(pre >= max(k, 1), TRUE if k == 1 else UNKNOWN, FALSE)
            job = (verdict == FALSE) & ~same
        else:
            # Scalar rung: the per-item reference implementations (k-way
            # counts serially; direct-mapped intervals become jobs).
            test = (
                PointClassifier._reuse_killed if k != 1
                else PointClassifier._endpoint_interference
            )
            verdict = np.array([
                test(self.clfs[t], *item) for t, item in zip(tt.tolist(), zip(
                    map(tuple, self.from_original(table.src[row], tt).tolist()),
                    self.rows.positions[table.sref[row]].tolist(),
                    map(tuple, self.from_original(table.O[ai], tt).tolist()),
                    aidx.tolist(), l0.tolist(), wlo.tolist(),
                ))
            ], dtype=np.int8)
            job = (verdict == FALSE) & ~same & (k == 1)
        j = np.flatnonzero(job)
        if len(j):
            args = (
                self.from_original(table.src[row[j]], tt[j]),
                self.from_original(table.O[ai[j]], tt[j]), wlo[j], l0[j], tt[j],
            )
            verdict[j] = (
                np.where(self.count_jobs(*args, pre[j]), UNKNOWN, FALSE) if k != 1
                else self.interval_jobs(*args)
            )
        return verdict, job

    def interval_jobs(self, S, U, wlo, l0, jt) -> np.ndarray:
        """Resolve a wave of interval-interference queries at once.

        Job ``j`` (of tiling ``jt[j]``) asks whether the iterations
        strictly between source ``S[j]`` and use ``U[j]`` touch the
        window ``wlo[j]`` on a line other than the one starting at
        ``l0[j]``, over the boxes the serial cascade would visit.  The
        address-band test rejects most boxes; surviving small ones go
        to :func:`repro.polyhedra.kernels.boxes_interfere`, big ones to
        the congruence cascade (:meth:`cascade_groups`), so outcomes
        match the scalar path by construction.  Returns each job's
        verdict: TRUE on a kernel hit or TRUE cascade verdict, UNKNOWN
        for a kill only UNKNOWN verdicts back, else FALSE.
        """
        njobs = len(S)
        self.charge("intervals_vectorized", jt)
        L, M = self.L, self.M
        Blo, Bhi, jid = self.between_boxes(S, U, jt)
        nb = len(jid)
        verdict = np.zeros(njobs, dtype=np.int8)
        if nb == 0:
            return verdict
        bt = jt[jid]
        self.charge("boxes_tested", bt)
        wlo_box = wlo[jid]
        l0_box = l0[jid]
        olo, oext = self.to_original(Blo, Bhi, bt)
        # Tier-1 rejection, vectorised over every (box, ref) pair: the
        # reachable address band [fmin, fmax] misses the set window.
        ohi = olo + oext - 1
        fmin = olo @ self.ocpos.T + ohi @ self.ocneg.T + self.rows.oc0
        spans = (ohi - olo) @ np.abs(self.rows.ocoef).T
        aa = fmin % M
        wl = wlo_box[:, None]
        alive = (
            (spans >= M)
            | (((wl - aa) % M) <= spans)
            | (((aa - wl) % M) <= L - 1)
        )
        del fmin, spans, aa, ohi
        # Per-group projected volumes and liveness.  The projected
        # volume equals the cascade's post-normalisation volume, so the
        # enumerate-vs-cascade split below matches the scalar path's
        # exactness regime per (box, reference) pair.
        ngroups = len(self.rows.groups)
        pvol = np.empty((nb, ngroups), dtype=np.float64)
        galive = np.empty((nb, ngroups), dtype=bool)
        for gi, ((odims, _, _), ridx) in enumerate(
            zip(self.rows.kernel_groups, self.rows.groups)
        ):
            pvol[:, gi] = oext[:, odims].prod(axis=1, dtype=np.float64)
            galive[:, gi] = alive[:, ridx].any(axis=1)
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
        lj = jid[live]
        small = galive & (pvol <= self.enum_limit)
        big = galive & ~small
        cost = np.where(
            big[live].any(axis=1),
            self._ROUND_ROWS,
            np.where(small, pvol, 0)[live].sum(axis=1).astype(np.int64),
        )
        charged = np.zeros(len(live) + 1, dtype=np.int64)
        np.cumsum(cost, out=charged[1:])
        bounds = np.searchsorted(lj, np.arange(njobs + 1))
        cursor = bounds[:-1].copy()
        stop = bounds[1:]
        pos = np.arange(len(live))
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
            for (odims, coeffs, consts), m in zip(
                self.rows.kernel_groups, small[tb].T
            ):
                if m.any():
                    b = tb[m]
                    hits = self.kernel(
                        boxes_interfere, olo[np.ix_(b, odims)],
                        oext[np.ix_(b, odims)], coeffs, consts, l0_box[b], M, L,
                    )
                    verdict[tj[m][hits]] = TRUE
            # Oversized projections: the congruence cascade, as the
            # scalar path runs it, in (job, box, group) order.
            rows, groups = np.nonzero(big[tb])
            if len(rows):
                j, b = tj[rows], tb[rows]
                if self.lead._use_batch_cascade:
                    self.cascade_groups(
                        j, b, groups, bt[b], Blo, Bhi, alive, wlo_box, l0_box, verdict
                    )
                else:
                    for j1, b1, gi in zip(j.tolist(), b.tolist(), groups.tolist()):
                        if verdict[j1]:
                            continue  # another box already decided this job
                        verdict[j1] = self.clfs[bt[b1]]._cascade_box_group(
                            tuple(Blo[b1].tolist()),
                            tuple(Bhi[b1].tolist()),
                            gi,
                            alive[b1],
                            int(wlo_box[b1]),
                            int(l0_box[b1]),
                        )
            pending = (verdict == FALSE) & (cursor < stop)
        return verdict

    def cascade_groups(self, j, b, g, t, Blo, Bhi, alive, wlo, l0, verdict):
        """A round's oversized (job, box, group) triples of tilings
        ``t``, in the batched cascade.

        A lone tiling takes its groups in the order its triples first
        meet them, reference by reference, and a job's first TRUE or
        UNKNOWN verdict kills it (UNKNOWN charged as conservative), so
        its later queries are never asked (TRUE wins within a call).
        Step ``(s, r)`` asks the ``r``-th reference of every tiling's
        ``s``-th group about the boxes of live jobs its band reaches
        (``alive``), in one call.
        """
        # Each tiling's groups, ranked by first appearance.
        seen = np.full((len(self.clfs), len(self.rows.groups)), len(j))
        np.minimum.at(seen, (t, g), np.arange(len(j)))
        step = np.argsort(np.argsort(seen, axis=1), axis=1)[t, g]
        for s in range(int(step.max()) + 1):
            at = step == s
            for refs in self.rows.group_refs.T:
                x = np.flatnonzero(at & (verdict[j] == FALSE))
                i = refs[g[x]]
                x, i = x[i >= 0], i[i >= 0]
                ask = alive[b[x], i]
                x, i = x[ask], i[ask]
                if not len(x):
                    continue
                bx = b[x]
                verdicts = self.cascade(t[x], i).exists_interference_many(
                    Blo[bx], Bhi[bx], wlo[bx], l0[bx]
                )
                unknown = verdicts == UNKNOWN
                self.charge("unknown_conservative", t[x[unknown]])
                verdict[j[x[unknown]]] = UNKNOWN
                verdict[j[x[verdicts == TRUE]]] = TRUE

    def count_jobs(self, S, U, wlo, l0, jt, pre) -> np.ndarray:
        """Associative interval counting for a whole wave at once.

        Job ``j`` (of tiling ``jt[j]``) is a reuse source ``S[j]`` and
        use ``U[j]`` with the window and line of :meth:`interval_jobs`
        and the endpoint line count ``pre[j]``; every (box, reference)
        pair adds the capped distinct-line count the scalar
        :meth:`PointClassifier._count_interfering_lines` would, ``None``
        collapsing to the cap.  Pairs within ``enum_limit`` are the
        cascade's enumeration tier: the kernel counts them and charges
        their tiling one ``enumerated`` each; one cascade call per step
        takes the larger ones of every tiling.  Returns the killed flag
        per job.
        """
        njobs = len(S)
        self.charge("intervals_vectorized", jt)
        k = self.k
        tot = pre.astype(np.int64)
        Blo, Bhi, jid = self.between_boxes(S, U, jt)
        bt = jt[jid]
        self.charge("boxes_tested", bt)
        if len(jid) == 0:
            return tot >= k
        wlo_b = wlo[jid]
        l0_b = l0[jid]
        olo, oext = self.to_original(Blo, Bhi, bt)
        # Per (box, reference): the first address, and whether the
        # projected volume is within the cascade's enumeration tier.
        ocoef = self.rows.ocoef
        c0 = olo @ ocoef.T + self.rows.oc0
        enum = np.column_stack([
            oext[:, supp].prod(axis=1, dtype=np.float64) for supp in self.osupp
        ]) <= self.enum_limit
        # A two-phase frontier.  Phase one tests only each job's first
        # box — where nearly every early exit happens in an associative
        # cache.  Phase two sends every surviving job's remaining boxes
        # through each reference in one maximal batch: a surviving job
        # rarely exits at all (an interference-free source never
        # reaches the cap), so the batch does the work the scalar loop
        # would have done anyway, minus the per-box dispatch.  Counts
        # are non-negative and a per-box ``None`` collapses to the cap,
        # so the summed total crosses ``k`` exactly when the scalar
        # early-exit prefix would have; verdicts are identical by
        # construction.
        first = np.ones(len(jid), dtype=bool)
        first[1:] = jid[1:] != jid[:-1]
        for rows_all in (np.flatnonzero(first), np.flatnonzero(~first)):
            for i in range(len(ocoef)):
                rows = rows_all[tot[jid[rows_all]] < k]
                if not len(rows):
                    break
                counts = np.zeros(len(rows), dtype=np.int64)
                small = enum[rows, i]
                s = rows[small]
                if len(s):
                    self.charge("enumerated", bt[s])
                    counts[small] = self.kernel(
                        box_line_counts, c0[s, i], oext[s], ocoef[i],
                        wlo_b[s], l0_b[s], self.M, self.L, k,
                    )
                big = np.flatnonzero(~small)
                if len(big):
                    r = rows[big]
                    counts[big] = self.cascade(bt[r], i).count_interfering_lines_many(
                        Blo[r], Bhi[r], wlo_b[r], l0_b[r], cap=k
                    )
                unknown = counts < 0
                self.charge("unknown_conservative", bt[rows[unknown]])
                tot += np.bincount(
                    jid[rows],
                    weights=np.where(unknown, k, counts),
                    minlength=njobs,
                ).astype(np.int64)
        return tot >= k
