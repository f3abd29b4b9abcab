"""Backtracking search for line arrangements maximizing triple points.

Depth-first extension of line subsets of PG(2,q) in a fixed deterministic
order. A node's state is an immutable value: the chosen line ids and four
bit masks over point indices, holding the points met by exactly 1, 2, 3 and
at least 4 chosen lines. Adding a line is a few int operations on its point
mask, and bit counts give the triple and double points. Three admissibility
prunes apply:

  * capacity: the j-th added line meets j chosen lines, so it can create at
    most min(floor(j/2), q+1) new triple points;
  * pair budget: the remaining C(s,2) - C(k,2) unordered line pairs must pay
    for every new triple point: promoting an existing double point costs two
    pairs, a fresh triple point costs three;
  * gains: at a node with triple count t3, the gain of a candidate line c is
    |c meets double points| - |c meets exact triple points| (for atleast3 the
    first term only), exactly how much t3 changes when c alone is added. A
    child adding line a, with r more lines still to come from the candidates
    after a, is cut when t3 + gain(a) + b1 + (r-1) b2 + C(r+1,2) < t, where
    b1 >= b2 are the two largest gains after a.

The capacity and pair budget bounds are one precomputed headroom table. The
gain bound is sound because the r+1 new lines change the count by exactly the
sum of their gains, except at points where j >= 2 of them meet; at such a
point the error is at most C(j,2) for every multiplicity the point had before
(for exact3: +1 if it was met by one line and j = 2, or by none and j = 3;
j-1 if it was an exact triple point; negative if it was a double point; for
atleast3 at most 1). Two new lines meet in exactly one point, so the errors
sum to at most C(r+1,2), and b1 + (r-1) b2 is at least the sum of the r
largest gains. A leaf's count is the node's count plus its gain, so no masks
are built for it.

The bounds are tested on each child before the search enters it, so a child
that fails is neither entered nor counted as a node.

Every search prunes against a target t. A maximum is found by passes at
t = U_3(s), U_3(s) - 1, ... (U_3 bounds both metrics): a pass that ends
without a leaf reaching t refutes t, and the first pass that reaches t
gives the maximum and its witnesses.

With frame normalization the first four lines are pinned to x, y, z, x+y+z:
any arrangement containing four lines in general position is projectively
equivalent to one through that frame, and the only arrangements without such
a quadruple are pencils and near-pencils, whose triple counts are folded in
analytically. The collineations that map the frame onto itself (24
projectivities times the k powers of Frobenius,
projective.frame_stabilizer) permute the other lines, and the search
enters only subsets that are the lex-least of their orbit (McKay,
"Isomorph-free exhaustive generation", 1998): a child is cut when some g
maps its chosen candidate positions X to a set whose
sorted positions come first. Every extension of a cut prefix would be cut
too, and no prefix of an orbit's lex-least member ever is. As no bound
cuts a prefix of a subset that reaches the target, and the triple count is
the same on a whole orbit, every best value is kept. Leaves are entered
without a bound or symmetry test. Searches and their reports are per-field
evidence only.

The symmetry test is two int operations per child. With N lines in the
plane, line id i is bit N-1-i of a mask, so of two sets of equal size the
one whose sorted ids come first is the larger int, and a child is cut when
some image g(X) > X. A node carries one int, gaps, with one (N+1)-bit field
per non-identity g, holding 2^N + g(X) - X - 1. That lies in [0, 2^(N+1))
as X < 2^N and g(X) < 2^N, so no field borrows from or carries into the
next, and a field's top (guard) bit is set exactly when g(X) > X. Adding a
candidate c to X adds the bit of c to X and the bit of g(c) to g(X), as g
is a bijection and c is not in X. So the child's gaps are gaps + delta(c),
where the field of g in delta(c) holds the bit of g(c) minus the bit of c,
and the child is cut when (gaps + delta(c)) & guard is nonzero.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from math import comb
from typing import Iterator, NamedTuple, Optional

from .bounds import schoenheim_u3
from .errors import FieldTooLarge
from .field import FieldSpec
from .incidence import AbstractIncidence, Arrangement, abstract, isomorphic, profile
from .projective import (FRAME_COORDS, as_line, enumerate_lines, frame_stabilizer,
                         line_point_indices, triple_position)


class Plane:
    """Cached incidence data of PG(2,q): the lines, and for each line the
    positions of its points as one array('H') row.

    The incidence comes from the parametrization of each line over the field
    tables (projective.line_point_indices): whole rows of table lookups, with
    no point-line dot products. Point and line positions fit in 'H' while
    q^2 + q + 1 <= 65,535, that is q <= 255; a larger field raises
    FieldTooLarge before any line is built.
    """

    _cache: dict = {}

    def __init__(self, field: FieldSpec):
        n = field.order ** 2 + field.order + 1
        try:
            array("H", [n])                    # positions run up to n - 1
        except OverflowError:
            raise FieldTooLarge(f"PG(2,{field.order}) has {n} lines, more than 16-bit "
                                f"positions can index; planes go up to q = 255") from None
        self.field = field
        self.lines = enumerate_lines(field)
        self.line_points = line_point_indices(field)

    @classmethod
    def of(cls, field: FieldSpec) -> "Plane":
        key = field.key()
        if key not in cls._cache:
            cls._cache[key] = cls(field)
        return cls._cache[key]


class _SearchConfigFields(NamedTuple):
    field: FieldSpec
    s: int
    target: Optional[int] = None
    metric: str = "exact3"            # "exact3" | "atleast3"
    normalize_frame: bool = True
    max_nodes: int = 10 ** 9
    threads: int = 1


class SearchConfig(_SearchConfigFields):
    """An immutable, hashable search configuration, checked on construction.

    Copies made with _replace and unpickled copies are checked too.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.metric not in ("exact3", "atleast3"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.s < 1:
            raise ValueError("s must be positive")
        if self.target is not None and self.target < 0:
            raise ValueError("target must be non-negative")
        if self.threads < 1:
            raise ValueError("threads must be positive")
        if self.threads > 1 and not hasattr(os, "fork"):
            raise ValueError("threads above 1 fork worker processes, and this "
                             "platform has no os.fork")
        if self.max_nodes < 0:
            raise ValueError("max_nodes must be non-negative")
        return self

    @classmethod
    def _make(cls, iterable):
        # the inherited _make, which _replace calls, skips __new__
        return cls(*iterable)


class SearchReport(NamedTuple):
    best: Optional[int]     # None: no complete arrangement was entered
    witnesses: list
    nodes_visited: int
    exhaustive: bool
    best_is_maximum: bool   # exhaustive, without cfg.target: every t > best refuted
    target_reached: bool
    notes: tuple

    def summary(self) -> str:
        bits = [f"best={'none' if self.best is None else self.best}",
                f"nodes={self.nodes_visited}",
                f"exhaustive={self.exhaustive}",
                "proven maximum" if self.best_is_maximum
                else "best found, not a proven maximum" if self.witnesses
                else "no arrangement entered, not a proven maximum"]
        if self.best is not None and not self.witnesses:
            bits.append("best is the folded-in pencil/near-pencil value")
        if self.target_reached:
            bits.append("target reached")
        return ", ".join(bits)


# witness classes kept per report; the search keeps four times as many raw witnesses
WITNESS_CAP = 10

# bytes of packed symmetry deltas a search may keep (_Searcher.delta): every
# field up to GF(47) fits (~5 MB at GF(27)), while GF(81) would need ~500 MB
DELTA_TABLE_LIMIT = 16 << 20

# bytes of line masks a search may keep (_Searcher.masks): one int of
# q^2 + q + 1 bits per line, so about q^4/8 bytes; every field up to GF(151)
# fits (~32 MB at GF(127)), while GF(251) would need ~500 MB
MASK_TABLE_LIMIT = 64 << 20


def _degenerate_family_best(q: int, s: int, metric: str) -> Optional[int]:
    """Best triple count over pencils and near-pencils of s >= 5 lines, or None
    if PG(2,q) has neither.

    These are exactly the arrangements containing no four lines in general
    position, hence the part of the space a frame-normalized search does not
    visit. Their one point of multiplicity s or s-1 >= 4 counts for atleast3 only.
    """
    return int(metric == "atleast3") if q + 1 >= s - 1 else None


class _Searcher:
    """Depth-first search over the candidates, below the fixed lines.

    The fixed lines are the frame lines x, y, z, x+y+z when use_frame is
    set, else none; the candidates are the other lines in ascending id order.

    A node's state is a value (chosen, m1, m2, m3, m4): the tuple of chosen
    line ids and four bit masks over point indices holding the points met by
    exactly 1, 2 and 3 chosen lines and by 4 or more. A child's state is built
    from its line's point mask and passed down, so nothing is undone on the
    way back. branch() explores one first-choice subtree.

    With the frame the search also carries gaps, which compares X, the set
    of chosen candidates, with its image under each non-identity element of
    the frame stabilizer (which maps candidates to candidates), one packed
    field per element as the module docstring sets out.
    """

    def __init__(self, cfg: SearchConfig, plane: Plane, use_frame: bool):
        self.cfg = cfg
        q = cfg.field.order
        fixed = [triple_position(q, key) for key in FRAME_COORDS] if use_frame else []
        self.candidates = candidates = [i for i in range(len(plane.lines))
                                        if i not in fixed]
        s = cfg.s
        cap_suffix = [0] * (s + 1)
        for k in range(s - 1, -1, -1):
            cap_suffix[k] = cap_suffix[k + 1] + min(k // 2, q + 1)   # q+1 points per line
        # headroom[k][d]: the most triple points the lines still to come can
        # add to k chosen lines with d double points (d capped at the most
        # promotions the pair budget pays for)
        self.headroom = []
        for k in range(s + 1):
            budget = comb(s, 2) - comb(k, 2)
            self.headroom.append([min(cap_suffix[k], promos + (budget - 2 * promos) // 3)
                                  for promos in range(budget // 2 + 1)])
        self.exact = cfg.metric == "exact3"

        self.masks = [sum(1 << p for p in plane.line_points[line_id])
                      for line_id in candidates]
        by_multiplicity = [0] * 5              # [1..4]: met by 1, 2, 3, >= 4 lines
        for point, m in Counter(p for line_id in fixed
                                for p in plane.line_points[line_id]).items():
            by_multiplicity[min(m, 4)] |= 1 << point
        self.root = (tuple(fixed), *by_multiplicity[1:])

        # field j of gaps is len(plane.lines) + 1 bits wide and belongs to
        # group[j + 1]; line id i is bit top - i of a field
        self.top = top = len(plane.lines) - 1
        group = frame_stabilizer(cfg.field) if use_frame else [()]
        self.group_order = len(group)
        self.group = group[1:]
        self.rep = sum(1 << j * (top + 2) for j in range(len(self.group)))  # 1 per field
        self.guard = self.rep << top + 1
        # built on first use, since a search may touch only a few candidates;
        # kept if every delta fits in DELTA_TABLE_LIMIT, else built on each
        # use, which costs far less than one node's gains over those fields
        self.deltas: list[Optional[int]] = [None] * len(candidates)
        self.keep_deltas = (len(candidates) * len(self.group) * (top + 2)
                            <= 8 * DELTA_TABLE_LIMIT)

    def delta(self, idx: int) -> int:
        """What adding candidates[idx] adds to gaps: bit(g(c)) - bit(c) in the
        field of each non-identity g, for c = candidates[idx]."""
        delta = self.deltas[idx]
        if delta is None:
            line_id, top = self.candidates[idx], self.top
            end = (top + 2) * len(self.group)
            packed = bytearray((end + 7) // 8)
            for field_top, g in zip(range(top, end, top + 2), self.group):
                pos = field_top - g[line_id]
                packed[pos >> 3] |= 1 << (pos & 7)
            delta = int.from_bytes(packed, "little") - (self.rep << top - line_id)
            if self.keep_deltas:
                self.deltas[idx] = delta
        return delta

    # -- main recursion --------------------------------------------------------

    def live_branches(self) -> Iterator[int]:
        """The first candidates, in order, whose branch can enter a node: one that
        fails the symmetry test enters none, and a leaf is entered untested. Lazy,
        so a search that stops early on its target or budget tests few."""
        r = self.cfg.s - len(self.root[0])     # lines to add below the root
        for first in range(len(self.candidates) - r + 1):
            if r == 1 or (self.guard - self.rep + self.delta(first)) & self.guard == 0:
                yield first

    def branch(self, first: int, node_budget: int, target: int, quota: int) -> tuple:
        """Explore the subtree whose first chosen candidate is candidates[first],
        pruning every child that provably stays below target.

        Returns (best, witnesses, nodes, budget_hit): the witnesses are the
        first visited leaves that reach best. The branch stops once quota of
        them reach target.
        """
        self.node_budget, self.target, self.quota = node_budget, target, quota
        self.nodes, self.best, self.budget_hit, self.stop = 0, -1, False, False
        self.witnesses: list[tuple] = []       # (line ids, fixed lines first)
        chosen, _, m2, m3, m4 = self.root      # the fixed lines pass the bound too
        row = self.headroom[len(chosen)]
        t3 = (m3 if self.exact else m3 | m4).bit_count()
        if t3 + row[min(m2.bit_count(), len(row) - 1)] >= target:
            # X = 0: each field holds 2^N - 1
            self._children(self.root, self.guard - self.rep, first, first + 1)
        return self.best, self.witnesses, self.nodes, self.budget_hit

    def _record(self, chosen: tuple, count: int) -> None:
        if count > self.best:
            self.best = count
            self.witnesses = [chosen]
        elif count == self.best and len(self.witnesses) < 4 * WITNESS_CAP:
            self.witnesses.append(chosen)
        if count >= self.target and len(self.witnesses) >= self.quota:
            self.stop = True

    def _children(self, state: tuple, gaps: int, start: int, stop: int) -> None:
        """Enter the children of a node that add candidates[start:stop].

        gains[i] is how much the triple count changes when candidates[start + i]
        joins the node. A leaf child is always entered and recorded with the
        node's count plus its gain. Any other child is entered only if it
        passes the gain bound, then the headroom bound and then the symmetry
        check, and its own children follow. Every state entered counts as a
        node.
        """
        candidates, masks, deltas, guard = (self.candidates, self.masks, self.deltas,
                                            self.guard)
        target = self.target
        chosen, m1, m2, m3, m4 = state
        t3 = (m3 if self.exact else m3 | m4).bit_count()
        k = len(chosen) + 1                    # lines in each child
        r = self.cfg.s - k                     # lines still to add below a child
        # a leaf takes no later line; any other child takes its later lines
        # from the candidates after its own
        tail = masks[start:stop if r == 0 else None]
        gains = ([(m & m2).bit_count() - (m & m3).bit_count() for m in tail] if self.exact
                 else [(m & m2).bit_count() for m in tail])
        if r == 0:
            for idx, gain in enumerate(gains, start):
                self.nodes += 1
                if self.nodes > self.node_budget:
                    self.budget_hit = True
                    return
                self._record(chosen + (candidates[idx],), t3 + gain)
                if self.stop:
                    return
            return

        # reach[i]: gains[i] plus b1 + (r-1) b2, where b1 >= b2 are the two
        # largest gains after position i; b1 + (r-1) b2 is at least the sum of
        # the r largest
        n = stop - start
        b1 = b2 = -self.cfg.field.order - 2    # below any gain; b2 weighs only if r > 1
        for g in gains[n:]:
            if g > b2:
                b1, b2 = (g, b1) if g > b1 else (b1, g)
        reach = [0] * n
        for i in range(n - 1, -1, -1):
            g = gains[i]
            reach[i] = g + b1 + (r - 1) * b2
            if g > b2:
                b1, b2 = (g, b1) if g > b1 else (b1, g)
        # pairs of new lines meet once each: that adds at most C(r+1, 2)
        need = target - t3 - comb(r + 1, 2)
        covered = m1 | m2 | m3 | m4
        row = self.headroom[k]
        top = len(row) - 1
        grandchild_stop = len(candidates) - r + 1
        for idx in range(start, stop):
            if reach[idx - start] < need:
                continue
            # the child's masks: a point of the new line moves up one count
            m = masks[idx]
            c2 = m2 & ~m | m1 & m
            d2 = c2.bit_count()
            if t3 + gains[idx - start] + row[d2 if d2 < top else top] < target:
                continue
            delta = deltas[idx]
            child_gaps = gaps + (self.delta(idx) if delta is None else delta)
            if child_gaps & guard:
                continue
            self.nodes += 1
            if self.nodes > self.node_budget:
                self.budget_hit = True
                return
            child = (chosen + (candidates[idx],), m1 & ~m | m & ~covered, c2,
                     m3 & ~m | m2 & m, m4 | m3 & m)
            self._children(child, child_gaps, idx + 1, grandchild_stop)
            if self.stop or self.budget_hit:
                return


def max_triple_search(cfg: SearchConfig) -> SearchReport:
    """Maximize the triple-point count over s-line subsets of PG(2,q).

    Every pass is a target search. With cfg.target there is one pass, which
    stops at the first leaf that reaches the target. Without one, passes run
    at t = U_3(s), U_3(s) - 1, ...: a pass that ends without reaching t
    refutes t, and the first pass that reaches t collects up to
    4 * WITNESS_CAP raw witnesses and ends the run with best = t.

    The tree below the fixed lines has one branch per first chosen candidate.
    Only the branches whose first line passes the symmetry test run
    (_Searcher.live_branches): here with the remaining budget, or, with
    cfg.threads > 1, on that many children forked for each pass
    (forkpool.fork_map), which inherit this searcher and each take the next
    live branch when they return a result. A worker result that overruns the
    remaining budget is recomputed here. Results merge in branch order in
    both modes, so both visit the same nodes. A field whose line masks would
    pass MASK_TABLE_LIMIT raises FieldTooLarge before the plane is built.
    """
    q = cfg.field.order
    n_lines = q * q + q + 1
    if n_lines * ((n_lines + 7) // 8) > MASK_TABLE_LIMIT:
        raise FieldTooLarge(f"PG(2,{q}) has {n_lines} lines, whose point masks would "
                            f"take more than {MASK_TABLE_LIMIT >> 20} MiB; searches go "
                            f"up to q = 151")
    plane = Plane.of(cfg.field)
    notes = []
    if cfg.s > n_lines:
        notes.append(f"PG(2,{cfg.field.order}) has only {n_lines} lines; "
                     f"no arrangement of s={cfg.s} exists")
        notes.append("per-field evidence: results hold for this ground field only")
        return SearchReport(None, [], 0, True, False, False, tuple(notes))

    use_frame = cfg.normalize_frame and cfg.s >= 5
    if cfg.normalize_frame and cfg.s < 5:
        notes.append("frame normalization skipped for s < 5 "
                     "(optimal arrangements may lack four general-position lines)")

    searcher = _Searcher(cfg, plane, use_frame)
    alt = None          # best over the arrangements outside the frame-normalized space
    if use_frame:
        k = cfg.field.k
        notes.append("frame normalization on: search restricted to arrangements "
                     "through x, y, z, x+y+z (covers every arrangement with four "
                     "lines in general position up to projectivity)")
        notes.append(f"symmetry: only the lex-least subset of each orbit under the "
                     f"{searcher.group_order} collineations fixing the frame (24 "
                     f"projectivities x {k} field automorphism{'s' if k > 1 else ''}) "
                     f"is searched")
        alt = _degenerate_family_best(cfg.field.order, cfg.s, cfg.metric)
    # descending targets stop at alt (or 0, which the first leaf reaches)
    targets = ((cfg.target,) if cfg.target is not None
               else range(schoenheim_u3(cfg.s), (alt or 0) - 1, -1))
    quota = 1 if cfg.target is not None else 4 * WITNESS_CAP
    best, witness_ids, nodes, passes = -1, [], 1, []
    budget_hit = cfg.max_nodes < 1         # the root node counts against the budget
    if cfg.threads > 1:
        branches = list(searcher.live_branches())
        # imported here, so runs that start no worker neither compile nor load it
        from .forkpool import fork_map
    for t in () if budget_hit else targets:
        pooled = (fork_map(lambda first: searcher.branch(first, cfg.max_nodes, t, quota),
                           branches, cfg.threads) if cfg.threads > 1 else None)
        pass_best, pass_ids, pass_start = -1, [], nodes
        try:
            for first in branches if pooled else searcher.live_branches():
                remaining = cfg.max_nodes - nodes
                result = next(pooled) if pooled else None
                if result is None or result[2] > remaining:
                    result = searcher.branch(first, remaining, t, quota)
                branch_best, branch_ids, branch_nodes, budget_hit = result
                if branch_best > pass_best:
                    pass_best, pass_ids = branch_best, branch_ids
                elif branch_best == pass_best:
                    pass_ids = (pass_ids + branch_ids)[:4 * WITNESS_CAP]
                nodes += branch_nodes
                if budget_hit or (pass_best >= t and len(pass_ids) >= quota):
                    break
        finally:
            if pooled:
                pooled.close()                 # kills and reaps the pass's workers
        if pass_best >= best:
            best, witness_ids = pass_best, pass_ids
        outcome = "budget spent" if budget_hit else "reached" if pass_best >= t else "refuted"
        passes.append(f"t={t} {outcome} in {nodes - pass_start} nodes")
        if budget_hit or pass_best >= t:
            break

    target_stop = cfg.target is not None and best >= cfg.target
    if alt is not None:
        notes.append(f"pencil/near-pencil families (not containing four "
                     f"general-position lines) reach at most {alt} "
                     f"triple points; folded into the result")
        if alt > best:
            best, witness_ids = alt, []
    if cfg.target is None and passes:
        notes.append("target passes from U_3(s) down: " + ", ".join(passes))

    # verify witnesses through the incidence module and deduplicate
    witnesses: list[Arrangement] = []
    seen_classes: list[AbstractIncidence] = []
    for ids in witness_ids:
        A = Arrangement(cfg.field, [plane.lines[i] for i in sorted(ids)])
        prof = profile(A)
        if prof.triple_count(cfg.metric) != best:
            raise RuntimeError("unsound witness escaped the search")
        cls = abstract(A, prof)
        if any(isomorphic(cls, c) for c in seen_classes):
            continue
        seen_classes.append(cls)
        witnesses.append(A)
        if len(witnesses) >= WITNESS_CAP:
            break

    target_reached = cfg.target is not None and best >= cfg.target
    exhaustive = not budget_hit and not target_stop
    if target_stop:
        notes.append("stopped early after reaching the target")
    notes.append("per-field evidence: results hold for this ground field only")
    # best -1: no leaf was entered and no family value folded in
    return SearchReport(best if best >= 0 else None, witnesses, nodes, exhaustive,
                        exhaustive and cfg.target is None, target_reached, tuple(notes))


def dual_search_seed(A: Arrangement, min_multiplicity: int = 2) -> Arrangement:
    """Duals of the arrangement's intersection points as a new arrangement.

    Points of multiplicity >= min_multiplicity dualize to lines; a bunch of
    m concurrent lines becomes a line carrying an m-fold point of the dual.
    Accidental concurrences of the dual lines may add further structure, so
    the construction is a seed, not an exact involution.
    """
    if min_multiplicity < 2:
        raise ValueError(f"min_multiplicity must be at least 2, got {min_multiplicity}")
    prof = profile(A)
    chosen = [P for P, m in prof.points.items() if m >= min_multiplicity]
    if not chosen:
        raise ValueError(f"no intersection points of multiplicity >= {min_multiplicity}")
    return Arrangement(A.field, [as_line(P) for P in chosen])
