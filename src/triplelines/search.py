"""Backtracking search for line arrangements maximizing triple points.

Depth-first extension of line subsets of PG(2,q) in a fixed deterministic
order. A node's state is an immutable value: the chosen line ids and four
bit masks over point indices, holding the points met by exactly 1, 2, 3 and
at least 4 chosen lines. Adding a line is a few int operations on its point
mask, and bit counts give the triple and double points. Two admissibility
prunes apply:

  * capacity: the j-th added line meets j chosen lines, so it can create at
    most min(floor(j/2), q+1) new triple points;
  * pair budget: the remaining C(s,2) - C(k,2) unordered line pairs must pay
    for every new triple point: promoting an existing double point costs two
    pairs, a fresh triple point costs three.

With frame normalization the first four lines are pinned to x, y, z, x+y+z:
any arrangement containing four lines in general position is projectively
equivalent to one through that frame, and the only arrangements without such
a quadruple are pencils and near-pencils, whose triple counts are folded in
analytically. Searches and their reports are per-field evidence only.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import comb
from typing import Optional

from .field import FieldSpec
from .incidence import AbstractIncidence, Arrangement, abstract, isomorphic, profile
from .projective import (
    ProjLine,
    as_line,
    enumerate_lines,
    enumerate_points,
    line_point_indices,
)


class Plane:
    """Cached incidence data of PG(2,q): lines as tuples of point indices.

    The incidence comes from the parametrization of each line over the field
    tables (projective.line_point_indices): O(q^3) index lookups, with no
    point-line dot products.
    """

    _cache: dict = {}

    def __init__(self, field: FieldSpec):
        self.field = field
        self.points = enumerate_points(field)
        self.lines = enumerate_lines(field)
        self.line_points = line_point_indices(field)
        self.line_index = {L: i for i, L in enumerate(self.lines)}

    @classmethod
    def of(cls, field: FieldSpec) -> "Plane":
        key = field.key()
        if key not in cls._cache:
            cls._cache[key] = cls(field)
        return cls._cache[key]


@dataclass(frozen=True)
class SearchConfig:
    field: FieldSpec
    s: int
    target: Optional[int] = None
    metric: str = "exact3"            # "exact3" | "atleast3"
    normalize_frame: bool = True
    max_nodes: int = 10 ** 9
    threads: int = 1

    def __post_init__(self):
        if self.metric not in ("exact3", "atleast3"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.s < 1:
            raise ValueError("s must be positive")
        if self.threads < 1:
            raise ValueError("threads must be positive")
        if self.max_nodes < 0:
            raise ValueError("max_nodes must be non-negative")


@dataclass
class SearchReport:
    best: int
    witnesses: list
    nodes_visited: int
    exhaustive: bool
    best_is_maximum: bool   # exhaustive and not pruned against a target
    target_reached: bool
    notes: tuple

    def summary(self) -> str:
        bits = [f"best={self.best}", f"nodes={self.nodes_visited}",
                f"exhaustive={self.exhaustive}",
                "proven maximum" if self.best_is_maximum
                else "best found, not a proven maximum"]
        if self.target_reached:
            bits.append("target reached")
        return ", ".join(bits)


FRAME_COORDS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))

# witness classes kept per report; the search keeps four times as many raw witnesses
WITNESS_CAP = 10


def _degenerate_family_best(q: int, s: int, metric: str) -> Optional[int]:
    """Best triple count over pencils and near-pencils of s lines, or None.

    These are exactly the arrangements containing no four lines in general
    position (for s >= 5), hence the part of the space a frame-normalized
    search does not visit.
    """
    options = []
    if q + 1 >= s:          # full pencil
        if metric == "exact3":
            options.append(1 if s == 3 else 0)
        else:
            options.append(1 if s >= 3 else 0)
    if s >= 2 and q + 1 >= s - 1:      # s-1 concurrent lines plus one more
        if metric == "exact3":
            options.append(1 if s == 4 else 0)
        else:
            options.append(1 if s >= 4 else 0)
    return max(options) if options else None


def _with_line(state: tuple, line_id: int, m: int) -> tuple:
    """The state after adding a line whose point mask is m."""
    chosen, m1, m2, m3, m4 = state
    return (chosen + (line_id,), m1 & ~m | m & ~(m1 | m2 | m3 | m4),
            m2 & ~m | m1 & m, m3 & ~m | m2 & m, m4 | m3 & m)


class _Searcher:
    """Depth-first search over the candidates, below the fixed lines.

    A node's state is a value (chosen, m1, m2, m3, m4): the tuple of chosen
    line ids and four bit masks over point indices holding the points met by
    exactly 1, 2 and 3 chosen lines and by 4 or more. A child's state is built
    from its line's point mask and passed down, so nothing is undone on the
    way back. branch() explores one first-choice subtree.
    """

    def __init__(self, cfg: SearchConfig, plane: Plane, candidates: list[int],
                 fixed: list[int]):
        self.cfg = cfg
        self.candidates = candidates
        q1 = cfg.field.order + 1               # points per line
        s = cfg.s
        self.cap_suffix = [0] * (s + 1)
        for k in range(s - 1, -1, -1):
            self.cap_suffix[k] = self.cap_suffix[k + 1] + min(k // 2, q1)
        self.pairs_total = comb(s, 2)
        self.exact = cfg.metric == "exact3"

        def mask(line_id: int) -> int:
            return sum(1 << p for p in plane.line_points[line_id])

        self.masks = [mask(line_id) for line_id in candidates]
        self.root = ((), 0, 0, 0, 0)
        for line_id in fixed:
            self.root = _with_line(self.root, line_id, mask(line_id))
        self.best = -1

    def _triples(self, state: tuple) -> int:
        _, _, _, m3, m4 = state
        return (m3 if self.exact else m3 | m4).bit_count()

    # -- main recursion --------------------------------------------------------

    def branch(self, first: int, node_budget: int, best_floor: int) -> tuple:
        """Explore the subtree whose first chosen candidate is candidates[first].

        Returns (best, witnesses, nodes, budget_hit, stopped): best is at
        least best_floor and the witnesses are visited leaves that reach it.
        """
        self.node_budget = node_budget
        self.nodes = 0
        self.best = best_floor
        self.witnesses: list[tuple] = []       # (line ids, fixed lines first)
        self.budget_hit = False
        self.stop = False
        self._extend(first + 1, _with_line(self.root, self.candidates[first],
                                           self.masks[first]))
        return self.best, self.witnesses, self.nodes, self.budget_hit, self.stop

    def _record(self, state: tuple) -> None:
        count = self._triples(state)
        if count > self.best:
            self.best = count
            self.witnesses = [state[0]]
        elif count == self.best and len(self.witnesses) < 4 * WITNESS_CAP:
            self.witnesses.append(state[0])
        if self.cfg.target is not None and count >= self.cfg.target:
            self.stop = True

    def _extend(self, start: int, state: tuple) -> None:
        if self.stop or self.budget_hit:
            return
        self.nodes += 1
        if self.nodes > self.node_budget:
            self.budget_hit = True
            return
        k = len(state[0])
        if k == self.cfg.s:
            self._record(state)
            return
        if not self.bound_ok(state):
            return
        candidates, masks = self.candidates, self.masks
        for idx in range(start, len(candidates) - (self.cfg.s - k) + 1):
            self._extend(idx + 1, _with_line(state, candidates[idx], masks[idx]))
            if self.stop or self.budget_hit:
                return

    def bound_ok(self, state: tuple) -> bool:
        # with a target, prune everything that provably stays below it;
        # otherwise keep any branch that can still tie the incumbent
        k = len(state[0])
        budget = self.pairs_total - comb(k, 2)
        promos = min(state[2].bit_count(), budget // 2)
        extra = promos + (budget - 2 * promos) // 3
        limit = self.cfg.target if self.cfg.target is not None else self.best
        return self._triples(state) + min(self.cap_suffix[k], extra) >= limit


def _pool_branch(cfg: SearchConfig, candidates: list[int], fixed: list[int],
                 first: int) -> tuple:
    """Worker entry: one branch with no incumbent and the whole node budget."""
    searcher = _Searcher(cfg, Plane.of(cfg.field), candidates, fixed)
    return searcher.branch(first, cfg.max_nodes, -1)


def max_triple_search(cfg: SearchConfig,
                      candidate_order: Optional[list[int]] = None) -> SearchReport:
    """Maximize the triple-point count over s-line subsets of PG(2,q).

    The tree below the fixed lines has one branch per first chosen candidate.
    Branches run here with the remaining budget and the incumbent, or on
    worker processes; a worker result that overruns the remaining budget is
    recomputed here. Results merge in branch order in both modes.
    candidate_order, if given, must list every line id of the plane exactly
    once; the frame lines are dropped from it when the frame is on.
    """
    plane = Plane.of(cfg.field)
    notes = []
    n_lines = len(plane.lines)
    if candidate_order is not None and sorted(candidate_order) != list(range(n_lines)):
        raise ValueError(f"candidate_order must list each of the {n_lines} "
                         f"line ids 0..{n_lines - 1} exactly once")
    if cfg.s > n_lines:
        notes.append(f"PG(2,{cfg.field.order}) has only {n_lines} lines; "
                     f"no arrangement of s={cfg.s} exists")
        notes.append("per-field evidence: results hold for this ground field only")
        return SearchReport(0, [], 0, True, cfg.target is None, False, tuple(notes))

    use_frame = cfg.normalize_frame and cfg.s >= 5
    if cfg.normalize_frame and cfg.s < 5:
        notes.append("frame normalization skipped for s < 5 "
                     "(optimal arrangements may lack four general-position lines)")

    fixed: list[int] = []
    if use_frame:
        fixed = [plane.line_index[ProjLine(cfg.field, c)] for c in FRAME_COORDS]
        notes.append("frame normalization on: search restricted to arrangements "
                     "through x, y, z, x+y+z (covers every arrangement with four "
                     "lines in general position up to projectivity)")
    fixed_set = set(fixed)
    order = range(n_lines) if candidate_order is None else candidate_order
    pool = [i for i in order if i not in fixed_set]

    searcher = _Searcher(cfg, plane, pool, fixed)
    best, witness_ids, nodes, target_stop = -1, [], 1, False
    budget_hit = cfg.max_nodes < 1         # the root node counts against the budget
    branches = len(pool) - (cfg.s - len(fixed)) + 1
    if not budget_hit and searcher.bound_ok(searcher.root) and branches > 0:
        executor, futures = None, []
        if cfg.threads > 1:
            executor = ProcessPoolExecutor(max_workers=min(cfg.threads, branches))
            futures = [executor.submit(_pool_branch, cfg, pool, fixed, first)
                       for first in range(branches)]
        try:
            for first in range(branches):
                remaining = cfg.max_nodes - nodes
                result = futures[first].result() if futures else None
                if result is None or result[2] > remaining:
                    result = searcher.branch(first, remaining, best)
                branch_best, branch_witnesses, branch_nodes, budget_hit, target_stop = result
                if branch_best > best:
                    best, witness_ids = branch_best, branch_witnesses
                elif branch_best == best:
                    witness_ids = (witness_ids + branch_witnesses)[:4 * WITNESS_CAP]
                nodes += branch_nodes
                if budget_hit or target_stop:
                    break
        finally:
            if executor is not None:
                executor.shutdown(cancel_futures=True)

    best = max(best, 0)                    # -1: no leaf visited, witness_ids is empty

    # arrangements outside the frame-normalized space
    if use_frame:
        alt = _degenerate_family_best(cfg.field.order, cfg.s, cfg.metric)
        if alt is not None:
            notes.append(f"pencil/near-pencil families (not containing four "
                         f"general-position lines) reach at most {alt} "
                         f"triple points; folded into the result")
            if alt > best:
                best = alt
                witness_ids = []

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
    return SearchReport(best, witnesses, nodes, exhaustive,
                        exhaustive and cfg.target is None, target_reached, tuple(notes))


def dual_search_seed(A: Arrangement, min_multiplicity: int = 2) -> Arrangement:
    """Duals of the arrangement's intersection points as a new arrangement.

    Points of multiplicity >= min_multiplicity dualize to lines; a bunch of
    m concurrent lines becomes a line carrying an m-fold point of the dual.
    Accidental concurrences of the dual lines may add further structure, so
    the construction is a seed, not an exact involution.
    """
    prof = profile(A)
    chosen = [P for P, m in prof.points.items() if m >= min_multiplicity]
    if not chosen:
        raise ValueError(f"no intersection points of multiplicity >= {min_multiplicity}")
    return Arrangement(A.field, [as_line(P) for P in chosen])
