"""Backtracking search for line arrangements maximizing triple points.

Depth-first extension of line subsets of PG(2,q) in a fixed deterministic
order, with two admissibility prunes:

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

from .field import FieldSpec, make_field
from .incidence import AbstractIncidence, Arrangement, abstract, isomorphic, profile
from .projective import ProjLine, as_line, enumerate_lines, enumerate_points, incident


class Plane:
    """Cached incidence data of PG(2,q): lines as tuples of point indices."""

    _cache: dict = {}

    def __init__(self, field: FieldSpec):
        self.field = field
        self.points = enumerate_points(field)
        self.lines = enumerate_lines(field)
        point_index = {P: i for i, P in enumerate(self.points)}
        self.line_points = [
            tuple(point_index[P] for P in self.points if incident(P, L))
            for L in self.lines
        ]
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


class _Searcher:
    def __init__(self, cfg: SearchConfig, plane: Plane, candidates: list[int],
                 fixed: list[int], node_budget: int, best_floor: int):
        self.cfg = cfg
        self.plane = plane
        self.candidates = candidates
        self.fixed = fixed
        self.node_budget = node_budget
        self.q1 = cfg.field.order + 1          # points per line
        s = cfg.s
        self.cap_suffix = [0] * (s + 1)
        for k in range(s - 1, -1, -1):
            self.cap_suffix[k] = self.cap_suffix[k + 1] + min(k // 2, self.q1)
        self.pairs_total = comb(s, 2)
        self.exact = cfg.metric == "exact3"

        self.cnt = [0] * len(plane.points)
        self.chosen: list[int] = []
        self.t3 = 0
        self.d2 = 0
        self.nodes = 0
        self.best = best_floor
        self.witnesses: list[tuple] = []       # (sorted line ids)
        self.budget_hit = False
        self.stop = False

    # -- incremental state ---------------------------------------------------

    def _apply(self, line_id: int) -> None:
        exact = self.exact
        for p in self.plane.line_points[line_id]:
            c = self.cnt[p] = self.cnt[p] + 1
            if c == 2:
                self.d2 += 1
            elif c == 3:
                self.d2 -= 1
                self.t3 += 1
            elif c == 4 and exact:
                self.t3 -= 1
        self.chosen.append(line_id)

    def _undo(self, line_id: int) -> None:
        exact = self.exact
        self.chosen.pop()
        for p in self.plane.line_points[line_id]:
            c = self.cnt[p]
            self.cnt[p] = c - 1
            if c == 2:
                self.d2 -= 1
            elif c == 3:
                self.d2 += 1
                self.t3 -= 1
            elif c == 4 and exact:
                self.t3 += 1

    def _bound(self) -> int:
        k = len(self.chosen)
        budget = self.pairs_total - comb(k, 2)
        promos = min(self.d2, budget // 2)
        extra = promos + (budget - 2 * promos) // 3
        return self.t3 + min(self.cap_suffix[k], extra)

    # -- main recursion --------------------------------------------------------

    def run(self) -> None:
        for line_id in self.fixed:
            self._apply(line_id)
        self._extend(0)

    def _record(self) -> None:
        count = self.t3
        if count > self.best:
            self.best = count
            self.witnesses = [tuple(self.chosen)]
        elif count == self.best and len(self.witnesses) < 4 * WITNESS_CAP:
            self.witnesses.append(tuple(self.chosen))
        if self.cfg.target is not None and count >= self.cfg.target:
            self.stop = True

    def _extend(self, start: int) -> None:
        if self.stop or self.budget_hit:
            return
        self.nodes += 1
        if self.nodes > self.node_budget:
            self.budget_hit = True
            return
        k = len(self.chosen)
        if k == self.cfg.s:
            self._record()
            return
        bound = self.bound_ok()
        if not bound:
            return
        remaining_needed = self.cfg.s - k
        last = len(self.candidates) - remaining_needed
        for idx in range(start, last + 1):
            line_id = self.candidates[idx]
            self._apply(line_id)
            self._extend(idx + 1)
            self._undo(line_id)
            if self.stop or self.budget_hit:
                return

    def bound_ok(self) -> bool:
        # with a target, prune everything that provably stays below it;
        # otherwise keep any branch that can still tie the incumbent
        limit = self.cfg.target if self.cfg.target is not None else self.best
        return self._bound() >= limit


def _run_branch(field_args: tuple, cfg_args: dict, fixed: list[int],
                candidates: list[int], first_idx: int, node_budget: int,
                best_floor: int) -> tuple:
    """Worker entry: explore the branch rooted at one first-choice line."""
    field = make_field(*field_args)
    cfg = SearchConfig(field=field, **cfg_args)
    plane = Plane.of(field)
    searcher = _Searcher(cfg, plane, candidates, fixed, node_budget, best_floor)
    for line_id in fixed:
        searcher._apply(line_id)
    searcher._apply(candidates[first_idx])
    searcher._extend(first_idx + 1)
    return searcher.best, searcher.witnesses, searcher.nodes, searcher.budget_hit, searcher.stop


def max_triple_search(cfg: SearchConfig,
                      candidate_order: Optional[list[int]] = None) -> SearchReport:
    """Maximize the triple-point count over s-line subsets of PG(2,q)."""
    plane = Plane.of(cfg.field)
    notes = []
    n_lines = len(plane.lines)
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
        pool = [i for i in range(n_lines) if i not in set(fixed)]
        notes.append("frame normalization on: search restricted to arrangements "
                     "through x, y, z, x+y+z (covers every arrangement with four "
                     "lines in general position up to projectivity)")
    else:
        pool = list(range(n_lines))
    if candidate_order is not None:
        pool = [i for i in candidate_order if i in set(pool)]

    best_floor = -1

    if cfg.threads > 1 and cfg.s > len(fixed):
        reports = []
        remaining_needed = cfg.s - len(fixed) - 1
        last = len(pool) - 1 - remaining_needed
        field_args = (cfg.field.p, cfg.field.k, list(cfg.field.modulus))
        cfg_args = dict(s=cfg.s, target=cfg.target, metric=cfg.metric,
                        normalize_frame=cfg.normalize_frame, max_nodes=cfg.max_nodes,
                        threads=1)
        per_branch_budget = max(1, cfg.max_nodes // max(1, last + 1))
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool_exec:
            futures = [
                pool_exec.submit(_run_branch, field_args, cfg_args, fixed, pool,
                                 first, per_branch_budget, best_floor)
                for first in range(last + 1)
            ]
            for fut in futures:
                reports.append(fut.result())
        best = max((r[0] for r in reports), default=-1)
        witness_ids = [w for r in reports if r[0] == best for w in r[1]]
        nodes = sum(r[2] for r in reports) + 1
        budget_hit = any(r[3] for r in reports)
        target_stop = any(r[4] for r in reports)
    else:
        searcher = _Searcher(cfg, plane, pool, fixed, cfg.max_nodes, best_floor)
        searcher.run()
        best = searcher.best
        witness_ids = searcher.witnesses
        nodes = searcher.nodes
        budget_hit = searcher.budget_hit
        target_stop = searcher.stop

    if best < 0:
        best = 0
        witness_ids = []

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
            raise AssertionError("unsound witness escaped the search")
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
