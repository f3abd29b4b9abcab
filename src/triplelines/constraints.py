"""Incidence scenarios as polynomial systems over finite fields.

Each scenario fixes a coordinate frame for some of the lines, and its
construction (frame lines, joins and meets, incidence conditions and
non-degeneracy pairs) is written once, as a recipe, over any commutative ring:
its frame is a function of the scenario's variables that returns the frame
lines' coefficient triples, such as (a, -a - 1, 1). Over integer polynomials
the recipe gives the scenario's system: each prescribed collinearity/
concurrency "X on Y" becomes the equation <X, Y> = 0 and each non-degeneracy
group "X off Y, or ..." an inequation group. The system is solved over any
finite field by enumerating the variables the equations do not give
outright, but one, which an equation linear in it solves. Geometric side conditions that are awkward as polynomials
(membership of a pencil, a forbidden extra incidence) are post-checks on
candidate solutions; over a finite field the same recipe drives them and
realize(). The systems printed in the source paper are kept verbatim as test
fixtures, which check that the derived systems agree with them.

Five scenarios are built in:

  TEN_E1         ten lines, one 4-fold point W and twelve triple points;
                 frame x, y, z, x+y+z, ax+by+z, cx+dy+z.
  TEN_CASE_A     ten lines, thirteen triple points, the three lines through
                 the double points of M_1 meeting in a single point W;
                 same equations as TEN_E1 plus the requirement that M_1
                 misses W (which always fails).
  TEN_CASE_B     ten lines, thirteen triple points, triangle variant;
                 frame x, y, z, ax-(a+1)y+z, bx-(b+1)y+z, cx-(c+1)y+z.
  ELEVEN_CASE_I  eleven lines, seventeen triple points, the join of the two
                 special double-point hubs is a configuration line.
  ELEVEN_CASE_II eleven lines, seventeen triple points, that join is not a
                 configuration line; frame x, y, z, x+y+z, ax+by+z.

Two certificates (certificates.py) are realizations of these recipes, read
through construction(): TEN_E1 is the TEN_E1 construction at (a, b, c, d) =
(a, a^2, a^2, a) with a^2+a+1 = 0 in characteristic 2, and TEN_E2 is the
TEN_CASE_B construction at (a, b, c) = (3, 1, 2) in characteristic 5.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, NamedTuple, Sequence

from .errors import IdenticalArguments, UnsolvedAssignment
from .field import FieldElement, FieldSpec, make_field, prime_power
from .incidence import Arrangement
from .polynomial import IntPolynomial, poly_ring
from .projective import FRAME_COORDS, ProjLine, cross, incident, inner, meet

TEN_E1 = "TEN_E1"
TEN_CASE_A = "TEN_CASE_A"
TEN_CASE_B = "TEN_CASE_B"
ELEVEN_CASE_I = "ELEVEN_CASE_I"
ELEVEN_CASE_II = "ELEVEN_CASE_II"

SCENARIO_NAMES = (TEN_E1, TEN_CASE_A, TEN_CASE_B, ELEVEN_CASE_I, ELEVEN_CASE_II)

#: fields used to probe "over which fields does this exist" questions:
#: characteristics 2, 3, 5, 7, 11, 13 with the extensions that carry the
#: roots of unity the scenarios need. Evidence is per field, not a proof
#: for all fields.
DEFAULT_BATTERY_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)


def default_battery() -> list[FieldSpec]:
    return [make_field(*prime_power(q)) for q in DEFAULT_BATTERY_ORDERS]


class ConstraintSystem(NamedTuple):
    """Equations (= 0), inequations (not all of a group = 0), post-checks."""

    name: str
    variables: tuple
    equations: tuple            # IntPolynomial, each must vanish
    inequations: tuple          # tuple of tuples of IntPolynomial: in each
                                # group at least one member must be nonzero
    post_checks: tuple = ()     # (name, fn(assignment, F) -> bool), True keeps

    def keeps(self, asg: dict, F: FieldSpec) -> bool:
        """True if a raw solution over F passes every post-check."""
        return all(fn(asg, F) for _, fn in self.post_checks)


class ConsequenceViolation(NamedTuple):
    field: FieldSpec
    assignment: dict
    consequence: IntPolynomial


class ConsequenceReport(NamedTuple):
    system: str
    mode: str
    checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# scenario geometry, written once over any commutative ring
# ---------------------------------------------------------------------------

#: L_5 and L_6 avoid the vertices P_23 and P_13 of the triangle x, y, z
#: (a, b, c, d nonzero), and L_4, L_5, L_6 are not concurrent
_NONDEGENERATE_ABCD = ((("P_23", "L_5"),), (("P_13", "L_5"),), (("P_23", "L_6"),),
                       (("P_13", "L_6"),), (("P_45", "L_6"),))


def _frame_abcd(a, b, c, d):
    return FRAME_COORDS + ((a, b, 1), (c, d, 1))


class _Recipe(NamedTuple):
    """A scenario's construction from its frame, valid over any ring.

    `frame` maps values of `variables`, in order, to the coefficient triples
    of the frame lines L_1, L_2, ...; an int coefficient stands for that
    multiple of the ring's one. P_ij names the meet of L_i and L_j. A step
    (X, U, V) makes X the cross product of U and V: the join of two points or
    the meet of two lines. A condition (X, Y) says that point X lies on line
    Y; in order, the conditions are the scenario's equations. Each
    non-degeneracy group lists pairs (X, Y) of which at least one must have X
    off Y; in order, the groups are the scenario's inequations. Identities are
    incidences that hold in the frame for every value of the variables.
    `lines` are the constructed lines that complete the arrangement.
    """

    variables: tuple
    frame: Callable
    steps: tuple
    conditions: tuple
    nondegenerate: tuple
    lines: tuple
    identities: tuple = ()

    @property
    def line_labels(self) -> tuple:
        """The frame lines L_1, L_2, ... followed by the constructed lines."""
        n = len(self.frame(*(0,) * len(self.variables)))   # the same at any values
        return tuple(f"L_{i}" for i in range(1, n + 1)) + self.lines

    def construct(self, values: dict, one) -> dict:
        """Coordinate triples of every named line and point, in the ring of `one`.

        Raises IdenticalArguments when a cross product vanishes, that is when
        a step joins two equal points or meets two equal lines.
        """
        frame = self.frame(*(values[v] for v in self.variables))
        g = {f"L_{i}": tuple(one * c if isinstance(c, int) else c for c in row)
             for i, row in enumerate(frame, 1)}
        meets = [(f"P_{i}{j}", f"L_{i}", f"L_{j}")
                 for i, j in itertools.combinations(range(1, len(frame) + 1), 2)]
        for name, u, v in itertools.chain(meets, self.steps):
            w = cross(g[u], g[v])
            if all(c.is_zero() for c in w):
                raise IdenticalArguments(f"{name}: {u} and {v} coincide")
            g[name] = w
        return g


_TEN_E1_RECIPE = _Recipe(
    ("a", "b", "c", "d"), _frame_abcd,
    # the four lines through the 4-fold point W, each through a forced
    # collinear triple of frame points, and W itself
    steps=(("M_1", "P_12", "P_34"), ("M_2", "P_13", "P_25"),
           ("M_3", "P_14", "P_26"), ("M_4", "P_15", "P_24"), ("W", "M_2", "M_3")),
    conditions=(("P_56", "M_1"), ("P_46", "M_2"), ("P_35", "M_3"),
                ("P_36", "M_4"), ("W", "M_4")),
    nondegenerate=_NONDEGENERATE_ABCD,
    lines=("M_1", "M_2", "M_3", "M_4"))

_RECIPES = {
    TEN_E1: _TEN_E1_RECIPE,
    TEN_CASE_A: _TEN_E1_RECIPE,
    ELEVEN_CASE_I: _Recipe(
        ("a", "b", "c", "d"), _frame_abcd,
        # the same four forced triples plus the one on the extra line T_5
        steps=(("T_1", "P_12", "P_34"), ("T_2", "P_13", "P_25"), ("T_3", "P_14", "P_26"),
               ("T_4", "P_15", "P_24"), ("T_5", "P_16", "P_23")),
        conditions=(("P_56", "T_1"), ("P_46", "T_2"), ("P_35", "T_3"),
                    ("P_36", "T_4"), ("P_45", "T_5")),
        nondegenerate=_NONDEGENERATE_ABCD,
        lines=("T_1", "T_2", "T_3", "T_4", "T_5")),
    TEN_CASE_B: _Recipe(
        ("a", "b", "c"),
        lambda a, b, c: FRAME_COORDS[:3] + ((a, -a - 1, 1), (b, -b - 1, 1), (c, -c - 1, 1)),
        steps=(("M_1", "P_14", "P_25"), ("M_2", "P_12", "P_34"), ("M_3", "P_15", "P_23"),
               ("M_4", "P_13", "P_26"), ("Z_1", "M_3", "M_4"), ("Z_2", "M_2", "M_4"),
               ("Z_3", "M_2", "M_3")),
        conditions=(("Z_1", "L_4"), ("Z_2", "L_5"), ("Z_3", "L_6"), ("P_36", "M_1")),
        # a, b, c nonzero and pairwise distinct: L_4, L_5, L_6 avoid the
        # vertex P_23 and meet L_1 in three distinct points
        nondegenerate=((("P_23", "L_4"),), (("P_23", "L_5"),), (("P_23", "L_6"),),
                       (("P_45", "L_1"),), (("P_46", "L_1"),), (("P_56", "L_1"),)),
        lines=("M_1", "M_2", "M_3", "M_4")),
    ELEVEN_CASE_II: _Recipe(
        ("a", "b"),
        lambda a, b: FRAME_COORDS + ((a, b, 1),),
        steps=(("M_1", "P_12", "P_34"), ("M_2", "P_15", "P_23"),
               ("N_1", "P_14", "P_25"), ("N_2", "P_24", "P_35"),
               ("W_1", "M_1", "M_2"), ("W_2", "N_1", "N_2"),
               ("M_3", "W_1", "P_45"), ("N_3", "W_2", "P_13"),
               ("Z_1", "M_3", "N_2"), ("Z_2", "M_3", "N_3"), ("Z_3", "M_3", "N_1"),
               ("Z_4", "M_2", "N_3"), ("Z_5", "M_1", "N_3")),
        conditions=(("Z_1", "L_1"), ("Z_3", "L_3"), ("Z_4", "L_4"), ("Z_5", "L_5")),
        # a, b nonzero, and L_5 != L_4: L_5 misses P_24 or P_14, i.e. (a, b) != (1, 1)
        nondegenerate=((("P_23", "L_5"),), (("P_13", "L_5"),),
                       (("P_24", "L_5"), ("P_14", "L_5"))),
        lines=("M_1", "M_2", "N_1", "N_2", "M_3", "N_3"),
        identities=(("Z_2", "L_2"),)),
}


#: consequence polynomials published for the scenarios, with the solution
#: pool each claim quantifies over ("raw" = equations + inequations without
#: post-checks, "equations" = the bare equation variety)
CONSEQUENCES = {
    ELEVEN_CASE_II: ("equations", (
        IntPolynomial(("a", "b"), {(1, 0): 3, (0, 2): -3}),                  # 3(a-b^2)
        IntPolynomial(("a", "b"), {(1, 1): 1, (0, 2): -2, (1, 0): 1}),       # ab-2b^2+a
        IntPolynomial(("a", "b"), {(2, 0): 1, (1, 1): -1, (0, 2): 1,
                                   (1, 0): -1}),                             # a^2-ab+b^2-a
    )),
    TEN_CASE_B: ("raw", (
        IntPolynomial(("a", "b", "c"), {(0, 2, 0): 1, (0, 0, 0): -1}),       # b^2-1
    )),
    TEN_E1: ("raw", (
        IntPolynomial(("a", "b", "c", "d"), {(2, 0, 0, 0): 1, (1, 0, 0, 0): 1,
                                             (0, 0, 0, 0): 1}),              # a^2+a+1
    )),
}


# ---------------------------------------------------------------------------
# geometric post-checks
# ---------------------------------------------------------------------------

def _case_a_keep(asg: dict, F: FieldSpec) -> bool:
    """Keep solutions where M_1 avoids the common point W of M_2..M_4."""
    try:
        g = _RECIPES[TEN_CASE_A].construct(asg, F.one)
    except IdenticalArguments:
        return False
    return inner(g["W"], g["M_4"]).is_zero() and not inner(g["W"], g["M_1"]).is_zero()


def _case_i_keep(asg: dict, F: FieldSpec) -> bool:
    """Keep solutions where the five forced lines do not form a pencil."""
    recipe = _RECIPES[ELEVEN_CASE_I]
    try:
        g = recipe.construct(asg, F.one)
    except IdenticalArguments:
        return False
    lines = [ProjLine(F, g[name]) for name in recipe.lines]
    if len(set(lines)) != 5:
        return False
    hub = meet(lines[0], lines[1])
    return not all(incident(hub, t) for t in lines[2:])


_POST_CHECKS = {
    TEN_CASE_A: (("m1_avoids_w", _case_a_keep),),
    ELEVEN_CASE_I: (("not_a_pencil", _case_i_keep),),
}


def construction(name: str, values: dict, one) -> tuple[tuple, dict]:
    """A scenario's line labels (frame lines first) and the coordinate triples
    of every named line and point at `values` of its variables, in the ring of
    `one`. Raises IdenticalArguments when a join or meet degenerates."""
    recipe = _RECIPES[name]
    return recipe.line_labels, recipe.construct(values, one)


def build_system(name: str) -> ConstraintSystem:
    """A scenario's system, expanded from its recipe over integer polynomials.

    Each condition "X on Y" gives the equation <X, Y> = 0 and each pair
    "X off Y" of a non-degeneracy group one member <X, Y>, with integer
    content 1 and a positive leading term.
    """
    if name not in _RECIPES:
        raise ValueError(f"unknown scenario {name!r}")
    recipe = _RECIPES[name]
    gens, const = poly_ring(recipe.variables)
    g = recipe.construct(dict(zip(recipe.variables, gens)), const(1))
    for x, y in recipe.identities:
        if not inner(g[x], g[y]).is_zero():
            raise RuntimeError(f"{name}: {x} on {y} does not hold identically")

    def pairing(x: str, y: str) -> IntPolynomial:
        return inner(g[x], g[y]).content_normalized()

    return ConstraintSystem(
        name, recipe.variables,
        tuple(pairing(x, y) for x, y in recipe.conditions),
        tuple(tuple(pairing(x, y) for x, y in group) for group in recipe.nondegenerate),
        _POST_CHECKS.get(name, ()))


# ---------------------------------------------------------------------------
# exhaustive solving
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _scan_plan(variables: tuple, equations: tuple) -> tuple:
    """How _survivors scans a system: (fill, others, v, c1, c0).

    An equation c*u + r with c = +-1 and u not in r gives u = -c*r over every
    ring. Walking the equations in order, at most one such u is taken per
    equation, and its r may not contain a variable taken before it; if every
    variable is taken, the last one stays free. Substituted into each other
    in reverse order, the values depend on free variables only: fill pairs
    each taken position with its value. v is the free position solved by the
    first equation that, with fill substituted, reads c1*v + c0 with c1 and
    c0 free of v; without one, c1 = c0 = 0 and v runs over the field. The
    other free positions are `others`.
    """
    n = len(variables)
    chosen: dict[int, IntPolynomial] = {}
    for eq in equations:
        for i in range(n):
            unit = tuple(int(j == i) for j in range(n))
            c = eq.terms.get(unit)
            rest = {e: k for e, k in eq.terms.items() if e != unit}
            occurs = {j for e in rest for j, x in enumerate(e) if x}
            if c in (1, -1) and i not in chosen and not occurs & (chosen.keys() | {i}):
                chosen[i] = -c * IntPolynomial(variables, rest)
                break
    if len(chosen) == n:
        chosen.popitem()
    values: dict[str, IntPolynomial] = {}
    for i in reversed(chosen):
        values[variables[i]] = chosen[i].substitute(values)
    fill = tuple((variables.index(name), value) for name, value in values.items())
    free = [i for i in range(n) if i not in chosen]
    reduced = (eq.substitute(values).terms for eq in equations)
    v, terms = next(((u, t) for t in reduced for u in free
                     if max((e[u] for e in t), default=0) == 1), (free[0], {}))
    c1 = {e[:v] + (0,) + e[v + 1:]: c for e, c in terms.items() if e[v]}
    c0 = {e: c for e, c in terms.items() if not e[v]}
    return (fill, tuple(i for i in free if i != v), v,
            IntPolynomial(variables, c1), IntPolynomial(variables, c0))


def _survivors(system: ConstraintSystem, F: FieldSpec) -> list[tuple]:
    """Sorted index tuples of the assignments meeting equations and inequations.

    The plan's `others` run over F; for each of their values v is -c0/c1, or
    every element where c1 = c0 = 0, or none where only c1 vanishes. The
    eliminated variables are filled in and every candidate is checked against
    all equations and inequations. Each term is (coefficient, variable
    positions repeated by exponent), evaluated through the field's tables.
    """
    ADD, MUL, NEG, INV = F.add_table, F.mul_table, F.neg_table, F.inv_table

    def compiled(poly: IntPolynomial) -> list:
        return [(F.from_int(c).index, [i for i, e in enumerate(exps) for _ in range(e)])
                for exps, c in poly.terms.items()]

    def value(terms: list, x: list) -> int:
        acc = 0
        for t, factors in terms:
            for i in factors:
                t = MUL[t][x[i]]
            acc = ADD[acc][t]
        return acc

    fill, others, v, c1, c0 = _scan_plan(system.variables, system.equations)
    fill = [(i, compiled(p)) for i, p in fill]
    c1, c0 = compiled(c1), compiled(c0)
    x = [0] * len(system.variables)
    equations = [compiled(p) for p in system.equations]
    groups = [[compiled(p) for p in group] for group in system.inequations]
    every = range(F.order)
    found = []
    for point in itertools.product(every, repeat=len(others)):
        for i, w in zip(others, point):
            x[i] = w
        k1, k0 = value(c1, x), value(c0, x)
        for x[v] in (MUL[NEG[k0]][INV[k1]],) if k1 else () if k0 else every:
            for i, terms in fill:
                x[i] = value(terms, x)
            if (all(value(eq, x) == 0 for eq in equations)
                    and all(any(value(p, x) for p in group) for group in groups)):
                found.append(tuple(x))
    return sorted(found)


def solve_over(system: ConstraintSystem, F: FieldSpec, *,
               apply_post_checks: bool = True) -> list[dict]:
    """All assignments over F satisfying the system, in lexicographic order.

    Every built-in scenario scans q assignments (see _scan_plan): 0.1-0.3 ms
    at GF(27) and 6-9 ms at GF(1021) on a Xeon VM with Python 3.11. The
    survivors of the polynomial constraints then run the geometric post-checks.
    """
    out = [{v: FieldElement(F, i) for v, i in zip(system.variables, x)}
           for x in _survivors(system, F)]
    if apply_post_checks:
        out = [asg for asg in out if system.keeps(asg, F)]
    return out


def consequence_check(system: ConstraintSystem, consequences: Sequence[IntPolynomial],
                      battery: Sequence[FieldSpec], *,
                      mode: str = "raw") -> ConsequenceReport:
    """Check that consequence polynomials vanish on every solution.

    mode="raw" quantifies over solutions of equations plus inequations
    (post-checks never apply); mode="equations" over the bare equation
    variety including degenerate assignments.
    """
    if mode not in ("raw", "equations"):
        raise ValueError(f"unknown mode {mode!r}")
    violations = []
    checked = 0
    for F in battery:
        probe = system if mode == "raw" else ConstraintSystem(
            system.name, system.variables, system.equations, ())
        for asg in solve_over(probe, F, apply_post_checks=False):
            checked += 1
            for cons in consequences:
                if not cons.evaluate(asg, F).is_zero():
                    violations.append(ConsequenceViolation(F, asg, cons))
    return ConsequenceReport(system.name, mode, checked, tuple(violations))


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

def _require_raw_solution(system: ConstraintSystem, asg: dict, F: FieldSpec) -> None:
    for eq in system.equations:
        if not eq.evaluate(asg, F).is_zero():
            raise UnsolvedAssignment(
                f"{dict_repr(asg)} does not satisfy {eq!r} over {F!r}")
    for group in system.inequations:
        if all(p.evaluate(asg, F).is_zero() for p in group):
            raise UnsolvedAssignment(
                f"{dict_repr(asg)} violates a non-degeneracy condition over {F!r}")


def dict_repr(asg: dict) -> str:
    return "{" + ", ".join(f"{k}={v!r}" for k, v in asg.items()) + "}"


def realize(name: str, asg: dict, F: FieldSpec) -> Arrangement:
    """The full 10- or 11-line arrangement a scenario solution describes.

    Accepts any raw solution (equations and inequations); the equations are
    the scenario's incidence conditions, so they hold in the arrangement. The
    geometric contradiction of a rejected scenario can then be inspected on
    the resulting arrangement's profile.
    """
    _require_raw_solution(build_system(name), asg, F)
    labels, g = construction(name, asg, F.one)
    return Arrangement(F, [ProjLine(F, g[label]) for label in labels], labels)
