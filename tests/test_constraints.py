"""Scenario systems: derivation, exhaustive solving, consequences, realization."""

import itertools
import random

import pytest

from triplelines.constraints import (
    CONSEQUENCES,
    ELEVEN_CASE_I,
    ELEVEN_CASE_II,
    SCENARIO_NAMES,
    TEN_CASE_A,
    TEN_CASE_B,
    TEN_E1,
    ConstraintSystem,
    build_system,
    consequence_check,
    construction,
    default_battery,
    realize,
    _scan_plan,
    solve_over,
)
from triplelines.errors import FieldTooLarge, UnsolvedAssignment
from triplelines.field import make_field, roots_of
from triplelines.incidence import profile
from triplelines.polynomial import IntPolynomial, poly_ring


# ---------------------------------------------------------------------------
# polynomial layer
# ---------------------------------------------------------------------------

def test_int_polynomial_arithmetic():
    (a, b), const = poly_ring(("a", "b"))
    p = (a + b) * (a - b)
    assert p == a * a - b * b
    assert (p - p).is_zero()
    F = make_field(7)
    val = p.evaluate({"a": F(3), "b": F(2)}, F)
    assert val == F(5)


def test_substitute_replaces_the_named_variables_only():
    (a, b), const = poly_ring(("a", "b"))
    assert (a * b - b).substitute({"a": b + const(1)}) == b * b
    assert (a * a - b).substitute({"a": const(0)}) == -b
    assert (a - b).substitute({}) == a - b


def test_collinearity_poly_reproduces_a_minus_bc():
    # third forced triple of the TEN_E1 frame expands to a - bc
    eqs = build_system(TEN_E1).equations
    (a, b, c, d), const = poly_ring(("a", "b", "c", "d"))
    assert eqs[2] == (a - b * c).content_normalized()


def test_construction_lifts_int_frame_coefficients_into_the_ring():
    F = make_field(5)
    labels, g = construction(TEN_CASE_B, {"a": F(3), "b": F(1), "c": F(2)}, F.one)
    assert labels == tuple(f"L_{i}" for i in range(1, 7)) + ("M_1", "M_2", "M_3", "M_4")
    assert g["L_1"] == (F(1), F(0), F(0))
    assert g["L_4"] == (F(3), F(1), F(1))      # (a, -a-1, 1) at a = 3
    assert all(type(c) is type(F.one) for triple in g.values() for c in triple)
    (a, b, c), const = poly_ring(("a", "b", "c"))
    _, g = construction(TEN_CASE_B, {"a": a, "b": b, "c": c}, const(1))
    assert g["L_4"] == (a, -a - 1, const(1))


def test_case_b_fourth_equation_is_ac_minus_bc_minus_b_plus_c():
    # the one derived equation that the published fixtures do not pin, since
    # the paper prints it reduced to a+bc; README states it as ac-bc-b+c
    (a, b, c), const = poly_ring(("a", "b", "c"))
    assert build_system(TEN_CASE_B).equations[3] == a * c - b * c - b + c


# ---------------------------------------------------------------------------
# the published systems versus the systems derived from each construction
# ---------------------------------------------------------------------------

def _published_systems():
    """The systems as printed in the source paper: name -> (equations, groups)."""
    (a, b, c, d), one = poly_ring(("a", "b", "c", "d"))
    abcd = (a - b - c + d, -a * d + a - c + d, a - b * c, b * c - d)
    abcd_groups = ((a,), (b,), (c,), (d,), (b - d - a + c + a * d - b * c,))
    pencil = -a * b + a + b * c - one(1)
    extra = a * d - a + b - d
    (a, b, c), one = poly_ring(("a", "b", "c"))
    case_b = ((a * b + a * c + a - b * c, a * c + a - b + c, a * b + c, a + b * c),
              ((a,), (b,), (c,), (a - b,), (a - c,), (b - c,)))
    (a, b), one = poly_ring(("a", "b"))
    case_ii = ((-a * a + a * b * b + a * b - b * b, a * a - a * b * b + a * b - a,
                -a * b * b + a * b - a + b * b, a * a - a * b - a + b * b),
               # L_4 != L_5, i.e. (a, b) != (1, 1)
               ((a,), (b,), (a - one(1), b - one(1))))
    return {
        TEN_E1: (abcd + (pencil,), abcd_groups),
        TEN_CASE_A: (abcd + (pencil,), abcd_groups),
        ELEVEN_CASE_I: (abcd + (extra,), abcd_groups),
        TEN_CASE_B: case_b,
        ELEVEN_CASE_II: case_ii,
    }


@pytest.fixture(scope="module")
def published():
    return _published_systems()


def _published_variant(name, published):
    """build_system(name) with the published equations and inequations."""
    system = build_system(name)
    equations, groups = published[name]
    return ConstraintSystem(name, system.variables, equations, groups,
                            system.post_checks)


def _reduced(name, i):
    # the published fourth TEN_CASE_B condition, a+bc, is the collinearity
    # determinant reduced by the other equations
    return name == TEN_CASE_B and i == 3


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_derived_and_stored_zero_sets_agree_on_random_points(name, published):
    """Zero-set agreement on 200 random GF(101) points, equation by equation.

    All equations except the reduced fourth TEN_CASE_B condition also agree
    as polynomials up to sign, which is asserted exactly.
    """
    system = build_system(name)
    stored, _ = published[name]
    assert len(stored) == len(system.equations)
    F101 = make_field(101)
    rng = random.Random(101)
    for i, (dpoly, spoly) in enumerate(zip(system.equations, stored)):
        if _reduced(name, i):
            continue
        assert dpoly == spoly.content_normalized(), f"equation {i}"
        for _ in range(200):
            point = {v: F101(rng.randrange(101)) for v in system.variables}
            assert (dpoly.evaluate(point, F101).is_zero()
                    == spoly.evaluate(point, F101).is_zero())


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_derived_inequation_groups_match_the_published_ones(name, published):
    # same groups, same members in the same order, each up to sign
    _, stored = published[name]
    derived = build_system(name).inequations
    assert [[p.content_normalized() for p in group] for group in stored] == \
        [list(group) for group in derived]


def test_case_b_reduced_equation_same_solution_set(published):
    """The published a+bc and the derived collinearity determinant cut the
    same solutions out of the rest of the system, over every battery field."""
    derived = build_system(TEN_CASE_B)
    stored = _published_variant(TEN_CASE_B, published)
    assert derived.equations[3] != stored.equations[3].content_normalized()
    for F in default_battery():
        want = [tuple(asg[v].index for v in stored.variables)
                for asg in solve_over(stored, F)]
        got = [tuple(asg[v].index for v in stored.variables)
               for asg in solve_over(derived, F)]
        assert want == got


def test_stored_system_shapes():
    e1 = build_system(TEN_E1)
    assert len(e1.equations) == 5 and e1.variables == ("a", "b", "c", "d")
    cb = build_system(TEN_CASE_B)
    assert len(cb.equations) == 4 and cb.variables == ("a", "b", "c")
    c2 = build_system(ELEVEN_CASE_II)
    assert len(c2.equations) == 4 and c2.variables == ("a", "b")
    c1 = build_system(ELEVEN_CASE_I)
    assert len(c1.equations) == 5
    assert build_system(TEN_CASE_A).post_checks[0][0] == "m1_avoids_w"


# ---------------------------------------------------------------------------
# exhaustive solutions over the battery
# ---------------------------------------------------------------------------

def test_ten_e1_solutions_only_char2_with_cube_root():
    system = build_system(TEN_E1)
    for F in default_battery():
        sols = solve_over(system, F)
        cube_roots = roots_of((1, 1, 1), F)
        if F.p == 2 and cube_roots:
            assert len(sols) == 2
            for asg in sols:
                a = asg["a"]
                assert (a * a + a + F.one).is_zero()
                assert asg["b"] == a * a
                assert asg["c"] == a * a
                assert asg["d"] == a
            assert {asg["a"] for asg in sols} == set(cube_roots)
        else:
            assert sols == []


def test_ten_e1_gf4_explicit_conjugate_pair(gf4):
    w = gf4.element([0, 1])
    sols = solve_over(build_system(TEN_E1), gf4)
    as_tuples = [tuple(asg[v] for v in ("a", "b", "c", "d")) for asg in sols]
    assert (w, w * w, w * w, w) in as_tuples
    assert (w * w, w, w, w * w) in as_tuples


def test_ten_case_a_always_empty():
    system = build_system(TEN_CASE_A)
    for F in default_battery():
        assert solve_over(system, F) == []
        # raw solutions agree with TEN_E1, the rejection is the post-check
        raw = solve_over(system, F, apply_post_checks=False)
        assert len(raw) == len(solve_over(build_system(TEN_E1), F))


def test_ten_case_b_unique_char5_solution():
    system = build_system(TEN_CASE_B)
    for F in default_battery():
        sols = solve_over(system, F)
        if F.p == 5:
            assert len(sols) == 1
            asg = sols[0]
            assert (asg["a"], asg["b"], asg["c"]) == (F(3), F(1), F(2))
        else:
            assert sols == []


def test_eleven_case_i_rejected_by_pencil_check():
    system = build_system(ELEVEN_CASE_I)
    for F in default_battery():
        assert solve_over(system, F) == []
    gf4 = make_field(2, 2)
    raw = solve_over(system, gf4, apply_post_checks=False)
    w = gf4.element([0, 1])
    values = [tuple(asg[v] for v in ("a", "b", "c", "d")) for asg in raw]
    assert (w, w * w, w * w, w) in values and (w * w, w, w, w * w) in values


def test_eleven_case_ii_empty_after_distinctness():
    system = build_system(ELEVEN_CASE_II)
    for F in default_battery():
        assert solve_over(system, F) == []
        # dropping the (a,b) != (1,1) condition leaves exactly that solution
        relaxed = ConstraintSystem(system.name, system.variables,
                                   system.equations, system.inequations[:2])
        assert [tuple(a[v].index for v in "ab") for a in solve_over(relaxed, F)] == [(1, 1)]


@pytest.mark.parametrize("name", [TEN_CASE_A, TEN_CASE_B, ELEVEN_CASE_I, ELEVEN_CASE_II])
@pytest.mark.parametrize("p, k", [(2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (2, 10), (3, 5), (3, 6)])
def test_scenarios_but_ten_e1_unsolvable_over_large_extension_fields(name, p, k):
    assert solve_over(build_system(name), make_field(p, k)) == []


@pytest.mark.parametrize("k", range(5, 11))
def test_ten_e1_over_gf2k_exactly_when_a_cube_root_of_unity_exists(k):
    # a^2 + a + 1 has roots in GF(2^k) iff 3 divides 2^k - 1, i.e. iff k is even
    F = make_field(2, k)
    sols = solve_over(build_system(TEN_E1), F)
    assert len(sols) == (2 if k % 2 == 0 else 0)
    assert {asg["a"] for asg in sols} == set(roots_of((1, 1, 1), F))


def test_solution_order_deterministic_and_equation_order_free(gf4):
    system = build_system(TEN_E1)
    shuffled = ConstraintSystem(system.name, system.variables,
                                tuple(reversed(system.equations)),
                                tuple(reversed(system.inequations)))
    a = [[asg[v].index for v in system.variables] for asg in solve_over(system, gf4)]
    b = [[asg[v].index for v in system.variables] for asg in solve_over(shuffled, gf4)]
    assert a == b


def _oracle_systems():
    """Every scenario, its equation-only variant, the published TEN_CASE_B and
    two synthetic systems for the scan's other paths: a^2-b^2 is linear in no
    variable, so one runs over the field; in ab-b both coefficients of a
    vanish at b = 0, where every a is a solution."""
    for name in SCENARIO_NAMES:
        system = build_system(name)
        yield name, system
        yield f"{name}/equations", ConstraintSystem(name, system.variables,
                                                    system.equations, ())
    yield "TEN_CASE_B/published", _published_variant(TEN_CASE_B, _published_systems())
    (a, b), _ = poly_ring(("a", "b"))
    yield "a^2-b^2", ConstraintSystem("squares", ("a", "b"), (a * a - b * b,), ())
    yield "ab-b", ConstraintSystem("pencil", ("a", "b"), (a * b - b,), ())


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_raw_solutions_match_brute_force_oracle(p, k):
    # every one of the q^n assignments, evaluated term by term
    F = make_field(p, k)
    for label, system in _oracle_systems():
        want = []
        for values in itertools.product(F.elements(), repeat=len(system.variables)):
            asg = dict(zip(system.variables, values))
            if (all(eq.evaluate(asg, F).is_zero() for eq in system.equations)
                    and all(not all(p.evaluate(asg, F).is_zero() for p in group)
                            for group in system.inequations)):
                want.append(tuple(v.index for v in values))
        got = [tuple(asg[v].index for v in system.variables)
               for asg in solve_over(system, F, apply_post_checks=False)]
        assert got == want, label


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scan_solves_one_variable_of_every_scenario(name):
    # q assignments per field, not q^2: some equation is linear in a free
    # variable once the eliminated ones are substituted
    system = build_system(name)
    fill, others, v, c1, c0 = _scan_plan(system.variables, system.equations)
    assert len(others) == 1 and not c1.is_zero()


def test_field_too_large_guard():
    system = build_system(ELEVEN_CASE_II)
    with pytest.raises(FieldTooLarge):
        solve_over(system, make_field(65537))


# ---------------------------------------------------------------------------
# consequence checks
# ---------------------------------------------------------------------------

def test_eleven_case_ii_consequences_on_equation_variety():
    mode, polys = CONSEQUENCES[ELEVEN_CASE_II]
    assert mode == "equations"
    rep = consequence_check(build_system(ELEVEN_CASE_II), polys,
                            default_battery(), mode=mode)
    assert rep.ok
    # non-vacuous: (0,0) and (1,1) solve the equations in every field
    assert rep.checked == 2 * len(default_battery())


def test_ten_case_b_consequence_b_squared_one():
    mode, polys = CONSEQUENCES[TEN_CASE_B]
    rep = consequence_check(build_system(TEN_CASE_B), polys,
                            default_battery(), mode=mode)
    assert rep.ok and rep.checked == 2  # (3,1,2) over GF(5) and GF(25)


def test_ten_e1_consequence_cube_root_condition():
    mode, polys = CONSEQUENCES[TEN_E1]
    char2 = [F for F in default_battery() if F.p == 2]
    rep = consequence_check(build_system(TEN_E1), polys, char2, mode=mode)
    assert rep.ok and rep.checked == 4  # two solutions over GF(4), two over GF(16)


def test_consequence_violation_is_reported_with_witness():
    system = build_system(TEN_CASE_B)
    wrong = IntPolynomial(("a", "b", "c"), {(0, 0, 0): 1})  # the constant 1
    rep = consequence_check(system, [wrong], [make_field(5)])
    assert not rep.ok
    v = rep.violations[0]
    assert v.field == make_field(5)
    assert v.assignment["a"] == make_field(5)(3)


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

#: the t-vector a solution of each scenario realizes
SCENARIO_TARGET_TVEC = {
    TEN_E1: {4: 1, 3: 12, 2: 3},
    TEN_CASE_A: {3: 13, 2: 6},
    TEN_CASE_B: {3: 13, 2: 6},
    ELEVEN_CASE_I: {3: 17, 2: 4},
    ELEVEN_CASE_II: {3: 17, 2: 4},
}


def test_realized_solutions_hit_target_tvec_over_battery():
    for name in SCENARIO_NAMES:
        system = build_system(name)
        for F in default_battery():
            for asg in solve_over(system, F):
                A = realize(name, asg, F)
                assert profile(A).tvec == SCENARIO_TARGET_TVEC[name], (name, F)


def test_realize_eleven_case_i_exhibits_pencil_contradiction(gf4):
    raw = solve_over(build_system(ELEVEN_CASE_I), gf4, apply_post_checks=False)
    A = realize(ELEVEN_CASE_I, raw[0], gf4)
    prof = profile(A)
    assert prof.tvec.get(5) == 1          # the five forced lines concur
    assert prof.tvec != SCENARIO_TARGET_TVEC[ELEVEN_CASE_I]


def test_realize_rejects_non_solutions(gf4):
    zero = gf4.zero
    with pytest.raises(UnsolvedAssignment):
        realize(TEN_E1, {"a": zero, "b": zero, "c": zero, "d": zero}, gf4)
    one = make_field(5)(1)
    with pytest.raises(UnsolvedAssignment):
        realize(ELEVEN_CASE_II, {"a": one, "b": one}, make_field(5))
