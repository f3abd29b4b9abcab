"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is exact (integer arithmetic, zero tolerance); the asserted
runtime budgets are the stated desk-scale limits. Field construction is a
session-level cache and is warmed before timing.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import itertools
import random
import time

import pytest

from conftest import random_arrangement

from triplelines.bounds import schoenheim_u3
from triplelines.certificates import dual_hesse_from_pg23, instantiate, verify
from triplelines.constraints import (
    CONSEQUENCES,
    ELEVEN_CASE_I,
    ELEVEN_CASE_II,
    TEN_CASE_A,
    TEN_CASE_B,
    TEN_E1,
    build_system,
    consequence_check,
    default_battery,
    solve_over,
)
from triplelines.field import make_field, roots_of
from triplelines.incidence import (
    Arrangement,
    check_identity,
    parity_check,
    profile,
    remove_line,
)
from triplelines.projective import (
    ProjPoint,
    as_line,
    enumerate_lines,
    enumerate_points,
    incident,
    join,
    meet,
)
from triplelines.search import SearchConfig, max_triple_search
from triplelines.torsion import torsion_dual_counts, torsion_model


def _report(number: int, label: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} criterion {number}: {label} "
          f"({elapsed:.3f}s, budget {budget:g}s)")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.3f}s"


@pytest.fixture(scope="module", autouse=True)
def warm_fields():
    for F in default_battery():
        F.elements()
    make_field(19)


def test_criterion_1_bounds_table():
    schoenheim_u3(12)                       # warm
    start = time.perf_counter()
    values = [schoenheim_u3(s) for s in range(1, 13)]
    elapsed = time.perf_counter() - start
    ok = values == [0, 0, 1, 1, 2, 4, 7, 8, 12, 13, 17, 20]
    _report(1, "Schoenheim U3(1..12) published row", ok, elapsed, 0.001)


def test_criterion_2_fano_characteristic_wall():
    start = time.perf_counter()
    r2 = max_triple_search(SearchConfig(field=make_field(2), s=7,
                                        normalize_frame=False))
    e2 = time.perf_counter() - start
    start = time.perf_counter()
    r3 = max_triple_search(SearchConfig(field=make_field(3), s=7,
                                        normalize_frame=False))
    e3 = time.perf_counter() - start
    start = time.perf_counter()
    r5 = max_triple_search(SearchConfig(field=make_field(5), s=7))
    e5 = time.perf_counter() - start
    ok = (r2.best == 7 and r2.exhaustive
          and r3.best == 6 and r3.exhaustive
          and r5.best == 6 and r5.exhaustive)
    _report(2, "7 lines / 7 triples only over GF(2); 6 over GF(3), GF(5)",
            ok, max(e2, e3, e5), 10.0)


def test_criterion_3_certificate_suite():
    cases = [
        ("TEN_E1", make_field(2, 2), {4: 1, 3: 12, 2: 3}),
        ("TEN_E1", make_field(2, 4), {4: 1, 3: 12, 2: 3}),
        ("TEN_E2", make_field(5), {3: 13, 2: 6}),
        ("TEN_E2", make_field(5, 2), {3: 13, 2: 6}),
        ("ELEVEN_16", make_field(5), {3: 16, 2: 7}),
        ("ELEVEN_16", make_field(11), {3: 16, 2: 7}),
        ("ELEVEN_16", make_field(19), {3: 16, 2: 7}),
        ("FANO", make_field(2), {3: 7}),
        ("DUAL_HESSE", make_field(3), {3: 12}),
        ("MOEBIUS_KANTOR", make_field(3), {3: 8, 2: 4}),
    ]
    start = time.perf_counter()
    ok = True
    for name, F, tvec in cases:
        rep = verify(name, F)
        ok = ok and rep.ok and rep.tvec_actual == tvec
    # the removal construction itself
    dh = dual_hesse_from_pg23()
    ok = ok and profile(remove_line(dh, 0)).tvec == {3: 8, 2: 4}
    elapsed = time.perf_counter() - start
    _report(3, "all certificates verify with exact t-vectors and tables",
            ok, elapsed, 1.0)


def test_criterion_4_constraint_systems():
    battery = default_battery()
    start = time.perf_counter()
    ok = True
    sols_by_field = {}
    for F in battery:
        sols = solve_over(build_system(TEN_E1), F)
        sols_by_field[F] = sols
        if F.p == 2 and roots_of((1, 1, 1), F):
            good = bool(sols) and all(
                (a["a"] ** 2 + a["a"] + F.one).is_zero()
                and a["b"] == a["a"] ** 2 and a["c"] == a["a"] ** 2
                and a["d"] == a["a"]
                for a in sols)
            ok = ok and good
        else:
            ok = ok and sols == []
    for F in battery:
        sols = solve_over(build_system(TEN_CASE_B), F)
        if F.p == 5:
            ok = ok and [tuple(a[v].index for v in "abc") for a in sols] == [(3, 1, 2)]
        else:
            ok = ok and sols == []
    for F in battery:
        ok = ok and solve_over(build_system(ELEVEN_CASE_I), F) == []
        ok = ok and solve_over(build_system(ELEVEN_CASE_II), F) == []
        ok = ok and solve_over(build_system(TEN_CASE_A), F) == []
    elapsed = time.perf_counter() - start
    _report(4, "published solution sets reproduced exactly over the battery",
            ok, elapsed, 30.0)


def test_criterion_5_consequence_checks():
    battery = default_battery()
    start = time.perf_counter()
    mode_ii, cons_ii = CONSEQUENCES[ELEVEN_CASE_II]
    rep_ii = consequence_check(build_system(ELEVEN_CASE_II), cons_ii, battery,
                               mode=mode_ii)
    mode_b, cons_b = CONSEQUENCES[TEN_CASE_B]
    rep_b = consequence_check(build_system(TEN_CASE_B), cons_b, battery,
                              mode=mode_b)
    mode_e1, cons_e1 = CONSEQUENCES[TEN_E1]
    rep_e1 = consequence_check(build_system(TEN_E1), cons_e1,
                               [F for F in battery if F.p == 2], mode=mode_e1)
    elapsed = time.perf_counter() - start
    ok = (rep_ii.ok and rep_ii.checked > 0
          and rep_b.ok and rep_b.checked > 0
          and rep_e1.ok and rep_e1.checked > 0)
    _report(5, "consequence polynomials vanish on all recorded solutions",
            ok, elapsed, 30.0)


def test_criterion_6_torsion_construction():
    start = time.perf_counter()
    m5 = torsion_model(5)
    d5 = torsion_dual_counts(5)
    m7 = torsion_model(7)
    d7 = torsion_dual_counts(7)
    elapsed = time.perf_counter() - start
    ok = (len(m5.secant[0]) == 92 and len(m5.tangent[0]) == 24
          and m5.num_lines == 116
          and len(m7.secant[0]) == 376 and len(m7.tangent[0]) == 48
          and d5.identity_holds and 3 * d5.t3 + d5.t2 == 300
          and d5.points_on_dual_of_zero == 12
          and d5.points_on_dual_of_nonzero == 13
          and d5.u3 - d5.t3 == 8 == (25 - 1) // 3
          and d7.identity_holds and d7.closed_forms_hold()
          and d5.closed_forms_hold())
    _report(6, "torsion counts match closed forms, identity and gap",
            ok, elapsed, 5.0)


def test_criterion_7_eleven_seventeen_unreachable():
    ok = True
    worst = 0.0
    for q, frame in ((2, False), (3, False), (4, False)):
        F = make_field(2, 2) if q == 4 else make_field(q)
        start = time.perf_counter()
        rep = max_triple_search(SearchConfig(field=F, s=11, target=17,
                                             normalize_frame=frame))
        worst = max(worst, time.perf_counter() - start)
        ok = (ok and rep.exhaustive and not rep.target_reached
              and any("per-field" in n for n in rep.notes))
    start = time.perf_counter()
    rep5 = max_triple_search(SearchConfig(field=make_field(5), s=11, target=17,
                                          normalize_frame=True))
    gf5_elapsed = time.perf_counter() - start
    ok = (ok and rep5.exhaustive and not rep5.target_reached
          and rep5.best <= 16
          and any("per-field" in n for n in rep5.notes))
    _report(7, "11 lines / 17 triples unreachable over GF(2..5), exhaustive",
            ok, max(worst, gf5_elapsed), 600.0)


def test_criterion_8_property_suites():
    start = time.perf_counter()
    ok = True

    # field axioms, q <= 9
    for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        F = make_field(p, k)
        elems = F.elements()
        for a in elems:
            ok = ok and a + (-a) == F.zero
            if not a.is_zero():
                ok = ok and a * a.inverse() == F.one
        for a, b, c in itertools.product(elems, repeat=3):
            ok = ok and (a + b) + c == a + (b + c)
            ok = ok and (a * b) * c == a * (b * c)
            ok = ok and a * (b + c) == a * b + a * c
        if not ok:
            break

    # pair-count identity and per-line parity, 1000 random arrangements per field
    rng = random.Random(52030)
    for q, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1)):
        F = make_field(q, k)
        n = F.order ** 2 + F.order + 1
        for _ in range(1000):
            s = rng.randint(2, min(8, n))
            A = random_arrangement(F, s, rng)
            prof = profile(A)
            ok = ok and check_identity(s, prof.tvec)
            ok = ok and parity_check(A, prof).all_pass
        if not ok:
            break

    # join/meet round trips and duality, exhaustive for q <= 5
    for q, k in ((2, 1), (3, 1), (2, 2), (5, 1)):
        F = make_field(q, k)
        points = enumerate_points(F)
        lines = enumerate_lines(F)
        for P, Q in itertools.combinations(points, 2):
            L = join(P, Q)
            ok = ok and incident(P, L) and incident(Q, L)
        for L1, L2 in itertools.combinations(lines, 2):
            P = meet(L1, L2)
            ok = ok and incident(P, L1) and incident(P, L2)
        for P in points:
            for L in lines:
                ok = ok and incident(P, L) == incident(ProjPoint(F, L.coords), as_line(P))
        if not ok:
            break

    # witness soundness: every emitted witness re-verifies
    for cfg in (SearchConfig(field=make_field(2), s=7, normalize_frame=False),
                SearchConfig(field=make_field(3), s=8, normalize_frame=False),
                SearchConfig(field=make_field(5), s=10),
                SearchConfig(field=make_field(2, 2), s=10, metric="atleast3")):
        rep = max_triple_search(cfg)
        ok = ok and bool(rep.witnesses)
        for w in rep.witnesses:
            ok = ok and profile(w).triple_count(cfg.metric) == rep.best

    elapsed = time.perf_counter() - start
    _report(8, "field axioms, identity/parity sweeps, duality, witness soundness",
            ok, elapsed, 600.0)
