"""Certificate catalogue: instantiation, verification, eligibility, tables."""

import pytest

from triplelines import certificates
from triplelines.bounds import schoenheim_u3
from triplelines.certificates import (
    CERTIFICATE_NAMES,
    builtin,
    certificate_table,
    dual_hesse_from_pg23,
    instantiate,
    verify,
)
from triplelines.constraints import (
    TEN_CASE_B,
    TEN_E1,
    build_system,
    default_battery,
    realize,
    solve_over,
)
from triplelines.errors import IneligibleField, UnknownName
from triplelines.field import make_field, roots_of
from triplelines.incidence import abstract, isomorphic, profile, remove_line
from triplelines.projective import ProjLine, ProjPoint


def test_catalogue_contents():
    assert set(CERTIFICATE_NAMES) == {
        "FANO", "MOEBIUS_KANTOR", "DUAL_HESSE", "TEN_E1", "TEN_E2", "ELEVEN_16",
        "SMALL_3", "SMALL_4", "SMALL_5", "SMALL_6"}
    with pytest.raises(UnknownName):
        builtin("NO_SUCH_CONFIG")


def test_builtin_expected_tvecs():
    assert builtin("FANO").tvec == {3: 7}
    assert builtin("TEN_E2").tvec == {3: 13, 2: 6}
    assert builtin("ELEVEN_16").tvec == {3: 16, 2: 7}
    assert builtin("DUAL_HESSE").tvec == {3: 12}
    assert builtin("MOEBIUS_KANTOR").tvec == {3: 8, 2: 4}


ACCEPTED = [
    ("TEN_E1", make_field(2, 2), None),
    ("TEN_E1", make_field(2, 4), None),
    ("TEN_E2", make_field(5), None),
    ("TEN_E2", make_field(5, 2), None),
    ("ELEVEN_16", make_field(5), None),
    ("ELEVEN_16", make_field(11), None),
    ("ELEVEN_16", make_field(19), None),
    ("FANO", make_field(2), None),
    ("DUAL_HESSE", make_field(3), None),
    ("MOEBIUS_KANTOR", make_field(3), None),
]


@pytest.mark.parametrize("name,F,param", ACCEPTED,
                         ids=[f"{n}-{F!r}" for n, F, _ in ACCEPTED])
def test_verify_passes(name, F, param):
    rep = verify(name, F, param)
    assert rep.ok, rep.mismatches
    assert rep.tvec_actual == builtin(name).tvec


def test_verify_over_all_eligible_battery_fields():
    for name in CERTIFICATE_NAMES:
        cert = builtin(name)
        for F in default_battery():
            if cert.eligibility(F) is not None:
                continue
            if cert.param and not roots_of(cert.param.poly, F):
                continue
            rep = verify(name, F)
            assert rep.ok, (name, F, rep.mismatches)


def test_certificate_t3_below_schoenheim():
    for name in CERTIFICATE_NAMES:
        cert = builtin(name)
        s = {"SMALL_3": 3, "SMALL_4": 4, "SMALL_5": 5, "SMALL_6": 6,
             "FANO": 7, "MOEBIUS_KANTOR": 8, "DUAL_HESSE": 9,
             "TEN_E1": 10, "TEN_E2": 10, "ELEVEN_16": 11}[name]
        at_least_3 = sum(t for k, t in cert.tvec.items() if k >= 3)
        assert at_least_3 <= schoenheim_u3(s)


def test_small_certificates_hit_schoenheim():
    for name, s in [("SMALL_3", 3), ("SMALL_4", 4), ("SMALL_5", 5), ("SMALL_6", 6),
                    ("FANO", 7)]:
        assert builtin(name).tvec[3] == schoenheim_u3(s)


def test_ineligible_fields_rejected():
    with pytest.raises(IneligibleField, match="cube root"):
        instantiate("TEN_E1", make_field(2))
    with pytest.raises(IneligibleField, match="characteristic"):
        instantiate("TEN_E1", make_field(5))
    with pytest.raises(IneligibleField, match="characteristic"):
        instantiate("TEN_E2", make_field(7))
    with pytest.raises(IneligibleField, match="no root"):
        instantiate("ELEVEN_16", make_field(7))
    with pytest.raises(IneligibleField, match="characteristic 2"):
        instantiate("ELEVEN_16", make_field(2, 2))
    with pytest.raises(IneligibleField):
        instantiate("FANO", make_field(3))


@pytest.mark.parametrize("name, F, poly", [
    ("ELEVEN_16", make_field(11), (-1, 1, 1)),
    ("TEN_E1", make_field(2, 2), (1, 1, 1)),
])
def test_parametric_certificate_scans_its_polynomial_once(monkeypatch, name, F, poly):
    # the eligibility check reads the characteristic only; the parameter
    # step both finds the root and rejects a field without one
    calls = []

    def recorder(coeffs, field):
        calls.append(tuple(coeffs))
        return roots_of(coeffs, field)

    monkeypatch.setattr(certificates, "roots_of", recorder)
    assert verify(name, F).ok
    assert calls == [poly]


def test_param_choices_gf11():
    F = make_field(11)
    roots = roots_of((-1, 1, 1), F)
    assert [r.index for r in roots] == [3, 7]
    reports = [verify("ELEVEN_16", F, b) for b in roots]
    assert all(r.ok for r in reports)
    # the two instantiations are the same abstract configuration
    a0 = abstract(instantiate("ELEVEN_16", F, roots[0]))
    a1 = abstract(instantiate("ELEVEN_16", F, roots[1]))
    assert isomorphic(a0, a1)


def test_bad_param_rejected():
    F = make_field(11)
    with pytest.raises(IneligibleField, match="does not satisfy"):
        instantiate("ELEVEN_16", F, F(5))
    with pytest.raises(IneligibleField, match="no parameter"):
        instantiate("FANO", make_field(2), make_field(2)(1))


def test_eleven_16_gf5_double_root():
    F = make_field(5)
    roots = roots_of((-1, 1, 1), F)
    assert [r.index for r in roots] == [2]
    A = instantiate("ELEVEN_16", F, F(2))
    assert A.s == 11


def test_eleven_16_gf19_expected_parameter():
    F = make_field(19)
    rep = verify("ELEVEN_16", F)
    assert rep.param == F(4)       # (sqrt(5) - 1)/2 with sqrt(5) = 9


def test_dual_hesse_construction():
    A = dual_hesse_from_pg23()
    assert A.s == 9
    prof = profile(A)
    assert prof.tvec == {3: 12}
    assert 36 == 12 * 3            # pair-count identity by hand
    for i in (0, 4, 8):
        assert profile(remove_line(A, i)).tvec == {3: 8, 2: 4}


def test_dual_hesse_needs_char3():
    with pytest.raises(IneligibleField):
        dual_hesse_from_pg23(make_field(5))


def test_moebius_kantor_is_removal():
    mk = instantiate("MOEBIUS_KANTOR", make_field(3))
    dh = dual_hesse_from_pg23()
    assert set(mk.lines) <= set(dh.lines)
    assert mk.s == 8


def test_expected_points_match_table_multiplicities():
    for name, F in [("TEN_E1", make_field(2, 2)), ("TEN_E2", make_field(5)),
                    ("ELEVEN_16", make_field(11))]:
        cert = builtin(name)
        value = roots_of(cert.param.poly, F)[0] if cert.param else None
        pts = [(label, ProjPoint(F, c)) for label, c in cert.build(F, value)[1]]
        tab = certificate_table(name, F)
        sums = {label: sum(row[j] for row in tab.cells)
                for j, label in enumerate(tab.col_labels)}
        A = instantiate(name, F)
        prof = profile(A)
        by_label = dict(pts)
        for label, total in sums.items():
            assert prof.points[by_label[label]] == total


def test_verify_reports_mismatch_on_corrupted_expectation():
    # mutate a copy of the certificate's t-vector and check it is caught
    cert = builtin("TEN_E2")
    broken = cert._replace(tvec={3: 12, 2: 9})
    rep = verify(broken, make_field(5))
    assert not rep.ok
    assert any("t-vector" in m for m in rep.mismatches)


def test_table_cells_match_published_layout():
    tab = certificate_table("TEN_E1", make_field(2, 2))
    assert tab.cell("M_2", "W") and tab.cell("M_2", "P_46")
    assert not tab.cell("L_1", "W")
    tab2 = certificate_table("TEN_E2", make_field(5))
    # the corrected cells: M_3 carries P_23, M_4 carries P_26
    assert tab2.cell("M_3", "P_23") and not tab2.cell("M_3", "P_26")
    assert tab2.cell("M_4", "P_26") and not tab2.cell("M_4", "P_23")


# ---------------------------------------------------------------------------
# TEN_E1 and TEN_E2 against the coordinates printed in the source paper
# ---------------------------------------------------------------------------

def _paper_ten_e1(F, a):
    """The printed TEN_E1 lines and points at a root a of a^2+a+1."""
    a2 = a * a
    one, zero = F.one, F.zero
    lines = [
        ("L_1", (1, 0, 0)), ("L_2", (0, 1, 0)), ("L_3", (0, 0, 1)),
        ("L_4", (1, 1, 1)), ("L_5", (a, a2, one)), ("L_6", (a2, a, one)),
        ("M_1", (1, 1, 0)), ("M_2", (a, zero, one)),
        ("M_3", (a2, one, one)), ("M_4", (one, a2, one)),
    ]
    points = [
        ("W", (one, one, a)),
        ("P_12", (0, 0, 1)), ("P_13", (0, 1, 0)), ("P_14", (0, 1, 1)),
        ("P_15", (zero, one, a2)), ("P_24", (1, 0, 1)), ("P_25", (one, zero, a)),
        ("P_26", (one, zero, a2)), ("P_34", (1, 1, 0)), ("P_35", (a, one, zero)),
        ("P_36", (one, a, zero)), ("P_46", (a2, a, one)), ("P_56", (1, 1, 1)),
    ]
    return lines, points


PAPER_TEN_E2 = (
    [("L_1", (1, 0, 0)), ("L_2", (0, 1, 0)), ("L_3", (0, 0, 1)),
     ("L_4", (3, 1, 1)), ("L_5", (1, 3, 1)), ("L_6", (2, 2, 1)),
     ("M_1", (1, 1, 1)), ("M_2", (2, 4, 0)), ("M_3", (0, 3, 1)), ("M_4", (2, 0, 1))],
    [("D", (1, 1, 1)), ("Z_1", (2, 3, 1)), ("Z_2", (4, 3, 2)), ("Z_3", (4, 3, 1)),
     ("P_12", (0, 0, 1)), ("P_13", (0, 1, 0)), ("P_14", (0, 4, 1)),
     ("P_15", (0, 4, 3)), ("P_23", (1, 0, 0)), ("P_25", (1, 0, 4)),
     ("P_26", (1, 0, 3)), ("P_34", (4, 3, 0)), ("P_36", (3, 2, 0))],
)


def _printed(F, labelled, kind=ProjLine):
    return [(label, kind(F, c)) for label, c in labelled]


def _assert_matches_paper(name, F, param, paper):
    """The certificate's lines and points equal the printed ones, label by
    label and in order, and the certificate verifies."""
    lines, points = paper
    A = instantiate(name, F, param)
    assert list(zip(A.labels, A.lines)) == _printed(F, lines)
    assert _printed(F, builtin(name).build(F, param)[1], ProjPoint) == _printed(
        F, points, ProjPoint)
    assert verify(name, F, param).ok


@pytest.mark.parametrize("F", [make_field(2, 2), make_field(2, 4)], ids=repr)
def test_ten_e1_matches_the_papers_coordinates(F):
    roots = roots_of((1, 1, 1), F)
    assert len(roots) == 2
    for a in roots:
        _assert_matches_paper("TEN_E1", F, a, _paper_ten_e1(F, a))
    # the TEN_E1 system's solutions are exactly (a, a^2, a^2, a) at the
    # roots, and each realizes to the printed lines
    sols = solve_over(build_system(TEN_E1), F)
    assert len(sols) == len(roots)
    for asg in sols:
        a = asg["a"]
        assert a in roots and [asg[v] for v in "bcd"] == [a * a, a * a, a]
        A = realize(TEN_E1, asg, F)
        assert list(zip(A.labels, A.lines)) == _printed(F, _paper_ten_e1(F, a)[0])


@pytest.mark.parametrize("F", [make_field(5), make_field(5, 2)], ids=repr)
def test_ten_e2_matches_the_papers_coordinates(F):
    _assert_matches_paper("TEN_E2", F, None, PAPER_TEN_E2)
    # (3, 1, 2) is the only solution of TEN_CASE_B in characteristic 5, and
    # it realizes to the printed lines
    sols = solve_over(build_system(TEN_CASE_B), F)
    assert sols == [{"a": F(3), "b": F(1), "c": F(2)}]
    A = realize(TEN_CASE_B, sols[0], F)
    assert list(zip(A.labels, A.lines)) == _printed(F, PAPER_TEN_E2[0])
