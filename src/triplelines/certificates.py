"""Built-in verified configurations: line lists, point lists, incidence tables.

Each certificate records a named arrangement as concrete (possibly
parametric) homogeneous equations together with everything a verifier needs:
an eligibility predicate on the ground field, the expected t-vector, and -
where published - the labelled special points and the full incidence table.
verify() recomputes all of it from scratch and reports any mismatch.

TEN_E1 and TEN_E2 are solutions of the paper's case analysis, so their lines
and labelled points are not typed out here: they are read from the scenario
constructions of constraints.py (`construction`), evaluated at the values
named below. Their published incidence tables stay here as the independent
claim that verify() checks.

Certificate catalogue:

  SMALL_3..SMALL_6   small optima (3..6 lines), valid over every field
  FANO               seven lines, seven triple points, characteristic 2
  DUAL_HESSE         nine lines, twelve triple points, characteristic 3,
                     built by deleting a full pencil from PG(2,3)
  MOEBIUS_KANTOR     eight lines, eight triple points, one line removed
                     from DUAL_HESSE
  TEN_E1             ten lines, one 4-fold point, characteristic 2 with a
                     nontrivial cube root of unity a (a^2+a+1 = 0): the
                     TEN_E1 recipe at (a, b, c, d) = (a, a^2, a^2, a)
  TEN_E2             ten lines, thirteen triple points, characteristic 5:
                     the TEN_CASE_B recipe at (a, b, c) = (3, 1, 2)
  ELEVEN_16          eleven lines, sixteen triple points, parameter b with
                     b^2+b-1 = 0 (golden-ratio condition), characteristic
                     not 2
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

from .constraints import TEN_CASE_B, TEN_E1, construction
from .errors import IneligibleField, UnknownName
from .field import FieldElement, FieldSpec, make_field, roots_of
from .incidence import (
    Arrangement,
    IncidenceTable,
    profile,
    remove_line,
    table as incidence_table,
)
from .projective import ProjLine, ProjPoint, enumerate_lines


class ParamSpec(NamedTuple):
    name: str
    poly: tuple            # integer coefficients, low degree first
    condition: str         # human-readable defining equation


class Certificate(NamedTuple):
    name: str
    tvec: dict
    eligibility: Callable[[FieldSpec], Optional[str]]
    # (F, param) -> (labelled line coordinates, labelled point coordinates)
    build: Callable
    param: Optional[ParamSpec] = None
    table: Optional[dict] = None


class VerifyReport(NamedTuple):
    certificate: str
    field: FieldSpec
    param: Optional[FieldElement]
    tvec_expected: dict
    tvec_actual: dict
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.mismatches


# ---------------------------------------------------------------------------
# eligibility predicates
# ---------------------------------------------------------------------------

def _any_field(F: FieldSpec) -> Optional[str]:
    return None


def _characteristic(p: int) -> Callable[[FieldSpec], Optional[str]]:
    def check(F: FieldSpec) -> Optional[str]:
        return None if F.p == p else f"characteristic {F.p}, need characteristic {p}"
    return check


def _odd_char(F: FieldSpec) -> Optional[str]:
    # in characteristic 2 the golden-ratio roots exist but the sixteen
    # special points of ELEVEN_16 degenerate (P_15 = P_16)
    return "characteristic 2 collapses the configuration" if F.p == 2 else None


# ---------------------------------------------------------------------------
# line, point and table data
# ---------------------------------------------------------------------------

def _fixed_lines(coords: Sequence[tuple]):
    def build(F: FieldSpec, param=None):
        return [(f"L_{i + 1}", c) for i, c in enumerate(coords)], []
    return build


def dual_hesse_from_pg23(F: Optional[FieldSpec] = None) -> Arrangement:
    """All 13 lines of PG(2,3) minus the four through one point: 9 lines.

    Every remaining point lies on exactly three of the nine survivors,
    giving twelve triple points and no double points.
    """
    F = F or make_field(3)
    if F.p != 3:
        raise IneligibleField(f"PG(2,3) construction needs characteristic 3, got {F.p}")
    # the pencil through (0:0:1) is the lines [a:b:0]; the prime-field
    # constants 0, 1, 2 have the same indices in every field of characteristic 3
    lines = [ProjLine._from_key(F, L.key()) for L in enumerate_lines(make_field(3))
             if L.key()[2] != 0]
    labels = [f"H_{i + 1}" for i in range(len(lines))]
    return Arrangement(F, lines, labels)


def _arrangement_lines(A: Arrangement):
    return [(A.labels[i], A.lines[i].coords) for i in range(A.s)], []


def _scenario_realization(scenario: str, values: Callable, points: Sequence[str],
                          renamed: Optional[dict] = None):
    """The scenario's lines, frame lines first, and the published points, all
    read from one construction of the scenario at values(F, param).
    `renamed` maps a published point label to the construction's name."""
    renamed = renamed or {}

    def build(F: FieldSpec, param):
        labels, g = construction(scenario, values(F, param), F.one)
        return ([(label, g[label]) for label in labels],
                [(label, g[renamed.get(label, label)]) for label in points])
    return build


TEN_E1_TABLE = {
    "L_1": ("P_12", "P_13", "P_14", "P_15"),
    "L_2": ("P_12", "P_24", "P_25", "P_26"),
    "L_3": ("P_13", "P_34", "P_35", "P_36"),
    "L_4": ("P_14", "P_24", "P_34", "P_46"),
    "L_5": ("P_15", "P_25", "P_35", "P_56"),
    "L_6": ("P_26", "P_36", "P_46", "P_56"),
    "M_1": ("W", "P_12", "P_34", "P_56"),
    "M_2": ("W", "P_13", "P_25", "P_46"),
    "M_3": ("W", "P_14", "P_26", "P_35"),
    "M_4": ("W", "P_15", "P_24", "P_36"),
}


# rows M_3/M_4 follow the combinatorial distribution table (and the printed
# coordinates), which place P_23 on M_3 and P_26 on M_4
TEN_E2_TABLE = {
    "L_1": ("P_12", "P_13", "P_14", "P_15"),
    "L_2": ("P_12", "P_23", "P_25", "P_26"),
    "L_3": ("P_13", "P_23", "P_34", "P_36"),
    "L_4": ("D", "Z_1", "P_14", "P_34"),
    "L_5": ("D", "Z_2", "P_15", "P_25"),
    "L_6": ("D", "Z_3", "P_26", "P_36"),
    "M_1": ("P_14", "P_25", "P_36"),
    "M_2": ("Z_2", "Z_3", "P_12", "P_34"),
    "M_3": ("Z_1", "Z_3", "P_15", "P_23"),
    "M_4": ("Z_1", "Z_2", "P_13", "P_26"),
}


def _eleven_16(F: FieldSpec, b: FieldElement):
    one, zero = F.one, F.zero
    b2 = b * b
    b3 = b2 * b
    lines = [
        ("L_1", (1, 0, 0)), ("L_2", (0, 1, 0)), ("L_3", (0, 0, 1)),
        ("L_4", (1, 1, 1)), ("L_5", (-b, zero, one)), ("L_6", (b, one, b)),
        ("L_7", (0, 1, 1)), ("L_8", (b2, b, one)), ("L_9", (b, -b, -one)),
        ("L_10", (-b3, -one, -b)), ("L_11", (-b2, one - b, zero)),
    ]
    points = [
        ("P_1", (0, -1, 1)), ("P_2", (1, 0, 0)), ("P_3", (0, 1, 0)),
        ("P_4", (1, 0, -1)), ("P_5", (-one, b + 1, -b)), ("P_6", (-one, b, zero)),
        ("P_7", (one, zero, b)), ("P_8", (zero, -b, one)), ("P_9", (zero, -one, b)),
        ("P_10", (one, zero, -b2)), ("P_11", (one - b, -b, b)), ("P_12", (-one, b, -b)),
        ("P_13", (1, 1, -1)), ("P_14", (0, 0, 1)), ("P_15", (1, 1, 0)),
        ("P_16", (1, 1, -2)),
    ]
    return lines, points


ELEVEN_16_TABLE = {
    "L_1": ("P_1", "P_3", "P_8", "P_9", "P_14"),
    "L_2": ("P_2", "P_4", "P_7", "P_10", "P_14"),
    "L_3": ("P_2", "P_3", "P_6", "P_15"),
    "L_4": ("P_1", "P_4", "P_5", "P_16"),
    "L_5": ("P_3", "P_5", "P_7", "P_12"),
    "L_6": ("P_4", "P_6", "P_8", "P_11"),
    "L_7": ("P_1", "P_2", "P_11", "P_12", "P_13"),
    "L_8": ("P_5", "P_6", "P_9", "P_10", "P_13"),
    "L_9": ("P_7", "P_9", "P_11", "P_15"),
    "L_10": ("P_8", "P_10", "P_12", "P_16"),
    "L_11": ("P_13", "P_14", "P_15", "P_16"),
}


_CATALOGUE: dict[str, Certificate] = {}


def _register(cert: Certificate) -> None:
    _CATALOGUE[cert.name] = cert


_register(Certificate(
    name="SMALL_3", tvec={3: 1}, eligibility=_any_field,
    build=_fixed_lines([(1, 0, 0), (0, 1, 0), (1, 1, 0)])))

_register(Certificate(
    name="SMALL_4", tvec={3: 1, 2: 3}, eligibility=_any_field,
    build=_fixed_lines([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])))

_register(Certificate(
    name="SMALL_5", tvec={3: 2, 2: 4}, eligibility=_any_field,
    build=_fixed_lines([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)])))

_register(Certificate(
    name="SMALL_6", tvec={3: 4, 2: 3}, eligibility=_any_field,
    build=_fixed_lines([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1),
                        (0, 1, -1)])))

_register(Certificate(
    name="FANO", tvec={3: 7}, eligibility=_characteristic(2),
    build=_fixed_lines([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
                        (0, 1, 1), (1, 1, 1)])))

_register(Certificate(
    name="DUAL_HESSE", tvec={3: 12}, eligibility=_characteristic(3),
    build=lambda F, param: _arrangement_lines(dual_hesse_from_pg23(F))))

_register(Certificate(
    name="MOEBIUS_KANTOR", tvec={3: 8, 2: 4}, eligibility=_characteristic(3),
    build=lambda F, param: _arrangement_lines(remove_line(dual_hesse_from_pg23(F), 0))))

_register(Certificate(
    name="TEN_E1", tvec={4: 1, 3: 12, 2: 3}, eligibility=_characteristic(2),
    param=ParamSpec("a", (1, 1, 1), "a^2+a+1 = 0 (a nontrivial cube root of unity)"),
    build=_scenario_realization(
        TEN_E1, lambda F, a: {"a": a, "b": a * a, "c": a * a, "d": a},
        ("W", "P_12", "P_13", "P_14", "P_15", "P_24", "P_25", "P_26", "P_34", "P_35",
         "P_36", "P_46", "P_56")),
    table=TEN_E1_TABLE))

_register(Certificate(
    name="TEN_E2", tvec={3: 13, 2: 6}, eligibility=_characteristic(5),
    # D is the point P_45 = (1:1:1) that L_4, L_5 and L_6 all pass through
    build=_scenario_realization(
        TEN_CASE_B, lambda F, param: {"a": F(3), "b": F(1), "c": F(2)},
        ("D", "Z_1", "Z_2", "Z_3", "P_12", "P_13", "P_14", "P_15", "P_23", "P_25",
         "P_26", "P_34", "P_36"),
        renamed={"D": "P_45"}),
    table=TEN_E2_TABLE))

_register(Certificate(
    name="ELEVEN_16", tvec={3: 16, 2: 7}, eligibility=_odd_char,
    param=ParamSpec("b", (-1, 1, 1), "b^2+b-1 = 0 (the golden ratio)"),
    build=_eleven_16, table=ELEVEN_16_TABLE))


CERTIFICATE_NAMES = tuple(sorted(_CATALOGUE))


def builtin(name: str) -> Certificate:
    try:
        return _CATALOGUE[name]
    except KeyError:
        raise UnknownName(
            f"unknown certificate {name!r}; available: {', '.join(CERTIFICATE_NAMES)}")


def _resolve_param(cert: Certificate, F: FieldSpec,
                   param: Optional[FieldElement]) -> Optional[FieldElement]:
    """Check the characteristic, then resolve the parameter: the one root scan
    of its polynomial also rejects a field that has no root."""
    reason = cert.eligibility(F)
    if reason is not None:
        raise IneligibleField(f"{cert.name} over {F!r}: {reason}")
    if cert.param is None:
        if param is not None:
            raise IneligibleField(f"{cert.name} takes no parameter")
        return None
    roots = roots_of(cert.param.poly, F)
    if not roots:
        raise IneligibleField(
            f"{cert.name} over {F!r}: {cert.param.condition} has no root")
    if param is None:
        return roots[0]
    if param not in roots:
        raise IneligibleField(
            f"{cert.name} over {F!r}: {param!r} does not satisfy {cert.param.condition}")
    return param


def _instance(cert: Certificate | str, F: FieldSpec, param: Optional[FieldElement]):
    """The certificate, its resolved parameter, arrangement and labelled points."""
    if isinstance(cert, str):
        cert = builtin(cert)
    value = _resolve_param(cert, F, param)
    lines, points = cert.build(F, value)
    A = Arrangement(F, [ProjLine(F, c) for _, c in lines], [label for label, _ in lines])
    return cert, value, A, [(label, ProjPoint(F, c)) for label, c in points]


def instantiate(cert: Certificate | str, F: FieldSpec,
                param: Optional[FieldElement] = None) -> Arrangement:
    """Concrete arrangement of a certificate over an eligible field."""
    return _instance(cert, F, param)[2]


def verify(cert: Certificate | str, F: FieldSpec,
           param: Optional[FieldElement] = None) -> VerifyReport:
    """Recompute profile, points and incidence table; list every mismatch."""
    cert, value, A, pts = _instance(cert, F, param)
    prof = profile(A)
    expected = dict(sorted(cert.tvec.items()))
    mismatches: list[str] = []

    if prof.tvec != expected:
        mismatches.append(f"t-vector {prof.tvec} differs from expected {expected}")

    if pts:
        labels = [label for label, _ in pts]
        by_label = dict(pts)
        if len(set(by_label.values())) != len(pts):
            mismatches.append("expected points are not pairwise distinct")
        high = {P for P, m in prof.points.items() if m >= 3}
        listed = set(by_label.values())
        if high != listed:
            missing = sorted(str(P) for P in high - listed)
            spurious = [label for label in labels if by_label[label] not in high]
            if missing:
                mismatches.append(f"unlisted points of multiplicity >= 3: {missing}")
            if spurious:
                mismatches.append(f"listed points not of multiplicity >= 3: {spurious}")

        if cert.table is not None:
            tab = incidence_table(A, points=pts)
            for row_label, cols in cert.table.items():
                for col_label in labels:
                    expected_cell = col_label in cols
                    actual_cell = tab.cell(row_label, col_label)
                    if expected_cell != actual_cell:
                        mismatches.append(
                            f"cell ({row_label}, {col_label}): expected "
                            f"{'+' if expected_cell else 'blank'}, computed "
                            f"{'+' if actual_cell else 'blank'}")

    return VerifyReport(cert.name, F, value, expected, prof.tvec, tuple(mismatches))


def certificate_table(cert: Certificate | str, F: FieldSpec,
                      param: Optional[FieldElement] = None) -> IncidenceTable:
    """The recomputed incidence table in the certificate's own labelling."""
    _, _, A, pts = _instance(cert, F, param)
    return incidence_table(A, points=pts or None)
