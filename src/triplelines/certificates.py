"""Built-in verified configurations: line lists, point lists, incidence tables.

Each certificate records a named arrangement as concrete (possibly
parametric) homogeneous equations together with everything a verifier needs:
an eligibility predicate on the ground field, the expected t-vector, and -
where published - the labelled special points and the full incidence table.
verify() recomputes all of it from scratch and reports any mismatch.

Certificate catalogue:

  SMALL_3..SMALL_6   small optima (3..6 lines), valid over every field
  FANO               seven lines, seven triple points, characteristic 2
  DUAL_HESSE         nine lines, twelve triple points, characteristic 3,
                     built by deleting a full pencil from PG(2,3)
  MOEBIUS_KANTOR     eight lines, eight triple points, one line removed
                     from DUAL_HESSE
  TEN_E1             ten lines, one 4-fold point, characteristic 2 with a
                     nontrivial cube root of unity a (a^2+a+1 = 0)
  TEN_E2             ten lines, thirteen triple points, characteristic 5
  ELEVEN_16          eleven lines, sixteen triple points, parameter b with
                     b^2+b-1 = 0 (golden-ratio condition), characteristic
                     not 2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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


@dataclass(frozen=True)
class ParamSpec:
    name: str
    poly: tuple            # integer coefficients, low degree first
    condition: str         # human-readable defining equation


@dataclass(frozen=True)
class Certificate:
    name: str
    description: str
    tvec: dict
    eligibility: Callable[[FieldSpec], Optional[str]]
    lines_fn: Callable
    param: Optional[ParamSpec] = None
    points_fn: Optional[Callable] = None
    table: Optional[dict] = None


@dataclass(frozen=True)
class VerifyReport:
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


def _char2(F: FieldSpec) -> Optional[str]:
    return None if F.p == 2 else f"characteristic {F.p}, need characteristic 2"


def _char3(F: FieldSpec) -> Optional[str]:
    return None if F.p == 3 else f"characteristic {F.p}, need characteristic 3"


def _char5(F: FieldSpec) -> Optional[str]:
    return None if F.p == 5 else f"characteristic {F.p}, need characteristic 5"


def _odd_char(F: FieldSpec) -> Optional[str]:
    # in characteristic 2 the golden-ratio roots exist but the sixteen
    # special points of ELEVEN_16 degenerate (P_15 = P_16)
    return "characteristic 2 collapses the configuration" if F.p == 2 else None


# ---------------------------------------------------------------------------
# line, point and table data
# ---------------------------------------------------------------------------

def _small_lines(coords: Sequence[tuple]):
    def build(F: FieldSpec, param=None):
        return [(f"L_{i + 1}", c) for i, c in enumerate(coords)]
    return build


def _fano_lines(F: FieldSpec, param=None):
    coords = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    return [(f"L_{i + 1}", c) for i, c in enumerate(coords)]


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


def _dual_hesse_lines(F: FieldSpec, param=None):
    A = dual_hesse_from_pg23(F)
    return [(A.labels[i], A.lines[i].coords) for i in range(A.s)]


def _moebius_kantor_lines(F: FieldSpec, param=None):
    A = remove_line(dual_hesse_from_pg23(F), 0)
    return [(A.labels[i], A.lines[i].coords) for i in range(A.s)]


def _ten_e1_lines(F: FieldSpec, a: FieldElement):
    a2 = a * a
    return [
        ("L_1", (1, 0, 0)), ("L_2", (0, 1, 0)), ("L_3", (0, 0, 1)),
        ("L_4", (1, 1, 1)), ("L_5", (a, a2, F.one)), ("L_6", (a2, a, F.one)),
        ("M_1", (1, 1, 0)), ("M_2", (a, F.zero, F.one)),
        ("M_3", (a2, F.one, F.one)), ("M_4", (F.one, a2, F.one)),
    ]


def _ten_e1_points(F: FieldSpec, a: FieldElement):
    a2 = a * a
    one, zero = F.one, F.zero
    return [
        ("W", (one, one, a)),
        ("P_12", (0, 0, 1)), ("P_13", (0, 1, 0)), ("P_14", (0, 1, 1)),
        ("P_15", (zero, one, a2)), ("P_24", (1, 0, 1)), ("P_25", (one, zero, a)),
        ("P_26", (one, zero, a2)), ("P_34", (1, 1, 0)), ("P_35", (a, one, zero)),
        ("P_36", (one, a, zero)), ("P_46", (a2, a, one)), ("P_56", (1, 1, 1)),
    ]


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


def _ten_e2_lines(F: FieldSpec, param=None):
    return [
        ("L_1", (1, 0, 0)), ("L_2", (0, 1, 0)), ("L_3", (0, 0, 1)),
        ("L_4", (3, 1, 1)), ("L_5", (1, 3, 1)), ("L_6", (2, 2, 1)),
        ("M_1", (1, 1, 1)), ("M_2", (2, 4, 0)), ("M_3", (0, 3, 1)), ("M_4", (2, 0, 1)),
    ]


def _ten_e2_points(F: FieldSpec, param=None):
    return [
        ("D", (1, 1, 1)), ("Z_1", (2, 3, 1)), ("Z_2", (4, 3, 2)), ("Z_3", (4, 3, 1)),
        ("P_12", (0, 0, 1)), ("P_13", (0, 1, 0)), ("P_14", (0, 4, 1)),
        ("P_15", (0, 4, 3)), ("P_23", (1, 0, 0)), ("P_25", (1, 0, 4)),
        ("P_26", (1, 0, 3)), ("P_34", (4, 3, 0)), ("P_36", (3, 2, 0)),
    ]


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


def _eleven_lines(F: FieldSpec, b: FieldElement):
    one = F.one
    b2 = b * b
    b3 = b2 * b
    return [
        ("L_1", (1, 0, 0)), ("L_2", (0, 1, 0)), ("L_3", (0, 0, 1)),
        ("L_4", (1, 1, 1)), ("L_5", (-b, F.zero, one)), ("L_6", (b, one, b)),
        ("L_7", (0, 1, 1)), ("L_8", (b2, b, one)), ("L_9", (b, -b, -one)),
        ("L_10", (-b3, -one, -b)), ("L_11", (-b2, one - b, F.zero)),
    ]


def _eleven_points(F: FieldSpec, b: FieldElement):
    one, zero = F.one, F.zero
    b2 = b * b
    return [
        ("P_1", (0, -1, 1)), ("P_2", (1, 0, 0)), ("P_3", (0, 1, 0)),
        ("P_4", (1, 0, -1)), ("P_5", (-one, b + 1, -b)), ("P_6", (-one, b, zero)),
        ("P_7", (one, zero, b)), ("P_8", (zero, -b, one)), ("P_9", (zero, -one, b)),
        ("P_10", (one, zero, -b2)), ("P_11", (one - b, -b, b)), ("P_12", (-one, b, -b)),
        ("P_13", (1, 1, -1)), ("P_14", (0, 0, 1)), ("P_15", (1, 1, 0)),
        ("P_16", (1, 1, -2)),
    ]


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
    name="SMALL_3", description="three concurrent lines: one triple point",
    tvec={3: 1}, eligibility=_any_field,
    lines_fn=_small_lines([(1, 0, 0), (0, 1, 0), (1, 1, 0)])))

_register(Certificate(
    name="SMALL_4", description="three concurrent lines plus one: one triple point",
    tvec={3: 1, 2: 3}, eligibility=_any_field,
    lines_fn=_small_lines([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])))

_register(Certificate(
    name="SMALL_5", description="five lines with two triple points",
    tvec={3: 2, 2: 4}, eligibility=_any_field,
    lines_fn=_small_lines([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)])))

_register(Certificate(
    name="SMALL_6", description="six lines with four triple points",
    tvec={3: 4, 2: 3}, eligibility=_any_field,
    lines_fn=_small_lines([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1),
                           (0, 1, -1)])))

_register(Certificate(
    name="FANO", description="all seven lines of PG(2,2): every point is triple",
    tvec={3: 7}, eligibility=_char2, lines_fn=_fano_lines))

_register(Certificate(
    name="DUAL_HESSE",
    description="nine lines with twelve triple points (PG(2,3) minus a pencil)",
    tvec={3: 12}, eligibility=_char3, lines_fn=_dual_hesse_lines))

_register(Certificate(
    name="MOEBIUS_KANTOR",
    description="eight lines with eight triple points (dual Hesse minus one line)",
    tvec={3: 8, 2: 4}, eligibility=_char3, lines_fn=_moebius_kantor_lines))

_register(Certificate(
    name="TEN_E1",
    description="ten lines: one 4-fold point, twelve triple points, three doubles",
    tvec={4: 1, 3: 12, 2: 3}, eligibility=_char2,
    param=ParamSpec("a", (1, 1, 1), "a^2+a+1 = 0 (a nontrivial cube root of unity)"),
    lines_fn=_ten_e1_lines, points_fn=_ten_e1_points, table=TEN_E1_TABLE))

_register(Certificate(
    name="TEN_E2",
    description="ten lines with thirteen triple points in characteristic 5",
    tvec={3: 13, 2: 6}, eligibility=_char5,
    lines_fn=_ten_e2_lines, points_fn=_ten_e2_points, table=TEN_E2_TABLE))

_register(Certificate(
    name="ELEVEN_16",
    description="eleven lines with sixteen triple points (golden-ratio parameter)",
    tvec={3: 16, 2: 7}, eligibility=_odd_char,
    param=ParamSpec("b", (-1, 1, 1), "b^2+b-1 = 0 (the golden ratio)"),
    lines_fn=_eleven_lines, points_fn=_eleven_points, table=ELEVEN_16_TABLE))


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


def _arrangement(cert: Certificate, F: FieldSpec, value) -> Arrangement:
    labelled = cert.lines_fn(F, value)
    lines = [ProjLine(F, coords) for _, coords in labelled]
    return Arrangement(F, lines, [label for label, _ in labelled])


def _points(cert: Certificate, F: FieldSpec, value) -> list[tuple[str, ProjPoint]]:
    if cert.points_fn is None:
        return []
    return [(label, ProjPoint(F, coords)) for label, coords in cert.points_fn(F, value)]


def instantiate(cert: Certificate | str, F: FieldSpec,
                param: Optional[FieldElement] = None) -> Arrangement:
    """Concrete arrangement of a certificate over an eligible field."""
    if isinstance(cert, str):
        cert = builtin(cert)
    return _arrangement(cert, F, _resolve_param(cert, F, param))


def _instance(cert: Certificate | str, F: FieldSpec, param: Optional[FieldElement]):
    """The certificate, its resolved parameter, arrangement and labelled points."""
    if isinstance(cert, str):
        cert = builtin(cert)
    value = _resolve_param(cert, F, param)
    return cert, value, _arrangement(cert, F, value), _points(cert, F, value)


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
