"""Points, lines and incidence in the projective plane PG(2, F).

Both points and lines are homogeneous triples normalized so that the first
nonzero coordinate is 1, giving O(1) structural equality. Incidence is a
vanishing dot product, join/meet are cross products, and collinearity or
concurrency is a vanishing 3x3 determinant. The meet of two lines is computed
on element indices through the field tables (_meet_key), which is what the
intersection profiles of arrangements run on.
"""

from __future__ import annotations

from typing import Sequence

from .errors import FieldMismatch, IdenticalArguments
from .field import FieldElement, FieldSpec


def _normalize(field: FieldSpec, coords) -> tuple[FieldElement, FieldElement, FieldElement]:
    elems = []
    for c in coords:
        if isinstance(c, FieldElement):
            if c.field != field:
                raise FieldMismatch(f"coordinate from {c.field!r} used in {field!r}")
            elems.append(c)
        else:
            elems.append(field.element(c))
    if len(elems) != 3:
        raise ValueError(f"homogeneous triple expected, got {len(elems)} coordinates")
    pivot = next((e for e in elems if not e.is_zero()), None)
    if pivot is None:
        raise ValueError("(0:0:0) is not a projective element")
    if pivot.index == 1:
        return tuple(elems)
    scale = pivot.inverse()
    return tuple(e * scale for e in elems)


class _Homogeneous:
    __slots__ = ("field", "coords", "_key")

    def __init__(self, field: FieldSpec, coords):
        self.field = field
        self.coords = _normalize(field, coords)
        self._key = None

    @classmethod
    def _from_key(cls, field: FieldSpec, key: tuple):
        """The element whose normalized index triple is key, taken as it is."""
        obj = cls.__new__(cls)
        obj.field = field
        obj.coords = tuple(FieldElement(field, i) for i in key)
        obj._key = key
        return obj

    def key(self) -> tuple:
        """The normalized coordinates as element indices, computed once."""
        if self._key is None:
            self._key = tuple(c.index for c in self.coords)
        return self._key

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.field == other.field
                and self.key() == other.key())

    def __hash__(self) -> int:
        # hashing leaves an uncached key uncached: a plane's points and lines
        # are hashed once each, and keeping their keys would only cost memory
        key = self._key or tuple(c.index for c in self.coords)
        return hash((type(self).__name__, self.field.key(), key))

    def __lt__(self, other) -> bool:
        return self.key() < other.key()


class ProjPoint(_Homogeneous):
    def __repr__(self) -> str:
        return "(" + ":".join(repr(c) for c in self.coords) + ")"


class ProjLine(_Homogeneous):
    """A line a*x + b*y + c*z = 0, stored as the normalized triple [a,b,c]."""

    def __repr__(self) -> str:
        return "[" + ",".join(repr(c) for c in self.coords) + "]"


def _check_same_field(a: _Homogeneous, b: _Homogeneous) -> None:
    if a.field != b.field:
        raise FieldMismatch(f"{a!r} and {b!r} live in different fields")


# cross, inner and det3 use only + - * and so work on triples over any
# commutative ring: field elements here, integer polynomials in the scenario
# derivations of constraints.py

def inner(a: Sequence, b: Sequence):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Sequence, b: Sequence) -> tuple:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def dot(a: _Homogeneous, b: _Homogeneous) -> FieldElement:
    _check_same_field(a, b)
    return inner(a.coords, b.coords)


def incident(P: ProjPoint, L: ProjLine) -> bool:
    return dot(P, L).is_zero()


def join(P: ProjPoint, Q: ProjPoint) -> ProjLine:
    """The unique line through two distinct points."""
    _check_same_field(P, Q)
    if P == Q:
        raise IdenticalArguments(f"join of identical points {P!r}")
    return ProjLine(P.field, cross(P.coords, Q.coords))


def _meet_key(F: FieldSpec, a: tuple, b: tuple) -> tuple:
    """Normalized index triple of the meet of the lines with normalized index
    triples a and b: the cross product a x b over the field tables, scaled so
    that its first nonzero entry is 1.

    Raises IdenticalArguments when a == b (the cross product vanishes).
    """
    add, mul, neg = F.add_table, F.mul_table, F.neg_table
    a0, a1, a2 = a
    b0, b1, b2 = b
    x = add[mul[a1][b2]][neg[mul[a2][b1]]]
    y = add[mul[a2][b0]][neg[mul[a0][b2]]]
    z = add[mul[a0][b1]][neg[mul[a1][b0]]]
    pivot = x or y or z
    if pivot == 1:
        return (x, y, z)
    if not pivot:
        raise IdenticalArguments(f"meet of identical lines with key {a}")
    scale = mul[F.inv_table[pivot]]
    return (scale[x], scale[y], scale[z])


def meet(L1: ProjLine, L2: ProjLine) -> ProjPoint:
    """The unique common point of two distinct lines."""
    _check_same_field(L1, L2)
    return ProjPoint._from_key(L1.field, _meet_key(L1.field, L1.key(), L2.key()))


def collinear(P: ProjPoint, Q: ProjPoint, R: ProjPoint) -> bool:
    _check_same_field(P, Q)
    _check_same_field(P, R)
    return det3([P.coords, Q.coords, R.coords]).is_zero()


def concurrent(L1: ProjLine, L2: ProjLine, L3: ProjLine) -> bool:
    _check_same_field(L1, L2)
    _check_same_field(L1, L3)
    return det3([L1.coords, L2.coords, L3.coords]).is_zero()


def as_line(P: ProjPoint) -> ProjLine:
    """Duality swap: reinterpret point coordinates as line coefficients."""
    return ProjLine(P.field, P.coords)


def _enumerate_triples(F: FieldSpec):
    one = F.one
    elems = F.elements()
    # normalized representatives in lexicographic coordinate order; with
    # coordinates read as element indices, (0:0:1) comes first, (0:1:z) has
    # position 1 + z and (1:y:z) position 1 + q + q*y + z (triple_position)
    out = [(F.zero, F.zero, one)]
    for c in elems:
        out.append((F.zero, one, c))
    for b in elems:
        for c in elems:
            out.append((one, b, c))
    return out


def triple_position(q: int, key: tuple) -> int:
    """Position of the normalized index triple key in _enumerate_triples
    order over a field of order q: the inverse of that enumeration."""
    a, b, c = key
    return 1 + q + q * b + c if a else 1 + c if b else 0


def line_point_indices(F: FieldSpec) -> list[tuple[int, ...]]:
    """For each line in enumerate_lines(F) order, the ascending positions of
    its q + 1 points in enumerate_points(F).

    Each normalized line [a:b:c] is solved directly over the field tables
    (a, b, c, y, z are element indices), O(q) per line:
      (0:0:1) lies on it iff c = 0;
      (0:1:z) iff b + c*z = 0: z = -b/c if c != 0, every z if b = c = 0;
      (1:y:z) iff a + b*y + c*z = 0: z = -(a + b*y)/c for every y if c != 0,
      y = -a/b with every z if c = 0 and b != 0.
    """
    q = F.order
    add, mul, neg, inv = F.add_table, F.mul_table, F.neg_table, F.inv_table
    # one int object per point position, shared by all lines through it
    position = list(range(q * q + q + 1))
    affine = [position[1 + q + q * y:1 + 2 * q + q * y] for y in range(q)]
    out = []
    for L in _enumerate_triples(F):
        a, b, c = (e.index for e in L)
        if c:
            minus_inv_c = mul[neg[inv[c]]]
            by, a_plus = mul[b], add[a]
            pts = [position[1 + minus_inv_c[b]]]
            pts.extend(row[minus_inv_c[a_plus[by[y]]]] for y, row in enumerate(affine))
        elif b:
            pts = [0, *affine[mul[neg[a]][inv[b]]]]
        else:
            pts = position[:q + 1]
        out.append(tuple(pts))
    return out


def enumerate_points(F: FieldSpec) -> list[ProjPoint]:
    """All q^2 + q + 1 points, deterministic coordinate-lexicographic order."""
    return [ProjPoint(F, t) for t in _enumerate_triples(F)]


def enumerate_lines(F: FieldSpec) -> list[ProjLine]:
    return [ProjLine(F, t) for t in _enumerate_triples(F)]
