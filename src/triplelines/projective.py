"""Points, lines and incidence in the projective plane PG(2, F).

A point or line is stored as its normalized index triple: the element
indices of its coordinates, scaled by normalized_key so that the first
nonzero one is 1, which gives O(1) structural equality; `coords` builds the
FieldElements on demand. Incidence is a vanishing dot product, join and meet
are cross products (on index triples through the field tables, _cross_key,
which the intersection profiles of arrangements run on), and collinearity or
concurrency is a vanishing 3x3 determinant.
"""

from __future__ import annotations

from typing import Sequence

from .errors import FieldMismatch, IdenticalArguments
from .field import FieldElement, FieldSpec


def normalized_key(F: FieldSpec, x: int, y: int, z: int) -> tuple:
    """The index triple (x, y, z) scaled so that its first nonzero entry is 1.

    Raises ValueError for (0, 0, 0).
    """
    pivot = x or y or z
    if pivot == 1:
        return (x, y, z)
    if not pivot:
        raise ValueError("(0:0:0) is not a projective element")
    scale = F.mul_table[F.inv_table[pivot]]
    return (scale[x], scale[y], scale[z])


def _index(field: FieldSpec, c) -> int:
    if isinstance(c, FieldElement):
        if c.field != field:
            raise FieldMismatch(f"coordinate from {c.field!r} used in {field!r}")
        return c.index
    return field.element(c).index


class _Homogeneous:
    """A point or line of PG(2, field), stored as the field and its normalized
    index triple; `coords`, the FieldElement triple, is derived from it."""

    __slots__ = ("field", "_key")

    def __init__(self, field: FieldSpec, coords):
        indices = [_index(field, c) for c in coords]
        if len(indices) != 3:
            raise ValueError(f"homogeneous triple expected, got {len(indices)} coordinates")
        self.field = field
        self._key = normalized_key(field, *indices)

    @classmethod
    def _from_key(cls, field: FieldSpec, key: tuple):
        """The element whose normalized index triple is key, taken as it is."""
        obj = cls.__new__(cls)
        obj.field = field
        obj._key = key
        return obj

    def key(self) -> tuple:
        """The normalized coordinates as element indices."""
        return self._key

    @property
    def coords(self) -> tuple[FieldElement, FieldElement, FieldElement]:
        return tuple(FieldElement(self.field, i) for i in self._key)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.field == other.field
                and self._key == other._key)

    def __hash__(self) -> int:
        # __eq__ tells points from lines and fields apart
        return hash(self._key)

    def __lt__(self, other) -> bool:
        return self._key < other._key


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


def _cross_key(F: FieldSpec, a: tuple, b: tuple) -> tuple:
    """Normalized index triple of the cross product a x b of two normalized
    index triples, over the field tables: the meet of two lines, or the join
    of two points.

    Raises IdenticalArguments when a == b (the cross product vanishes).
    """
    add, mul, neg = F.add_table, F.mul_table, F.neg_table
    a0, a1, a2 = a
    b0, b1, b2 = b
    try:
        return normalized_key(F, add[mul[a1][b2]][neg[mul[a2][b1]]],
                              add[mul[a2][b0]][neg[mul[a0][b2]]],
                              add[mul[a0][b1]][neg[mul[a1][b0]]])
    except ValueError:
        raise IdenticalArguments(f"identical points or lines with key {a}") from None


def join(P: ProjPoint, Q: ProjPoint) -> ProjLine:
    """The unique line through two distinct points."""
    _check_same_field(P, Q)
    return ProjLine._from_key(P.field, _cross_key(P.field, P.key(), Q.key()))


def meet(L1: ProjLine, L2: ProjLine) -> ProjPoint:
    """The unique common point of two distinct lines."""
    _check_same_field(L1, L2)
    return ProjPoint._from_key(L1.field, _cross_key(L1.field, L1.key(), L2.key()))


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
    return ProjLine._from_key(P.field, P.key())


def _enumerate_triples(q: int):
    """The normalized index triples over a field of order q, in lexicographic
    order: (0:0:1) comes first, (0:1:z) has position 1 + z and (1:y:z)
    position 1 + q + q*y + z (triple_position)."""
    yield (0, 0, 1)
    for c in range(q):
        yield (0, 1, c)
    for b in range(q):
        for c in range(q):
            yield (1, b, c)


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
    for a, b, c in _enumerate_triples(q):
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
    return [ProjPoint._from_key(F, t) for t in _enumerate_triples(F.order)]


def enumerate_lines(F: FieldSpec) -> list[ProjLine]:
    return [ProjLine._from_key(F, t) for t in _enumerate_triples(F.order)]
