"""Points, lines and incidence in the projective plane PG(2, F).

A point or line is stored as its normalized index triple: the element
indices of its coordinates, scaled by normalized_key so that the first
nonzero one is 1, which gives O(1) structural equality; `coords` builds the
FieldElements on demand. Incidence is a vanishing dot product, join and meet
are cross products (on index triples through the field tables, _cross_key,
which the intersection profiles of arrangements run on), and collinearity or
concurrency is a vanishing 3x3 determinant.

Points and lines of the whole plane have positions in one fixed order
(triple_position). The points of each line (line_point_indices) and the
collineations that fix the frame lines (frame_stabilizer) are built over
that order as array('H') rows of positions.
"""

from __future__ import annotations

import operator
import sys
from array import array
from itertools import chain, repeat
from operator import itemgetter
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


def line_point_indices(F: FieldSpec) -> list[array]:
    """For each line in enumerate_lines(F) order, the ascending positions of
    its q + 1 points in enumerate_points(F), as one array('H') row.

    Each normalized line [a:b:c] is solved directly over the field tables
    (a, b, c, y, z, w are element indices):
      (0:0:1) lies on it iff c = 0;
      (0:1:z) iff b + c*z = 0: z = -b/c if c != 0, every z if b = c = 0;
      (1:y:z) iff a + b*y + c*z = 0: z = -(a + b*y)/c for every y if c != 0,
      y = -a/b with every z if c = 0 and b != 0.
    The lines with c = 0 are runs of positions. The q + 1 lines [0:1:c] and
    [1:b:c] with one c != 0 are built as one block: each z is the image of
    some w under w -> -(1 + w)/c, and w does not depend on c:
      [0:1:c]: w = 0 for (0:1:z), w = y - 1 for (1:y:z);
      [1:b:c]: w = b - 1 for (0:1:z), w = b*y for (1:y:z).
    One bytes.translate maps the whole block of w to its z, which fit in a
    byte as q <= 255 (search.Plane rejects larger fields). A point's position
    is a fixed offset plus z, so the block is added as one int holding a
    16-bit field per point: no field carries, as positions are below 2^16.
    """
    q = F.order
    add, mul, neg, inv = F.add_table, F.mul_table, F.neg_table, F.inv_table
    n, width = q * q + q + 1, q + 1
    affine = range(1 + q, n, q)                # affine[y]: the position of (1:y:0)
    out: list = [None] * n
    out[0] = array("H", [1, *affine])          # [0:0:1]: (0:1:0) and every (1:y:0)
    out[1 + q] = array("H", range(q + 1))      # [1:0:0]: (0:0:1) and every (0:1:z)

    def through_origin(y: int) -> array:
        """(0:0:1) and every (1:y:z)."""
        return array("H", [0, *range(affine[y], affine[y] + q)])

    out[1] = through_origin(0)                 # [0:1:0]
    for b in range(1, q):
        out[1 + q + q * b] = through_origin(mul[neg[1]][inv[b]])    # [1:b:0]: y = -1/b

    # the w of each point of a block's rows: [0:1:c] first, then [1:b:c] by b
    sub_one = add[neg[1]]
    ws = bytearray([0, *sub_one])
    for b in range(q):
        ws.append(sub_one[b])
        ws.extend(mul[b])
    # a block as one int with a native 16-bit field per point: z goes into the
    # low byte of its field, and the position offsets, 1 for (0:1:z) and
    # affine[y] for (1:y:z), are one int too
    order = sys.byteorder
    low = 1 if order == "big" else 0
    fields = bytearray(2 * len(ws))
    offsets = int.from_bytes(array("H", [1, *affine] * width).tobytes(), order)
    pad = bytes(256 - q)
    for c in range(1, q):
        minus_inv_c = mul[neg[inv[c]]]
        fields[low::2] = ws.translate(bytes(map(minus_inv_c.__getitem__, add[1])) + pad)
        block = array("H", (int.from_bytes(fields, order) + offsets).to_bytes(len(fields), order))
        out[1 + c] = block[:width]
        for b in range(q):
            out[1 + q + q * b + c] = block[width * (b + 1):width * (b + 2)]
    return out


# the frame lines x, y, z, x+y+z
FRAME_COORDS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def frame_stabilizer(F: FieldSpec) -> list[array]:
    """The collineations of PG(2,q) that map the frame lines x, y, z, x+y+z
    onto themselves, as permutations of the line ids in array('H'), in
    ascending order (the identity first).

    The 24 projectivities permuting the frame lines (S4) act on line
    coordinates as u -> uM, where M is an integer matrix whose rows are
    +-(frame vectors); the field automorphisms e -> e^p fix the frame too,
    so the group has order 24*k. S4 is closed from two generators, x <-> y
    and the 4-cycle x -> y -> z -> x+y+z -> x; Frobenius commutes with S4,
    whose matrices have prime-field entries, so the group is S4 times the
    powers of Frobenius. Line [0:0:1] has position 0, [0:1:c] 1 + c and
    [1:b:c] affine[b] + c (triple_position), and each generator
    maps one run [0:1:*] or [1:b:*] at a time, over the field tables. The
    images of the four frame lines fix a projectivity, so they tell the
    elements of S4 apart while it is closed.
    """
    q, mul, neg, inv = F.order, F.mul_table, F.neg_table, F.inv_table
    n = q * q + q + 1
    affine = range(1 + q, n, q)                # affine[b]: the position of [1:b:0]

    def run(start: int, cs) -> map:
        """The positions start + c of the lines whose last coordinates are cs."""
        return map(operator.add, repeat(start), cs)

    nonzero = range(1, q)
    # x <-> y: [0:1:c] <-> [1:0:c], and [1:b:c] -> [1 : 1/b : c/b] for b != 0
    swap = (0, *range(affine[0], affine[0] + q), *range(1, 1 + q),
            *chain.from_iterable(run(affine[inv[b]], mul[inv[b]]) for b in nonzero))
    # [a:b:c] -> [-c : a-c : b-c]: [0:0:1] -> [1:1:1], [0:1:0] -> [0:0:1],
    # [0:1:c] -> [1 : 1 : 1-1/c], [1:b:0] -> [0:1:b] and
    # [1:b:c] -> [1 : 1-1/c : 1-b/c] for c != 0
    one_minus = [F.add_table[1][neg[x]] for x in range(q)]
    inverses = [inv[c] for c in nonzero]
    cycle = (affine[1] + 1, 0, *(affine[1] + one_minus[i] for i in inverses),
             *chain.from_iterable(
                 (1 + b, *(affine[one_minus[i]] + one_minus[mul[b][i]] for i in inverses))
                 for b in range(q)))

    # itemgetter(*h)(g) is the composite g.h, i -> g[h[i]]
    frame = [triple_position(q, key) for key in FRAME_COORDS]
    gens = [(itemgetter(*(h[i] for i in frame)), itemgetter(*h)) for h in (swap, cycle)]
    identity = array("H", range(n))
    s4, frontier = {tuple(frame): identity}, [identity]
    while frontier and len(s4) <= 24:
        new = []
        for g in frontier:
            for frame_images, compose in gens:
                key = frame_images(g)           # the images of the frame lines under g.h
                if key not in s4:
                    s4[key] = gh = array("H", compose(g))
                    new.append(gh)
        frontier = new

    group = list(s4.values())
    if F.k > 1:
        pth = []                                           # e -> e^p
        for e in range(q):
            power = 1
            for _ in range(F.p):
                power = mul[power][e]
            pth.append(power)
        # [0:1:c] -> [0 : 1 : c^p] and [1:b:c] -> [1 : b^p : c^p]
        frob = itemgetter(0, *run(1, pth),
                          *chain.from_iterable(run(affine[pth[b]], pth) for b in range(q)))
        power = identity
        for _ in range(F.k - 1):
            power = array("H", frob(power))
            compose = itemgetter(*power)
            group.extend(array("H", compose(g)) for g in s4.values())
    group.sort()
    repeats = sum(map(operator.eq, group, group[1:]))
    if len(group) != 24 * F.k or repeats:
        raise RuntimeError(f"frame stabilizer of PG(2,{q}) has order {len(group) - repeats}, "
                           f"expected {24 * F.k}")
    return group


def enumerate_points(F: FieldSpec) -> list[ProjPoint]:
    """All q^2 + q + 1 points, deterministic coordinate-lexicographic order."""
    return [ProjPoint._from_key(F, t) for t in _enumerate_triples(F.order)]


def enumerate_lines(F: FieldSpec) -> list[ProjLine]:
    return [ProjLine._from_key(F, t) for t in _enumerate_triples(F.order)]
