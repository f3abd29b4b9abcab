"""Abstract p-torsion configurations and their dual line-arrangement counts.

The group (Z/p)^2 models the p-torsion points of a plane cubic: three
distinct points are collinear exactly when they sum to zero, and for p >= 5
the tangent at a nonzero point X meets the group again at -2X. Dualizing
gives p^2 lines whose triple points are the secant blocks and whose double
points are the tangent pairs. The model keeps the blocks of that dual by
column, over the point positions: three columns for the secant blocks and
two for the tangent pairs, which AbstractIncidence checks as they are; the
counts read from it are cross-checked against the closed forms.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from operator import gt, itemgetter
from typing import NamedTuple

from .bounds import schoenheim_u3
from .errors import NonPrime, UnsupportedPrime
from .field import is_prime
from .incidence import AbstractIncidence, check_identity


class TorsionModel(NamedTuple):
    """The group (Z/p)^2 with its blocks, written over point positions.

    `secant` holds the array('i') columns (P, Q, R) of the secant blocks,
    one entry per block, with P < Q < R in lexicographic order; `tangent`
    holds the columns (X, Y) of the tangent pairs, with X < Y. Both are runs
    as AbstractIncidence.from_runs takes them.
    """

    p: int
    points: tuple                 # all pairs (x, y) over Z/p, at position x*p + y
    secant: tuple                 # columns (P, Q, R): P < Q < R, P+Q+R = 0
    tangent: tuple                # columns (X, Y): {X, -2X} as (min, max), X != 0 (empty for p = 3)
    special_case: bool            # p = 3: tangent relation degenerates

    @property
    def num_lines(self) -> int:
        return len(self.secant[0]) + len(self.tangent[0])


def torsion_model(p: int) -> TorsionModel:
    """Blocks and tangent pairs of the p-torsion group (Z/p)^2.

    Each secant block is generated once, as the entry (P, Q, R) with
    P < Q < R = -P-Q, so the blocks come out in lexicographic order.
    """
    if not is_prime(p) or p == 2:
        raise NonPrime(f"p = {p} is not an odd prime")
    points = tuple(itertools.product(range(p), repeat=2))
    q = p * p
    # per y, at position w*p + v: the position of (w, -y-v)
    across = [array("i", [w * p + (-y - v) % p for w, v in points]) for y in range(p)]
    positions = array("i", range(q))
    P_col, Q_col, R_col = secant = array("i"), array("i"), array("i")
    for P, (x, y) in enumerate(points):
        # Q = (u, v) > P runs row by row, and R = -P-Q lies in row w = -x-u:
        # R > Q for the whole row when w > u, for none of it when w < u, and
        # element by element when w = u
        for u in range(x, p):
            w = (-x - u) % p
            if w < u:
                continue
            v = y + 1 if u == x else 0
            Q = positions[u * p + v:u * p + p]
            R = across[y][w * p + v:w * p + p]
            if w == u:
                keep = bytes(map(gt, R, Q))
                Q, R = itertools.compress(Q, keep), itertools.compress(R, keep)
            Q_col.extend(Q)
            R_col.extend(R)
        P_col.extend(itertools.repeat(P, len(Q_col) - len(P_col)))
    pairs = []
    if p >= 5:
        # X -> -2X has no fixed point and no 2-cycle (3X != 0), so each pair
        # arises from exactly one nonzero X
        for X, (x, y) in enumerate(points[1:], 1):
            Y = (-2 * x) % p * p + (-2 * y) % p
            pairs.append((X, Y) if X < Y else (Y, X))
        pairs.sort()
    tangent = tuple(array("i", map(itemgetter(i), pairs)) for i in range(2))
    return TorsionModel(p, points, secant, tangent, special_case=(p == 3))


def torsion_dual(model: TorsionModel) -> AbstractIncidence:
    """The dual incidence structure: line i is the dual of model.points[i],
    and its blocks are the secant blocks, then the tangent pairs.

    Raises RuntimeError unless every pair of dual lines lies in exactly one
    block, which makes the dual a genuine line arrangement: two points of
    the model determine one line.
    """
    n = len(model.points)
    try:
        dual = AbstractIncidence.from_runs(n, (model.secant, model.tangent))
    except ValueError as exc:
        raise RuntimeError(f"torsion model is not a partial linear space: {exc}") from exc
    sizes = Counter()
    for cols in dual.runs:
        sizes[len(cols)] += len(cols[0])
    if not check_identity(n, sizes):
        raise RuntimeError("torsion model leaves a point pair in no block")
    return dual


class TorsionDualCounts(NamedTuple):
    p: int
    lines: int                     # p^2 dual lines, one per torsion point
    t3: int                        # secant blocks
    t2: int                        # tangent pairs
    points_on_dual_of_zero: int
    points_on_dual_of_nonzero: int
    u3: int
    gap: int                       # U_3(p^2) - t3
    identity_holds: bool           # C(p^2,2) = 3*t3 + t2

    def closed_forms_hold(self) -> bool:
        q = self.p ** 2
        return (self.t3 == (q - 1) * (q - 2) // 6
                and self.t2 == q - 1
                and self.points_on_dual_of_zero == (q - 1) // 2
                and self.points_on_dual_of_nonzero == (q + 1) // 2
                and self.gap == (q - 1) // 3)


def torsion_dual_counts(model: TorsionModel | int) -> TorsionDualCounts:
    """Dualize the model: points become lines, blocks/pairs become points.

    Takes a built model, or the prime p to build it from.
    """
    if not isinstance(model, TorsionModel):
        model = torsion_model(model)
    p = model.p
    if p == 3:
        raise UnsupportedPrime(
            "p = 3 degenerates (the triple-point count (p^2-1)(p^2-2)/6 is not "
            "an integer and -2X = X); this is the nine-point dozen-line special case")
    # dual points on the dual line of X: the blocks through X; 0 is at position 0
    through_zero, *through_nonzero = (sum(map(itemgetter(1), sig))
                                      for sig in torsion_dual(model).signature)
    if len(set(through_nonzero)) != 1:
        raise RuntimeError("nonzero torsion points see different line counts")

    q = p ** 2
    t3 = len(model.secant[0])
    t2 = len(model.tangent[0])
    u3 = schoenheim_u3(q)
    return TorsionDualCounts(
        p=p, lines=q, t3=t3, t2=t2,
        points_on_dual_of_zero=through_zero,
        points_on_dual_of_nonzero=through_nonzero[0],
        u3=u3, gap=u3 - t3, identity_holds=check_identity(q, {3: t3, 2: t2}),
    )
