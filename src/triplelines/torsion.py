"""Abstract p-torsion configurations and their dual line-arrangement counts.

The group (Z/p)^2 models the p-torsion points of a plane cubic: three
distinct points are collinear exactly when they sum to zero, and for p >= 5
the tangent at a nonzero point X meets the group again at -2X. Dualizing
gives p^2 lines whose triple points are the secant blocks and whose double
points are the tangent pairs; all counts here are recomputed from the model
by enumeration and cross-checked against the closed forms.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .bounds import schoenheim_u3
from .errors import NonPrime, UnsupportedPrime
from .field import is_prime
from .incidence import check_identity


@dataclass(frozen=True)
class TorsionModel:
    p: int
    points: tuple                 # all pairs over Z/p
    secant_blocks: tuple          # frozensets {P, Q, R}, distinct, P+Q+R = 0
    tangent_pairs: tuple          # frozensets {X, -2X}, X != 0 (empty for p = 3)
    special_case: bool            # p = 3: tangent relation degenerates

    @property
    def num_lines(self) -> int:
        return len(self.secant_blocks) + len(self.tangent_pairs)


def torsion_model(p: int) -> TorsionModel:
    """Blocks and tangent pairs of the p-torsion group (Z/p)^2.

    Each secant block is generated once, as P < Q < R = -P-Q, so the blocks
    come out in lexicographic order of their sorted points.
    """
    if not is_prime(p) or p == 2:
        raise NonPrime(f"p = {p} is not an odd prime")
    points = tuple(itertools.product(range(p), repeat=2))
    blocks = []
    for n, P in enumerate(points):
        for Q in points[n + 1:]:
            R = ((-P[0] - Q[0]) % p, (-P[1] - Q[1]) % p)
            if R > Q:
                blocks.append(frozenset((P, Q, R)))
    pairs = []
    if p >= 5:
        # X -> -2X has no fixed point and no 2-cycle (3X != 0), so each pair
        # arises from exactly one nonzero X
        for X in points[1:]:
            Y = ((-2 * X[0]) % p, (-2 * X[1]) % p)
            pairs.append((X, Y) if X < Y else (Y, X))
        pairs.sort()
    return TorsionModel(p, points, tuple(blocks),
                        tuple(frozenset(pair) for pair in pairs), special_case=(p == 3))


def linearity_check(model: TorsionModel) -> bool:
    """Every point pair lies in exactly one block or tangent pair.

    This is the consistency that makes the dual a genuine line arrangement:
    two points determine one line. Pairs are counted in a flat array over
    the point positions in model.points (x*p + y); a point outside them
    fails the check.
    """
    code = {X: i for i, X in enumerate(model.points)}
    n = len(code)
    covered = bytearray(n * n)
    for group in itertools.chain(model.secant_blocks, model.tangent_pairs):
        try:
            codes = sorted(code[X] for X in group)
        except KeyError:
            return False
        for a, b in itertools.combinations(codes, 2):
            k = a * n + b
            if covered[k]:
                return False
            covered[k] = 1
    return sum(covered) == n * (n - 1) // 2


@dataclass(frozen=True)
class TorsionDualCounts:
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
    if not linearity_check(model):
        raise RuntimeError("torsion model is not a partial linear space")
    q = p ** 2
    t3 = len(model.secant_blocks)
    t2 = len(model.tangent_pairs)

    # dual points on the dual line of X: the blocks and pairs containing X
    lines_through = Counter(X for group in model.secant_blocks + model.tangent_pairs
                            for X in group)
    through_zero = lines_through[(0, 0)]
    nonzero_counts = {lines_through[X] for X in model.points if X != (0, 0)}
    if len(nonzero_counts) != 1:
        raise RuntimeError("nonzero torsion points see different line counts")
    through_nonzero = nonzero_counts.pop()

    identity = check_identity(q, {3: t3, 2: t2})
    u3 = schoenheim_u3(q)
    return TorsionDualCounts(
        p=p, lines=q, t3=t3, t2=t2,
        points_on_dual_of_zero=through_zero,
        points_on_dual_of_nonzero=through_nonzero,
        u3=u3, gap=u3 - t3, identity_holds=identity,
    )
