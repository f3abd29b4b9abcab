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
from math import comb

from .bounds import schoenheim_u3
from .errors import NonPrime, UnsupportedPrime
from .field import is_prime


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
    """Blocks and tangent pairs of the p-torsion group (Z/p)^2."""
    if not is_prime(p) or p == 2:
        raise NonPrime(f"p = {p} is not an odd prime")
    points = tuple(itertools.product(range(p), repeat=2))
    blocks = set()
    for P, Q in itertools.combinations(points, 2):
        R = ((-P[0] - Q[0]) % p, (-P[1] - Q[1]) % p)
        if R != P and R != Q:
            blocks.add(frozenset((P, Q, R)))
    pairs = set()
    if p >= 5:
        for X in points:
            if X == (0, 0):
                continue
            Y = ((-2 * X[0]) % p, (-2 * X[1]) % p)
            pairs.add(frozenset((X, Y)))
    return TorsionModel(p, points, tuple(sorted(blocks, key=sorted)),
                        tuple(sorted(pairs, key=sorted)), special_case=(p == 3))


def linearity_check(model: TorsionModel) -> bool:
    """Every point pair lies in exactly one block or tangent pair.

    This is the consistency that makes the dual a genuine line arrangement:
    two points determine one line.
    """
    seen: dict[frozenset, int] = {}
    for blk in model.secant_blocks:
        for pair in itertools.combinations(sorted(blk), 2):
            key = frozenset(pair)
            seen[key] = seen.get(key, 0) + 1
    for pair in model.tangent_pairs:
        seen[pair] = seen.get(pair, 0) + 1
    expected = {frozenset(c) for c in itertools.combinations(model.points, 2)}
    return set(seen) == expected and all(v == 1 for v in seen.values())


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

    identity = comb(q, 2) == 3 * t3 + t2
    u3 = schoenheim_u3(q)
    return TorsionDualCounts(
        p=p, lines=q, t3=t3, t2=t2,
        points_on_dual_of_zero=through_zero,
        points_on_dual_of_nonzero=through_nonzero,
        u3=u3, gap=u3 - t3, identity_holds=identity,
    )
