"""Upper bounds on the number of triple points of s lines.

The naive bound floor(C(s,2)/3) follows from the pair-count identity; the
Kirkman-Schoenheim packing bound U_3(s) sharpens it with a correction term
when s is congruent to 5 mod 6. All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple


def eps(s: int) -> int:
    return 1 if s % 6 == 5 else 0


def naive_bound(s: int) -> int:
    """floor(C(s,2) / 3)."""
    if s < 1:
        raise ValueError("s must be positive")
    return comb(s, 2) // 3


def schoenheim_u3(s: int) -> int:
    """U_3(s) = floor(floor((s-1)/2) * s / 3) - eps(s).

    The inner floor applies to (s-1)/2 and the outer one to the whole
    product over 3; everything stays in integers.
    """
    if s < 1:
        raise ValueError("s must be positive")
    return (((s - 1) // 2) * s) // 3 - eps(s)


class BoundRow(NamedTuple):
    s: int
    naive: int
    u3: int
    eps: int


def bound_table(max_s: int) -> list[BoundRow]:
    if max_s < 1:
        raise ValueError("max_s must be positive")
    return [BoundRow(s, naive_bound(s), schoenheim_u3(s), eps(s))
            for s in range(1, max_s + 1)]
