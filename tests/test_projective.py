"""Incidence, join/meet, collinearity and plane enumeration in PG(2, F)."""

import itertools
import random

import pytest

from triplelines.errors import FieldMismatch, IdenticalArguments
from triplelines.field import make_field
from triplelines.projective import (
    ProjLine,
    ProjPoint,
    as_line,
    collinear,
    concurrent,
    cross,
    dot,
    enumerate_lines,
    enumerate_points,
    incident,
    join,
    meet,
)

SMALL_FIELDS = [make_field(q) for q in (2, 3, 5)] + [make_field(2, 2)]


def test_incidence_published_cells():
    F5 = make_field(5)
    # Z_3 = (4:3:1) lies on M_2: 2x+4y
    assert incident(ProjPoint(F5, (4, 3, 1)), ProjLine(F5, (2, 4, 0)))
    # (0:0:1) on z fails, on x holds
    F = make_field(7)
    assert not incident(ProjPoint(F, (0, 0, 1)), ProjLine(F, (0, 0, 1)))
    assert incident(ProjPoint(F, (0, 0, 1)), ProjLine(F, (1, 0, 0)))
    # W = (1:1:a) on M_2 = ax+z in characteristic 2
    F4 = make_field(2, 2)
    a = F4.element([0, 1])
    assert incident(ProjPoint(F4, (F4.one, F4.one, a)),
                    ProjLine(F4, (a, F4.zero, F4.one)))


def test_normalization_united_representatives():
    F5 = make_field(5)
    assert ProjPoint(F5, (4, 3, 1)) == ProjPoint(F5, (1, 2, 4))
    assert ProjPoint(F5, (0, 2, 1)) == ProjPoint(F5, (0, 1, 3))
    with pytest.raises(ValueError):
        ProjPoint(F5, (0, 0, 0))


ORACLE_FIELDS = [make_field(2), make_field(3), make_field(2, 2), make_field(5),
                 make_field(2, 3), make_field(3, 2)]


def _scaled_by_pivot(triple) -> tuple:
    """Reference normalization on FieldElements: scale by the inverse of the
    first nonzero entry, then read off the element indices."""
    scale = next(e for e in triple if not e.is_zero()).inverse()
    return tuple((e * scale).index for e in triple)


@pytest.mark.parametrize("F", ORACLE_FIELDS, ids=repr)
def test_key_is_every_triple_scaled_by_its_pivot(F):
    for t in itertools.product(F.elements(), repeat=3):
        if any(not e.is_zero() for e in t):
            assert ProjLine(F, t).key() == _scaled_by_pivot(t)


@pytest.mark.parametrize("F", ORACLE_FIELDS, ids=repr)
def test_join_is_the_normalized_cross_product(F):
    rng = random.Random(F.order)
    points = enumerate_points(F)
    for _ in range(200):
        P, Q = rng.sample(points, 2)
        c = cross(P.coords, Q.coords)
        assert join(P, Q) == ProjLine(F, c)
        assert join(P, Q).key() == _scaled_by_pivot(c)


def test_meet_and_join_examples():
    F5 = make_field(5)
    x, y = ProjLine(F5, (1, 0, 0)), ProjLine(F5, (0, 1, 0))
    assert meet(x, y) == ProjPoint(F5, (0, 0, 1))
    # meet(M_2: 2x+4y, M_3: 3y+z) = Z_3 = (4:3:1)
    assert meet(ProjLine(F5, (2, 4, 0)), ProjLine(F5, (0, 3, 1))) == ProjPoint(F5, (4, 3, 1))
    with pytest.raises(IdenticalArguments):
        meet(x, ProjLine(F5, (2, 0, 0)))
    with pytest.raises(IdenticalArguments):
        join(ProjPoint(F5, (1, 2, 3)), ProjPoint(F5, (2, 4, 6)))


def test_collinear_concurrent_examples():
    F = make_field(5)
    assert collinear(ProjPoint(F, (1, 0, 0)), ProjPoint(F, (0, 1, 0)),
                     ProjPoint(F, (1, 1, 0)))
    assert not collinear(ProjPoint(F, (1, 0, 0)), ProjPoint(F, (0, 1, 0)),
                         ProjPoint(F, (0, 0, 1)))
    F4 = make_field(2, 2)
    a = F4.element([0, 1])
    one, zero = F4.one, F4.zero
    # pencil through (1:1:a): x+y, ax+z, a^2x+y+z
    assert concurrent(ProjLine(F4, (1, 1, 0)),
                      ProjLine(F4, (a, zero, one)),
                      ProjLine(F4, (a * a, one, one)))


def test_enumeration_counts():
    assert len(enumerate_points(make_field(2))) == 7
    assert len(enumerate_lines(make_field(2))) == 7
    assert len(enumerate_lines(make_field(3))) == 13
    assert len(enumerate_points(make_field(2, 2))) == 21


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=repr)
def test_enumeration_distinct_and_deterministic(F):
    pts = enumerate_points(F)
    q = F.order
    assert len(pts) == len(set(pts)) == q * q + q + 1
    assert pts == enumerate_points(F)


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=repr)
def test_duality_swap(F):
    lines = enumerate_lines(F)
    points = enumerate_points(F)
    for P in points:
        for L in lines:
            assert incident(P, L) == incident(ProjPoint(F, L.coords), as_line(P))


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=repr)
def test_join_meet_round_trips(F):
    points = enumerate_points(F)
    for P, Q in itertools.combinations(points, 2):
        L = join(P, Q)
        assert incident(P, L) and incident(Q, L)
    lines = enumerate_lines(F)
    for L1, L2 in itertools.combinations(lines, 2):
        P = meet(L1, L2)
        assert incident(P, L1) and incident(P, L2)


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=repr)
def test_two_lines_meet_in_exactly_one_point(F):
    lines = enumerate_lines(F)
    points = enumerate_points(F)
    for L1, L2 in itertools.combinations(lines, 2):
        common = [P for P in points if incident(P, L1) and incident(P, L2)]
        assert len(common) == 1
        assert common[0] == meet(L1, L2)


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=repr)
def test_collinear_matches_join_membership(F):
    pts = enumerate_points(F)[:8]
    for P, Q in itertools.combinations(pts, 2):
        L = join(P, Q)
        for R in enumerate_points(F):
            assert collinear(P, Q, R) == incident(R, L)


def test_lines_have_q_plus_1_points():
    for F in SMALL_FIELDS:
        pts = enumerate_points(F)
        for L in enumerate_lines(F):
            assert sum(1 for P in pts if incident(P, L)) == F.order + 1


def test_field_mismatch_detected():
    with pytest.raises(FieldMismatch):
        incident(ProjPoint(make_field(5), (1, 0, 0)), ProjLine(make_field(7), (1, 0, 0)))


def test_dot_is_symmetric_in_structure():
    F = make_field(3)
    P = ProjPoint(F, (1, 2, 1))
    L = ProjLine(F, (1, 1, 0))
    assert dot(P, L) == dot(ProjPoint(F, L.coords), as_line(P))


def test_hash_follows_the_normalized_coordinates():
    F = make_field(5)
    P, Q = ProjPoint(F, (1, 2, 3)), ProjPoint(F, (2, 4, 1))     # Q = 2P
    assert P == Q and hash(P) == hash(Q) and len({P, Q}) == 1
    L = as_line(P)
    assert L != P and P != L and len({P, L}) == 2
    # the same coordinates over another field name another point
    assert P != ProjPoint(make_field(7), (1, 2, 3))
