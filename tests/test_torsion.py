"""Torsion configurations: enumeration versus closed forms, duality, linearity."""

import itertools
import tracemalloc
from array import array

import pytest

import triplelines.cli
import triplelines.torsion
from triplelines.certificates import dual_hesse_from_pg23
from triplelines.errors import NonPrime, UnsupportedPrime
from triplelines.incidence import abstract, isomorphic
from triplelines.torsion import torsion_dual, torsion_dual_counts, torsion_model


def test_p5_counts():
    m = torsion_model(5)
    assert len(m.points) == 25
    assert len(m.secant[0]) == 92
    assert len(m.tangent[0]) == 24
    assert m.num_lines == 116
    assert not m.special_case


def test_p3_special_case():
    m = torsion_model(3)
    assert len(m.points) == 9
    assert len(m.secant[0]) == 12
    assert len(m.tangent[0]) == 0
    assert m.special_case
    torsion_dual(m)


def test_p7_counts_match_formulas():
    m = torsion_model(7)
    q = 49
    assert len(m.secant[0]) == (q - 1) * (q - 2) // 6 == 376
    assert len(m.tangent[0]) == q - 1 == 48
    assert m.num_lines == (q + 4) * (q - 1) // 6


def test_rejects_non_odd_primes():
    for p in (2, 4, 6, 9):
        with pytest.raises(NonPrime):
            torsion_model(p)


def test_linearity_p5_and_p7():
    for p in (5, 7):
        m = torsion_model(p)
        dual = torsion_dual(m)
        assert dual.num_lines == p * p and len(dual.blocks) == m.num_lines
        # the dual holds the model's columns, not copies
        assert all(a is b for a, b in zip(dual.runs, (m.secant, m.tangent)))


def test_p19_dual_stays_small():
    """Blocks kept as array('i') columns, which the dual shares with the
    model and checks without a pair-block matrix, keep the p = 19 model and
    dual (361 lines, 21,900 blocks), and the counts read from them, under
    1 MiB."""
    for build in (lambda: torsion_dual(torsion_model(19)), lambda: torsion_dual_counts(19)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def test_p3_dual_is_the_dual_hesse_structure():
    assert isomorphic(torsion_dual(torsion_model(3)), abstract(dual_hesse_from_pg23()))


def _appended(columns: tuple, *block: int) -> tuple:
    """Copies of a run's columns with one more block."""
    return tuple(col + array("i", [u]) for col, u in zip(columns, block))


def test_linearity_detects_corruption():
    m = torsion_model(5)
    corrupted = m._replace(secant=_appended(m.secant, 0, 1, 4))     # already covered pairs
    with pytest.raises(RuntimeError, match="more than one block"):
        torsion_dual(corrupted)
    truncated = m._replace(secant=tuple(col[:-1] for col in m.secant))
    with pytest.raises(RuntimeError, match="in no block"):
        torsion_dual(truncated)


def test_linearity_rejects_a_pair_covered_many_times():
    m = torsion_model(5)
    repeated = m._replace(secant=tuple(col + array("i", [col[0]]) * 300 for col in m.secant))
    with pytest.raises(RuntimeError, match="more than one block"):
        torsion_dual(repeated)


def test_linearity_rejects_a_point_outside_the_group():
    m = torsion_model(5)
    stray = m._replace(secant=tuple(col[:-1] for col in m.secant),
                       tangent=_appended(m.tangent, 0, 25))
    with pytest.raises(RuntimeError, match="out of range"):
        torsion_dual(stray)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_model_matches_deduplicated_enumeration(p):
    """Blocks from every point pair, deduplicated as sets, mapped to the
    positions x*p + y and sorted, are the blocks the model generates once each."""
    points = list(itertools.product(range(p), repeat=2))
    blocks = set()
    for P, Q in itertools.combinations(points, 2):
        R = ((-P[0] - Q[0]) % p, (-P[1] - Q[1]) % p)
        if R not in (P, Q):
            blocks.add(frozenset((P, Q, R)))
    pairs = set()
    if p >= 5:
        pairs = {frozenset((X, ((-2 * X[0]) % p, (-2 * X[1]) % p))) for X in points[1:]}

    def positions(groups):
        return sorted(tuple(sorted(x * p + y for x, y in g)) for g in groups)

    m = torsion_model(p)
    assert m.points == tuple(points)
    assert tuple(zip(*m.secant)) == tuple(positions(blocks))
    assert tuple(zip(*m.tangent)) == tuple(positions(pairs))


def test_dual_counts_p5():
    d = torsion_dual_counts(5)
    assert (d.lines, d.t3, d.t2) == (25, 92, 24)
    assert d.identity_holds                  # 300 = 3*92 + 24
    assert d.points_on_dual_of_zero == 12
    assert d.points_on_dual_of_nonzero == 13
    assert d.u3 == 100 and d.gap == 8
    assert d.gap == (25 - 1) // 3
    assert d.closed_forms_hold()


def test_dual_counts_p7():
    d = torsion_dual_counts(7)
    assert d.t3 == 376 and d.t2 == 48
    assert d.identity_holds and d.closed_forms_hold()
    assert d.gap == (49 - 1) // 3 == 16
    assert d.points_on_dual_of_zero == 24
    assert d.points_on_dual_of_nonzero == 25


def test_dual_counts_reject_p3():
    with pytest.raises(UnsupportedPrime):
        torsion_dual_counts(3)
    with pytest.raises(UnsupportedPrime):
        torsion_dual_counts(torsion_model(3))


def test_dual_counts_of_a_built_model_match_the_prime():
    assert torsion_dual_counts(torsion_model(7)) == torsion_dual_counts(7)


def test_torsion_cli_builds_the_model_once(monkeypatch):
    calls = []

    def counting_model(p):
        calls.append(p)
        return torsion_model(p)

    monkeypatch.setattr(triplelines.cli, "torsion_model", counting_model)
    monkeypatch.setattr(triplelines.torsion, "torsion_model", counting_model)
    assert triplelines.cli.run(["torsion", "--p", "5", "--dual"]).exit_code == 0
    assert calls == [5]


def test_per_point_counts_by_enumeration():
    for p in (5, 7):
        m = torsion_model(p)
        q = p * p
        zero = 0
        through = {x * p + y: 0 for x, y in m.points}
        for X in itertools.chain(*m.secant, *m.tangent):
            through[X] += 1
        assert through[zero] == (q - 1) // 2
        assert {v for X, v in through.items() if X != zero} == {(q + 1) // 2}
