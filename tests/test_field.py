"""Field construction, arithmetic, root finding and the field axioms."""

import operator
import pickle
import random
import signal

import pytest

from triplelines import field
from triplelines.errors import (
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    NonPrimeCharacteristic,
    ReducibleModulus,
    ZeroPolynomial,
)
from triplelines.field import (
    TABLE_LIMIT,
    FieldSpec,
    _poly_mod,
    _trim,
    default_modulus,
    is_prime,
    make_field,
    parse_field,
    prime_power,
    roots_of,
)

SMALL_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def all_fields():
    return [make_field(p, k) for p, k in SMALL_ORDERS]


def _poly_mul(a, b, p):
    """Product over Z/p of trimmed coefficient lists, low degree first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _oracle_product(F, a, b):
    """The index of a*b in F by one polynomial product and reduction."""
    a, b = (_trim(list(F.coeff_table[i])) for i in (a, b))
    return F.index_of(_poly_mod(_poly_mul(a, b, F.p), F.modulus, F.p))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_make_prime_field():
    F = make_field(2, 1)
    assert F.order == 2
    assert [e.index for e in F.elements()] == [0, 1]


def test_make_gf4_default_modulus():
    F = make_field(2, 2)
    assert F.modulus == (1, 1, 1)  # x^2+x+1, the unique irreducible quadratic
    assert F.order == 4


def test_nonprime_characteristic_rejected():
    with pytest.raises(NonPrimeCharacteristic):
        make_field(4, 1)
    with pytest.raises(NonPrimeCharacteristic):
        make_field(1, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, [1, 0, 1])  # x^2+1 = (x+1)^2 over GF(2)
    with pytest.raises(ReducibleModulus):
        FieldSpec(3, 2, (2, 0, 1))   # x^2-1 has no generator: the table build refuses it


def test_non_monic_modulus_rejected_at_once():
    # reducing by 2x^2 + 1 would never clear the top coefficient, so a table
    # build would not end: the alarm turns that hang into a failure
    def hung(signum, frame):
        pytest.fail("FieldSpec with a non-monic modulus did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        with pytest.raises(ReducibleModulus, match="not monic"):
            FieldSpec(3, 2, (1, 0, 2))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("p, k, modulus", [
    (5, 1, [5, 1]),          # 5 = 0 mod 5: the fixed prime-field modulus x
    (2, 2, [1, 1, 3]),       # 3 = 1 mod 2: x^2+x+1
    (3, 2, [-1, 0, 1]),      # -1 = 2 mod 3: x^2+2
])
def test_modulus_coefficient_outside_residues_rejected(p, k, modulus):
    # a coefficient that only reduces to a valid modulus is ambiguous input
    with pytest.raises(ReducibleModulus, match="outside"):
        make_field(p, k, modulus)


def test_modulus_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        make_field(2, 2, [1, 1, 1, 1])


def test_every_field_up_to_the_table_limit_builds(monkeypatch):
    # the order is the only cap; an emptied cache keeps one field alive at a time
    cache = {}
    monkeypatch.setattr(field, "_FIELD_CACHE", cache)
    for q in range(2, TABLE_LIMIT + 1):
        if prime_power(q):
            F = make_field(*prime_power(q))
            assert F.order == q and len(F.mul_table) == len(F.add_table[-1]) == q
            cache.clear()
    with pytest.raises(FieldTooLarge):
        make_field(2, 11)
    with pytest.raises(FieldTooLarge):
        make_field(3, 7)


def test_order_cap():
    with pytest.raises(FieldTooLarge):
        make_field(1031)
    with pytest.raises(FieldTooLarge):
        make_field(37, 2)


def test_default_modulus_is_lexicographically_smallest():
    # brute-force oracle: scan coefficient tuples low-degree-first and take
    # the first with no root/factor, via plain integer polynomial division
    def divides(f, g, p):
        r = list(g)
        while len(r) >= len(f):
            if r[-1] % p:
                lead = r[-1] * pow(f[-1], p - 2, p) % p
                for i in range(len(f)):
                    r[len(r) - len(f) + i] = (r[len(r) - len(f) + i] - lead * f[i]) % p
            del r[-1]
        return all(c % p == 0 for c in r)

    def monics(deg, p):
        for n in range(p ** deg):
            coeffs, t = [], n
            for _ in range(deg):
                coeffs.append(t % p)
                t //= p
            yield coeffs + [1]

    for p, k in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]:
        expected = None
        for cand in monics(k, p):
            if not any(divides(f, cand, p)
                       for d in range(1, k // 2 + 1) for f in monics(d, p)):
                expected = tuple(cand)
                break
        assert default_modulus(p, k) == expected


def test_parse_field_notation():
    assert parse_field("5").order == 5
    assert parse_field("2^2").order == 4
    assert parse_field("2^2", [1, 1, 1]).modulus == (1, 1, 1)


def test_prime_power_splits_exactly_the_prime_powers():
    powers = {p ** k: (p, k) for p in range(2, 200) if is_prime(p)
              for k in range(1, 8) if p ** k < 200}
    assert {q: prime_power(q) for q in range(-2, 200)} == {
        q: powers.get(q) for q in range(-2, 200)}


# ---------------------------------------------------------------------------
# arithmetic operations
# ---------------------------------------------------------------------------

def test_gf4_multiplication_table_facts():
    F = make_field(2, 2)
    w = F.element([0, 1])
    w2 = w * w
    assert w2 == F.element([1, 1])
    assert w * w2 == F.one


def test_prime_field_facts():
    F5, F7 = make_field(5), make_field(7)
    assert F5(2).inverse() == F5(3)
    assert F7(3) + F7(5) == F7(1)
    assert F5(2) - F5(4) == F5(3)
    assert F5(3) / F5(2) == F5(4)


def _oracle_tables(F):
    """F's five tables entry by entry: base-p digits, digit-wise sums,
    polynomial products reduced by the modulus, and the inverses read off them."""
    p, q, idx = F.p, F.order, F.index_of
    coeffs = [tuple(n // p ** i % p for i in range(F.k)) for n in range(q)]
    polys = [_trim(list(c)) for c in coeffs]
    add, mul = [[0] * q for _ in range(q)], [[0] * q for _ in range(q)]
    for a, (ca, pa) in enumerate(zip(coeffs, polys)):
        for b in range(a, q):                   # sums and products commute
            add[a][b] = add[b][a] = idx(map(operator.add, ca, coeffs[b]))
            mul[a][b] = mul[b][a] = idx(_poly_mod(_poly_mul(pa, polys[b], p), F.modulus, p))
    neg = [idx([-x for x in c]) for c in coeffs]
    return coeffs, add, mul, neg, [0] + [row.index(1) for row in mul[1:]]


@pytest.mark.parametrize("q", [q for q in range(257) if prime_power(q)])
def test_tables_match_polynomial_oracle(q):
    F = make_field(*prime_power(q))
    for name, table in zip(("coeff", "add", "mul", "neg", "inv"), _oracle_tables(F)):
        assert getattr(F, f"{name}_table") == table, name


@pytest.mark.parametrize("p, k", [(2, 9), (2, 10), (3, 6), (5, 4), (31, 2), (1021, 1)])
def test_large_field_tables_sampled(p, k):
    F = make_field(p, k)
    q, add, mul, neg, inv = F.order, F.add_table, F.mul_table, F.neg_table, F.inv_table
    assert all(add[a][neg[a]] == 0 for a in range(q))
    assert inv[0] == 0 and all(mul[a][inv[a]] == 1 for a in range(1, q))
    rng = random.Random(q)
    for _ in range(3000):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert add[add[a][b]][c] == add[a][add[b][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        assert mul[a][b] == _oracle_product(F, a, b)


def test_division_by_zero():
    F = make_field(5)
    with pytest.raises(DivisionByZero):
        F(1) / F(0)
    with pytest.raises(DivisionByZero):
        F(0).inverse()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        make_field(5)(1) + make_field(7)(1)


def test_field_built_outside_the_cache_mixes_with_cached_elements():
    cached = make_field(5)
    fresh = FieldSpec(5, 1, (0, 1))
    assert fresh is not cached
    assert fresh == cached and cached == fresh and hash(fresh) == hash(cached)
    assert fresh(2) + cached(3) == cached(0)
    assert cached(2) * fresh(3) == fresh(1)
    assert fresh(4) == cached(4) and hash(fresh(4)) == hash(cached(4))
    assert pickle.loads(pickle.dumps(fresh)) is cached


def test_elements_of_different_fields_do_not_mix():
    gf8 = make_field(2, 3)
    other_gf8 = make_field(2, 3, (1, 0, 1, 1))
    assert gf8 != other_gf8
    for a, b in [(gf8(1), other_gf8(1)), (make_field(2)(1), make_field(2, 2)(1)),
                 (make_field(3)(1), make_field(3, 2)(1))]:
        with pytest.raises(FieldMismatch):
            a + b
        with pytest.raises(FieldMismatch):
            b * a
        assert a != b


def test_element_canonical_form():
    F = make_field(5)
    assert F(7) == F(2)
    assert F(-1) == F(4)
    F9 = make_field(3, 2)
    assert F9.element([4, 5]) == F9.element([1, 2])


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def test_roots_examples():
    F4 = make_field(2, 2)
    w = F4.element([0, 1])
    assert roots_of([1, 1, 1], F4) == [w, w * w]
    assert roots_of([1, 1, 1], make_field(2)) == []
    assert [r.index for r in roots_of([-1, 1, 1], make_field(11))] == [3, 7]
    assert roots_of([-1, 1, 1], make_field(7)) == []
    # a leading coefficient that reduces to zero lowers the degree
    assert [r.index for r in roots_of([-1, 1, 1, 11], make_field(11))] == [3, 7]


def test_roots_cross_check_against_evaluation():
    # roots_of IS the brute force; confirm both membership directions
    for F in all_fields():
        poly = [1, 1, 1]
        roots = set(roots_of(poly, F))
        for x in F.elements():
            value = F.from_int(1) + x + x * x
            assert (x in roots) == value.is_zero()


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        roots_of([7, 14], make_field(7))


# ---------------------------------------------------------------------------
# enumeration and axioms
# ---------------------------------------------------------------------------

def test_enumerate_sizes_and_determinism():
    for F in all_fields():
        elems = F.elements()
        assert len(elems) == F.order == len(set(elems))
        assert elems == F.elements()
        assert elems[0] == F.zero and elems[1] == F.one


@pytest.mark.parametrize("p,k", SMALL_ORDERS)
def test_field_axioms(p, k):
    F = make_field(p, k)
    elems = F.elements()
    for a in elems:
        assert a + F.zero == a
        assert a * F.one == a
        assert a + (-a) == F.zero
        if not a.is_zero():
            assert a * a.inverse() == F.one
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
    # associativity and distributivity over all triples
    for a in elems:
        for b in elems:
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,k", SMALL_ORDERS)
def test_multiplicative_order_divides_q_minus_1(p, k):
    F = make_field(p, k)
    for x in F.elements():
        if not x.is_zero():
            assert x ** (F.order - 1) == F.one


@pytest.mark.parametrize("p,k", SMALL_ORDERS)
def test_frobenius_is_additive(p, k):
    F = make_field(p, k)
    for a in F.elements():
        for b in F.elements():
            assert (a + b) ** p == a ** p + b ** p
