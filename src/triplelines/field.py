"""Exact arithmetic in GF(p^k); a prime field is the case k = 1.

Elements are canonical coefficient vectors of length k over Z/p (low degree
first), indexed by their base-p value; arithmetic reduces modulo a monic
irreducible polynomial, x for a prime field. Every field caches full
operation tables, which makes element arithmetic a pair of list lookups;
make_field() therefore builds only fields of order up to TABLE_LIMIT and
raises FieldTooLarge beyond it.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Optional, Sequence

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    NonPrimeCharacteristic,
    ReducibleModulus,
    ZeroPolynomial,
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over Z/p, coefficients low degree first, trailing zeros
# trimmed ("[]" is the zero polynomial)
# ---------------------------------------------------------------------------

def _trim(poly: list[int]) -> list[int]:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m."""
    r = [c % p for c in a]
    _trim(r)
    dm = len(m) - 1
    while len(r) - 1 >= dm:
        lead = r[-1]
        shift = len(r) - 1 - dm
        for i in range(dm + 1):
            r[shift + i] = (r[shift + i] - lead * m[i]) % p
        _trim(r)
    return r


def _digits(n: int, p: int, k: int) -> list[int]:
    """The k lowest base-p digits of n, least significant first."""
    out = []
    for _ in range(k):
        n, d = divmod(n, p)
        out.append(d)
    return out


def _monic_polys(degree: int, p: int) -> Iterable[list[int]]:
    """All monic polynomials of the given degree over Z/p."""
    for n in range(p ** degree):
        yield _digits(n, p, degree) + [1]


def default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    Coefficient tuples are compared low degree first.
    """
    for candidate in _monic_polys(k, p):
        if _is_irreducible_strict(candidate, p):
            return tuple(candidate)
    raise ReducibleModulus(f"no irreducible polynomial of degree {k} over GF({p})")


def _is_irreducible_strict(modulus: Sequence[int], p: int) -> bool:
    """No monic polynomial of degree 1..deg/2 divides the modulus."""
    return all(_poly_mod(modulus, f, p) for d in range(1, (len(modulus) - 1) // 2 + 1)
               for f in _monic_polys(d, p))


#: largest field order make_field builds: every field carries full operation
#: tables, which take O(q^2) memory and build time
TABLE_LIMIT = 1024


class FieldSpec:
    """A finite field GF(p^k) with a fixed monic irreducible modulus.

    Immutable and safe to share across threads. Construction builds the full
    addition, multiplication, negation and inversion tables over element
    indices the same way for every p^k, a row at a time. Addition is digit-wise
    mod p, so the row of a is an earlier row read through the row of x^j,
    which turns digit j. The multiplication rows are the powers of the row of
    a generator g of the multiplicative group, itself the GF(p)-linear map
    fixed by the images g*x^i; the powers give the inverses, and the row of
    p - 1 = -1 is negation. Every row holds the int objects of one list of
    indices; make_field() keeps q <= TABLE_LIMIT so that the tables stay small.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        if not modulus or modulus[-1] != 1:
            # _poly_mod reduces by a monic modulus only
            raise ReducibleModulus(f"modulus {list(modulus)} is not monic over GF({p})")
        self.p = p
        self.k = k
        self.modulus = modulus
        self.order = p ** k
        self._key = (p, k, modulus)
        self._build_tables()

    def index_of(self, coeffs: Sequence[int]) -> int:
        n = 0
        for c in reversed(list(coeffs)):
            n = n * self.p + c % self.p
        return n

    def _build_tables(self) -> None:
        p, q = self.p, self.order
        self.coeff_table = [tuple(_digits(n, p, self.k)) for n in range(q)]
        indices = list(range(q))
        add = [indices]
        for a in range(1, q):
            step = 1                            # p^j, j the lowest nonzero digit of a
            while a % (step * p) == 0:
                step *= p
            if a == step:                       # x^j turns digit j within each block
                row, block = [], step * p
                for s in range(0, q, block):
                    row += indices[s + step:s + block] + indices[s:s + step]
            else:
                row = list(map(add[step].__getitem__, add[a - step]))
            add.append(row)
        for g in range(1, q):
            gen, powers = self._times(add, g), [1]
            while len(powers) < q and (e := gen[powers[-1]]) != 1:
                powers.append(e)
            if len(powers) == q - 1:
                break
        else:
            raise ReducibleModulus(f"modulus {list(self.modulus)} is reducible over GF({p})")
        mul, inv = [[0] * q] * q, [0] * q      # the zero row; every other row is set below
        row = indices
        for n, e in enumerate(powers):
            mul[e], inv[e] = row, powers[-n]
            row = list(map(gen.__getitem__, row))
        self.add_table, self.mul_table = add, mul
        self.neg_table = mul[p - 1]             # -a = (p - 1) * a
        self.inv_table = inv

    def _times(self, add: list[list[int]], b: int) -> list[int]:
        """The row a -> a*b: GF(p)-linear in a, so fixed by the images b*x^i.

        Digits 0..i-1 of a span the first p^i entries; digit i adds d*b*x^i to
        them, one block of p^i per d.
        """
        row, image = [0], list(self.coeff_table[b])
        for _ in range(self.k):
            x_image, blocks, shift = self.index_of(image), [], 0
            for _ in range(self.p):
                blocks += map(add[shift].__getitem__, row)
                shift = add[shift][x_image]
            row = blocks
            image = _poly_mod([0] + image, self.modulus, self.p)
        return row

    # -- identity and notation ------------------------------------------------

    def key(self) -> tuple:
        return self._key

    def __eq__(self, other) -> bool:
        # make_field caches fields and unpickling goes through it, so equal
        # fields are nearly always the same object
        return other is self or (isinstance(other, FieldSpec) and self._key == other._key)

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"GF({self.notation()})"

    def notation(self) -> str:
        return str(self.p) if self.k == 1 else f"{self.p}^{self.k}"

    def __reduce__(self):
        return (make_field, (self.p, self.k, list(self.modulus)))

    # -- elements --------------------------------------------------------------

    def element(self, coeffs: Sequence[int] | int) -> "FieldElement":
        if isinstance(coeffs, int):
            return self.from_int(coeffs)
        vec = [c % self.p for c in coeffs]
        if len(vec) > self.k:
            raise DegreeMismatch(
                f"{len(vec)} coefficients for an element of {self!r} (need <= {self.k})")
        vec += [0] * (self.k - len(vec))
        return FieldElement(self, self.index_of(vec))

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(self, n % self.p)

    def __call__(self, value: Sequence[int] | int) -> "FieldElement":
        return self.element(value)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self) -> list["FieldElement"]:
        """All p^k elements in coefficient-lexicographic order."""
        return [FieldElement(self, i) for i in range(self.order)]


class FieldElement:
    """A canonical element of a FieldSpec; hashable value type."""

    __slots__ = ("field", "index")

    def __init__(self, field: FieldSpec, index: int):
        self.field = field
        self.index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeff_table[self.index]

    def is_zero(self) -> bool:
        return self.index == 0

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch(f"{other.field!r} element used in {self.field!r}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add_table[self.index][other.index])

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_table[self.index])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_table[self.index][other.index])

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.index == 0:
            raise DivisionByZero(f"inverse of zero in {self.field!r}")
        return FieldElement(self.field, self.field.inv_table[self.index])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.index == 0:
            raise DivisionByZero(f"division by zero in {self.field!r}")
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.from_int(other) / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.index == other.index
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.key(), self.index))

    def __repr__(self) -> str:
        if self.field.k == 1:
            return str(self.index)
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}x" if i == 1 else f"{head}x^{i}")
        return "+".join(terms) if terms else "0"


_FIELD_CACHE: dict[tuple, FieldSpec] = {}


def make_field(p: int, k: int = 1, modulus: Optional[Sequence[int]] = None) -> FieldSpec:
    """Validated GF(p^k); picks the default modulus when none is given."""
    if not isinstance(p, int) or not is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
    if not isinstance(k, int) or k < 1:
        raise DegreeMismatch(f"extension degree must be a positive integer, got {k}")
    if p ** k > TABLE_LIMIT:
        raise FieldTooLarge(f"|F| = {p ** k} exceeds the supported maximum {TABLE_LIMIT}")
    if modulus is None:
        mod = default_modulus(p, k)
    else:
        mod = tuple(modulus)
        for c in mod:
            if not 0 <= c < p:
                raise ReducibleModulus(
                    f"modulus coefficient {c} is outside 0..{p - 1} for GF({p})")
        if len(mod) != k + 1:
            raise DegreeMismatch(
                f"modulus has {len(mod) - 1 if mod else 0} degree slots, expected degree {k}")
        if mod[-1] != 1:
            raise ReducibleModulus(f"modulus {list(mod)} is not monic over GF({p})")
        if k == 1 and mod != (0, 1):
            raise ReducibleModulus("prime fields use the fixed modulus x")
        if not _is_irreducible_strict(mod, p):
            raise ReducibleModulus(f"modulus {list(mod)} is reducible over GF({p})")
    key = (p, k, mod)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FieldSpec(p, k, mod)
    return _FIELD_CACHE[key]


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, k) with p prime and p^k = q, or None when q is not a prime power."""
    if q < 2:
        return None
    p = next((f for f in range(2, isqrt(q) + 1) if q % f == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def parse_field(token: str, modulus: Optional[Sequence[int]] = None) -> FieldSpec:
    """Parse the CLI/file notation 'p' or 'p^k'; a prime power q written as 'q'
    is rejected with its p^k spelling."""
    text = token.strip()
    if "^" in text:
        p_text, k_text = text.split("^", 1)
        return make_field(int(p_text), int(k_text), modulus)
    q = int(text)
    p, k = prime_power(q) or (q, 1)
    if k > 1:
        raise NonPrimeCharacteristic(
            f"characteristic {q} is not prime; write GF({q}) as {p}^{k}")
    return make_field(q, 1, modulus)


def roots_of(poly: Sequence[int], F: FieldSpec) -> list[FieldElement]:
    """All roots in F of an integer-coefficient univariate polynomial (low
    degree first); raises if it vanishes identically over F.

    Exhaustive Horner evaluation over the p^k elements, returned in canonical
    order.
    """
    coeffs = [F.from_int(c) for c in reversed(poly)]
    if all(c.is_zero() for c in coeffs):
        raise ZeroPolynomial("polynomial vanishes identically after reduction")
    roots = []
    for x in F.elements():
        value = F.zero
        for c in coeffs:
            value = value * x + c
        if value.is_zero():
            roots.append(x)
    return roots
