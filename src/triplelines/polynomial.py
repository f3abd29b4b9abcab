"""Multivariate polynomials with integer coefficients.

Used to express incidence scenarios as equation systems that can be
specialized to any finite field. Terms are stored sparsely as a map from
exponent vectors to nonzero integer coefficients over a fixed ordered
variable list (a subset of a, b, c, d).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .field import FieldElement, FieldSpec

VARIABLES = ("a", "b", "c", "d")


class IntPolynomial:
    """Sparse integer-coefficient polynomial over an ordered variable list."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, int]):
        variables = tuple(variables)
        for v in variables:
            if v not in VARIABLES:
                raise ValueError(f"unsupported variable {v!r}")
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError("exponent vector length does not match variables")
            if coeff:
                clean[exps] = clean.get(exps, 0) + coeff
                if not clean[exps]:
                    del clean[exps]
        self.variables = variables
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, c: int, variables: Sequence[str]) -> "IntPolynomial":
        zero = tuple([0] * len(variables))
        return cls(variables, {zero: c} if c else {})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str]) -> "IntPolynomial":
        exps = tuple(1 if v == name else 0 for v in variables)
        if name not in variables:
            raise ValueError(f"{name!r} not among {variables}")
        return cls(variables, {exps: 1})

    def is_zero(self) -> bool:
        return not self.terms

    # -- ring operations --------------------------------------------------------

    def _coerce(self, other) -> "IntPolynomial":
        if isinstance(other, IntPolynomial):
            if other.variables != self.variables:
                raise ValueError("variable lists differ")
            return other
        if isinstance(other, int):
            return IntPolynomial.constant(other, self.variables)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return IntPolynomial(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial(self.variables, {e: -c for e, c in self.terms.items()})

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
        terms: dict[tuple, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return IntPolynomial(self.variables, terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntPolynomial) and self.variables == other.variables
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    # -- normalization and comparison -------------------------------------------

    def content_normalized(self) -> "IntPolynomial":
        """Divide by the integer content and make the leading term positive.

        Leading term = largest exponent vector in lexicographic order.
        """
        if not self.terms:
            return self
        from math import gcd
        g = 0
        for c in self.terms.values():
            g = gcd(g, abs(c))
        lead = max(self.terms)
        sign = 1 if self.terms[lead] > 0 else -1
        g *= sign
        return IntPolynomial(self.variables, {e: c // g for e, c in self.terms.items()})

    # -- evaluation ---------------------------------------------------------------

    def substitute(self, values: Mapping[str, "IntPolynomial"]) -> "IntPolynomial":
        """The polynomial with each variable named in `values` replaced by its
        value, a polynomial over the same variable list."""
        total = IntPolynomial.constant(0, self.variables)
        for exps, coeff in self.terms.items():
            term = IntPolynomial.constant(coeff, self.variables)
            for v, e in zip(self.variables, exps):
                if e:
                    factor = values[v] if v in values else IntPolynomial.variable(
                        v, self.variables)
                    for _ in range(e):
                        term = term * factor
            total = total + term
        return total

    def evaluate(self, values: Mapping[str, FieldElement], F: FieldSpec) -> FieldElement:
        acc = F.zero
        for exps, coeff in self.terms.items():
            term = F.from_int(coeff)
            for v, e in zip(self.variables, exps):
                if e:
                    term = term * (values[v] ** e)
            acc = acc + term
        return acc

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            monom = "".join(
                f"{v}" if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps) if e)
            if monom:
                head = "" if coeff == 1 else ("-" if coeff == -1 else str(coeff))
                parts.append(f"{head}{monom}")
            else:
                parts.append(str(coeff))
        text = "+".join(parts).replace("+-", "-")
        return text


def poly_ring(variables: Sequence[str]) -> tuple:
    """Convenience: the variable generators plus a constant constructor."""
    gens = tuple(IntPolynomial.variable(v, variables) for v in variables)
    const = lambda c: IntPolynomial.constant(c, variables)
    return gens, const

