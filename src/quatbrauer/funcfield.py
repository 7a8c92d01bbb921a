"""The function-field core shared by F_p(x) and Q(x).

A nonzero element of K(x), K = F_p or Q, is kept factored: a constant times
powers of monic irreducibles.  A place is a monic irreducible modulus, or
the degree place at infinity of F_p(x).  The tame symbol of (f, g) at a
place is returned as (base, exponent) terms whose bases are units there;
each base field reduces them into its own residue field and decides the
square class: `funcfield_fp` by the norm-Legendre character, `funcfield_q`
by the certified square test in Q[x]/(pi), both on `odd_tame_bases`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .exact_arith import PolyFp, PolyQ, factor_key, factor_poly_fp, factor_poly_q, is_prime

MAX_CHAR = 2**31
MAX_DEGREE = 64  # F_p(x) entries of higher degree are refused before factoring

Poly = PolyQ | PolyFp


@dataclass(frozen=True)
class Place:
    """A place of K(x): a monic irreducible polynomial, or None for the
    degree place at infinity of F_p(x)."""

    modulus: Poly | None

    def sort_key(self):
        if self.modulus is None:
            return (1, 0, ())
        return (0, self.modulus.degree, self.modulus.coeffs)

    def __str__(self) -> str:
        return "inf" if self.modulus is None else str(self.modulus)


def _check_char(p: int) -> None:
    if p == 2:
        raise DomainError("characteristic 2 is unsupported")
    if p >= MAX_CHAR or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime below 2^31")


def _field(p: int) -> str:
    return f"F_{p}(x)" if p else "Q(x)"


@dataclass(frozen=True)
class FactoredFunc:
    """A nonzero element of K(x)^x: constant * prod(irreducible ** exponent).

    p = 0 means K = Q and a Fraction constant; otherwise K = F_p and the
    constant lies in [1, p).  Factors are monic irreducible with nonzero
    exponents, sorted by degree, then coefficients."""

    constant: Fraction | int
    factors: tuple[tuple[Poly, int], ...]
    p: int = 0

    @staticmethod
    def from_poly(f: Poly, rng: random.Random | None = None) -> "FactoredFunc":
        p = f.p if isinstance(f, PolyFp) else 0
        if f.is_zero():
            raise DomainError(f"zero is not a unit of {_field(p)}")
        if not p:
            fz = factor_poly_q(f)
            return FactoredFunc(fz.unit, fz.factors)
        _check_char(p)
        if f.degree > MAX_DEGREE:
            raise DomainError(f"degree {f.degree} exceeds the F_p(x) cap {MAX_DEGREE}")
        unit, facs = factor_poly_fp(f, rng)
        return FactoredFunc(unit, facs, p)

    @staticmethod
    def from_constant(c, p: int = 0) -> "FactoredFunc":
        if p:
            _check_char(p)
            c %= p
        else:
            c = Fraction(c)
        if c == 0:
            raise DomainError(f"zero is not a unit of {_field(p)}")
        return FactoredFunc(c, (), p)

    def __mul__(self, other: "FactoredFunc") -> "FactoredFunc":
        if self.p != other.p:
            raise DomainError("characteristic mismatch")
        exps = dict(self.factors)
        for f, m in other.factors:
            exps[f] = exps.get(f, 0) + m
        facs = tuple(sorted(((f, m) for f, m in exps.items() if m != 0), key=factor_key))
        c = self.constant * other.constant
        return FactoredFunc(c % self.p if self.p else c, facs, self.p)

    def inverse(self) -> "FactoredFunc":
        c = pow(self.constant, -1, self.p) if self.p else 1 / self.constant
        return FactoredFunc(c, tuple((f, -m) for f, m in self.factors), self.p)

    def valuation(self, v: Place) -> int:
        if v.modulus is None:
            return -sum(f.degree * m for f, m in self.factors)
        for f, m in self.factors:
            if f == v.modulus:
                return m
        return 0

    def value_at(self, alpha) -> Fraction | int:
        """Exact value at a point of K; the point must not be a zero or pole."""
        acc = self.constant
        for f, m in self.factors:
            val = f.evaluate(alpha)
            if val == 0:
                raise DomainError(f"{self} has a zero or pole at {alpha}; pick another point")
            acc = acc * pow(val, m, self.p) % self.p if self.p else acc * val**m
        return acc

    def __str__(self) -> str:
        parts = [str(self.constant)]
        for f, m in self.factors:
            parts.append(f"({f})^{m}" if m != 1 else f"({f})")
        return " * ".join(parts)


def places(*entries: FactoredFunc) -> list[Place]:
    """The finite places dividing any of the entries, sorted."""
    mods = {f for e in entries for f, _ in e.factors}
    return sorted((Place(m) for m in mods), key=Place.sort_key)


def tame_terms(f: FactoredFunc, g: FactoredFunc, v: Place) -> list[tuple[Poly, int]]:
    """The tame symbol (-1)^(v(f)v(g)) f^v(g) g^(-v(f)) at v as (base, exponent)
    pairs whose product it is.

    Every base is a unit at v: -1, the two constants and, at a finite place,
    the factors other than v's own.  At infinity only -1 and the constants
    appear, the factors being monic."""
    if f.p != g.p:
        raise DomainError("characteristic mismatch")
    p = f.p
    const = (lambda c: PolyFp.const(p, c)) if p else PolyQ.const
    vf, vg = f.valuation(v), g.valuation(v)
    terms = [(const(-1), vf * vg), (const(f.constant), vg), (const(g.constant), -vf)]
    if v.modulus is not None:
        terms += [(fac, m * vg) for fac, m in f.factors if fac != v.modulus]
        terms += [(fac, -m * vf) for fac, m in g.factors if fac != v.modulus]
    return terms


def odd_tame_bases(v: Place, *pairs: tuple[FactoredFunc, FactoredFunc]) -> list[Poly]:
    """The bases whose tame-term exponents, summed over all (f, g) pairs at v,
    are odd.  Their product is that of the pairs' tame symbols up to squares,
    as prod b^e = prod b^(e mod 2) * (prod b^(e div 2))^2; equal bases merge."""
    exps: dict[Poly, int] = {}
    for base, e in (t for f, g in pairs for t in tame_terms(f, g, v)):
        exps[base] = exps.get(base, 0) + e
    return [base for base, e in exps.items() if e % 2]
