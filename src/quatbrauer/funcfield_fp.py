"""Quaternion classes over F_p(x), p an odd prime.

Over a finite constant field the unramified 2-torsion is trivial, so a
quaternion class IS its residue vector: tame residue characters at the
finite places plus the place at infinity, with values +-1 given by the
norm-Legendre character (Res(h, t) / p) of the residue field F_p[x]/(h).
Reciprocity (product of all residues = +1) is checked on every class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DomainError, InternalError
from .exact_arith import (
    PolyFp,
    factor_poly_fp,
    fq_char,
    is_prime,
)

MAX_CHAR = 2**31
MAX_DEGREE = 64


@dataclass(frozen=True)
class PlaceFFp:
    """A place of F_p(x): a monic irreducible polynomial, or infinity."""

    p: int
    modulus: PolyFp | None  # None = the degree place at infinity

    @staticmethod
    def finite(modulus: PolyFp) -> "PlaceFFp":
        return PlaceFFp(modulus.p, modulus)

    @staticmethod
    def infinity(p: int) -> "PlaceFFp":
        return PlaceFFp(p, None)

    @property
    def is_infinite(self) -> bool:
        return self.modulus is None

    def sort_key(self):
        if self.is_infinite:
            return (1, 0, ())
        return (0, self.modulus.degree, self.modulus.coeffs)

    def __str__(self) -> str:
        return "inf" if self.is_infinite else str(self.modulus)


@dataclass(frozen=True)
class FactoredFuncFp:
    """A nonzero element of F_p(x)^x in factored form."""

    p: int
    constant: int  # in [1, p)
    factors: tuple[tuple[PolyFp, int], ...]

    @staticmethod
    def from_poly(f: PolyFp, rng: random.Random | None = None) -> "FactoredFuncFp":
        if f.is_zero():
            raise DomainError("zero is not a unit of F_p(x)")
        _check_char(f.p)
        unit, facs = factor_poly_fp(f, rng)
        return FactoredFuncFp(f.p, unit, facs)

    @staticmethod
    def from_constant(p: int, c: int) -> "FactoredFuncFp":
        _check_char(p)
        if c % p == 0:
            raise DomainError("zero is not a unit of F_p(x)")
        return FactoredFuncFp(p, c % p, ())

    def __mul__(self, other: "FactoredFuncFp") -> "FactoredFuncFp":
        if self.p != other.p:
            raise DomainError("characteristic mismatch")
        exps = dict(self.factors)
        for f, m in other.factors:
            exps[f] = exps.get(f, 0) + m
        facs = tuple(sorted(((f, m) for f, m in exps.items() if m != 0),
                            key=lambda fm: (fm[0].degree, fm[0].coeffs)))
        return FactoredFuncFp(self.p, self.constant * other.constant % self.p, facs)

    def valuation(self, v: PlaceFFp) -> int:
        if v.is_infinite:
            return -sum(f.degree * m for f, m in self.factors)
        for f, m in self.factors:
            if f == v.modulus:
                return m
        return 0

    def __str__(self) -> str:
        parts = [str(self.constant)]
        for f, m in self.factors:
            parts.append(f"({f})^{m}" if m != 1 else f"({f})")
        return " * ".join(parts)


def _check_char(p: int) -> None:
    if p == 2:
        raise DomainError("characteristic 2 is unsupported")
    if p >= MAX_CHAR or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime below 2^31")


def residue_fp(f: FactoredFuncFp, g: FactoredFuncFp, v: PlaceFFp) -> int:
    """Tame residue character value at v: the quadratic character of
    (-1)^(v(f)v(g)) f^v(g) g^(-v(f)) in the residue field F_p[x]/(h).

    The character is multiplicative: a factor fac^m of f other than h counts
    (Res(h, fac) / p) when m*v(g) is odd (m*v(f) for g), a constant c counts
    (c^deg h / p).  At infinity h = x and only the constants count, the
    factors being monic."""
    if f.p != g.p or f.p != v.p:
        raise DomainError("characteristic mismatch")
    p = f.p
    vf, vg = f.valuation(v), g.valuation(v)
    terms = [(PolyFp.const(p, -1), vf * vg), (PolyFp.const(p, f.constant), vg),
             (PolyFp.const(p, g.constant), vf)]
    h = PolyFp.x(p) if v.is_infinite else v.modulus
    if not v.is_infinite:
        terms += [(fac, m * vg) for fac, m in f.factors if fac != h]
        terms += [(fac, m * vf) for fac, m in g.factors if fac != h]
    value = 1
    for t, e in terms:
        if e % 2:
            value *= fq_char(t, h)
    return value


@dataclass(frozen=True)
class QuatClassFp:
    """A quaternion class over F_p(x) as its residue vector (support only)."""

    p: int
    residues: tuple[PlaceFFp, ...]  # places with residue -1, sorted

    def is_zero(self) -> bool:
        return not self.residues

    def to_json(self) -> dict:
        return {"char": self.p,
                "ramified": [str(v) for v in self.residues]}

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return "{" + ", ".join(str(v) for v in self.residues) + "}"


def class_fp(f: FactoredFuncFp, g: FactoredFuncFp) -> QuatClassFp:
    """Residues at all places dividing f or g plus infinity; reciprocity
    (product of all residue values = +1) is checked."""
    if f.p != g.p:
        raise DomainError("characteristic mismatch")
    p = f.p
    mods = {q for q, _ in f.factors} | {q for q, _ in g.factors}
    places = sorted((PlaceFFp.finite(m) for m in mods),
                    key=PlaceFFp.sort_key) + [PlaceFFp.infinity(p)]
    support = [v for v in places if residue_fp(f, g, v) == -1]
    if len(support) % 2:
        raise InternalError("tame residue reciprocity violated: arithmetic bug")
    return QuatClassFp(p, tuple(support))


@dataclass(frozen=True)
class VerdictFp:
    isomorphic: bool
    witness_place: PlaceFFp | None = None

    def to_json(self) -> dict:
        out: dict = {"isomorphic": self.isomorphic}
        if self.witness_place is not None:
            out["witness_place"] = str(self.witness_place)
        return out


def is_isomorphic_fpx(pair1: tuple[FactoredFuncFp, FactoredFuncFp],
                      pair2: tuple[FactoredFuncFp, FactoredFuncFp]) -> VerdictFp:
    """Over F_p(x) the class is its residue vector, so isomorphism is
    equality of residue vectors; the witness is the first differing place."""
    f1, g1 = pair1
    f2, g2 = pair2
    if {f1.p, g1.p, f2.p, g2.p} != {f1.p}:
        raise DomainError("characteristic mismatch")
    c1, c2 = class_fp(f1, g1), class_fp(f2, g2)
    if c1 == c2:
        return VerdictFp(True)
    diff = sorted(set(c1.residues) ^ set(c2.residues),
                  key=PlaceFFp.sort_key)
    return VerdictFp(False, witness_place=diff[0])
