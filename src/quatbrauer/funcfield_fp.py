"""Quaternion classes over F_p(x), p an odd prime.

Over a finite constant field the unramified 2-torsion is trivial, so a
quaternion class IS its residue vector: tame residue characters at the
finite places plus the place at infinity, with values +-1 given by the
norm-Legendre character (Res(h, t) / p) of the residue field F_p[x]/(h).
The finite ones come from `funcfield.residue_support`, which splits entries
into places only where needed; reciprocity (product = +1) is always checked.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .errors import DomainError, InternalError
from .exact_arith import PolyFp, fq_char, irreducible_factors_fp
from .funcfield import FactoredFunc, IsomorphismVerdict, Place, odd_tame_bases, residue_support

FactoredFuncFp = FactoredFunc  # the name callers of this module import


def residue_fp(f: FactoredFunc, g: FactoredFunc, v: Place) -> int:
    """Tame residue character value at v: the quadratic character of
    (-1)^(v(f)v(g)) f^v(g) g^(-v(f)) in the residue field F_p[x]/(h).

    The character is multiplicative, so each odd tame base counts
    fq_char(base, h); a constant c counts (c^deg h / p).  At infinity h = x
    and only -1 and the constants appear."""
    h = PolyFp.x(f.p) if v.modulus is None else v.modulus
    return prod(fq_char(base, h) for base in odd_tame_bases(v, (f, g)))


class QuatClassFp(NamedTuple):
    """A quaternion class over F_p(x) as its residue vector (support only)."""

    p: int
    residues: tuple[Place, ...]  # places with residue -1, sorted

    def is_zero(self) -> bool:
        return not self.residues

    def to_json(self) -> dict:
        return {"char": self.p,
                "ramified": [str(v) for v in self.residues]}

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return "{" + ", ".join(str(v) for v in self.residues) + "}"


def _nonsquare_places(h: PolyFp, bases: list[PolyFp]) -> list[Place]:
    """The places pi | h where the product of the bases has character -1."""
    return [Place(pi) for pi in irreducible_factors_fp(h)
            if prod(fq_char(base, pi) for base in bases) == -1]


def class_fp(f: FactoredFunc, g: FactoredFunc) -> QuatClassFp:
    """Residues at the places of f, g and infinity, reciprocity checked."""
    support = residue_support([(f, g)], _nonsquare_places)
    if residue_fp(f, g, Place(None)) == -1:
        support.append(Place(None))
    if len(support) % 2:
        raise InternalError("tame residue reciprocity violated: arithmetic bug")
    return QuatClassFp(f.p, tuple(support))


def is_isomorphic_fpx(pair1: tuple[FactoredFunc, FactoredFunc],
                      pair2: tuple[FactoredFunc, FactoredFunc]) -> IsomorphismVerdict:
    """Over F_p(x) the class is its residue vector, so isomorphism is
    equality of residue vectors; the witness is the first differing place."""
    f1, g1 = pair1
    f2, g2 = pair2
    if {f1.p, g1.p, f2.p, g2.p} != {f1.p}:
        raise DomainError("characteristic mismatch")
    c1, c2 = class_fp(f1, g1), class_fp(f2, g2)
    if c1 == c2:
        return IsomorphismVerdict(True)
    diff = sorted(set(c1.residues) ^ set(c2.residues), key=Place.sort_key)
    return IsomorphismVerdict(False, witness_place=diff[0])
