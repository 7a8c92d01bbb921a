"""Quaternion algebras over Q(x): tame residues, specialization, isomorphism.

The decision procedure works in two steps.  Residues are compared first by
`funcfield.residue_support`, with one certified square test in the etale
algebra Q[x]/(h) per element h of the entries' coprime basis; only an h
where it fails is split, to name the witness.  Equal residues mean the
difference class is constant, and one specialization at a unit point then
decides it inside Br(Q) via its local invariant vector.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import NamedTuple

from .brauer_q import QuaternionQ, class_of_quaternion
from .exact_arith import PolyQ, irreducible_factors_q, sqrt_fraction
from .funcfield import FactoredFunc, IsomorphismVerdict, Place, residue_support, tame_terms
from .local_symbols import (
    NumberFieldElem,
    SquareClassVerdict,
    is_square_in_number_field,
)


# A basis element h of higher degree is split into its places before it is
# tested: testing Q[x]/(h) whole reconstructs 2^(k-1) sign patterns per
# precision (k <= deg h factors mod p) and splits a nonsquare anyway.  On 7 h
# of degree 9-12 (2-core host) it cost 0.9-1.3x splitting first for a square,
# 1.0-2.3x for a nonsquare; no workload has a basis element above degree 6.
MAX_BASIS_TEST_DEGREE = 8


class QuaternionFF(NamedTuple):
    """The symbol algebra (f, g / Q(x)) with both entries in factored form."""

    f: FactoredFunc
    g: FactoredFunc

    def __str__(self) -> str:
        return f"({self.f}, {self.g} / Q(x))"


class ResidueCharacter(NamedTuple):
    """An order <= 2 character of the residue field's absolute Galois group,
    in Kummer form: the square class of the tame symbol in Q[x]/(pi)."""

    place: Place
    symbol: NumberFieldElem
    trivial: bool
    verdict: SquareClassVerdict

    def to_json(self) -> dict:
        return {"place": str(self.place),
                "trivial": self.trivial,
                "symbol": str(self.symbol.value),
                "certificate": self.verdict.to_json()}


def tame_symbol(D: QuaternionFF, v: Place) -> NumberFieldElem:
    """(-1)^(v(f)v(g)) f^v(g) g^(-v(f)) reduced into Q[x]/(pi): the tame terms
    with positive exponents over those with negative ones, one inverse."""
    num = den = NumberFieldElem.make(v.modulus, PolyQ.const(1))
    for base, e in tame_terms(D.f, D.g, v):
        if e > 0:
            num = num * NumberFieldElem.make(v.modulus, base) ** e
        elif e < 0:
            den = den * NumberFieldElem.make(v.modulus, base) ** -e
    return num * den.inverse()


def residue_at(D: QuaternionFF, v: Place) -> ResidueCharacter:
    """The residue character of D at v: trivial iff the tame symbol is a
    square in the residue field (decided with a certificate)."""
    t = tame_symbol(D, v)
    verdict = is_square_in_number_field(t)
    return ResidueCharacter(v, t, verdict.is_square, verdict)


def specialize(D: QuaternionFF, alpha) -> QuaternionQ:
    """Evaluate both entries at a common unit point; the induced map on
    classes is the specialization homomorphism."""
    alpha = Fraction(alpha)
    return QuaternionQ.make(D.f.value_at(alpha), D.g.value_at(alpha))


def _nonsquare_places(h: PolyQ, bases: list[PolyQ]) -> list[Place]:
    """The places pi | h where c, the product of the bases in Q[x]/(h), is a
    nonsquare in the component Q[x]/(pi).

    A rational square c needs no test.  Otherwise one square test in
    Q[x]/(h) settles them all when c is a square.  A nonsquare is split to
    name its places, and so is an h of degree above MAX_BASIS_TEST_DEGREE
    before any test; an irreducible h is one place."""
    c = NumberFieldElem.make(h, PolyQ.const(1))
    for base in bases:
        c = c * NumberFieldElem.make(h, base)
    if c.value.degree == 0 and sqrt_fraction(c.value.lc()) is not None:
        return []
    tested = h.degree <= MAX_BASIS_TEST_DEGREE
    if tested and is_square_in_number_field(c).is_square:
        return []
    pis = irreducible_factors_q(h)
    if tested and len(pis) == 1:
        return [Place(h)]
    return [Place(pi) for pi in pis if not is_square_in_number_field(
        NumberFieldElem.make(pi, c.value)).is_square]


def _unit_points(entries: list[FactoredFunc]):
    """Integers ordered 0, 1, -1, 2, -2, ... at which every entry is a unit."""
    for n in count():
        for alpha in ([0] if n == 0 else [n, -n]):
            if all(f.evaluate(alpha) != 0
                   for e in entries for f, _ in e.factors):
                yield Fraction(alpha)


def is_isomorphic_qx(D1: QuaternionFF, D2: QuaternionFF, rng=None) -> IsomorphismVerdict:
    """Decide isomorphism of two quaternion algebras over Q(x).

    Step 1 compares residues: the places where the residues of D1 + D2 are
    nontrivial are those where t1/t2 is a nonsquare, and the smallest, in
    `Place.sort_key` order, is reported with both tame symbols.  Step 2
    (equal residues) specializes both at the smallest common unit point and
    compares the constant classes in Br(Q) as local invariant vectors.
    The verdict depends on the inputs alone; `rng` is read by nothing and
    stays only for callers that still pass one.
    """
    witnesses = residue_support([(D1.f, D1.g), (D2.f, D2.g)], _nonsquare_places)
    if witnesses:
        v = witnesses[0]
        return IsomorphismVerdict(
            False, witness_place=v, witness_symbols=(tame_symbol(D1, v), tame_symbol(D2, v)),
            citations=("Faddeev exact sequence (residue comparison)",))
    alpha = next(_unit_points([D1.f, D1.g, D2.f, D2.g]))
    c1 = class_of_quaternion(specialize(D1, alpha))
    c2 = class_of_quaternion(specialize(D2, alpha))
    diff = c1 + c2  # sum = difference for exponent-2 classes
    if diff.is_zero():
        return IsomorphismVerdict(
            True, specialization_point=alpha,
            citations=("Faddeev exact sequence", "specialization homomorphism",
                       "Albert-Hasse-Brauer-Noether"))
    return IsomorphismVerdict(
        False, witness_invariants=diff, specialization_point=alpha,
        citations=("specialization homomorphism", "Albert-Hasse-Brauer-Noether"))

