"""Quaternion algebras over Q(x): tame residues, specialization, isomorphism.

The decision procedure works in two steps.  Residue characters at every
finite place (monic irreducible polynomial) are compared first; equal
residues mean the difference class is constant, and a single specialization
at a unit point then decides the constant part inside Br(Q) via its local
invariant vector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import count

from .brauer_q import BrauerClassQ, QuaternionQ, class_of_quaternion
from .errors import DomainError
from .exact_arith import (
    FactorizationQ,
    PolyQ,
    RatFuncQ,
    factor_poly_q,
    poly_to_string,
)
from .local_symbols import (
    NumberFieldElem,
    SquareClassVerdict,
    is_square_in_number_field,
)


@dataclass(frozen=True)
class PlaceFFQ:
    """A finite place of Q(x): a monic irreducible polynomial."""

    modulus: PolyQ

    def __str__(self) -> str:
        return poly_to_string(self.modulus)

    def sort_key(self):
        return (self.modulus.degree, tuple(self.modulus.coeffs))


@dataclass(frozen=True)
class FactoredFunc:
    """A nonzero element of Q(x)^x: constant * prod(irreducible ** exponent)."""

    constant: Fraction
    factors: tuple[tuple[PolyQ, int], ...]  # monic irreducible, nonzero exponent

    @staticmethod
    def from_factorization(fz: FactorizationQ) -> "FactoredFunc":
        if fz.unit == 0:
            raise DomainError("zero is not a unit of Q(x)")
        return FactoredFunc(fz.unit, tuple((f, m) for f, m in fz.factors))

    @staticmethod
    def from_poly(f: PolyQ) -> "FactoredFunc":
        if f.is_zero():
            raise DomainError("zero is not a unit of Q(x)")
        return FactoredFunc.from_factorization(factor_poly_q(f))

    @staticmethod
    def from_constant(c) -> "FactoredFunc":
        c = Fraction(c)
        if c == 0:
            raise DomainError("zero is not a unit of Q(x)")
        return FactoredFunc(c, ())

    def __mul__(self, other: "FactoredFunc") -> "FactoredFunc":
        exps = dict(self.factors)
        for f, m in other.factors:
            exps[f] = exps.get(f, 0) + m
        facs = tuple(sorted(((f, m) for f, m in exps.items() if m != 0),
                            key=lambda fm: (fm[0].degree, tuple(fm[0].coeffs))))
        return FactoredFunc(self.constant * other.constant, facs)

    def inverse(self) -> "FactoredFunc":
        return FactoredFunc(1 / self.constant,
                            tuple((f, -m) for f, m in self.factors))

    def valuation(self, v: PlaceFFQ) -> int:
        for f, m in self.factors:
            if f == v.modulus:
                return m
        return 0

    def value_at(self, alpha) -> Fraction:
        """Exact value at a rational point; the point must not be a zero or pole."""
        acc = self.constant
        for f, m in self.factors:
            val = f.evaluate(alpha)
            if val == 0:
                raise DomainError(f"{self} has a zero or pole at {alpha}; pick another point")
            acc *= val**m
        return acc

    def unit_part(self, v: PlaceFFQ) -> "FactoredFunc":
        """Strip the place's own factor."""
        return FactoredFunc(self.constant,
                            tuple((f, m) for f, m in self.factors if f != v.modulus))

    def reduce_mod(self, v: PlaceFFQ) -> NumberFieldElem:
        """Image of a v-unit in the residue field Q[x]/(pi)."""
        pi = v.modulus
        acc = NumberFieldElem.make(pi, PolyQ.const(self.constant))
        for f, m in self.factors:
            if f == pi:
                raise DomainError("not a unit at the place")
            acc = acc * NumberFieldElem.make(pi, f) ** m
        return acc

    def __str__(self) -> str:
        parts = [str(self.constant)]
        for f, m in self.factors:
            parts.append(f"({poly_to_string(f)})^{m}" if m != 1
                         else f"({poly_to_string(f)})")
        return " * ".join(parts)


@dataclass(frozen=True)
class QuaternionFF:
    """The symbol algebra (f, g / Q(x)) with both entries in factored form."""

    f: FactoredFunc
    g: FactoredFunc

    def places(self) -> list[PlaceFFQ]:
        mods = {f for f, _ in self.f.factors} | {f for f, _ in self.g.factors}
        return sorted((PlaceFFQ(m) for m in mods), key=PlaceFFQ.sort_key)

    def __str__(self) -> str:
        return f"({self.f}, {self.g} / Q(x))"


@dataclass(frozen=True)
class ResidueCharacter:
    """An order <= 2 character of the residue field's absolute Galois group,
    in Kummer form: the square class of the tame symbol in Q[x]/(pi)."""

    place: PlaceFFQ
    symbol: NumberFieldElem
    trivial: bool
    verdict: SquareClassVerdict

    def to_json(self) -> dict:
        return {"place": str(self.place),
                "trivial": self.trivial,
                "symbol": str(self.symbol.value),
                "certificate": self.verdict.to_json()}


def tame_symbol(D: QuaternionFF, v: PlaceFFQ) -> NumberFieldElem:
    """(-1)^(v(f)v(g)) f^v(g) g^(-v(f)) reduced into Q[x]/(pi)."""
    vf, vg = D.f.valuation(v), D.g.valuation(v)
    f1 = D.f.unit_part(v).reduce_mod(v)
    g1 = D.g.unit_part(v).reduce_mod(v)
    sign = NumberFieldElem.make(v.modulus, PolyQ.const(-1 if (vf * vg) % 2 else 1))
    t = sign * f1**vg * g1 ** (-vf)
    assert not t.is_zero()
    return t


def residue_at(D: QuaternionFF, v: PlaceFFQ,
               rng: random.Random | None = None) -> ResidueCharacter:
    """The residue character of D at v: trivial iff the tame symbol is a
    square in the residue field (decided with a certificate)."""
    t = tame_symbol(D, v)
    if t.value == PolyQ.const(1):
        return ResidueCharacter(v, t, True,
                                SquareClassVerdict(True, root=PolyQ.const(1), verified=True))
    verdict = is_square_in_number_field(t, rng=rng)
    return ResidueCharacter(v, t, verdict.is_square, verdict)


def ramification_set(D: QuaternionFF,
                     rng: random.Random | None = None) -> list[ResidueCharacter]:
    """Nontrivial residue characters; only places dividing f or g can ramify."""
    out = []
    for v in D.places():
        ch = residue_at(D, v, rng)
        if not ch.trivial:
            out.append(ch)
    return out


def specialize(D: QuaternionFF, alpha) -> QuaternionQ:
    """Evaluate both entries at a common unit point; the induced map on
    classes is the specialization homomorphism."""
    alpha = Fraction(alpha)
    return QuaternionQ.make(D.f.value_at(alpha), D.g.value_at(alpha))


@dataclass(frozen=True)
class IsomorphismVerdict:
    isomorphic: bool
    witness_place: PlaceFFQ | None = None
    witness_symbols: tuple[NumberFieldElem, NumberFieldElem] | None = None
    witness_invariants: BrauerClassQ | None = None
    specialization_point: Fraction | None = None
    citations: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out: dict = {"isomorphic": self.isomorphic,
                     "citations": list(self.citations)}
        if self.witness_place is not None:
            out["witness_place"] = str(self.witness_place)
            s1, s2 = self.witness_symbols
            out["witness_symbols"] = [str(s1.value), str(s2.value)]
        if self.witness_invariants is not None:
            out["witness_invariants"] = self.witness_invariants.to_json()
        if self.specialization_point is not None:
            out["specialization_point"] = str(self.specialization_point)
        return out


def _unit_points(entries: list[FactoredFunc]):
    """Integers ordered 0, 1, -1, 2, -2, ... at which every entry is a unit."""
    for n in count():
        for alpha in ([0] if n == 0 else [n, -n]):
            if all(f.evaluate(alpha) != 0
                   for e in entries for f, _ in e.factors):
                yield Fraction(alpha)


def is_isomorphic_qx(D1: QuaternionFF, D2: QuaternionFF,
                     rng: random.Random | None = None) -> IsomorphismVerdict:
    """Decide isomorphism of two quaternion algebras over Q(x).

    Step 1 compares residue characters at every place dividing any entry;
    a mismatch is a witness.  Step 2 (equal residues) specializes both at
    the smallest common unit point and compares the constant classes in
    Br(Q) as local invariant vectors.
    """
    places = sorted({v for v in D1.places()} | {v for v in D2.places()},
                    key=PlaceFFQ.sort_key)
    for v in places:
        t1, t2 = tame_symbol(D1, v), tame_symbol(D2, v)
        ratio = t1 * t2  # t1/t2 up to the square t2^2
        if ratio.value == PolyQ.const(1):
            continue
        verdict = is_square_in_number_field(ratio, rng=rng)
        if not verdict.is_square:
            return IsomorphismVerdict(
                False, witness_place=v, witness_symbols=(t1, t2),
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


def is_division_qx(D: QuaternionFF, rng: random.Random | None = None
                   ) -> tuple[bool, str]:
    """A quaternion over Q(x) is division iff its class is nonzero: some
    residue is nontrivial, or the constant specialization is nonzero."""
    for v in D.places():
        if not residue_at(D, v, rng).trivial:
            return True, f"ramified at {v}"
    alpha = next(_unit_points([D.f, D.g]))
    cls = class_of_quaternion(specialize(D, alpha))
    if not cls.is_zero():
        return True, f"nonzero constant class {cls} at x = {alpha}"
    return False, f"split: unramified everywhere and trivial class at x = {alpha}"


def same_maximal_subfields_qx(D1: QuaternionFF, D2: QuaternionFF,
                              rng: random.Random | None = None) -> IsomorphismVerdict:
    """Over Q(x) the same-maximal-subfields predicate for division algebras
    coincides with isomorphism; inputs must be division algebras."""
    for name, D in (("first", D1), ("second", D2)):
        division, why = is_division_qx(D, rng)
        if not division:
            raise DomainError(f"{name} algebra is not a division algebra ({why})")
    verdict = is_isomorphic_qx(D1, D2, rng)
    return replace(verdict, citations=verdict.citations + (
        "maximal-subfield equivalence over rational function fields",))


def _expand(f: FactoredFunc) -> RatFuncQ:
    num = PolyQ.const(f.constant.numerator)
    den = PolyQ.const(f.constant.denominator)
    for q, m in f.factors:
        if m > 0:
            num = num * q**m
        else:
            den = den * q ** (-m)
    return RatFuncQ(num, den)


def qform_represents(D: QuaternionFF, d: FactoredFunc,
                     s: RatFuncQ, t: RatFuncQ, u: RatFuncQ) -> bool:
    """Certificate check: a s^2 + b t^2 - a b u^2 = d exactly in Q(x),
    for the norm-type form attached to the symbol algebra (a, b)."""
    if s.is_zero() and t.is_zero() and u.is_zero():
        raise DomainError("need a nonzero representation triple")
    a, b = _expand(D.f), _expand(D.g)
    lhs = a * s * s + b * t * t - a * b * u * u
    return lhs == _expand(d)
