"""Places of Q, Hilbert symbols and Br(Q) as local invariant vectors.

A class is a map from places of Q to exact fractions in [0, 1) summing to 0
mod 1, with the real invariant restricted to {0, 1/2}.  Quaternion algebras
over Q land here through their Hilbert symbols; the same-maximal-subfields
and same-subgroup predicates compare local invariant orders.  Of the
package it imports only `errors` and `integers`: no polynomial code.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, lcm, prod
from typing import NamedTuple

from .errors import DomainError, InternalError
from .integers import euler_char, factor_int, is_prime


class PlaceQ(NamedTuple):
    """A place of Q: a finite prime, or the real place (p is None).  No symbol
    checks p again: `finite` and `parse` check it where a prime enters, and
    `support_places` takes its primes from `factor_int`."""

    p: int | None

    @staticmethod
    def finite(p: int) -> "PlaceQ":
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        return PlaceQ(p)

    @property
    def is_real(self) -> bool:
        return self.p is None

    def sort_key(self) -> tuple:
        return (1, 0) if self.is_real else (0, self.p)

    def __str__(self) -> str:
        return "real" if self.is_real else str(self.p)

    @staticmethod
    def parse(s: str) -> "PlaceQ":
        s = s.strip().lower()
        return REAL if s in ("real", "oo", "inf") else PlaceQ.finite(int(s))


REAL = PlaceQ(None)


def _val_unit(a: Fraction, p: int) -> tuple[int, int]:
    """(v, u), u prime to p, with p^v u = a d^2 for a = n/d: the integer n d,
    whose Hilbert symbols are a's, as d^2 is a square."""
    v, u = 0, a.numerator * a.denominator
    while u % p == 0:
        u //= p
        v += 1
    return v, u


def hilbert(a, b, place: PlaceQ) -> int:
    """Hilbert symbol (a, b) at a place of Q; +1 iff z^2 = a x^2 + b y^2
    has a nontrivial solution over the completion."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise DomainError("Hilbert symbol needs nonzero arguments")
    if place.is_real:
        return -1 if (a < 0 and b < 0) else 1
    p = place.p
    alpha, u = _val_unit(a, p)
    beta, w = _val_unit(b, p)
    if p != 2:
        # the character of the tame symbol (-1)^(alpha beta) a^beta b^-alpha
        # (Serre III.1.2) on the unit parts, by the parities of the valuations
        return euler_char((-1) ** (alpha * beta % 2) * u ** (beta % 2) * w ** (alpha % 2), p)
    # p = 2: epsilon/omega formula on the unit parts mod 8
    u, w = u % 8, w % 8
    eps_u, eps_w = (u - 1) // 2 % 2, (w - 1) // 2 % 2
    om_u, om_w = (u * u - 1) // 8 % 2, (w * w - 1) // 8 % 2
    e = (eps_u * eps_w + alpha * om_w + beta * om_u) % 2
    return -1 if e else 1


def support_places(a, b) -> list[PlaceQ]:
    """The real place, 2 and the primes of a and b: outside these the Hilbert
    symbol (a, b) is 1 (unit criterion)."""
    if a == 0 or b == 0:  # as `hilbert` says it, not as `factor_int` does
        raise DomainError("Hilbert symbol needs nonzero arguments")
    # each distinct |entry| once and apart: rho might not split a product of two large primes
    ints = {abs(n) for n in (a.numerator, a.denominator, b.numerator, b.denominator)}
    primes = {2}.union(*map(factor_int, ints))
    return [REAL] + [PlaceQ(p) for p in sorted(primes)]


class QuaternionQ(NamedTuple):
    """The quaternion algebra (a, b / Q)."""

    a: Fraction
    b: Fraction

    @staticmethod
    def make(a, b) -> "QuaternionQ":
        a, b = Fraction(a), Fraction(b)
        if a == 0 or b == 0:
            raise DomainError("quaternion entries must be nonzero")
        return QuaternionQ(a, b)

    def __str__(self) -> str:
        return f"({self.a}, {self.b} / Q)"


class BrauerClassQ(NamedTuple):
    """Local invariant vector; entries sorted, no zero invariants stored."""

    invariants: tuple[tuple[PlaceQ, Fraction], ...]

    @staticmethod
    def make(entries) -> "BrauerClassQ":
        inv = {place: v for place, val in dict(entries).items() if (v := Fraction(val) % 1)}
        real = inv.get(REAL, Fraction(0))
        if real not in (Fraction(0), Fraction(1, 2)):
            raise DomainError(f"real invariant must be 0 or 1/2, got {real}")
        if sum(inv.values(), Fraction(0)) % 1 != 0:
            raise DomainError("local invariants must sum to 0 mod 1")
        return BrauerClassQ(tuple(sorted(inv.items(), key=lambda kv: kv[0].sort_key())))

    @staticmethod
    def zero() -> "BrauerClassQ":
        return BrauerClassQ(())

    def inv_at(self, place: PlaceQ) -> Fraction:
        return dict(self.invariants).get(place, Fraction(0))

    def support(self) -> tuple[PlaceQ, ...]:
        return tuple(p for p, _ in self.invariants)

    def is_zero(self) -> bool:
        return not self.invariants

    def __add__(self, other: "BrauerClassQ") -> "BrauerClassQ":
        acc = dict(self.invariants)
        for p, v in other.invariants:
            acc[p] = acc.get(p, Fraction(0)) + v
        return BrauerClassQ.make(acc)

    def scale(self, m: int) -> "BrauerClassQ":
        """m * c componentwise; preserves local orders when gcd(m, index) = 1."""
        return BrauerClassQ.make({p: m * v for p, v in self.invariants})

    def exponent(self) -> int:
        return lcm(*(v.denominator for _, v in self.invariants)) if self.invariants else 1

    def index(self) -> int:
        # index equals exponent over number fields (AHBN)
        return self.exponent()

    def to_json(self) -> dict:
        return {"invariants": [{"place": str(p), "inv": str(v)}
                               for p, v in self.invariants]}

    @staticmethod
    def from_json(data: dict) -> "BrauerClassQ":
        items = [(PlaceQ.parse(str(item["place"])), Fraction(str(item["inv"])))
                 for item in data["invariants"]]
        if len(dict(items)) < len(items):
            raise ValueError("a place is listed twice")
        return BrauerClassQ.make(items)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return "{" + ", ".join(f"{p}: {v}" for p, v in self.invariants) + "}"


def class_of_quaternion(q: QuaternionQ) -> BrauerClassQ:
    """Invariant 1/2 exactly where the Hilbert symbol is -1.

    Only the real place and primes dividing 2 or one of the entries can
    carry a nontrivial symbol (unit criterion), so the scan is finite.
    """
    return _class_of_symbols(q.a, q.b, support_places(q.a, q.b))


def _class_of_symbols(a, b, places) -> BrauerClassQ:
    """The class of (a, b / Q) from its Hilbert symbols at places, which hold
    its support.  Reciprocity wants an even count of symbols -1, so an odd one
    is a faulty symbol, never an invalid input."""
    ramified = [v for v in places if hilbert(a, b, v) == -1]
    if len(ramified) % 2:
        raise InternalError(f"the Hilbert symbol ({a}, {b}) is -1 at an odd number of "
                            f"places: {', '.join(map(str, ramified))}")
    return BrauerClassQ.make(dict.fromkeys(ramified, Fraction(1, 2)))


def same_maximal_subfields_q(c1: BrauerClassQ, c2: BrauerClassQ) -> bool:
    """Equal local index vectors; defined for classes of equal index only."""
    if c1.index() != c2.index():
        raise DomainError(
            f"classes have different degrees (index {c1.index()} vs {c2.index()})")
    places = set(c1.support()) | set(c2.support())
    return all(c1.inv_at(p).denominator == c2.inv_at(p).denominator for p in places)


def same_subgroup(c1: BrauerClassQ, c2: BrauerClassQ) -> bool:
    """The two classes generate the same cyclic subgroup of Br(Q) iff their
    exponents agree and m c1 = c2 is solvable: m = y d u^-1 mod d wherever c1
    reads u/d in lowest terms and c2 reads y (y d integral), joined by CRT."""
    if c1.exponent() != c2.exponent():
        return False
    m, n = 0, 1
    for place in set(c1.support()) | set(c2.support()):
        x, y = c1.inv_at(place), c2.inv_at(place)
        d, g = x.denominator, gcd(n, x.denominator)
        t = y * d * pow(x.numerator, -1, d) - m  # this place asks for m + t mod d
        if (y * d).denominator != 1 or t % g:
            return False
        m += n * (int(t) // g * pow(n // g, -1, d // g) % (d // g))
        n = n * d // g
    return True


def example_6_5(n: int, places: tuple[PlaceQ, PlaceQ, PlaceQ, PlaceQ]
                ) -> tuple[BrauerClassQ, BrauerClassQ]:
    """The pair of degree-n classes supported on four finite places with
    invariant patterns (1, 1, -1, -1)/n and (1, -1, 1, -1)/n."""
    if n < 2:
        raise DomainError("need n >= 2")
    if len(places) != 4 or len(set(places)) != 4:
        raise DomainError("need four distinct places")
    if any(p.is_real for p in places):
        raise DomainError("need finite places")
    u = Fraction(1, n)
    c1 = BrauerClassQ.make(dict(zip(places, [u, u, -u, -u])))
    c2 = BrauerClassQ.make(dict(zip(places, [u, -u, u, -u])))
    return c1, c2


def quaternion_of_class(c: BrauerClassQ) -> QuaternionQ:
    """The quaternion presentation (a, b / Q) of an exponent <= 2 class, built
    as over global fields in Voight, Quaternion Algebras (GTM 288): s = -1 iff
    the real place ramifies, a = s * prod(P) over the finite support P, and
    b = s * q for the least prime q with s q a nonresidue mod each odd p in P
    and s q = 5 (2 in P) or 1 mod 8.  The product formula leaves q unramified;
    Hilbert symbols at real, 2, P and q check it, factoring nothing.  A q above
    2^64 is a Miller-Rabin probable prime, as is any prime `factor_int` returns there."""
    if c.exponent() > 2:
        raise DomainError("class has exponent > 2, not quaternion")
    if c.is_zero():
        return QuaternionQ.make(1, 1)
    s, primes = -1 if REAL in c.support() else 1, [p.p for p in c.support() if not p.is_real]
    r, m = s * (5 if 2 in primes else 1) % 8, 8  # q = r mod m, joined by CRT
    for p in (p for p in primes if p != 2):
        n = next(n for n in count(2) if euler_char(n, p) == -1)  # least nonresidue
        r, m = r + m * ((s * n - r) * pow(m, -1, p) % p), m * p
    q = next(q for q in count(r, m) if is_prime(q))
    a, b = s * prod(primes), s * q
    found = _class_of_symbols(a, b, {REAL, PlaceQ(2), PlaceQ(q), *map(PlaceQ, primes)})
    if found != c:
        raise InternalError(f"({a}, {b} / Q) has class {found}, not {c}")
    return QuaternionQ.make(a, b)
