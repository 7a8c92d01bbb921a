"""The certified square test in Q[x]/(pi), pi monic squarefree.

It decides squares in number fields and, for reducible pi, in the etale
algebra Q[x]/(pi), the product of the number fields of pi's irreducible
factors, where an element is a square iff it is one in every factor.  It
goes norm first: a prime p where the norm Res(pi, t) is a nonresidue
certifies a nonsquare without any factoring.  Otherwise it lifts 1/sqrt and
the factor idempotents at a prime where pi has few factors, reads every sign
pattern's root off that one lift, and alternates it with a search for a
witness: a prime p and a factor h of pi mod p where the element's
norm-Legendre character (Res(h, t) / p) is -1.  Every verdict it returns
carries an exactly re-verifiable certificate.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import islice, zip_longest
from typing import NamedTuple

# hilbert, unused here, is the name bench/spans.py traces (ROADMAP item 10)
from .brauer_q import hilbert  # noqa: F401
from .errors import BUDGETS, BudgetError, DomainError, InternalError
from .exact_arith import (
    PolyFp,
    PolyQ,
    ZxRing,
    coeffs_mod,
    fq_char,
    irreducible_factors_fp,
    poly_inverse,
    polyfp_from_polyq,
    polyfp_gcd,
    power,
    rational_reconstruct,
    resultant,
    sqrt_fraction,
    sqrt_tonelli_shanks,
)
from .integers import euler_char, is_prime

NORM_PRIMES = 64        # norm-Legendre primes tried before any factoring
LIFT_CANDIDATES = 4     # primes factored to pick the lifting prime


# ---------------------------------------------------------------------------
# number field elements
# ---------------------------------------------------------------------------

class NumberFieldElem(NamedTuple):
    """An element of Q[x]/(pi), pi monic squarefree, value reduced mod pi: a
    number field for irreducible pi, else a product of number fields."""

    modulus: PolyQ
    value: PolyQ

    @staticmethod
    def make(modulus: PolyQ, value: PolyQ) -> "NumberFieldElem":
        if not modulus.is_monic() or modulus.degree < 1:
            raise DomainError("modulus must be monic of positive degree")
        return NumberFieldElem(modulus, value % modulus)

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __mul__(self, other: "NumberFieldElem") -> "NumberFieldElem":
        if self.modulus != other.modulus:
            raise DomainError("product of elements of different number fields")
        return NumberFieldElem(self.modulus, self.value.mulmod(other.value, self.modulus))

    def inverse(self) -> "NumberFieldElem":
        return NumberFieldElem(self.modulus, poly_inverse(self.value, self.modulus))

    def __pow__(self, n: int) -> "NumberFieldElem":
        return power(self if n >= 0 else self.inverse(), abs(n),
                     NumberFieldElem(self.modulus, PolyQ.const(1)))


# ---------------------------------------------------------------------------
# certified square testing in Q[x]/(pi)
# ---------------------------------------------------------------------------

class NonsquareWitness(NamedTuple):
    """A prime p and a monic factor of pi mod p (all of it for a norm
    witness) where the image of the tested element has quadratic character
    -1."""

    prime: int
    factor: PolyFp


class SquareClassVerdict(NamedTuple):
    is_square: bool
    root: PolyQ | None = None              # square root mod pi, when square
    witness: NonsquareWitness | None = None
    verified: bool = False

    def to_json(self) -> dict:
        out = {"is_square": self.is_square, "verified": self.verified}
        if self.root is not None:
            out["root"] = str(self.root)
        if self.witness is not None:
            out["witness"] = {"prime": self.witness.prime,
                              "factor": str(self.witness.factor)}
        return out


def _fq_sqrt(val: PolyFp, h: PolyFp, rng: random.Random) -> PolyFp | None:
    """Square root in F_{p^d} = F_p[x]/(h), or None for a nonresidue; the
    powers and products run on coefficient lists in one `ZxRing` of h."""
    p, d, q = h.p, h.degree, h.p**h.degree
    if val.is_zero():
        return val
    if fq_char(val, h) == -1:
        return None
    ring = ZxRing(h.coeffs, p)
    if q % 4 == 3:
        return PolyFp(p, tuple(ring.pow(val.coeffs, (q + 1) // 4)))
    while True:
        z = PolyFp.make(p, [rng.randrange(p) for _ in range(d)])
        if not z.is_zero() and fq_char(z, h) == -1:
            break
    return PolyFp(p, tuple(sqrt_tonelli_shanks(val.coeffs, z.coeffs, q, ring.mul, ring.pow, [1])))


def _good_primes(pi: PolyQ, value: PolyQ, norm: Fraction):
    """Odd primes where pi stays squarefree and the value, of norm `norm`,
    stays a unit.  No prime qualifies when pi is not squarefree or the value
    is a zero divisor; that raises DomainError instead."""
    r1 = resultant(pi, pi.derivative())
    if r1 == 0:
        raise DomainError(f"modulus {pi} is not squarefree")
    if norm == 0:
        raise DomainError(f"{value} is a zero divisor mod {pi}")
    screen = (abs(r1.numerator) * r1.denominator *
              abs(norm.numerator) * norm.denominator * pi.den * value.den)
    p = 2
    while True:
        p += 1
        if is_prime(p) and screen % p != 0:
            yield p


class _LiftState:
    """Newton lifting of y = 1/sqrt(c) and of factor idempotents E_h from
    (p, pi) to (p^e, pi); mods(e) is the `ZxRing` of (pi, p^e) and c mod p^e
    as a coefficient list.  Each lift is unique given its residue (p is odd,
    c a unit), so r = c y is the root with the signs chosen mod p, and
    r (1 - 2 sum E_h) = r - sum 2r E_h, a unit squaring to 1 times r, is the
    root with the signs of those factors flipped: one lift for all patterns."""

    def __init__(self, y: PolyFp, idems: list[PolyFp], mods):
        self.mods, self.exp = mods, 1
        self.y, self.idems = list(y.coeffs), [list(e.coeffs) for e in idems]

    def roots(self, exp: int):
        """Lift to p^exp, then yield the rational reconstructions of the
        roots of the sign patterns that have one, in mask order: bit j of the
        mask flips the sign at idems[j]."""
        while self.exp < exp:
            self.exp = min(2 * self.exp, exp)
            ring, cm = self.mods(self.exp)
            # y <- y (3 - c y^2) / 2 and e <- e^2 (3 - 2e), reduced by `ring.mul`
            cy2 = ring.mul(cm, ring.mul(self.y, self.y))
            t = [u - v for u, v in zip_longest([3], cy2, fillvalue=0)]
            self.y = [a * (ring.m + 1) // 2 % ring.m for a in ring.mul(self.y, t)]
            self.idems = [ring.mul(ring.mul(e, e),
                                   [u - 2 * v for u, v in zip_longest([3], e, fillvalue=0)])
                          for e in self.idems]
        ring, cm = self.mods(self.exp)
        r = ring.mul(cm, self.y)
        flips = [ring.mul([2 * a for a in r], e) for e in self.idems]
        cols = list(zip_longest(r, *flips, fillvalue=0))  # r and the flips, padded alike
        r = [c[0] for c in cols]
        steps = [[sum(c[1:j + 1]) - c[j + 1] for c in cols] for j in range(len(flips))]
        for i in range(1 << len(flips)):  # steps[j]: bit j sets, the bits below it clear
            r = [u + v for u, v in zip(r, steps[(i & -i).bit_length() - 1])] if i else r
            if (cand := rational_reconstruct(r, ring.m)) is not None:
                yield cand


def verify_square_certificate(c: NumberFieldElem, root: PolyQ) -> bool:
    return (NumberFieldElem.make(c.modulus, root) ** 2).value == c.value


def verify_nonsquare_certificate(c: NumberFieldElem, w: NonsquareWitness) -> bool:
    """Recompute the reduction and the quadratic character at the witness.

    The prime must be odd, divide no coefficient denominator, and keep pi of
    full degree and squarefree; the factor must be monic and divide pi mod p.
    It need not be irreducible: a character -1 of F_p[x]/(h) is -1 at some
    irreducible factor of h, as (Res(h, t) / p) is multiplicative in h."""
    p, h = w.prime, w.factor
    if p == 2 or h.p != p or not is_prime(p) or not h.is_monic() or \
            c.modulus.den * c.value.den % p == 0:
        return False
    pim = polyfp_from_polyq(c.modulus, p)
    if pim.degree != c.modulus.degree or polyfp_gcd(pim, pim.derivative()).degree > 0 \
            or not (pim % h).is_zero():
        return False
    t = polyfp_from_polyq(c.value, p) % h
    return not t.is_zero() and fq_char(t, h) == -1


def _nonsquare(c: NumberFieldElem, w: NonsquareWitness) -> SquareClassVerdict:
    if not verify_nonsquare_certificate(c, w):
        raise InternalError(f"nonsquare certificate at {w.prime} failed to verify")
    return SquareClassVerdict(False, witness=w, verified=True)


def _factors_and_witness(c: NumberFieldElem, p: int
                         ) -> tuple[tuple[PolyFp, ...], NonsquareWitness | None]:
    """The monic factors of pi mod p, p a good prime (so pi mod p is monic and
    squarefree, and its split may be memoized), and a witness at the first
    one where the character of c is -1 (None if there is none)."""
    vp = polyfp_from_polyq(c.value, p)
    moduli = irreducible_factors_fp(polyfp_from_polyq(c.modulus, p))
    return moduli, next((NonsquareWitness(p, h) for h in moduli if fq_char(vp, h) == -1), None)


def is_square_in_number_field(c: NumberFieldElem) -> SquareClassVerdict:
    """Decide whether c is a square in Q[x]/(pi), with a certificate.
    Las Vegas with a fixed seed, so the output depends on c alone.

    Norm first: pi is monic, so N(c) = Res(pi, c), and a square has a square
    norm; a good prime p with (N / p) = -1 certifies a nonsquare, with all of
    pi mod p as the factor and no factoring (at most NORM_PRIMES primes).
    Then lift: factor pi at the next LIFT_CANDIDATES good primes (a factor
    where c has character -1 is a witness) and, at the one with the fewest
    factors, Newton-lift 1/sqrt(c) and the factor idempotents once; each
    residue sign pattern's root is a signed sum of those lifts.  Then
    alternate rational reconstruction with a witness search over further
    good primes, the batch growing with the lift precision.  Raises
    BudgetError if neither side certifies within the budget, and
    DomainError if pi is not squarefree or c is a zero divisor.
    """
    if c.is_zero():
        raise DomainError("square test needs a nonzero element")
    pi, value = c.modulus, c.value

    # constants that are already rational squares need no p-adic work
    if value.degree == 0:
        r = sqrt_fraction(value.lc())
        if r is not None:
            return SquareClassVerdict(True, root=PolyQ.const(r), verified=True)

    norm = resultant(pi, value)
    primes = _good_primes(pi, value, norm)
    if sqrt_fraction(norm) is None:
        n = norm.numerator * norm.denominator
        for p in islice(primes, NORM_PRIMES):
            if euler_char(n, p) == -1:
                return _nonsquare(c, NonsquareWitness(p, polyfp_from_polyq(pi, p)))

    # lift at the candidate prime with the fewest factors: an inert prime
    # gives one sign pattern instead of 2^(k-1)
    best: tuple[int, tuple[PolyFp, ...]] | None = None
    for p in islice(primes, LIFT_CANDIDATES):
        moduli, w = _factors_and_witness(c, p)
        if w is not None:
            return _nonsquare(c, w)
        if best is None or len(moduli) < len(best[1]):
            best = (p, moduli)
    p0, moduli = best
    pim, vp = polyfp_from_polyq(pi, p0), polyfp_from_polyq(value, p0)
    rng = random.Random(0x5C1A55)  # Tonelli-Shanks nonresidues: the signs of the roots
    # CRT: y = 1/s mod each factor h, for its root s, and the idempotents of
    # the factors; the global sign is free, so the first factor's stays fixed
    y, idems = PolyFp.const(p0, 0), []
    for h in moduli:
        cof = pim.divmod(h)[0]
        idems.append(cof * poly_inverse(cof % h, h))
        y = y + poly_inverse(_fq_sqrt(vp % h, h, rng), h) * idems[-1]
    # the ring of (pi, p0^e) and the value mod p0^e, once per e
    mods = cache(lambda e: (ZxRing(coeffs_mod(pi, p0**e), p0**e), coeffs_mod(value, p0**e)))
    lift = _LiftState(y % pim, idems[1:], mods)

    budgets = BUDGETS.get()
    exp = min(16, budgets.lift_exponent)
    witnesses_exhausted = False
    while True:
        # lift and attempt rational reconstruction
        for cand in lift.roots(exp):
            if verify_square_certificate(c, cand):
                return SquareClassVerdict(True, root=cand, verified=True)

        # witness batch, growing with the precision
        for p in islice(primes, max(1, 12 * exp // 16)):
            if p > budgets.witness_prime:
                witnesses_exhausted = True
                break
            w = _factors_and_witness(c, p)[1]
            if w is not None:
                return _nonsquare(c, w)

        if exp >= budgets.lift_exponent and witnesses_exhausted:
            raise BudgetError("square test undecided within lift_exponent = {lift_exponent}"
                              " and witness_prime = {witness_prime}".format(**budgets._asdict()))
        exp = min(2 * exp, budgets.lift_exponent)
