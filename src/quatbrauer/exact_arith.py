"""Exact rational and polynomial arithmetic with factorization.

The function-field layers work with values produced here: reduced
rationals and monic irreducible polynomial factorizations over Q and over
F_p.  Primes and integer factoring are in `integers`.

Canonical forms are used throughout so that equality of values is structural
equality: rationals are reduced with positive denominator, Q[x] polynomials
are integer numerators over one coprime positive denominator, polynomial
factorizations carry monic irreducible factors sorted by (degree, coeffs).
PolyQ and PolyFp share `p`, `scalar`, `gcd` and `places`; `squarefree_parts`
and the factoring skeleton `_factor` serve both, on the ring operations they share.
"""

from __future__ import annotations

import functools
import random
import re
from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple

from .errors import DomainError, InternalError, ParseError
# factor_int, unused here, is the name bench/spans.py traces (ROADMAP item 10)
from .integers import euler_char, factor_int  # noqa: F401

# Primes at which `_mod_p_splits` reduces a Q[x] polynomial to prove it
# irreducible without `zassenhaus`.  On the benchmark's qx_isom and cli cases
# the proofs end at 3, 5, 7 or 11 for every witness h, and at 17 for 4 of 96
# `qx residues` processes.  Without a proof the splits choose the Hensel prime
# and prune the degrees that recombination tries.
IRREDUCIBILITY_PRIMES = (3, 5, 7, 11, 13, 17)

# The bound of each split memo: `squarefree_parts` (Q[x] and F_p[x]),
# `irreducible_factors_fp` and `irreducible_factors_q`.
SPLIT_CACHE_SIZE = 256

# The prime below 2^30 at which `poly_gcd` takes the gcd h of the numerator
# lists A and B of f and g, which have the gcd of f and g over Q.  Let it not
# divide lc(A).  A common factor of A and B, primitive in Z[x], divides both in
# Z[x] (Gauss) and its leading coefficient divides lc(A), so it keeps its degree
# mod the prime, in B's image too: deg h bounds the degree of the gcd over Q.
# So h = 1 proves f, g coprime; a lift of h dividing both is the gcd.
_GCD_SCREEN_PRIME = 1073741789


# ---------------------------------------------------------------------------
# polynomials over Q
# ---------------------------------------------------------------------------

class PolyQ(NamedTuple):
    """Dense polynomial over Q: integer numerators `nums`, low degree first,
    trimmed, over one denominator `den` > 0 with gcd(den, *nums) = 1, so that
    equal polynomials have equal fields and hash alike (zero is ((), 1)).
    The ring operations run on the numerators; `reduced` is the one
    constructor that brings a result into this form, and `coeffs` reads the
    coefficients as Fractions."""

    nums: tuple[int, ...]
    den: int = 1
    p = 0  # the characteristic, as in PolyFp

    @staticmethod
    def make(coeffs) -> "PolyQ":
        cs = [Fraction(c) for c in coeffs]
        d = lcm(*(c.denominator for c in cs))
        return PolyQ.reduced([c.numerator * (d // c.denominator) for c in cs], d)

    @staticmethod
    def reduced(nums: list[int], den: int = 1) -> "PolyQ":
        """nums / den in canonical form, den nonzero; trims the list nums in place."""
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        return PolyQ(tuple(n // g for n in nums), den // g)

    @staticmethod
    def const(c) -> "PolyQ":
        c = c if type(c) is int else Fraction(c)  # in lowest terms, denominator > 0
        return PolyQ((c.numerator,), c.denominator) if c else PolyQ(())

    scalar = const  # f.scalar(c): the constant c of f's ring, as in PolyFp

    @staticmethod
    def x() -> "PolyQ":
        return PolyQ((0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.nums

    def lc(self) -> Fraction:
        if self.is_zero():
            raise DomainError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def is_monic(self) -> bool:
        return not self.is_zero() and self.nums[-1] == self.den

    def monic(self) -> "PolyQ":
        return self if self.is_monic() else PolyQ.reduced(list(self.nums), self.nums[-1])

    def __add__(self, other: "PolyQ") -> "PolyQ":
        da, db = self.den, other.den
        return PolyQ.reduced([u * db + v * da for u, v in
                              zip_longest(self.nums, other.nums, fillvalue=0)], da * db)

    def __neg__(self) -> "PolyQ":
        return PolyQ(tuple(-n for n in self.nums), self.den)

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        da, db = self.den, other.den
        return PolyQ.reduced([u * db - v * da for u, v in
                              zip_longest(self.nums, other.nums, fillvalue=0)], da * db)

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        return PolyQ.reduced(_product(self.nums, other.nums), self.den * other.den)

    def mulmod(self, other: "PolyQ", m: "PolyQ") -> "PolyQ":
        """self * other mod m: the product of the numerators, pseudo-reduced by m's."""
        _, r, s = _pseudo_divmod(_product(self.nums, other.nums), m.nums)
        return PolyQ.reduced(r, s * self.den * other.den)

    def scale(self, c) -> "PolyQ":
        c = Fraction(c)
        return PolyQ.reduced([n * c.numerator for n in self.nums], self.den * c.denominator)

    def __pow__(self, n: int) -> "PolyQ":
        if n < 0:
            raise DomainError("negative power of a polynomial")
        return power(self, n, PolyQ.const(1))

    def divmod(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        """(q, r), self = q * other + r and deg r < deg other, by `_pseudo_divmod`
        of the numerators."""
        q, r, s = _pseudo_divmod(self.nums, other.nums)
        return (PolyQ.reduced([c * other.den for c in q], s * self.den),
                PolyQ.reduced(r, s * self.den))

    def __mod__(self, other: "PolyQ") -> "PolyQ":
        """`divmod`'s remainder alone; a self of lower degree is its own remainder."""
        if len(self.nums) < len(other.nums):
            return self
        _, r, s = _pseudo_divmod(self.nums, other.nums)
        return PolyQ.reduced(r, s * self.den)

    def evaluate(self, x) -> Fraction:
        """Homogeneous Horner on the numerators: at x = a/b the sum of n_i a^i
        b^(d-i), over den b^d, so one Fraction at the end."""
        x = x if type(x) is int else Fraction(x)
        a, b, acc, bk = x.numerator, x.denominator, 0, 1
        for n in reversed(self.nums):
            acc, bk = acc * a + n * bk, bk * b  # bk = b^k after k coefficients
        return Fraction(acc * b, self.den * bk)

    def derivative(self) -> "PolyQ":
        return PolyQ.reduced([i * n for i, n in enumerate(self.nums)][1:], self.den)

    def __str__(self) -> str:
        return poly_to_string(self)


def _pseudo_divmod(a, b) -> tuple[list[int], list[int], int]:
    """Pseudo-division over Z: (q, r, s) with s * a = q * b + r, r trimmed and
    of degree below b's.  s = lc(b)^k multiplies in only at a step whose
    leading term lc(b) does not divide, so a monic b never scales."""
    if not b:
        raise DomainError("polynomial division by zero")
    d, lc, r = len(b) - 1, b[-1], list(a)
    q, s = [0] * max(0, len(r) - d), 1
    for k in range(len(q) - 1, -1, -1):
        c, t = divmod(r[k + d], lc)
        if t:
            c = r[k + d]
            r[:k + d] = [u * lc for u in r[:k + d]]
            q[k + 1:] = [u * lc for u in q[k + 1:]]
            s *= lc
        q[k] = c
        if c:
            r[k:k + d] = [u - c * v for u, v in zip(r[k:k + d], b)]
    del r[d:]
    while r and not r[-1]:
        r.pop()
    return q, r, s


def power(base, n: int, one):
    """base^n for n >= 0 (one when n = 0): left-to-right square and multiply
    from the base, so n = 1 takes no product and n = 2 one."""
    out = base if n else one
    for bit in bin(n)[3:]:
        out = out * out * base if bit == "1" else out * out
    return out


def rational_reconstruct(r, m: int) -> PolyQ | None:
    """The polynomial whose coefficients n/d in lowest terms, |n|, d <= sqrt(m/2),
    are the residues r_i mod m (balanced rational reconstruction), or None."""
    bound, coeffs = isqrt(m // 2), []
    for a in r:
        r0, r1, s0, s1 = m, a % m, 0, 1
        while r1 > bound:  # extended Euclid of m and a: s1 a = r1 mod m throughout
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            s0, s1 = s1, s0 - q * s1
        if abs(s1) > bound or gcd(r1, s1) != 1:
            return None
        coeffs.append((r1 if s1 > 0 else -r1, abs(s1)))
    d = lcm(*(e for _, e in coeffs))
    return PolyQ.reduced([n * (d // e) for n, e in coeffs], d)


def poly_gcd(f: PolyQ, g: PolyQ) -> PolyQ:
    """Monic gcd over Q (monic of the nonzero one if the other is zero): the
    lift of the gcd mod _GCD_SCREEN_PRIME, else Euclid by primitive remainders."""
    if f.degree == 0 or g.degree == 0:
        return PolyQ.const(1)
    q, a, b = _GCD_SCREEN_PRIME, f.nums, g.nums
    if a and b and a[-1] % q:
        h, r = _trimmed(a, q), _trimmed(b, q)
        while r:  # Euclid over F_q on the lists
            h, r = r, _rem(h, r, q)
        if len(h) == 1:
            return PolyQ.const(1)
        inv = pow(h[-1], -1, q)
        lift = rational_reconstruct([c * inv for c in h], q)
        if lift and not _pseudo_divmod(a, lift.nums)[1] and not _pseudo_divmod(b, lift.nums)[1]:
            return lift
    while b:
        r = _pseudo_divmod(a, b)[1]
        c = gcd(*r)
        a, b = b, [n // c for n in r]
    return PolyQ.reduced(list(a), a[-1]) if a else PolyQ(())


def resultant(f: PolyQ, g: PolyQ) -> Fraction:
    """Resultant over Q by a primitive pseudo-remainder sequence of the
    numerators A, B: Res(f, g) = Res(A, B) / (den(f)^deg g den(g)^deg f), and
    for s A = q B + c R, R primitive, of degrees m, n and k, Res(A, B) =
    (-1)^(mn) lc(B)^(m-k) c^n Res(B, R) / s^n; one Fraction at the end."""
    if f.is_zero() or g.is_zero():
        raise DomainError("resultant of the zero polynomial")
    a, b, num, den = f.nums, g.nums, 1, f.den ** g.degree * g.den ** f.degree
    while len(b) > 1:
        _, r, s = _pseudo_divmod(a, b)
        if not r:
            return Fraction(0)
        m, n, c = len(a) - 1, len(b) - 1, gcd(*r)
        num *= (-1) ** (m * n) * b[-1] ** (m - len(r) + 1) * c ** n
        den *= s ** n
        a, b = b, [u // c for u in r]
    return Fraction(num * b[0] ** (len(a) - 1), den)


class RatFuncQ(NamedTuple):
    """A rational function num/den over Q, den nonzero; zero allowed.

    Equal values may have different (num, den), so the class is unhashable."""

    num: PolyQ
    den: PolyQ

    @staticmethod
    def make(num: PolyQ, den: PolyQ | None = None) -> "RatFuncQ":
        den = den if den is not None else PolyQ.const(1)
        if den.is_zero():
            raise DomainError("zero denominator")
        return RatFuncQ(num, den)

    def __add__(self, o: "RatFuncQ") -> "RatFuncQ":
        return RatFuncQ(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self) -> "RatFuncQ":
        return RatFuncQ(-self.num, self.den)

    def __sub__(self, o: "RatFuncQ") -> "RatFuncQ":
        return self + (-o)

    def __mul__(self, o: "RatFuncQ") -> "RatFuncQ":
        return RatFuncQ(self.num * o.num, self.den * o.den)

    def __truediv__(self, o: "RatFuncQ") -> "RatFuncQ":
        return RatFuncQ.make(self.num * o.den, self.den * o.num)

    def __pow__(self, n: int) -> "RatFuncQ":
        if n < 0:
            return RatFuncQ.make(self.den, self.num) ** -n
        return RatFuncQ(self.num**n, self.den**n)

    def __eq__(self, o) -> bool:
        return isinstance(o, RatFuncQ) and self.num * o.den == o.num * self.den

    def __ne__(self, o) -> bool:  # a tuple's != would compare (num, den)
        return not self == o

    __hash__ = None  # a NamedTuple keeps tuple's hash unless told otherwise


# -- text --------------------------------------------------------------------

# A power whose exponent times the size of its base (coefficient bits plus one
# per coefficient) exceeds MAX_POWER_SIZE is a ParseError, so that neither
# x^99999999 nor ((x+2)^99)^99 can hang the parser; the largest powers it
# admits take a fraction of a second.
MAX_POWER_SIZE = 1024

_TOKEN = re.compile(r"\s*(?:([0-9]+)|(\*\*|[-+*/^()x])|(\S))")


class _Parser:
    """Recursive descent over Q(x) text, evaluating as it goes; no eval.

        expr  := term (('+' | '-') term)*
        term  := unary (('*' | '/') unary)*
        unary := ('+' | '-') unary | atom [('^' | '**') ['+' | '-'] INT]
        atom  := INT | 'x' | '(' expr ')'
    """

    def __init__(self, text: str):
        self.toks: list[int | str] = []
        for num, op, other in _TOKEN.findall(text):
            if other:
                raise ParseError(f"unexpected character {other!r}")
            self.toks.append(int(num) if num else op)
        self.toks.reverse()

    def take(self, *expected: str) -> int | str | None:
        """The next token; with `expected`, only if it is one of them."""
        tok = self.toks[-1] if self.toks else None
        if expected and tok not in expected:
            return None
        if tok is None:
            raise ParseError("unexpected end of input")
        return self.toks.pop()

    def expr(self) -> RatFuncQ:
        acc = self.term()
        while op := self.take("+", "-"):
            acc = acc + self.term() if op == "+" else acc - self.term()
        return acc

    def term(self) -> RatFuncQ:
        acc = self.unary()
        while op := self.take("*", "/"):
            acc = acc * self.unary() if op == "*" else acc / self.unary()
        return acc

    def unary(self) -> RatFuncQ:
        if op := self.take("+", "-"):
            return -self.unary() if op == "-" else self.unary()
        base = self.atom()
        if not self.take("^", "**"):
            return base
        sign = -1 if self.take("+", "-") == "-" else 1
        n = self.take()
        if not isinstance(n, int):
            raise ParseError(f"exponent must be an integer literal, not {n!r}")
        size = sum(c.numerator.bit_length() + c.denominator.bit_length() + 1
                   for c in base.num.coeffs + base.den.coeffs)
        if n * size > MAX_POWER_SIZE:
            raise ParseError(f"power ^{n} exceeds the parser's size limit")
        return base ** (sign * n)

    def atom(self) -> RatFuncQ:
        tok = self.take()
        if tok == "(":
            out = self.expr()
            if not self.take(")"):
                raise ParseError("missing ')'")
            return out
        if tok == "x" or isinstance(tok, int):
            return RatFuncQ.make(PolyQ.x() if tok == "x" else PolyQ.const(tok))
        raise ParseError(f"unexpected {tok!r}")


def _parse(s: str) -> RatFuncQ:
    try:
        parser = _Parser(s)
        out = parser.expr()
        if parser.toks:
            raise ParseError(f"unexpected {parser.toks[-1]!r}")
        return out
    except (ValueError, RecursionError) as exc:
        # ValueError covers DomainError (division by zero) and int()'s digit limit
        raise ParseError(f"cannot parse {s!r}: {exc}") from None


def poly_from_string(s: str) -> PolyQ:
    """Parse `3*x^2 - 1/2*x + 7` style input (also accepts `**` powers)."""
    f = _parse(s)
    quo, rem = f.num.divmod(f.den)
    if not rem.is_zero():
        raise ParseError(f"{s!r} is not a polynomial")
    return quo


def ratfunc_from_string(s: str) -> tuple[PolyQ, PolyQ]:
    """Parse an element of Q(x) as a (numerator, denominator) pair in lowest
    terms, the denominator monic."""
    f = _parse(s)
    g = poly_gcd(f.num, f.den)
    num, den = f.num.divmod(g)[0], f.den.divmod(g)[0]
    return num.scale(1 / den.lc()), den.monic()


def poly_to_string(f: PolyQ) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for i, c in reversed(list(enumerate(f.coeffs))):
        if c == 0:
            continue
        if i == 0:
            term = str(c) if c > 0 else f"- {-c}" if parts else str(c)
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            mag = xpow if abs(c) == 1 else f"{abs(c)}*{xpow}"
            term = mag if c > 0 else (f"- {mag}" if parts else f"-{mag}")
        parts.append("+ " + term if parts and c > 0 else term)
    return " ".join(parts)


# -- factorization over Q ----------------------------------------------------

def poly_key(f):
    """Sort key of a PolyQ or PolyFp: degree, then coefficients from the constant
    term up, ints where they are (Python compares int and Fraction by value)."""
    return f.degree, (f.coeffs if f.p or f.den != 1 else f.nums)


def factor_key(fm):
    return poly_key(fm[0])  # of a (factor, multiplicity) pair


def _factor(f, split):
    """(lc(f), the monic irreducible factors with multiplicity, sorted by
    `factor_key`) of a PolyQ or PolyFp f, `split` factoring each squarefree
    part; lc(f) * prod g^m is multiplied back and compared with f."""
    if f.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    factors = sorted(((g, m) for part, m in squarefree_parts(f) for g in split(part)),
                     key=factor_key)
    if prod((g for g, m in factors for _ in range(m)), start=f.scalar(f.lc())) != f:
        field = f"F_{f.p}" if f.p else "Q"
        raise InternalError(f"factorization over {field} failed to reconstruct the input")
    return f.lc(), tuple(factors)


def factor_poly_q(f: PolyQ) -> tuple[Fraction, tuple[tuple[PolyQ, int], ...]]:
    """Exact factorization over Q, as `_factor` returns it.  A squarefree
    part that `_mod_p_splits` cannot prove irreducible goes to `zassenhaus`,
    imported on the first split; its recombination is bounded by
    `Budgets.subsets`, not by the degree."""
    return _factor(f, _split_q)


def _split_q(f: PolyQ) -> list[PolyQ]:
    if not (screen := _mod_p_splits(f))[0]:
        return [f]
    from .zassenhaus import split_q
    return split_q(f, *screen)


@functools.lru_cache(maxsize=SPLIT_CACHE_SIZE)
def _mod_p_splits(f: PolyQ) -> tuple[int, tuple]:
    """(degrees, splits) of a monic squarefree f: splits holds (p, factors of
    f mod p) for p in IRREDUCIBILITY_PRIMES, and bit k of degrees, 0 < k <
    deg f, is set while f may have a factor of degree k, which mod each p is
    a subset of the factors of total degree k.  The splits stop at degrees =
    0: f is irreducible.  Memoized for the split that follows a failure."""
    degrees, splits = (1 << f.degree) - 1 & ~1, []
    for p in IRREDUCIBILITY_PRIMES:
        if degrees and f.den % p:
            facs, sums = factor_poly_fp(polyfp_from_polyq(f, p))[1], 1
            for h, m in facs:
                for _ in range(m):
                    sums |= sums << h.degree
            degrees &= sums
            splits.append((p, facs))
    return degrees, tuple(splits)


@functools.lru_cache(maxsize=SPLIT_CACHE_SIZE)
def irreducible_factors_q(f: PolyQ) -> tuple[PolyQ, ...]:
    """The monic irreducible factors of a monic squarefree f, sorted; memoized
    on f like `irreducible_factors_fp`.  `_mod_p_splits` proves most monic f
    irreducible unfactored; `factor_poly_q` splits the rest, x^4 + 1 always."""
    if f.is_monic() and not _mod_p_splits(f)[0]:
        return (f,)
    return _places(f, factor_poly_q)


def _places(f, factor) -> tuple:
    """The factors of `factor(f)`, whose unit must be 1 and every multiplicity 1."""
    unit, facs = factor(f)
    if unit != 1 or any(m != 1 for _, m in facs):
        raise DomainError(f"{f} is not monic and squarefree")
    return tuple(g for g, _ in facs)


# ---------------------------------------------------------------------------
# polynomials over F_p
# ---------------------------------------------------------------------------

class PolyFp(NamedTuple):
    """Dense polynomial over F_p (p an odd prime), trimmed, reduced mod p.
    The ring operations (`+`, `-`, `*`, `monic`, `divmod` by a polynomial
    with a unit leading coefficient) also serve an odd prime power p, for
    Hensel lifting; the characteristic-p code (`fq_char`, `factor_poly_fp`,
    the p-th root in `squarefree_parts`, `check_char`) never gets one."""

    p: int
    coeffs: tuple[int, ...]

    @staticmethod
    def make(p: int, coeffs) -> "PolyFp":
        """Integer or rational coefficients mod p; a/b stands for a * b^-1."""
        try:
            return PolyFp.reduced(p, [c.numerator * pow(c.denominator, -1, p) for c in coeffs])
        except ValueError:  # pow found no inverse: p divides b
            raise DomainError(f"prime {p} divides a denominator") from None

    @staticmethod
    def reduced(p: int, ints) -> "PolyFp":
        """Integer coefficients mod p, trimmed: the ring operations' constructor."""
        if p == 2:
            raise DomainError("characteristic 2 is unsupported")
        return PolyFp(p, tuple(_trimmed(ints, p)))

    @staticmethod
    def const(p: int, c: int) -> "PolyFp":
        return PolyFp.make(p, [c])

    @staticmethod
    def x(p: int) -> "PolyFp":
        return PolyFp.reduced(p, [0, 1])

    def scalar(self, c: int) -> "PolyFp":
        return PolyFp.const(self.p, c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> int:
        if self.is_zero():
            raise DomainError("zero polynomial")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.lc() == 1

    def monic(self) -> "PolyFp":
        p, inv = self.p, pow(self.lc(), -1, self.p)
        return PolyFp(p, tuple([c * inv % p for c in self.coeffs]))  # trimmed: a unit on top

    def _chk(self, other: "PolyFp") -> None:
        if self.p != other.p:
            raise DomainError("characteristic mismatch")

    def __add__(self, other: "PolyFp") -> "PolyFp":
        self._chk(other)
        return PolyFp.reduced(self.p, [a + b for a, b in
                                       zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __neg__(self) -> "PolyFp":
        return PolyFp.reduced(self.p, [-c for c in self.coeffs])

    def __sub__(self, other: "PolyFp") -> "PolyFp":
        self._chk(other)
        return PolyFp.reduced(self.p, [a - b for a, b in
                                       zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __mul__(self, other: "PolyFp") -> "PolyFp":
        self._chk(other)
        return PolyFp.reduced(self.p, _product(self.coeffs, other.coeffs))

    def divmod(self, other: "PolyFp") -> tuple["PolyFp", "PolyFp"]:
        self._chk(other)
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        p, r = self.p, list(self.coeffs)
        q = _reduce(r, other.coeffs, p, pow(other.lc(), -1, p))
        return PolyFp.reduced(p, q), PolyFp.reduced(p, r[:other.degree])

    def __mod__(self, other: "PolyFp") -> "PolyFp":
        return self.divmod(other)[1]

    def evaluate(self, a) -> int:
        """The value at an integer or rational a, read mod p as `make` reads it."""
        (a,) = PolyFp.make(self.p, [a]).coeffs or (0,)
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % self.p
        return acc

    def derivative(self) -> "PolyFp":
        return PolyFp.reduced(self.p, [i * c for i, c in enumerate(self.coeffs)][1:])

    def __str__(self) -> str:
        return poly_to_string(PolyQ(self.coeffs))  # trimmed integers over 1


# -- coefficient lists, low degree first, over Z/m (m a prime or a prime power)

def _trimmed(cs, m: int) -> list[int]:
    """The coefficients cs reduced mod m, trailing zeros dropped."""
    out = [c % m for c in cs]
    while out and not out[-1]:
        out.pop()
    return out


def _reduce(r: list[int], f, m: int, inv: int = 1) -> list[int]:
    """Divide r by f in place and return the quotient, inv = 1/lc(f) mod m.
    Lazy: one % per quotient coefficient and none in the inner loop, so the
    remainder r[:deg f] is left unreduced."""
    d = len(f) - 1
    q = [0] * max(0, len(r) - d)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + d] * inv % m
        if c:
            r[k:k + d] = [u - c * v for u, v in zip(r[k:k + d], f)]
    return q


def _product(a, b) -> list[int]:
    """Schoolbook product with no %.  Zero coefficients of a are skipped, so
    a sparse a costs O(len b) per nonzero term."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        if c:
            out[i:i + len(b)] = [u + c * v for u, v in zip(out[i:i + len(b)], b)]
    return out


class ZxRing:
    """Z/m[x]/(f), f monic of degree n, m a prime or a prime power, by
    Kronecker substitution: coefficients a_i pack into the integer sum of
    a_i 2^(i w), so a product is one bigint multiply.  With t = bitlen(m),
    every slot that `fold` reduces is below 2^b, b = 2t + bitlen(4n).
    Barrett's reduction (Barrett, CRYPTO '86; Menezes et al., HAC 14.42)
    multiplies a slot's top b - t + 2 bits by k = 2^(b+1) // m, below
    2^(b-t+2), so w = 2(b - t) + 5 holds that product, and its quotient
    then ends 2 bits below the next slot's: no packed step ever carries."""

    def __init__(self, f, m: int):
        self.f, self.m, self.n = f, m, len(f) - 1
        t, b = m.bit_length(), 2 * m.bit_length() + (4 * self.n).bit_length()
        self.w = w = 2 * (b - t) + 5
        self.top, self.mask = self.n * w, (1 << w) - 1  # top: bits of n slots
        self.low = (1 << self.top) - 1
        self.ones = self.low // self.mask  # a 1 in each of the n slots
        self.s, self.sh, self.k = t - 2, b - t + 3, (1 << b + 1) // m
        self.qmask, self.bias = self.ones * ((1 << b - t + 2) - 1), self.ones * ((1 << w - 1) - m)
        # mu = x^(2n) // f: the quotient of a below x^(2n) by f is (a // x^n) mu // x^n
        self.mu, self.negf = (sum(c % m << i * w for i, c in enumerate(a)) for a in
                              (_reduce([0] * 2 * self.n + [1], f, m), [-c for c in f[:-1]]))

    def pack(self, a) -> int:
        """The packed residue of an integer list of any length and signs."""
        m, w, v = self.m, self.w, 0
        if len(a) > self.n:
            _reduce(a := list(a), self.f, m)
        for c in reversed(a[:self.n]):
            v = v << w | c % m
        return v

    def unpack(self, v: int) -> list[int]:
        """The trimmed coefficients mod m of a packed value of n slots."""
        return _trimmed([v >> s & self.mask for s in range(0, self.top, self.w)], self.m)

    def _barrett(self, v: int) -> int:
        """The n slots of v, each below 2^b, reduced to [0, 2m) mod m:
        Barrett's quotient ((v_i >> (t-2)) k) >> (b-t+3) errs by less than
        v_i / 2^(b+1) + 2^(t-2) / m, below 1/2 + 1/2, so is short by one at most."""
        qmask = self.qmask
        return v - ((v >> self.s & qmask) * self.k >> self.sh & qmask) * self.m

    def fold(self, v: int) -> int:
        """The packed residue v mod (f, m), v of at most 2n slots, each below
        2^(b-1), as a product of two packed residues is (its slots sum at most
        n products below m^2).  With v = lo + hi x^n, the quotient by f is q =
        (hi mod m) mu // x^n exactly, as polynomials have no carries (von zur
        Gathen-Gerhard, Modern Computer Algebra, 9.1); then v - q f mod m is
        lo + q (-f mod m) on the low n slots.  hi and q are only brought below
        2m, so those slots stay below 2n m^2 and 2^(b-1) + 2n m^2 < 2^b; the
        result's slots go below m by adding 2^(w-1) - m to each, which sets a
        slot's top bit just when one m is still due."""
        q = self._barrett(self._barrett(v >> self.top) * self.mu >> self.top)
        v = self._barrett((v & self.low) + q * self.negf & self.low)
        return v - ((v + self.bias) >> self.w - 1 & self.ones) * self.m

    def mul(self, a, b) -> list[int]:
        return self.unpack(self.fold(self.pack(a) * self.pack(b)))

    def pow(self, a, e: int) -> list[int]:
        """a^e, left-to-right: each step squares the packed value, then a 1
        bit multiplies by the base; a fold per product."""
        b, r = self.pack(a), self.pack([1])
        for bit in bin(e)[2:]:
            r = self.fold(r * r)
            if bit == "1":
                r = self.fold(r * b)
        return self.unpack(r)


def _rem(a, b, p: int) -> list[int]:
    """a mod b over F_p, reduced and trimmed, as a and b are (b nonzero).  A
    Euclid step's quotient q1 x + q0 mostly has degree 1 or less, read off the
    top of a; then r_i = a_i - q1 b_(i-1) - q0 b_i is one pass.  Longer: by a
    linear b, a at the root of b by Horner; else `_reduce`."""
    k, inv = len(a) - len(b), pow(b[-1], -1, p)
    if k > 1 and len(b) == 2:
        root, v = -b[0] * inv % p, 0
        for c in reversed(a):
            v = (v * root + c) % p
        return [v] if v else []
    if k > 1:
        _reduce(r := list(a), b, p, inv)
        return _trimmed(r[:len(b) - 1], p)
    q1, xb = a[-1] * inv % p if k == 1 else 0, [0, *b]  # xb = x b: xb[-2] is b[-2], or 0
    q0 = (a[-1 - k] - q1 * xb[-2]) * inv % p if k >= 0 else 0  # k < 0: r = a
    r = [(u - q1 * v - q0 * w) % p for u, v, w in zip(a, xb, b)]
    while r and not r[-1]:
        r.pop()
    return r


def polyfp_gcd(f: PolyFp, g: PolyFp) -> PolyFp:
    """Monic gcd (zero if both are zero); Euclid on coefficient lists."""
    f._chk(g)
    p, a, b = f.p, f.coeffs, g.coeffs
    while b:
        a, b = b, _rem(a, b, p)
        if len(b) >= len(a):
            raise InternalError(f"a remainder step over F_{p} kept the degree {len(a) - 1}")
    return PolyFp(p, tuple(a)).monic() if a else PolyFp(p, ())


def polyfp_pow_mod(base: PolyFp, n: int, modulus: PolyFp) -> PolyFp:
    """base^n mod modulus by `ZxRing.pow`: one packed square per bit of n."""
    base._chk(modulus)
    return PolyFp(base.p, tuple(ZxRing(modulus.monic().coeffs, base.p).pow(base.coeffs, n)))


def polyfp_resultant(f: PolyFp, g: PolyFp) -> int:
    """Resultant over F_p in [0, p) by the Euclidean recursion on coefficient lists,
    longer first; 0 when f or g is zero (the loop gives it, or the final test)."""
    p, acc, a, b = f.p, 1, f.coeffs, g.coeffs
    if len(a) < len(b):  # Res(a, b) = (-1)^(deg a deg b) Res(b, a)
        acc, a, b = -1 if (len(a) - 1) * (len(b) - 1) % 2 else 1, b, a
    while len(b) > 1:  # Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r)
        r = _rem(a, b, p)
        if not r:
            return 0
        if len(r) >= len(b):
            raise InternalError(f"a remainder step over F_{p} kept the degree {len(b) - 1}")
        acc = acc * (-1) ** ((len(a) - 1) * (len(b) - 1)) * pow(b[-1], len(a) - len(r), p) % p
        a, b = b, r
    return acc * pow(b[0], len(a) - 1, p) % p if a and b else 0


def fq_char(h: PolyFp, factors: list[PolyFp]) -> int:
    """Quadratic character of the product of `factors` in F_q = F_p[x]/(h), h monic
    irreducible: t^((q-1)/2) = (N t / p), N t = prod Res(h, t_i); a non-unit raises."""
    p, n = h.p, 1
    for t in factors:  # no prod(generator): its set-up outweighs the usual 1-3 factors
        n = n * polyfp_resultant(h, t) % p
    if n == 0:
        raise InternalError(f"quadratic character of a non-unit mod {h}")
    return euler_char(n, p)


def sqrt_tonelli_shanks(a, z, q: int, mul, power, one):
    """A square root of a nonzero square a in F_q by its mul and power, z a
    nonsquare (Tonelli-Shanks; Cohen, GTM 138, Alg. 1.5.1): r^2 = a t, ord t < 2^m."""
    m = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = 2^m e, e odd
    e = (q - 1) >> m
    c, t, r = power(z, e), power(a, e), power(a, (e + 1) // 2)
    while t != one:
        i, t2 = 1, mul(t, t)
        while t2 != one and i < m:
            i, t2 = i + 1, mul(t2, t2)
        if i == m:  # t^(2^(m-1)) != 1: a is no nonzero square
            raise InternalError("square root of a nonsquare or of zero")
        b = power(c, 1 << (m - i - 1))
        m, c = i, mul(b, b)
        t, r = mul(t, c), mul(r, b)
    return r


def coeffs_mod(f: PolyQ, m: int) -> list[int]:
    """The coefficients of f mod m, m coprime to the denominator, low degree
    first and untrimmed: the numerators times den^-1 mod m."""
    inv = pow(f.den, -1, m)
    return [n * inv % m for n in f.nums]


def polyfp_from_polyq(f: PolyQ, p: int) -> PolyFp:
    """Reduce mod p; fails if p divides the denominator."""
    if f.den % p == 0:
        raise DomainError(f"prime {p} divides a denominator of {f}")
    return PolyFp.reduced(p, coeffs_mod(f, p))


@functools.lru_cache(maxsize=SPLIT_CACHE_SIZE)
def squarefree_parts(f):
    """The monic, squarefree, pairwise coprime parts a_i, with multiplicities
    i, of f = lc(f) * prod a_i^i, over Q or F_p (none for a constant f).  With
    c = gcd(f, f') and w = f / c, each step's y = gcd(w, c) leaves the part w /
    y of multiplicity i.  What c keeps after the loop is a p-th power g(x^p),
    so only in characteristic p; its p-th root g splits with multiplicities
    times p.  f' = 0 (f itself a p-th power) needs no case: gcd(f, 0) = f.
    A memo on monic f: an entry both algebras share, a constant multiple of
    one, or a part of one that `factor_poly_fp` checks again, splits once."""
    if f.degree < 1:
        return ()
    if not f.is_monic():
        return squarefree_parts(f.monic())
    c = f.gcd(f.derivative())
    if c.degree == 0:  # squarefree: the loop below gives this
        return ((f, 1),)
    w, out, i = f.divmod(c)[0], [], 1
    while w.degree > 0:
        y = w.gcd(c)
        z = w.divmod(y)[0]
        if z.degree > 0:
            out.append((z, i))
        w, c, i = y, c.divmod(y)[0], i + 1
    if c.degree > 0:
        p = c.p
        out += [(g, p * m) for g, m in squarefree_parts(PolyFp.reduced(p, c.coeffs[::p]))]
    return tuple(out)


def poly_inverse(a, m):
    """1/a mod m (deg m > 0), both PolyQ or both PolyFp: extended Euclid by
    pseudo-remainders from (r, t) = (m, 0), (a, 1), each r = t a mod m, to a
    constant r; r and t reduced mod p, or over Q cut by their common content."""
    p, t0, t1 = m.p, [], [1]
    r0, r1 = (m.coeffs, a.coeffs) if p else (m.nums, a.nums)
    while len(r1) > 1:
        q, r, s = _pseudo_divmod(r0, r1)
        t = [s * u - v for u, v in zip_longest(t0, _product(q, t1), fillvalue=0)]
        if p:
            r, t = _trimmed(r, p), _trimmed(t, p)
        else:
            c = gcd(*r, *t)
            r, t = [u // c for u in r], [u // c for u in t]
        r0, r1, t0, t1 = r1, r, t1, t
    if not r1:
        raise DomainError(f"{a} is not invertible mod {m}")
    if p:
        inv = pow(r1[0], -1, p)
        return PolyFp(p, tuple([c * inv % p for c in t1]))  # trimmed: a unit on top
    return PolyQ.reduced([c * a.den for c in t1], r1[0])  # t A = r, A = a den(a)


def _frobenius_rows(f: PolyFp, ring: ZxRing) -> list[int]:
    """The rows x^(i p) mod f, i < deg f, of the Frobenius map t -> t^p of
    F_p[x]/(f), f monic, packed in ring: x^0 packs to 1, then x^p times each.
    x^p takes one fold per bit of p: a 1 bit shifts the square by one slot
    (times x), and the 2n slots that leaves are within `fold`'s input."""
    rows, xp = [1], 1
    for bit in bin(f.p)[2:]:
        xp = ring.fold(xp * xp << ring.w * (bit == "1"))
    while len(rows) < f.degree:
        rows.append(ring.fold(xp * rows[-1]))
    return rows


def _frobenius(t: list[int], rows: list[int], ring: ZxRing) -> list[int]:
    """t^p mod f = sum of t_i * x^(i p) mod f, as t_i^p = t_i in F_p: one
    packed sum of n products below p^2 a slot (no carry), which `unpack`
    reduces with no fold."""
    return ring.unpack(sum(c * row for c, row in zip(t, rows) if c))


def _ddf(f: PolyFp, rows: list[int], ring: ZxRing) -> list[tuple[PolyFp, int]]:
    """Distinct-degree factorization of a monic squarefree f: x^(p^d) mod f
    advances by one application of the Frobenius rows of f, and gcd(x^(p^d) -
    x, rest), rest the shrinking cofactor that divides f, is the degree-d part.
    In the loop f has 2 or more roots, so x^(p^d) is no constant (Frobenius is 1-1).
    A quadratic needs no rows: two roots iff its discriminant is a square."""
    if f.degree == 2:
        (c, b, _), p = f.coeffs, f.p
        return [(f, 1 if euler_char(b * b - 4 * c, p) == 1 else 2)]
    p, out, xq, d, rest = f.p, [], [0, 1], 0, f
    while rest.degree > 2 * d + 1:
        d += 1
        xq = _frobenius(xq, rows, ring)
        g = polyfp_gcd(PolyFp(p, tuple(_trimmed([xq[0], xq[1] - 1, *xq[2:]], p))), rest)
        if g.degree > 0:
            out.append((g, d))
            rest = rest.divmod(g)[0]
    return out + [(rest, rest.degree)] if rest.degree > 0 else out


def _edf(g: PolyFp, d: int, ring: ZxRing, rows: list[int], rng: random.Random) -> list[PolyFp]:
    """Cantor-Zassenhaus splitting of g | f, a product of irreducibles of
    degree d, in the ring of f with its packed Frobenius rows.  As (p^d - 1)/2
    = (p - 1)/2 * (1 + p + ... + p^(d-1)), r^((p^d - 1)/2) is the norm r *
    r^p * ... * r^(p^(d-1)) (d - 1 applications of the rows and d - 1
    products mod f) to the power (p - 1)/2 mod g, log2(p) bits, not d log2(p).
    A quadratic g = x^2 + b x + c with two roots needs none of it: with s^2 =
    b^2 - 4c by the least nonresidue, its factors are x + (b -+ s)/2."""
    if g.degree == d:
        return [g]
    if g.degree == 2:
        (c, b, _), p, half = g.coeffs, g.p, (g.p + 1) // 2
        z = next(z for z in range(2, p) if euler_char(z, p) == -1)
        s = sqrt_tonelli_shanks((b * b - 4 * c) % p, z, p, lambda u, v: u * v % p,
                                functools.partial(pow, mod=p), 1)
        return [PolyFp(p, ((b - s) * half % p, 1)), PolyFp(p, ((b + s) * half % p, 1))]
    p, h = g.p, g
    while not 0 < h.degree < g.degree:
        t = norm = [rng.randrange(p) for _ in range(g.degree)]
        h = polyfp_gcd(PolyFp.reduced(p, t), g)
        if h.degree == 0:  # t is a unit mod g: split g by its quadratic character
            for _ in range(d - 1):
                t = _frobenius(t, rows, ring)
                norm = ring.mul(t, norm)
            h = polyfp_gcd(polyfp_pow_mod(PolyFp.reduced(p, norm), (p - 1) // 2, g)
                           - PolyFp.const(p, 1), g)
    return _edf(h, d, ring, rows, rng) + _edf(g.divmod(h)[0], d, ring, rows, rng)


def factor_poly_fp(f: PolyFp) -> tuple[int, tuple[tuple[PolyFp, int], ...]]:
    """`_factor` by Cantor-Zassenhaus: the Frobenius matrix of each squarefree
    part of degree 3 or more in its own `ZxRing` (None below); one seeded rng."""
    rng = random.Random(0xCA2A)

    def split(g: PolyFp) -> list[PolyFp]:
        ring = ZxRing(g.coeffs, g.p) if g.degree > 2 else None
        rows = ring and _frobenius_rows(g, ring)
        return [h for part, d in _ddf(g, rows, ring) for h in _edf(part, d, ring, rows, rng)]

    return _factor(f, split)


@functools.lru_cache(maxsize=SPLIT_CACHE_SIZE)
def irreducible_factors_fp(h: PolyFp) -> tuple[PolyFp, ...]:
    """The monic irreducible factors of a monic squarefree h, sorted; memoized
    on h (and so on p), as the entries of a decision share most parts."""
    return _places(h, factor_poly_fp)


# the ring operations that funcfield calls, under the same names over Q and F_p
PolyQ.gcd, PolyQ.places = poly_gcd, irreducible_factors_q
PolyFp.gcd, PolyFp.places = polyfp_gcd, irreducible_factors_fp


def polyfp_from_string(s: str, p: int) -> PolyFp:
    return polyfp_from_polyq(poly_from_string(s), p)


def sqrt_fraction(q: Fraction) -> Fraction | None:
    """Exact rational square root, or None."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None
