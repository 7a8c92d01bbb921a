"""Zassenhaus factoring of a squarefree polynomial over Q.

Zassenhaus (J. Number Theory 1, 1969), in the form of von zur Gathen and
Gerhard, *Modern Computer Algebra*, ch. 15: the monic factors of f mod a
prime p are lifted to p^e by a linear chain of two-factor Hensel lifts, e
large enough for p^e to exceed twice the coefficient bound of the factors'
lc-scaled forms, and subsets of them are recombined into the factors over Z
by trial division.  `exact_arith.factor_poly_q` imports this module on its
first split, so a process that never splits does not compile it.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, gcd, isqrt, prod

from .errors import BUDGETS, BudgetError
from .exact_arith import (
    IRREDUCIBILITY_PRIMES,
    PolyFp,
    PolyQ,
    _pseudo_divmod,
    factor_poly_fp,
    poly_inverse,
    polyfp_from_polyq,
)
from .integers import is_prime


def split_q(f: PolyQ, degrees: int, splits) -> list[PolyQ]:
    """The monic irreducible factors of a monic squarefree f of degree >= 2.

    `degrees` and `splits` are what `exact_arith._mod_p_splits` returns: bit
    k of degrees set where a factor of degree k is still possible, and the
    factorizations (p, ((h, m), ...)) of f mod the primes it tried."""
    F = list(f.nums)  # primitive in Z[x], as gcd(den, *nums) = 1 and lc = den
    p, factors = _hensel_prime(f, splits)
    bound, e = 2 * _coefficient_bound(F), 1
    while p**e <= bound:
        e += 1
    return [PolyQ.reduced(g, g[-1])
            for g in _recombine(F, _hensel_lift(F, factors, p**e), p**e, degrees)]


def _hensel_prime(f: PolyQ, splits) -> tuple[int, list[PolyFp]]:
    """(p, the monic factors of f mod p): of the splits where f stays
    squarefree mod p, one with the fewest factors.  Further primes are
    factored only when every screened prime divides the discriminant."""
    good = [(len(facs), p, facs) for p, facs in splits if all(m == 1 for _, m in facs)]
    p = IRREDUCIBILITY_PRIMES[-1]
    while not good:
        p += 2
        if is_prime(p) and f.den % p:
            facs = factor_poly_fp(polyfp_from_polyq(f, p))[1]
            if all(m == 1 for _, m in facs):
                good.append((len(facs), p, facs))
    _, p, facs = min(good, key=lambda t: t[:2])
    return p, [h for h, _ in facs]


def _coefficient_bound(F: list[int]) -> int:
    """A bound on the coefficients of lc(F)/lc(G) * G for every factor G of
    F in Z[x] of degree below deg F: |lc(F)| times the Knuth-Cohen bound
    C(k-1, j) ||F||_2 + C(k-1, j-1) |lc(F)| on the j-th coefficient of a
    factor of degree k (Knuth, TAOCP 2, 4.6.2 ex. 20), at k = deg F - 1."""
    k, norm, lc = len(F) - 2, isqrt(sum(c * c for c in F)) + 1, abs(F[-1])
    return lc * max(comb(k - 1, j) * norm + (comb(k - 1, j - 1) * lc if j else 0)
                    for j in range(k + 1))


def _hensel_step(f, g, h, s, t):
    """One step of vzGG Algorithm 15.10: from f = g h and s g + t h = 1 mod
    m0, h monic, to the same mod m, for m0 | m | m0^2.  All five arguments
    are polynomials over Z/m, the ring of the result."""
    e = f - g * h
    q, r = (s * e).divmod(h)
    g, h = g + t * e + q * g, h + r
    b = s * g + t * h - s.scalar(1)
    c, d = (s * b).divmod(h)
    return g, h, s - d, t - t * b - c * g


def _hensel_lift(F: list[int], factors: list[PolyFp], pe: int) -> list[PolyFp]:
    """Monic u_i over Z/pe, pe a power of p, with F = lc(F) prod u_i mod pe,
    from the monic factors of F mod p: the first factor, times lc(F), is
    lifted against the product of the rest, then the lifted rest is split
    the same way."""
    lifted, rest = [], PolyFp.reduced(pe, F)
    for i, u in enumerate(factors[:-1]):
        g = u * u.scalar(rest.lc())
        h = prod(factors[i + 1:], start=u.scalar(1))
        s = poly_inverse(g, h)
        t = (u.scalar(1) - s * g).divmod(h)[0]
        m = u.p
        while m < pe:
            m = min(m * m, pe)
            g, h, s, t = _hensel_step(*(PolyFp.reduced(m, a.coeffs) for a in (rest, g, h, s, t)))
        lifted.append(g.monic())
        rest = h
    return lifted + [rest]


def _recombine(F: list[int], lifted: list[PolyFp], pe: int, degrees: int) -> list[list[int]]:
    """The primitive irreducible factors of F in Z[x], positive leading
    coefficients.  Subsets S of the lifted factors are taken by size k, from
    1 up to half of those left; the candidate lc(F) prod S mod pe, symmetric
    and primitive, is a factor when it divides F.  A factor found leaves F
    and its subset the list, and the search goes on at the same k.  A subset
    of a degree that no screened prime allows, or whose constant term cannot
    divide lc(F) F(0), is skipped untried."""
    found, tried, k = [], 0, 1
    half, limit = pe // 2, BUDGETS.get().subsets
    while 2 * k <= len(lifted):
        b = F[-1]
        for S in combinations(range(len(lifted)), k):
            tried += 1
            if tried > limit:
                raise BudgetError(f"no split of a degree-{len(F) - 1} polynomial"
                                  f" within subsets = {limit}")
            if not degrees >> sum(lifted[i].degree for i in S) & 1:
                continue
            c0 = b * prod(lifted[i].coeffs[0] for i in S) % pe
            c0 -= pe if c0 > half else 0
            if b * F[0] % c0 if c0 else F[0]:
                continue
            g = prod((lifted[i] for i in S), start=PolyFp.const(pe, b))
            g = [c - pe if c > half else c for c in g.coeffs]
            content = gcd(*g) if g[-1] > 0 else -gcd(*g)
            g = [c // content for c in g]
            q, r, s = _pseudo_divmod(F, g)
            if s != 1 or r:
                continue
            found.append(g)
            F, lifted = q, [u for i, u in enumerate(lifted) if i not in S]
            break
        else:
            k += 1
    return found + [F]
