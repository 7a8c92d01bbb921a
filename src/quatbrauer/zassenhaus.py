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

from itertools import combinations, zip_longest
from math import comb, gcd, isqrt, prod

from .errors import BudgetError
from .exact_arith import (
    IRREDUCIBILITY_PRIMES,
    PolyFp,
    PolyQ,
    _product,
    _pseudo_reduce,
    _reduce,
    _trimmed,
    factor_poly_fp,
    is_prime,
    poly_inverse,
    polyfp_from_polyq,
)

# Subsets of lifted factors tried in recombination before a BudgetError.  The
# degree-16 Swinnerton-Dyer polynomial takes 162, and no degree-24 product of
# Swinnerton-Dyer, cyclotomic or binomial factors tried took more than 428;
# most subsets are dismissed by their degree or constant term in microseconds.
MAX_SUBSETS = 2**16


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
            for g in _recombine(F, _hensel_lift(F, factors, p, p**e), p**e, degrees, f)]


def _hensel_prime(f: PolyQ, splits) -> tuple[int, list[list[int]]]:
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
    return p, [list(h.coeffs) for h, _ in facs]


def _coefficient_bound(F: list[int]) -> int:
    """A bound on the coefficients of lc(F)/lc(G) * G for every factor G of
    F in Z[x] of degree below deg F: |lc(F)| times the Knuth-Cohen bound
    C(k-1, j) ||F||_2 + C(k-1, j-1) |lc(F)| on the j-th coefficient of a
    factor of degree k (Knuth, TAOCP 2, 4.6.2 ex. 20), at k = deg F - 1."""
    k, norm, lc = len(F) - 2, isqrt(sum(c * c for c in F)) + 1, abs(F[-1])
    return lc * max(comb(k - 1, j) * norm + (comb(k - 1, j - 1) * lc if j else 0)
                    for j in range(k + 1))


# -- coefficient lists mod m, low degree first --------------------------------

def _add(a, b, m: int) -> list[int]:
    return _trimmed([x + y for x, y in zip_longest(a, b, fillvalue=0)], m)


def _sub(a, b, m: int) -> list[int]:
    return _trimmed([x - y for x, y in zip_longest(a, b, fillvalue=0)], m)


def _mul(a, b, m: int) -> list[int]:
    return _trimmed(_product(a, b), m)


def _divmod(a, h, m: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q h + r mod m, h monic."""
    r = list(a)
    q = _reduce(r, h, m)
    return _trimmed(q, m), _trimmed(r[:len(h) - 1], m)


def _hensel_step(f, g, h, s, t, m: int):
    """One step of vzGG Algorithm 15.10: from f = g h and s g + t h = 1 mod
    m0, h monic, to the same mod m, for m0 | m | m0^2."""
    e = _sub(f, _mul(g, h, m), m)
    q, r = _divmod(_mul(s, e, m), h, m)
    g = _add(g, _add(_mul(t, e, m), _mul(q, g, m), m), m)
    h = _add(h, r, m)
    b = _sub(_add(_mul(s, g, m), _mul(t, h, m), m), [1], m)
    c, d = _divmod(_mul(s, b, m), h, m)
    return g, h, _sub(s, d, m), _sub(t, _add(_mul(t, b, m), _mul(c, g, m), m), m)


def _hensel_lift(F: list[int], factors: list[list[int]], p: int, pe: int) -> list[list[int]]:
    """Monic u_i mod pe = p^e with F = lc(F) prod u_i mod pe, from the monic
    factors of F mod p: the first factor, times lc(F), is lifted against the
    product of the rest, then the lifted rest is split the same way."""
    lifted, rest, lc = [], F, F[-1]
    for i, u in enumerate(factors[:-1]):
        g, h = [c * lc % p for c in u], [1]
        for v in factors[i + 1:]:
            h = _mul(h, v, p)
        s = poly_inverse(PolyFp.reduced(p, g), PolyFp(p, tuple(h)))
        t = _divmod(_sub([1], _mul(s.coeffs, g, p), p), h, p)[0]
        s, m = list(s.coeffs), p
        while m < pe:
            m = min(m * m, pe)
            g, h, s, t = _hensel_step(rest, g, h, s, t, m)
        inv = pow(lc, -1, pe)
        lifted.append([c * inv % pe for c in g])
        rest, lc = h, 1
    return lifted + [rest]


def _recombine(F: list[int], lifted: list[list[int]], pe: int, degrees: int,
               f: PolyQ) -> list[list[int]]:
    """The primitive irreducible factors of F in Z[x], positive leading
    coefficients.  Subsets S of the lifted factors are taken by size k, from
    1 up to half of those left; the candidate lc(F) prod S mod pe, symmetric
    and primitive, is a factor when it divides F.  A factor found leaves F
    and its subset the list, and the search goes on at the same k.  A subset
    of a degree that no screened prime allows, or whose constant term cannot
    divide lc(F) F(0), is skipped untried."""
    found, tried, k = [], 0, 1
    half = pe // 2
    while 2 * k <= len(lifted):
        b = F[-1]
        for S in combinations(range(len(lifted)), k):
            tried += 1
            if tried > MAX_SUBSETS:
                raise BudgetError(f"no split of {f} within {MAX_SUBSETS} recombined subsets")
            if not degrees >> sum(len(lifted[i]) - 1 for i in S) & 1:
                continue
            c0 = b * prod(lifted[i][0] for i in S) % pe
            c0 -= pe if c0 > half else 0
            if b * F[0] % c0 if c0 else F[0]:
                continue
            g = [b]
            for i in S:
                g = [c % pe for c in _product(g, lifted[i])]
            g = [c - pe if c > half else c for c in g]
            content = gcd(*g) if g[-1] > 0 else -gcd(*g)
            g = [c // content for c in g]
            r = list(F)
            q, s = _pseudo_reduce(r, g)
            if s != 1 or any(r[:len(g) - 1]):
                continue
            found.append(g)
            F, lifted = q, [u for i, u in enumerate(lifted) if i not in S]
            break
        else:
            k += 1
    return found + [F]
