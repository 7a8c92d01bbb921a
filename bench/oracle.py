"""Answers computed apart from quatbrauer, used to check every benchmark output.

Nothing here imports quatbrauer.  Hilbert symbols over Q come from the
classical formulas on valuations and unit parts (Serre, *A Course in
Arithmetic*, III.1.2); prime factorizations come from `sympy.factorint` or
from the primes a number was built from.  Residues over F_p(x) follow the
norm-Legendre rule: for h monic irreducible of degree d and t a unit mod h,
t^((p^d-1)/2) equals the Legendre symbol of the norm Res(h, t), so every
residue is one resultant over F_p plus one Euler criterion in F_p.  The
polynomial arithmetic over F_p is sympy's own (galoistools), and the entries
are built from irreducibles that sympy's Ben-Or test accepted, so their
factorizations are known without factoring.
"""

from __future__ import annotations

from fractions import Fraction

import sympy
from sympy.polys import galoistools as gf
from sympy.polys.domains import ZZ

X = sympy.Symbol("x")


# -- Q and Br(Q) ---------------------------------------------------------------

def _legendre(a: int, p: int) -> int:
    t = pow(a % p, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def _split(n: int, p: int) -> tuple[int, int]:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert_symbol(a, b, p: int | None) -> int:
    """(a, b)_p for nonzero rationals; p None is the real place."""
    a, b = Fraction(a), Fraction(b)
    if p is None:
        return -1 if a < 0 and b < 0 else 1
    # multiplying by squares does not change the symbol
    a_int = a.numerator * a.denominator
    b_int = b.numerator * b.denominator
    alpha, u = _split(a_int, p)
    beta, v = _split(b_int, p)
    if p == 2:
        def eps(z):
            return (z - 1) // 2 % 2

        def omega(z):
            return (z * z - 1) // 8 % 2

        u8, v8 = u % 8, v % 8
        e = (eps(u8) * eps(v8) + alpha * omega(v8) + beta * omega(u8)) % 2
        return -1 if e else 1
    sign = -1 if (alpha * beta * ((p - 1) // 2)) % 2 else 1
    return sign * _legendre(u, p) ** beta * _legendre(v, p) ** alpha


def primes_of(q, known: tuple[int, ...] | None = None) -> set[int]:
    """Primes dividing the numerator or denominator of a nonzero rational."""
    if known is not None:
        return set(known)
    q = Fraction(q)
    return set(sympy.factorint(abs(q.numerator))) | set(sympy.factorint(q.denominator))


def brq_support(a, b, primes_a=None, primes_b=None) -> frozenset[str]:
    """Places (as 'real' or the prime) where (a, b / Q) ramifies."""
    places = [None, 2] + sorted(primes_of(a, primes_a) | primes_of(b, primes_b))
    return frozenset("real" if p is None else str(p)
                     for p in dict.fromkeys(places) if hilbert_symbol(a, b, p) == -1)


# -- Q[x] ----------------------------------------------------------------------

def poly_q(coeffs) -> sympy.Poly:
    """sympy polynomial over QQ from coefficients, low degree first."""
    return sympy.Poly([sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
                       for c in reversed(coeffs)] or [0], X, domain="QQ")


def evaluate(coeffs, alpha) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * alpha + Fraction(c)
    return acc


def multiplicity(f: sympy.Poly, pi: sympy.Poly) -> int:
    """Exponent of pi in f over Q (0 if pi does not divide f)."""
    m = 0
    while True:
        q, r = f.div(pi)
        if not r.is_zero:
            return m
        f, m = q, m + 1


def parse_place(s: str) -> sympy.Poly:
    """A place printed by the program, e.g. 'x^2 - 3', back as a polynomial."""
    return sympy.Poly(sympy.sympify(s.replace("^", "**"), locals={"x": X}), X, domain="QQ")


# -- F_p(x) --------------------------------------------------------------------
# Polynomials over F_p are sympy galoistools lists: ints in [0, p), highest
# degree first, [] for zero.

def fp_residue_support(p: int, f_coeffs, g_coeffs, places) -> frozenset:
    """Places of F_p(x) where (f, g) has residue -1.

    `places` holds the monic irreducible factors of f and g as coefficient
    tuples, low degree first (the construction knows them); finite places
    come back in that form, the infinite place as 'inf'.
    """
    f = gf.gf_from_int_poly(list(reversed(f_coeffs)), p)
    g = gf.gf_from_int_poly(list(reversed(g_coeffs)), p)
    out = set()
    for key in places:
        h = list(reversed(key))
        vf, f1 = _fp_val(f, h, p)
        vg, g1 = _fp_val(g, h, p)
        if vf == vg == 0:
            continue
        norm = (-1) ** ((len(h) - 1) * vf * vg)
        norm *= pow(_resultant(h, f1, p), vg, p) * pow(_resultant(h, g1, p), vf, p)
        if _legendre(norm, p) == -1:
            out.add(tuple(key))
    # at infinity: uniformizer 1/x, valuations -deg, unit parts reduce to the
    # leading coefficients; 1/c has the same Legendre symbol as c
    vf, vg = 1 - len(f), 1 - len(g)
    t = (-1) ** (vf * vg) * pow(f[0], vg % 2, p) * pow(g[0], vf % 2, p)
    if _legendre(t, p) == -1:
        out.add("inf")
    return frozenset(out)


def random_irreducible(rng, p: int, d: int) -> list[int]:
    """A uniformly drawn monic irreducible of degree d over F_p, low degree
    first, by rejection with sympy's Ben-Or test."""
    while True:
        h = [1] + [rng.randrange(p) for _ in range(d)]
        if d == 1 or gf.gf_irred_p_ben_or(h, p, ZZ):
            return list(reversed(h))


def expand_fp(p: int, lc: int, factors) -> list[int]:
    """lc * prod(h ** m) over F_p, coefficients low degree first."""
    acc = [lc % p]
    for h, m in factors:
        acc = gf.gf_mul(acc, gf.gf_pow(list(reversed(h)), m, p, ZZ), p, ZZ)
    return list(reversed(acc))


def _fp_val(f: list, h: list, p: int) -> tuple[int, list]:
    """(v_h(f), f / h^v_h(f))."""
    m = 0
    while True:
        q, r = gf.gf_div(f, h, p, ZZ)
        if r:
            return m, f
        f, m = q, m + 1


def _resultant(a: list, b: list, p: int) -> int:
    """Res(a, b) mod p by the Euclidean recursion (sympy 1.14's own
    `resultant` returns wrong values over GF(p))."""
    res = 1
    while len(b) > 1:
        r = gf.gf_rem(a, b, p, ZZ)
        if not r:
            return 0
        da, db, dr = len(a) - 1, len(b) - 1, len(r) - 1
        res = res * (-1) ** (da * db) * pow(b[0], da - dr, p) % p
        a, b = b, r
    return res * pow(b[0], len(a) - 1, p) % p


def nonresidue(p: int, start: int = 2) -> int:
    c = start
    while _legendre(c, p) != -1:
        c += 1
    return c
