"""Tests for integer/rational factoring and polynomial arithmetic."""

import random
import time
from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, prod

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys import galoistools as gf
from sympy.polys.domains import ZZ
from sympy.polys.specialpolys import swinnerton_dyer_poly

from quatbrauer import exact_arith
from quatbrauer.errors import BudgetError, Budgets, DomainError, InternalError, ParseError
from quatbrauer.exact_arith import (
    MAX_POWER_SIZE,
    PolyFp,
    PolyQ,
    ZxRing,
    factor_key,
    factor_poly_fp,
    factor_poly_q,
    fq_char,
    irreducible_factors_fp,
    irreducible_factors_q,
    poly_from_string,
    poly_gcd,
    poly_inverse,
    poly_to_string,
    polyfp_from_polyq,
    polyfp_from_string,
    polyfp_gcd,
    polyfp_pow_mod,
    polyfp_resultant,
    ratfunc_from_string,
    rational_reconstruct,
    resultant,
    sqrt_fraction,
    sqrt_tonelli_shanks,
    squarefree_parts,
)
from quatbrauer.funcfield import MAX_DEGREE, FactoredFunc
from quatbrauer.integers import TRIAL_DIVISION_BOUND, factor_int, is_prime


class TestPrimality:
    def test_small(self):
        primes = [n for n in range(60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                          47, 53, 59]

    def test_mersenne(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**32 - 1)

    def test_carmichael(self):
        assert not is_prime(561)
        assert not is_prime(41041)


class TestFactorInt:
    def test_twelve(self):
        assert factor_int(12) == {2: 2, 3: 1}

    def test_negative(self):
        assert factor_int(-45) == {3: 2, 5: 1} == sympy.factorint(45)

    def test_zero_rejected(self):
        with pytest.raises(DomainError, match="cannot factor zero"):
            factor_int(0)

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(2, 10**9) * rng.choice([1, -1])
            fz = factor_int(n)
            assert fz == sympy.factorint(abs(n)) and list(fz) == sorted(fz)

    def test_product(self):
        # the exponents of a product are the sums of its factors' exponents
        a, b = factor_int(12), factor_int(-5 * 9 * 1009)
        want = {p: a.get(p, 0) + b.get(p, 0) for p in sorted({*a, *b})}
        assert factor_int(12 * -5 * 9 * 1009) == want

    def test_prime_above_2_64(self):
        p = 18446744073709551629  # a probable prime: Miller-Rabin is not deterministic here
        assert factor_int(p) == {p: 1}
        assert factor_int(-3 * p**2) == {3: 1, p: 2} == sympy.factorint(3 * p**2)

    @pytest.mark.parametrize("p", [1009, 1013, 65537, 999983])
    def test_prime_powers_past_trial_division(self, p):
        assert TRIAL_DIVISION_BOUND < p < 10**6
        assert factor_int(p**2) == {p: 2}
        assert factor_int(p**3) == {p: 3}
        assert factor_int(-1009 * 1013 * p**2) == sympy.factorint(1009 * 1013 * p**2)

    @pytest.mark.parametrize("n", [(10**12 + 39)**2, (2**61 - 1)**3, 1009**7 * (2**31 - 1)**2,
                                   18446744073709551629**2, 3**40],
                             ids=["(10^12+39)^2", "(2^61-1)^3", "1009^7(2^31-1)^2",
                                  "(2^64+13)^2", "3^40"])
    def test_prime_powers_past_rho(self, n):
        # a power of a prime that rho cannot reach within pollard_steps
        assert factor_int(n) == sympy.factorint(n)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1009, 10**7), st.integers(2, 7), st.integers(1, 10**4))
    def test_powers_match_sympy(self, r, k, s):
        assert factor_int(r**k * s) == sympy.factorint(r**k * s)

    def test_pollard_budget_covers_an_11_digit_least_factor(self):
        # rho takes about sqrt(q) steps for the least prime factor q: 2^20
        # steps reach q of 11 digits, not of 12; a product of two distinct
        # primes is no power, so nothing but rho can split it
        assert factor_int(99999999977 * 100000000003) == {99999999977: 1, 100000000003: 1}
        with pytest.raises(BudgetError, match="pollard_steps = 1048576"):
            factor_int(469895971357 * 1336448565469)

    def test_18_to_20_digit_entries(self):
        # two 8-digit primes times small primes, as in the CLI's integer entries
        rng = random.Random(2009)
        for _ in range(20):
            n = int(sympy.nextprime(rng.randrange(10**7, 10**8))) * \
                int(sympy.nextprime(rng.randrange(10**7, 10**8)))
            while n < 10**17:
                n *= rng.choice((3, 5, 7, 11, 97, 1009))
            assert 10**17 <= n < 10**20
            assert factor_int(n) == sympy.factorint(n)


class TestPolyQ:
    def test_trim_and_degree(self):
        assert PolyQ.make([1, 2, 0, 0]).degree == 1
        assert PolyQ.make([]).degree == -1
        assert PolyQ.make([0]).is_zero()

    def test_divmod_identity(self):
        rng = random.Random(3)
        for _ in range(40):
            f = PolyQ.make([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                            for _ in range(rng.randint(0, 7))])
            g = PolyQ.make([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
            if g.is_zero():
                continue
            q, r = f.divmod(g)
            assert q * g + r == f
            assert r.is_zero() or r.degree < g.degree

    def test_gcd(self):
        f = PolyQ.make([1, 1]) * PolyQ.make([2, 0, 1])
        g = PolyQ.make([1, 1]) * PolyQ.make([-3, 1])
        assert poly_gcd(f, g) == PolyQ.make([1, 1])

    def test_resultant_common_factor(self):
        f = PolyQ.make([1, 1]) * PolyQ.make([1, 0, 1])
        g = PolyQ.make([1, 1]) * PolyQ.make([5, 1])
        assert resultant(f, g) == 0
        assert resultant(PolyQ.make([1, 0, 1]), PolyQ.make([5, 1])) != 0

    def test_evaluate(self):
        f = PolyQ.make([1, -2, 1])  # (x-1)^2
        assert f.evaluate(3) == 4 and isinstance(f.evaluate(3), Fraction)
        assert f.evaluate(Fraction(1, 2)) == Fraction(1, 4)

    @pytest.mark.parametrize("c", [0, 1, -4, 10**30, Fraction(3), Fraction(-6, 4), "5/10"])
    def test_const_of_an_int_or_a_fraction(self, c):
        f = PolyQ.const(c)
        assert f == PolyQ.make([Fraction(c)]) and hash(f) == hash(PolyQ.make([Fraction(c)]))
        assert all(type(n) is int for n in f.nums) and type(f.den) is int

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(-40, 40, max_denominator=12), max_size=9),
           st.fractions(-20, 20, max_denominator=9))
    @example([], Fraction(3, 7))                                # zero polynomial
    @example([Fraction(5, 3), 0, -2], Fraction(0))              # x = 0
    @example([1, Fraction(-1, 2), 0, 4], Fraction(-3))          # negative x
    @example([Fraction(2, 9), 7, Fraction(-1, 4)], Fraction(-5, 6))  # non-integer x
    def test_evaluate_matches_fraction_horner(self, coeffs, x):
        want = Fraction(0)
        for c in reversed(coeffs):
            want = want * x + c
        got = PolyQ.make(coeffs).evaluate(x)
        assert got == want and isinstance(got, Fraction)


class TestParsing:
    def test_poly_from_string(self):
        assert poly_from_string("x^4 + 1") == PolyQ.make([1, 0, 0, 0, 1])
        assert poly_from_string("2*x^2 + 2*x") == PolyQ.make([0, 2, 2])
        assert poly_from_string("x**2 - 1/2") == PolyQ.make([Fraction(-1, 2), 0, 1])

    def test_string_roundtrip(self):
        rng = random.Random(9)
        for _ in range(25):
            f = PolyQ.make([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                            for _ in range(rng.randint(1, 6))])
            assert poly_from_string(poly_to_string(f)) == f

    def test_ratfunc(self):
        num, den = ratfunc_from_string("(x^2 - 1)/(x + 2)")
        assert num == PolyQ.make([-1, 0, 1])
        assert den == PolyQ.make([2, 1])

    def test_ratfunc_constant(self):
        num, den = ratfunc_from_string("3/5")
        assert num.degree == 0 and den.degree == 0
        assert num.coeffs[0] / den.coeffs[0] == Fraction(3, 5)

    def test_proper_rational_function_is_not_a_polynomial(self):
        assert poly_from_string("(x^2 - 1)/(x - 1)") == PolyQ.make([1, 1])
        with pytest.raises(ParseError):
            poly_from_string("(x^2 - 1)/(x + 2)")

    def test_polyfp_reduces_mod_p(self):
        assert polyfp_from_string("(x + 1)^2/2 - 7*x", 7) == PolyFp.make(7, [4, 1, 4])

    @pytest.mark.parametrize("text", [
        "y", "sin(x)", "x(2)", "x.real", "x[0]", "2x", "x x", "(x)(x)", "1.5", "1e3",
        "x +", "x*", "-", "(x + 1", "x + 1)", "", "   ", "x^x", "x^(2)", "x^2^3",
        "1/0", "x/(x - x)", "0^-1", "(1 - 1)**-2",
        f"x^{MAX_POWER_SIZE}", "x^99999999", "((x + 2)^99)^99",
        "(" * 2000 + "x" + ")" * 2000, "-" * 5000 + "x", "1" * 5000,
        "__import__('os').system('true') or x", "lambda: x", "x if 1 else 2",
    ])
    def test_rejected_forms(self, text):
        with pytest.raises(ParseError):
            ratfunc_from_string(text)


# Random expression trees for the parser, printed with the fewest parentheses
# their precedence allows.  A node is (text, precedence, sympy value, whether
# it divides by zero); precedence runs 1 sums, 2 products, 3 unary minus,
# 4 powers, 5 atoms.  sympy is the oracle for the value of the text.
X = sympy.Symbol("x")


def _paren(node, needed):
    return f"({node[0]})" if needed else node[0]


def _node(args):
    op, a, b, spaced = args
    if op == "~":
        return "-" + _paren(a, a[1] < 3), 3, -a[2], a[3]
    prec = 1 if op in "+-" else 2
    text = _paren(a, a[1] < prec) + (f" {op} " if spaced else op) + _paren(b, b[1] <= prec)
    bad = a[3] or b[3] or (op == "/" and sympy.cancel(b[2]) == 0)
    value = sympy.S.Zero if bad else {"+": sympy.Add, "-": lambda u, v: u - v,
                                      "*": sympy.Mul, "/": lambda u, v: u / v}[op](a[2], b[2])
    return text, prec, value, bad


def _power(args):
    a, op, n = args
    bad = a[3] or (n < 0 and sympy.cancel(a[2]) == 0)
    return _paren(a, a[1] < 5) + op + str(n), 4, sympy.S.Zero if bad else a[2] ** n, bad


_leaves = st.one_of(st.integers(0, 60).map(lambda n: (str(n), 5, sympy.Integer(n), False)),
                    st.just(("x", 5, X, False)))


def _extend(kids):
    # "~" is unary minus on the first operand
    return st.tuples(st.sampled_from("+-*/~"), kids, kids, st.booleans()).map(_node)


_powers = st.tuples(st.recursive(_leaves, _extend, max_leaves=3),
                    st.sampled_from(["^", "**"]), st.integers(-3, 4)).map(_power)
expressions = st.recursive(st.one_of(_leaves, _powers), _extend, max_leaves=8)


def _sympy_poly(f: PolyQ):
    return sum((sympy.Rational(c.numerator, c.denominator) * X**i
                for i, c in enumerate(f.coeffs)), sympy.S.Zero)


@settings(max_examples=200, deadline=None)
@given(expressions)
def test_parser_agrees_with_sympy(node):
    text, _, value, bad = node
    if bad:
        with pytest.raises(ParseError):
            ratfunc_from_string(text)
        return
    num, den = ratfunc_from_string(text)
    assert den.is_monic() and poly_gcd(num, den) == PolyQ.const(1), text
    assert sympy.cancel(value - _sympy_poly(num) / _sympy_poly(den)) == 0, text
    if den.degree == 0:
        assert poly_from_string(text) == num
    else:
        with pytest.raises(ParseError):
            poly_from_string(text)


class TestFactorPolyQ:
    def test_unit_and_factors(self):
        unit, factors = factor_poly_q(poly_from_string("2*x^2 + 2*x"))
        assert unit == 2
        assert factors == ((PolyQ.x(), 1), (PolyQ.make([1, 1]), 1))

    def test_x4_plus_1_irreducible(self):
        f = poly_from_string("x^4 + 1")
        assert factor_poly_q(f)[1] == ((f, 1),)

    def test_multiplicities(self):
        f = PolyQ.make([1, 1]) ** 3 * PolyQ.make([2, 0, 1])
        _, factors = factor_poly_q(f)
        assert dict((str(g), m) for g, m in factors) == {"x + 1": 3,
                                                            "x^2 + 2": 1}

    def test_roundtrip_random(self):
        rng = random.Random(17)
        for _ in range(40):
            f = PolyQ.const(Fraction(rng.randint(1, 5), rng.randint(1, 3))
                            * rng.choice([1, -1]))
            for _ in range(rng.randint(1, 4)):
                f = f * PolyQ.make([rng.randint(-4, 4)
                                    for _ in range(rng.randint(1, 3))] + [1])
            unit, factors = factor_poly_q(f)
            assert prod((g**m for g, m in factors), start=PolyQ.const(unit)) == f


# -- the integer path of Q[x] against sympy's QQ[x] ---------------------------

RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=12)
NONZERO = RATIONALS.filter(lambda c: c != 0)
# possibly zero; any degree up to 8
POLYS = st.lists(RATIONALS, max_size=9)
# nonzero: rational, non-monic and negative leading coefficients
DIVISORS = st.builds(lambda cs, lc: cs + [lc], st.lists(RATIONALS, max_size=5), NONZERO)


def _qq(f: PolyQ):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(f.coeffs)] or [0], X, domain="QQ")


def _from_qq(p) -> PolyQ:
    return PolyQ.make([Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())])


def _sympy_factorization(f: PolyQ):
    """(unit, monic factors sorted by factor_key) from sympy's factor_list."""
    unit, facs = sympy.factor_list(_qq(f).as_expr(), X)
    unit, out = Fraction(int(unit.p), int(unit.q)), []
    for g, m in facs:
        g = _from_qq(sympy.Poly(g, X, domain="QQ"))
        unit *= g.lc() ** m
        out.append((g.monic(), m))
    return unit, tuple(sorted(out, key=factor_key))


class TestIntegerPathOracle:
    @settings(max_examples=200, deadline=None)
    @given(POLYS, POLYS)
    @example([], [1, 2])
    @example([Fraction(1, 3), -2], [Fraction(-5, 7), 0, Fraction(3, 2)])
    def test_ring_operations_match_sympy(self, a, b):
        f, g = PolyQ.make(a), PolyQ.make(b)
        assert f * g == _from_qq(_qq(f).mul(_qq(g)))
        assert f + g == _from_qq(_qq(f).add(_qq(g)))
        assert f - g == _from_qq(_qq(f).sub(_qq(g)))

    @settings(max_examples=300, deadline=None)
    @given(POLYS, DIVISORS)
    @example([], [3, -2])                                  # zero dividend
    @example([1, 2], [0, 0, Fraction(2, 3)])               # deg a < deg b
    @example([5, 0, 0, 7, 1], [1, 0, 1])                   # monic integer divisor
    @example([1, 1, 1, 1, 1, 1], [1, 0, -3])               # negative lc
    @example([Fraction(1, 2), 0, 0, 0, 0, 3], [Fraction(1, 3), Fraction(2, 5), Fraction(-7, 4)])
    def test_divmod_matches_sympy(self, a, b):
        f, g = PolyQ.make(a), PolyQ.make(b)
        q, r = f.divmod(g)
        want_q, want_r = _qq(f).div(_qq(g))
        assert (q, r) == (_from_qq(want_q), _from_qq(want_r))
        assert f % g == r

    @settings(max_examples=300, deadline=None)
    @given(POLYS, DIVISORS)
    @example([], [Fraction(2, 3), 5])                            # zero dividend
    @example([Fraction(1, 2), 3], [1, 0, Fraction(-2, 7)])       # deg a < deg b: a itself
    @example([Fraction(3, 4), -1, 5], [Fraction(-5, 3)])         # constant divisor: zero
    @example([2, 0, 4], [7])                                     # integer constant divisor
    @example([1, Fraction(1, 6), 0, 2], [Fraction(1, 2), 0, Fraction(3, 5)])  # non-monic
    @example([Fraction(5, 2), 1, Fraction(-1, 3), 1], [2, 1])    # monic integer divisor
    def test_mod_is_the_divmod_remainder(self, a, b):
        """`%` builds no quotient; its remainder is divmod's, in canonical form."""
        f, g = PolyQ.make(a), PolyQ.make(b)
        r = f % g
        assert r == f.divmod(g)[1]
        canonical = PolyQ.make(r.coeffs)
        assert (r.nums, r.den) == (canonical.nums, canonical.den) and hash(r) == hash(canonical)

    @pytest.mark.parametrize("a", [[], [3], [Fraction(1, 2), 0, 5]])
    def test_division_by_zero_raises(self, a):
        f, zero = PolyQ.make(a), PolyQ.make([])
        with pytest.raises(DomainError, match="division by zero"):
            f % zero
        with pytest.raises(DomainError, match="division by zero"):
            f.divmod(zero)

    @settings(max_examples=60, deadline=None)
    @given(NONZERO, st.lists(st.tuples(st.lists(st.integers(-6, 6), min_size=1, max_size=3),
                                       st.integers(-5, 5).filter(bool),
                                       st.integers(1, 2)), min_size=1, max_size=3))
    @example(Fraction(-7, 6), [([1, 2], 2, 1), ([-1, 0, 3], 1, 1)])
    def test_factor_matches_sympy(self, content, parts):
        # content times non-monic factors, some repeated: degree at most 18
        f = PolyQ.const(content)
        for cs, lc, m in parts:
            f = f * PolyQ.make(cs + [lc]) ** m
        unit, factors = factor_poly_q(f)
        assert (unit, factors) == _sympy_factorization(f)
        assert prod((g**m for g, m in factors), start=PolyQ.const(unit)) == f and unit == f.lc()

    @settings(max_examples=150, deadline=None)
    @given(POLYS, POLYS, POLYS)
    @example([], [], [])
    @example([Fraction(1, 2), 3], [], [-2, 0, Fraction(5, 3)])
    @example([-7, 0, 0, 0, 0, 0, 0, 0, 11], [5, 0, 0, 0, 0, 0, 0, 13], [1, 40, -40, 1])
    def test_gcd_matches_sympy(self, a, b, c):
        # two cofactors times a common factor; zeros and rational coefficients
        f, g = PolyQ.make(a) * PolyQ.make(c), PolyQ.make(b) * PolyQ.make(c)
        want = _from_qq(_qq(f).gcd(_qq(g)))
        assert poly_gcd(f, g) == (want if want.is_zero() else want.monic())

    def test_wrong_factor_raises_internal_error(self, monkeypatch):
        # x^4 + 1 splits mod every prime, so it always reaches recombination;
        # a recombination that returns x^2 + 2 and x^2 + 1 is caught by the
        # product check, not passed on
        from quatbrauer import zassenhaus
        monkeypatch.setattr(zassenhaus, "_recombine", lambda *args: [[2, 0, 1], [1, 0, 1]])
        with pytest.raises(InternalError):
            factor_poly_q(PolyQ.make([1, 0, 0, 0, 1]))

    @pytest.mark.parametrize("e,products", [(0, 0), (1, 0), (2, 1), (5, 3), (6, 3), (8, 3)])
    def test_power_products(self, monkeypatch, e, products):
        base = PolyQ.make([Fraction(-1, 2), 1, 3])
        want = PolyQ.const(1)
        for _ in range(e):
            want = want * base
        calls = []
        mul = PolyQ.__mul__
        monkeypatch.setattr(PolyQ, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        assert base ** e == want
        assert len(calls) == products


def _euclid_gcd(f: PolyQ, g: PolyQ) -> PolyQ:
    """Monic gcd by plain Euclid on Fraction coefficient lists."""
    a, b = list(f.coeffs), list(g.coeffs)
    while b:
        while len(a) >= len(b):  # a <- a mod b, one leading term at a time
            c, shift = a[-1] / b[-1], len(a) - len(b)
            for i, v in enumerate(b):
                a[shift + i] -= c * v
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return PolyQ.make(a).monic() if a else PolyQ.make([])


# -- Zassenhaus over Q against sympy's factor_list -----------------------------

# Every hard case below factors in well under a second on a 2-core host; the
# bound leaves room for a slow CI runner, not for a search that blows up.
HARD_CASE_SECONDS = 5.0
SWINNERTON_DYER_16 = PolyQ.make(
    [int(c) for c in reversed(swinnerton_dyer_poly(4, X).as_poly().all_coeffs())])
# four cyclotomic sextics, which split into 2, 3 or 6 factors mod p
FOUR_SEXTICS = prod((PolyQ.make([int(c) for c in reversed(
    sympy.Poly(sympy.cyclotomic_poly(n, X), X).all_coeffs())]) for n in (7, 9, 14, 18)),
    start=PolyQ.const(Fraction(-3, 4)))


def _swinnerton_dyer(primes) -> PolyQ:
    """The product of x - (+-sqrt(p_1) +- ... +- sqrt(p_k)) over all signs,
    prime by prime: with g(x + sqrt(p)) = a + sqrt(p) b, a and b in Q[x] (by
    Horner in Q(sqrt(p))[x]), g(x + sqrt(p)) g(x - sqrt(p)) = a^2 - p b^2."""
    g, x = PolyQ.x(), PolyQ.x()
    for p in primes:
        a = b = PolyQ.const(0)
        for c in reversed(g.coeffs):  # (a + sqrt(p) b)(x + sqrt(p)) + c
            a, b = a * x + b.scale(p) + PolyQ.const(c), b * x + a
        g = a * a - (b * b).scale(p)
    return g


SWINNERTON_DYER_32 = _swinnerton_dyer((2, 3, 5, 7, 11))
SWINNERTON_DYER_64 = _swinnerton_dyer((2, 3, 5, 7, 11, 13))
# 24 linear factors: every screening prime divides the discriminant, so the
# Hensel prime comes from the primes beyond them
LINEARS_24 = prod((PolyQ.make([-i, 1]) for i in range(-12, 12)), start=PolyQ.const(1))
IRREDUCIBLE = st.builds(lambda cs, lc: PolyQ.make(cs + [lc]),
                        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
                        st.integers(-4, 4).filter(bool)).filter(
    lambda g: _qq(g).is_irreducible)


class TestZassenhaus:
    @settings(max_examples=60, deadline=None)
    @given(NONZERO, st.lists(st.tuples(IRREDUCIBLE, st.integers(1, 3)), min_size=1, max_size=5))
    @example(Fraction(1, 6), [(PolyQ.make([1, 0, 1]), 1), (PolyQ.make([2, 3]), 2),
                              (PolyQ.make([1, 0, 0, 0, 1]), 1)])
    def test_products_of_irreducibles_match_sympy(self, content, parts):
        f = prod((g**m for g, m in parts), start=PolyQ.const(content))
        assume(f.degree <= 24)
        assert factor_poly_q(f) == _sympy_factorization(f)

    @pytest.mark.parametrize("f", [poly_from_string("x^4 + 1"), SWINNERTON_DYER_16,
                                   FOUR_SEXTICS, LINEARS_24],
                             ids=["x4+1", "swinnerton-dyer-16", "sextics-24", "linears-24"])
    def test_hard_cases_within_the_bound(self, f):
        t0 = time.perf_counter()
        got = factor_poly_q(f)
        elapsed = time.perf_counter() - t0
        assert got == _sympy_factorization(f)
        assert elapsed < HARD_CASE_SECONDS, elapsed

    def test_swinnerton_dyer_splits_into_eight_mod_every_good_prime(self):
        _, splits = exact_arith._mod_p_splits(SWINNERTON_DYER_16)
        good = [facs for _, facs in splits if all(m == 1 for _, m in facs)]
        assert good and all(len(facs) == 8 for facs in good)
        assert factor_poly_q(SWINNERTON_DYER_16)[1] == ((SWINNERTON_DYER_16, 1),)

    def test_swinnerton_dyer_construction_matches_sympy(self):
        assert _swinnerton_dyer((2, 3, 5, 7)) == SWINNERTON_DYER_16
        assert SWINNERTON_DYER_32.degree == 32 and SWINNERTON_DYER_64.degree == MAX_DEGREE

    def test_swinnerton_dyer_32_proved_irreducible_within_the_bound(self):
        # 16 quadratics mod the Hensel prime: all 39202 subsets of up to 8 are tried
        t0 = time.perf_counter()
        assert factor_poly_q(SWINNERTON_DYER_32) == (1, ((SWINNERTON_DYER_32, 1),))
        assert time.perf_counter() - t0 < HARD_CASE_SECONDS

    def test_swinnerton_dyer_64_runs_out_of_subsets(self):
        # 32 quadratics mod the Hensel prime: the default budget runs out among the 5-subsets
        t0 = time.perf_counter()
        with pytest.raises(BudgetError, match=f"subsets = {Budgets().subsets}$"):
            factor_poly_q(SWINNERTON_DYER_64)
        assert time.perf_counter() - t0 < HARD_CASE_SECONDS

    def test_subset_budget_runs_out_with_budget_error(self, budgets):
        # the message names the degree and the budget, and holds no coefficients
        budgets(subsets=1)
        with pytest.raises(BudgetError) as info:
            factor_poly_q(poly_from_string("x^4 + 1"))
        assert str(info.value) == "no split of a degree-4 polynomial within subsets = 1"

    def test_lift_reproduces_the_input_mod_p_to_the_e(self):
        # lc(F) prod u_i = F mod p^e, each u_i monic and reducing to its
        # factor mod p
        from quatbrauer import zassenhaus
        F = list(FOUR_SEXTICS.nums)
        factors = [h for h, _ in factor_poly_fp(polyfp_from_polyq(FOUR_SEXTICS.monic(), 13))[1]]
        pe = 13**9
        lifted = zassenhaus._hensel_lift(F, factors, pe)
        assert [PolyFp.reduced(13, u.coeffs) for u in lifted] == factors
        assert all(u.p == pe and u.is_monic() for u in lifted)
        assert prod(lifted, start=PolyFp.const(pe, F[-1])) == PolyFp.reduced(pe, F)


class TestGcdScreen:
    """poly_gcd proves coprimality modulo one prime q, or lifts the gcd mod q
    where the lift divides f and g, and falls back to Euclid otherwise."""

    Q = exact_arith._GCD_SCREEN_PRIME

    @settings(max_examples=200, deadline=None)
    @given(POLYS, POLYS, POLYS)
    @example([], [], [])
    @example([Fraction(1, 3), 2], [], [])
    @example([1, 1], [-1, 1], [Fraction(2, 7), 0, 5])
    def test_gcd_matches_plain_euclid(self, a, b, c):
        f, g, h = PolyQ.make(a), PolyQ.make(b), PolyQ.make(c)
        assert poly_gcd(f, g) == _euclid_gcd(f, g)
        assert poly_gcd(f * h, g * h) == _euclid_gcd(f * h, g * h)

    def _screen_gcd(self, f, g):
        return polyfp_gcd(polyfp_from_polyq(f, self.Q), polyfp_from_polyq(g, self.Q))

    @pytest.mark.parametrize("a", [0, 7, -12345, 2**40 + 3])
    def test_coprime_over_q_but_equal_mod_q(self, a):
        # the image x - a has no lift, or the lift f, which does not divide g
        f, g = PolyQ.make([-a, 1]), PolyQ.make([-a - self.Q, 1])
        assert self._screen_gcd(f, g).degree == 1
        assert rational_reconstruct(self._screen_gcd(f, g).coeffs, self.Q) in (None, f)
        assert poly_gcd(f, g) == PolyQ.const(1) == _euclid_gcd(f, g)

    def test_q_divides_the_leading_numerator(self):
        # the common factor q x + 1 is the constant 1 mod q, so a screen
        # there would call f and g coprime
        h = PolyQ.make([1, self.Q])
        f, g = h * PolyQ.make([2, 1]), h * PolyQ.make([3, 1])
        assert f.nums[-1] % self.Q == 0 and self._screen_gcd(f, g).degree == 0
        assert poly_gcd(f, g) == h.monic() == _euclid_gcd(f, g)
        assert poly_gcd(h, PolyQ.make([5, 1])) == PolyQ.const(1)

    @pytest.mark.parametrize("first", [True, False])
    def test_q_divides_a_denominator(self, first):
        h = PolyQ.make([Fraction(1, self.Q), 1])
        f, g = h * PolyQ.make([3, 1]), h * PolyQ.make([-3, 1])
        f, g = (f, g) if first else (g, f)
        with pytest.raises(DomainError):
            polyfp_from_polyq(h, self.Q)
        assert poly_gcd(f, g) == h
        assert poly_gcd(f, PolyQ.make([1, 0, 1])) == PolyQ.const(1)

    @pytest.mark.parametrize("first", [True, False])
    def test_screen_runs_with_q_in_a_denominator(self, monkeypatch, first):
        # q in lc(f)'s denominator, or anywhere in g's: the numerator lists
        # keep the screen's conditions, so h lifts and divides f and g, with
        # no Euclid step
        h = PolyQ.make([Fraction(1, 3), 1])
        f, g = h * PolyQ.make([3, Fraction(1, self.Q)]), h * PolyQ.make([-3, 1])
        f, g = (f, g) if first else (g, f)
        assert (f.den if first else g.den) % self.Q == 0 and f.nums[-1] % self.Q
        seen = self._divisors(monkeypatch)
        assert poly_gcd(f, g) == h
        assert seen == [h.nums, h.nums]

    def _divisors(self, monkeypatch):
        """The divisors that `_pseudo_divmod` sees from here on."""
        seen, divmod_ = [], exact_arith._pseudo_divmod
        monkeypatch.setattr(exact_arith, "_pseudo_divmod",
                            lambda a, b: seen.append(tuple(b)) or divmod_(a, b))
        return seen

    @pytest.mark.parametrize("h", [[Fraction(1, 3), 1], [Fraction(3, 7), Fraction(-2, 5), 1],
                                   [Fraction(-23170, 23169), 0, 1]])
    def test_lift_with_fractions_is_the_gcd(self, monkeypatch, h):
        # the image of h mod q reconstructs to h, which divides f and g: two
        # divisions by it and no Euclid step
        h = PolyQ.make(h)
        f, g = h * PolyQ.make([2, Fraction(1, 2), 3]), h * PolyQ.make([-5, 0, 0, 1])
        assert rational_reconstruct(self._screen_gcd(f, g).coeffs, self.Q) == h
        seen = self._divisors(monkeypatch)
        assert poly_gcd(f, g) == h == _euclid_gcd(f, g)
        assert seen == [h.nums, h.nums]

    def test_unreconstructible_common_factor_falls_back_to_euclid(self, monkeypatch):
        # 30000 is above isqrt(q / 2) = 23170, so x + 30000 has no lift
        h = PolyQ.make([30000, 1])
        f, g = h * PolyQ.make([1, 1]), h * PolyQ.make([-1, 0, 1, 1])
        assert self._screen_gcd(f, g).degree == 1
        assert rational_reconstruct(self._screen_gcd(f, g).coeffs, self.Q) is None
        seen = self._divisors(monkeypatch)
        assert poly_gcd(f, g) == h == _euclid_gcd(f, g)
        assert seen[0] == g.nums  # the Euclid's first step, f by g

    @pytest.mark.parametrize("c", [Fraction(5), Fraction(-2, 3)])
    def test_nonzero_constant_needs_no_screen(self, monkeypatch, c):
        monkeypatch.setattr(exact_arith, "_rem", None)  # a screen step would raise
        f = PolyQ.make([1, 2, 3])
        assert poly_gcd(PolyQ.const(c), f) == poly_gcd(f, PolyQ.const(c)) == PolyQ.const(1)
        assert poly_gcd(PolyQ.const(c), PolyQ.const(0)) == PolyQ.const(1)


    # common factors: none, one that the screen's lift reconstructs (small
    # numerators and denominators), and one past the bound isqrt(q / 2)
    COMMON = st.one_of(st.just([1]), st.lists(RATIONALS, min_size=1, max_size=3),
                       st.builds(lambda n, cs: [Fraction(n, 23171)] + cs,
                                 st.integers(1, 10**6), st.lists(RATIONALS, max_size=2)))
    BIG = st.lists(st.integers(-2**90, 2**90), min_size=2, max_size=7)

    def _matches_sympy(self, f, g):
        want = sympy.gcd(_qq(f), _qq(g))
        assert poly_gcd(f, g) == _from_qq(want).monic() == poly_gcd(g, f)

    @settings(max_examples=80, deadline=None, derandomize=True)
    # n prime to q: hypothesis also draws literals of the loaded source, q itself among them
    @given(DIVISORS, DIVISORS, COMMON,
           st.integers(1, 2**40).filter(lambda n: n % exact_arith._GCD_SCREEN_PRIME),
           st.booleans())
    @example([1, 1], [-1, 1], [1], 1, True)
    def test_q_in_a_denominator_matches_sympy(self, a, b, c, n, in_f):
        # a coefficient n / q in one cofactor puts q into that entry's
        # denominator, where the screen used to be skipped
        a = a + [Fraction(n, self.Q)] if in_f else a
        b = b if in_f else b + [Fraction(n, self.Q)]
        f, g = PolyQ.make(a) * PolyQ.make(c + [1]), PolyQ.make(b) * PolyQ.make(c + [1])
        assert (f.den if in_f else g.den) % self.Q == 0
        self._matches_sympy(f, g)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(DIVISORS, st.lists(RATIONALS, max_size=4), COMMON, st.integers(1, 2**40))
    def test_q_divides_lc_of_g_matches_sympy(self, a, b, c, n):
        # q | lc(g.nums): g's image mod q loses its leading term
        f = PolyQ.make(a) * PolyQ.make(c + [1])
        g = PolyQ.make(b + [n * self.Q]) * PolyQ.make(c + [1])
        assert g.nums[-1] % self.Q == 0
        self._matches_sympy(f, g)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(BIG, BIG, COMMON)
    def test_large_coefficients_match_sympy(self, a, b, c):
        # with c = 1 the pair is coprime in all but rare draws
        assume(a[-1] and b[-1])
        h = PolyQ.make(c + [1])
        f, g = PolyQ.make(a), PolyQ.make(b)
        self._matches_sympy(f, g)
        self._matches_sympy(f * h, g * h)


def _reconstruct_by_fractions(r, m):
    """Balanced rational reconstruction coefficient by coefficient, with
    Fractions: the reference that `rational_reconstruct` must match."""
    bound, coeffs = isqrt(m // 2), []
    for a in r:
        r0, r1, s0, s1 = m, a % m, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            s0, s1 = s1, s0 - q * s1
        if s1 == 0 or abs(s1) > bound or gcd(r1, abs(s1)) != 1:
            return None
        coeffs.append(Fraction(r1, s1))
    return PolyQ.make(coeffs)


def _sympy_resultant(f: PolyQ, g: PolyQ) -> Fraction:
    """sympy's resultant, asked with the larger degree first and swapped back
    by Res(f, g) = (-1)^(deg f deg g) Res(g, f): for deg f < deg g, both odd,
    sympy's `resultant` (1.14) gives Res(g, f) (1 for Res(x + 1, x^3), where
    its own Sylvester determinant, `subresultants_qq_zz.sylvester`, gives -1)."""
    if f.degree < g.degree:
        return (-1) ** (f.degree * g.degree) * _sympy_resultant(g, f)
    want = _qq(f).resultant(_qq(g))
    return Fraction(int(want.p), int(want.q))


class TestIntegerEuclids:
    """`resultant`, `poly_inverse` and `rational_reconstruct` on integer
    lists against sympy and a Fraction reference."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(DIVISORS, DIVISORS, st.lists(RATIONALS, max_size=3))
    @example([5], [1, 2, 3], [])                               # a constant argument
    @example([Fraction(2, 3)], [Fraction(-1, 7)], [])          # two constants: 1
    @example([Fraction(1, 2), 3], [-2, 0, Fraction(5, 3)], [1, 1])
    @example([0, 0, 0, 7], [0, 1], [])                         # zero: a common root 0
    @example([1, 1], [0, 0, 0, 1], [])                         # Res(x + 1, x^3) = -1
    def test_resultant_matches_sympy(self, a, b, c):
        # times a common factor h of positive degree, the resultant is zero
        f, g, h = PolyQ.make(a), PolyQ.make(b), PolyQ.make(c)
        assert resultant(f, g) == _sympy_resultant(f, g)
        if h.degree > 0:
            assert resultant(f * h, g * h) == 0

    def test_resultant_of_zero_raises(self):
        with pytest.raises(DomainError):
            resultant(PolyQ.make([]), PolyQ.make([1, 1]))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(DIVISORS, min_size=1, max_size=3), POLYS, st.booleans())
    @example([[1, 1], [Fraction(-1, 2), 1]], [Fraction(1, 3), 1], False)
    @example([[2, 0, 1], [-3, 0, 1]], [0, 1], True)            # a times a factor of m
    def test_inverse_over_q_matches_sympy(self, parts, cs, shared):
        # m is monic, squarefree and mostly reducible; a unit mod m is
        # inverted as sympy inverts it, and a non-unit raises DomainError
        m = prod((PolyQ.make(p) for p in parts), start=PolyQ.const(1)).monic()
        assume(m.degree > 0 and _qq(m).gcd(_qq(m).diff()).degree() == 0)
        a = PolyQ.make(cs) * (PolyQ.make(parts[0]) if shared else PolyQ.const(1))
        if a.is_zero() or _qq(a).gcd(_qq(m)).degree() > 0:
            with pytest.raises(DomainError):
                poly_inverse(a, m)
            return
        inv = poly_inverse(a, m)
        assert inv.degree < m.degree and (a * inv) % m == PolyQ.const(1)
        assert inv == _from_qq(_qq(a).invert(_qq(m)))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from([3, 7, 10007, 2**31 - 1]),
           st.lists(st.lists(st.integers(0, 2**31), min_size=1, max_size=3), min_size=1,
                    max_size=3),
           st.lists(st.integers(0, 2**31), max_size=7), st.booleans())
    @example(5, [[1], [4]], [2], False)                        # (x + 1)(x + 4) mod 5
    @example(3, [[1], [2]], [1, 1], True)
    def test_inverse_over_fp_matches_galoistools(self, p, parts, cs, shared):
        factors = [PolyFp.reduced(p, [*c, 1]) for c in parts]
        m = prod(factors, start=PolyFp.const(p, 1))
        assume(gf.gf_sqf_p(list(reversed(m.coeffs)), p, ZZ))
        a = PolyFp.reduced(p, cs) * (factors[0] if shared else PolyFp.const(p, 1))
        s, _, h = gf.gf_gcdex(list(reversed(a.coeffs)), list(reversed(m.coeffs)), p, ZZ)
        if h != [1]:
            with pytest.raises(DomainError):
                poly_inverse(a, m)
            return
        inv = poly_inverse(a, m)
        assert inv.degree < m.degree and (a * inv) % m == PolyFp.const(p, 1)
        assert inv == PolyFp.reduced(p, list(reversed(s)))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from([1073741789, 10007**6, 3**40, 101]),
           st.lists(st.one_of(st.integers(), RATIONALS), max_size=6))
    def test_reconstruction_matches_fractions(self, m, cs):
        # residues of small fractions, which reconstruct, and of arbitrary
        # integers, which mostly do not
        r = [c % m if isinstance(c, int) else
             c.numerator * pow(c.denominator, -1, m) % m if gcd(c.denominator, m) == 1 else 0
             for c in cs]
        assert rational_reconstruct(r, m) == _reconstruct_by_fractions(r, m)


class TestSquarefreeAndIrreducible:
    @settings(max_examples=60, deadline=None)
    @given(NONZERO, st.lists(st.tuples(st.lists(st.integers(-6, 6), min_size=1, max_size=2),
                                       st.integers(-5, 5).filter(bool),
                                       st.integers(1, 4)), max_size=3))
    @example(Fraction(2), [([1], 1, 4)])
    @example(Fraction(-1, 3), [([1, 1], 1, 2), ([1, 2, 1], 1, 1)])  # (x+1)^4, merged powers
    def test_squarefree_parts_match_sympy(self, content, parts):
        f = PolyQ.const(content)
        for cs, lc, m in parts:
            f = f * PolyQ.make(cs + [lc]) ** m
        _, want = sympy.sqf_list(_qq(f).as_expr(), X)
        want = sorted(((_from_qq(sympy.Poly(g, X, domain="QQ")).monic(), m) for g, m in want),
                      key=lambda gm: gm[1])
        assert squarefree_parts(f) == tuple(want)
        assert prod((g**m for g, m in want), start=PolyQ.const(f.lc())) == f
        _assert_split(f, want)

    def test_squarefree_parts_refuse_the_degree_cap(self):
        with pytest.raises(DomainError, match="exceeds"):
            FactoredFunc.from_poly(PolyQ.make([1, 1]) ** (MAX_DEGREE + 1))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-5, 5), min_size=1, max_size=4), min_size=1, max_size=3))
    def test_irreducible_factors_match_factor_poly_q(self, parts):
        f = PolyQ.const(1)
        for cs in parts:
            f = f * PolyQ.make(cs + [1])
        for g, _ in squarefree_parts(f):
            assert irreducible_factors_q(g) == tuple(h for h, _ in factor_poly_q(g)[1])

    @pytest.mark.parametrize("s", ["x^3 - 2", "x^4 + x + 1", "x^5 - x - 1",
                                   "x^6 + x^3 + 1/2", "x^2 + 1/3"])
    def test_irreducible_proved_without_sympy(self, monkeypatch, s):
        # the id predates in-house factoring: the proof must not factor at all
        monkeypatch.setattr(exact_arith, "factor_poly_q", None)
        f = poly_from_string(s).monic()
        assert irreducible_factors_q(f) == (f,)

    @pytest.mark.parametrize("s", ["x^4 + 1", "(x^2 - 2)*(x^2 + 1)", "(x - 1)*(x^3 - 2)"])
    def test_unproved_polynomials_go_to_sympy(self, monkeypatch, s):
        # the id predates in-house factoring: these reach factor_poly_q and
        # its Zassenhaus split. x^4 + 1 is irreducible but splits mod every
        # prime, and a reducible polynomial has no irreducibility proof
        calls = []
        factor = exact_arith.factor_poly_q
        monkeypatch.setattr(exact_arith, "factor_poly_q",
                            lambda f: calls.append(f) or factor(f))
        f = poly_from_string(s)
        assert irreducible_factors_q(f) == tuple(h for h, _ in factor(f)[1])
        assert calls == [f]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(RATIONALS, min_size=1, max_size=4), min_size=1, max_size=3))
    @example([[1], [-1]])
    @example([[Fraction(1, 2), 3], [0, 0, 0, 7]])
    def test_yun_early_exit_matches_the_full_loop(self, parts):
        # products of distinct monic factors, mostly squarefree: where b and
        # b' are coprime the early exit returns what Yun's loop would
        f = PolyQ.const(1)
        for cs in parts:
            f = f * PolyQ.make(cs + [1])
        b = f.monic()
        a = poly_gcd(b, b.derivative())
        b, c = b.divmod(a)[0], b.derivative().divmod(a)[0]
        want, i = [], 1
        while b.degree > 0:
            d = c - b.derivative()
            a = poly_gcd(b, d)
            b, c = b.divmod(a)[0], d.divmod(a)[0]
            if a.degree > 0:
                want.append((a, i))
            i += 1
        assert squarefree_parts(f) == tuple(want)

    # 2*x^3 - 4 and (x^3 - 2)^9 (degree 27) have one irreducible factor,
    # which the primes of _mod_p_splits prove irreducible
    @pytest.mark.parametrize("s", ["2*x^2 + 2", "2*x^2 - 2", "(x + 1)^2", "2*x^3 - 4",
                                   "(x^3 - 2)^9"])
    def test_irreducible_factors_q_refuse_non_squarefree_or_non_monic(self, s):
        with pytest.raises(DomainError, match="not monic and squarefree"):
            irreducible_factors_q(poly_from_string(s))
        assert irreducible_factors_q.cache_info().currsize == 0

    def test_q_split_memo(self, monkeypatch):
        calls = []
        factor = exact_arith.factor_poly_q
        monkeypatch.setattr(exact_arith, "factor_poly_q",
                            lambda f: calls.append(f) or factor(f))
        f = poly_from_string("x^4 + 1")
        assert irreducible_factors_q(f) == (f,) == irreducible_factors_q(f)
        info = irreducible_factors_q.cache_info()
        assert calls == [f] and (info.hits, info.misses) == (1, 1)


class TestCanonicalForm:
    """PolyQ keeps integer numerators over one positive denominator, trimmed
    and coprime, so equal values have equal fields and equal hashes."""

    @settings(max_examples=200, deadline=None)
    @given(POLYS, st.integers(0, 3))
    @example([], 2)
    @example([Fraction(-1, 6), Fraction(3, 4), Fraction(5, 12)], 0)
    def test_fields_are_canonical(self, cs, zeros):
        f = PolyQ.make(cs + [0] * zeros)
        want = list(cs)
        while want and want[-1] == 0:
            want.pop()
        assert f.coeffs == tuple(want)
        assert all(type(n) is int for n in f.nums) and type(f.den) is int
        assert f.den > 0 and gcd(f.den, *f.nums) == 1
        assert not f.nums or f.nums[-1] != 0
        if not want:
            assert (f.nums, f.den) == ((), 1) and f.is_zero()

    @settings(max_examples=200, deadline=None)
    @given(POLYS, DIVISORS)
    @example([0, 1], [2])  # x / 2 * 2 and x * 3 / 3
    def test_equal_values_compare_and_hash_equal(self, cs, ds):
        f, g, x = PolyQ.make(cs), PolyQ.make(ds), PolyQ.x()
        ways = [PolyQ.make(cs + [0, 0]),
                -(-f),
                f.scale(Fraction(1, 2)) * PolyQ.const(2),
                (f * PolyQ.const(3)).divmod(PolyQ.const(3))[0],
                f + g - g,
                (f * g).divmod(g)[0],
                (f * x).divmod(x)[0],
                PolyQ.reduced([c.numerator * 7 * (27720 // c.denominator) for c in f.coeffs],
                              7 * 27720)]  # 27720 = lcm(1, ..., 12)
        for h in ways:
            assert h == f and hash(h) == hash(f) and (h.nums, h.den) == (f.nums, f.den)
        assert len({f, *ways}) == 1

    @given(st.lists(st.integers(-50, 50), max_size=6), st.integers(-30, 30).filter(bool))
    def test_reduced_agrees_with_make(self, nums, den):
        assert PolyQ.reduced(list(nums), den) == PolyQ.make([Fraction(n, den) for n in nums])


class TestPolyFp:
    def test_reduction(self):
        assert PolyFp.make(5, [7, -1]).coeffs == (2, 4)

    def test_char_two_rejected(self):
        with pytest.raises(DomainError):
            PolyFp.make(2, [1, 1])

    def test_rational_coefficients_reduce_mod_p(self):
        # a/b is a * b^-1 mod p: 1/2 = 3 mod 5
        f = PolyFp.make(5, [Fraction(1, 2), 1])
        assert f == PolyFp.make(5, [3, 1]) and f.coeffs == (3, 1)
        assert all(type(c) is int for c in f.coeffs)
        assert str(f) == "x + 3" and f.evaluate(2) == 0
        assert PolyFp.make(5, [1, Fraction(10, 3)]) == PolyFp.make(5, [1])  # trimmed

    def test_denominator_divisible_by_p_rejected(self):
        with pytest.raises(DomainError, match="denominator"):
            PolyFp.make(5, [Fraction(1, 5), 1])

    def test_evaluate_at_a_fraction_reduces_it_mod_p(self):
        # x + 1 at 1/2 = 3 mod 5 is 4, as at the integer 3; 7/2 = 1 mod 5
        f = PolyFp.make(5, [1, 1])
        assert f.evaluate(Fraction(1, 2)) == 4 == f.evaluate(3)
        assert type(f.evaluate(Fraction(1, 2))) is int
        assert f.evaluate(Fraction(-7, 2)) == f.evaluate(-1) == 0

    def test_evaluate_at_a_fraction_with_p_in_the_denominator_rejected(self):
        with pytest.raises(DomainError, match="denominator"):
            PolyFp.make(5, [1, 1]).evaluate(Fraction(1, 10))

    def test_factor_x2_plus_1_mod5(self):
        unit, facs = factor_poly_fp(PolyFp.make(5, [1, 0, 1]))
        assert unit == 1
        assert facs == ((PolyFp.make(5, [2, 1]), 1), (PolyFp.make(5, [3, 1]), 1))

    def test_x2_plus_1_mod3_irreducible(self):
        f3 = PolyFp.make(3, [1, 0, 1])
        assert _irreducible(f3) and factor_poly_fp(f3) == (1, ((f3, 1),))
        assert not _irreducible(PolyFp.make(5, [1, 0, 1]))

    def test_x_cubed(self):
        unit, facs = factor_poly_fp(PolyFp.make(7, [0, 0, 0, 1]))
        assert unit == 1 and facs == ((PolyFp.x(7), 3),)

    def test_char_p_multiplicity(self):
        g = PolyFp.make(3, [1, 1])
        f = g * g * g
        unit, facs = factor_poly_fp(f)
        assert facs == ((PolyFp.make(3, [1, 1]), 3),)

    def test_roundtrip_random(self):
        rng = random.Random(23)
        for _ in range(100):
            p = rng.choice([3, 5, 7, 13])
            f = PolyFp.make(p, [rng.randrange(p)
                                for _ in range(rng.randint(1, 9))] + [1])
            unit, facs = factor_poly_fp(f)
            prod = PolyFp.const(p, unit)
            for h, m in facs:
                assert _irreducible(h) and h.is_monic()
                for _ in range(m):
                    prod = prod * h
            assert prod == f

    @pytest.mark.parametrize("p", [3, 10007, 2**31 - 1])
    def test_remainder_step_matches_divmod(self, p):
        # the one-pass step of the Euclids against `divmod`, which stays on
        # `_reduce`: every degree gap k = deg a - deg b from -3 to 5, constant
        # divisors (deg b = 0, where no b[-2] exists), non-monic divisors,
        # zero remainders and the zero dividend; linear divisors (Horner at
        # gaps of 2 or more) also with root 0 and dividends of degree 12
        rng = random.Random(p % 1021)

        def poly(n):
            return PolyFp.make(p, [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)])

        seen = set()  # (gap, constant divisor, nonzero remainder), gaps past 2 as 2
        horner = set()  # nonzero remainder, by a linear divisor at a gap of 2 or more
        for db in range(8):
            for j in range(6):
                b = poly(db) if (db, j) != (1, 0) else PolyFp(p, (0, rng.randrange(1, p)))
                cases = [poly(db + k) for k in range(-3, 6) if db + k >= 0]
                cases += [PolyFp(p, ()), b * PolyFp.const(p, rng.randrange(1, p)),
                          b * poly(1), b * poly(3)]
                if db == 1:
                    cases += [poly(12), b * poly(11), poly(12) * PolyFp.x(p)]
                for a in cases:
                    got = exact_arith._rem(a.coeffs, b.coeffs, p)
                    assert got == list(a.divmod(b)[1].coeffs), (a, b)
                    seen.add((max(-1, min(a.degree - db, 2)), db == 0, bool(got)))
                    if db == 1 and a.degree >= 3:
                        horner.add(bool(got))
        assert {(k, False, True) for k in (-1, 0, 1, 2)} <= seen
        assert {(k, False, False) for k in (-1, 0, 1, 2)} <= seen  # -1: the zero dividend
        assert {(k, True, False) for k in (-1, 0, 1, 2)} <= seen
        assert horner == {True, False}

    @pytest.mark.parametrize("euclid", [polyfp_gcd, polyfp_resultant])
    def test_remainder_step_that_keeps_the_degree_raises(self, monkeypatch, euclid):
        # a remainder kernel that hands back its divisor once is caught by
        # the degree test of the Euclid, not turned into a wrong answer
        rem, calls = exact_arith._rem, []

        def once_unreduced(a, b, p):
            calls.append(1)
            return list(b) if len(calls) == 1 else rem(a, b, p)

        monkeypatch.setattr(exact_arith, "_rem", once_unreduced)
        f, g = PolyFp.make(7, [1, 2, 0, 1]), PolyFp.make(7, [3, 1, 1])
        with pytest.raises(InternalError):
            euclid(f, g)

    def test_gcd_and_resultant_of_zero(self):
        f = PolyFp.make(7, [3, 1, 2])
        zero = PolyFp(7, ())
        assert polyfp_gcd(f, zero) == polyfp_gcd(zero, f) == f.monic()
        assert polyfp_gcd(zero, zero) == zero
        for a, b in ((f, zero), (zero, f), (zero, PolyFp.const(7, 4)), (PolyFp.const(7, 4), zero)):
            assert polyfp_resultant(a, b) == 0
        assert polyfp_resultant(PolyFp.const(7, 4), f) == pow(4, 2, 7)


def _mod(cs, m):
    """Integer coefficients reduced mod m, trailing zeros dropped."""
    out = [c % m for c in cs]
    while out and not out[-1]:
        out.pop()
    return out


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


COEFFS = st.lists(st.integers(-10**9, 10**9), max_size=8)


class TestPolyFpModPrimePower:
    """The ring operations over Z/p^e, the contract Hensel lifting uses,
    against integer lists reduced mod p^e."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([3, 5, 7, 13]), st.integers(1, 6), COEFFS, COEFFS)
    def test_add_sub_mul(self, p, e, a, b):
        m = p**e
        fa, fb = PolyFp.reduced(m, a), PolyFp.reduced(m, b)
        assert list(fa.coeffs) == _mod(a, m)
        assert list((fa + fb).coeffs) == _mod([x + y for x, y in zip_longest(a, b, fillvalue=0)], m)
        assert list((fa - fb).coeffs) == _mod([x - y for x, y in zip_longest(a, b, fillvalue=0)], m)
        assert list((fa * fb).coeffs) == _mod(_schoolbook(a, b), m)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([3, 5, 7, 13]), st.integers(1, 6), COEFFS,
           st.lists(st.integers(-10**9, 10**9), max_size=5))
    def test_divmod_by_a_monic(self, p, e, a, h):
        # a = q h + r with deg r < deg h, q and r reduced mod p^e
        m, h = p**e, h + [1]
        q, r = PolyFp.reduced(m, a).divmod(PolyFp.reduced(m, h))
        assert all(0 <= c < m for c in q.coeffs + r.coeffs)
        assert len(r.coeffs) < len(h)
        qh = _schoolbook(list(q.coeffs), h)
        assert _mod([x + y for x, y in zip_longest(qh, r.coeffs, fillvalue=0)], m) == _mod(a, m)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([3, 5, 7, 13]), st.integers(1, 6), COEFFS, st.integers(1, 10**9))
    def test_monic_of_a_unit_leading_coefficient(self, p, e, a, lc):
        assume(lc % p)
        m = p**e
        u = PolyFp.reduced(m, a + [lc]).monic()
        assert u.p == m and u.coeffs[-1] == 1 and len(u.coeffs) == len(a) + 1
        assert _mod([c * lc for c in u.coeffs], m) == _mod(a + [lc], m)


def _irreducible(h: PolyFp) -> bool:
    """Irreducibility over F_p by sympy, an oracle independent of the package."""
    return h.degree > 0 and gf.gf_irreducible_p([int(c) for c in reversed(h.coeffs)], h.p, ZZ)


def _sympy_factors(f: PolyFp):
    """factor_poly_fp's output shape from sympy's galoistools factoring."""
    lc, facs = gf.gf_factor([int(c) for c in reversed(f.coeffs)], f.p, ZZ)
    return int(lc), tuple(sorted(((PolyFp.make(f.p, [int(c) for c in reversed(g)]), k)
                                  for g, k in facs), key=factor_key))


def _random_monic(rng, p, n):
    return PolyFp.make(p, [rng.randrange(p) for _ in range(n)] + [1])


def _assert_split(f, parts):
    """parts are monic, squarefree and pairwise coprime, and multiply back to f."""
    one = f.scalar(1)
    for i, (g, _) in enumerate(parts):
        assert g.is_monic() and g.gcd(g.derivative()) == one, g
        assert all(g.gcd(h) == one for h, _ in parts[i + 1:]), g
    assert prod((g for g, m in parts for _ in range(m)), start=f.scalar(f.lc())) == f


# (p, degree cap) of each tier of the F_p(x) benchmark sweep
FACTOR_TIERS = ((3, 24), (11, 24), (10007, 16), (1000003, 12), (2**31 - 1, 10))


class TestFactorPolyFpOracle:
    @pytest.mark.parametrize("p,cap", FACTOR_TIERS)
    def test_random_polynomials_match_sympy(self, p, cap):
        rng = random.Random(p)
        for n in range(1, cap + 1):
            f = PolyFp.make(p, [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)])
            assert factor_poly_fp(f) == _sympy_factors(f), f

    @pytest.mark.parametrize("p,cap", FACTOR_TIERS)
    def test_repeated_and_equal_degree_factors_match_sympy(self, p, cap):
        rng = random.Random(p + 1)
        for d in range(1, cap // 2 + 1):
            # several distinct irreducibles of degree d, one of them squared:
            # the equal-degree step must split them all
            irr = []
            for _ in range(100):
                h = _random_monic(rng, p, d)
                if (len(irr) + 2) * d <= cap and _irreducible(h) and h not in irr:
                    irr.append(h)
            f = irr[0]
            for h in irr:
                f = f * h
            assert factor_poly_fp(f) == _sympy_factors(f), f

    @pytest.mark.parametrize("p", [3, 11])
    def test_pth_power_parts_match_sympy(self, p):
        rng = random.Random(p + 2)
        for _ in range(20):
            # g(x^p) = h^p for h with the p-th roots of the coefficients of g,
            # times a random part that may share factors with h
            g = _random_monic(rng, p, rng.randint(1, 20 // p))
            f = PolyFp.make(p, [g.coeffs[i // p] if i % p == 0 else 0
                                for i in range(p * g.degree + 1)])
            f = f * _random_monic(rng, p, rng.randint(0, 24 - f.degree))
            assert factor_poly_fp(f) == _sympy_factors(f), f

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 17])
    def test_every_monic_quadratic_by_its_roots(self, monkeypatch, p):
        # split by the discriminant, with no ring built: irreducible iff no
        # root in F_p, else x - r for each root r, a double root squared
        monkeypatch.setattr(exact_arith, "ZxRing", None)
        for c in range(p):
            for b in range(p):
                f = PolyFp(p, (c, b, 1))
                roots = [r for r in range(p) if f.evaluate(r) == 0]
                if not roots:
                    want = ((f, 1),)
                elif len(roots) == 1:
                    want = ((PolyFp.make(p, [-roots[0], 1]), 2),)
                else:
                    want = tuple(sorted(((PolyFp.make(p, [-r, 1]), 1) for r in roots),
                                        key=factor_key))
                assert factor_poly_fp(f) == (1, want), f

    @pytest.mark.parametrize("p", [10009, 65537, 2**31 - 1])
    def test_random_quadratics_match_sympy(self, p):
        # non-monic, with two roots (the product of two linear factors) or
        # random (as often irreducible as split)
        rng = random.Random(p + 5)
        for _ in range(200):
            f = PolyFp.make(p, [rng.randrange(p), rng.randrange(p), rng.randrange(1, p)])
            two = PolyFp.make(p, [rng.randrange(p), rng.randrange(1, p)]) * _random_monic(rng, p, 1)
            for g in (f, two):
                assert factor_poly_fp(g) == _sympy_factors(g), g

    # 65537 = 2^16 + 1: a bitlen just past a power of two, and x^p by 15
    # squarings between its two 1 bits
    @pytest.mark.parametrize("p,cap", FACTOR_TIERS + ((65537, 16),))
    def test_frobenius_rows_are_powers_of_x(self, p, cap):
        rng = random.Random(p + 3)
        for n in (2, cap // 2, cap):
            f = _random_monic(rng, p, n)
            ring = ZxRing(f.coeffs, p)
            rows = exact_arith._frobenius_rows(f, ring)
            assert len(rows) == n
            for i, row in enumerate(rows):
                assert PolyFp.make(p, ring.unpack(row)) == polyfp_pow_mod(PolyFp.x(p), i * p, f)

    @pytest.mark.parametrize("m", [10007, 2**31 - 1, 7**40, 10007**9])
    def test_kernel_matches_polynomial_remainder(self, m):
        rng = random.Random(m % 1000)
        for n in range(1, 18):
            f = [rng.randrange(m) for _ in range(n)] + [1]
            # zero coefficients in a exercise the sparse-operand skip
            a = [rng.choice([0, rng.randrange(m)]) for _ in range(rng.randint(0, 2 * n))]
            b = [rng.randrange(m) for _ in range(rng.randint(0, 2 * n))]
            want = (PolyQ.make(a) * PolyQ.make(b)) % PolyQ.make(f)
            assert tuple(ZxRing(f, m).mul(a, b)) == \
                PolyFp.make(m, [int(c) for c in want.coeffs]).coeffs

    def test_wrong_factor_raises_internal_error(self, monkeypatch):
        # an equal-degree step that returns a wrong factor is caught by the
        # product check, not passed on
        monkeypatch.setattr(exact_arith, "_edf",
                            lambda g, *args: [g + PolyFp.const(g.p, 1)])
        with pytest.raises(InternalError):
            factor_poly_fp(PolyFp.make(5, [1, 0, 1]))


# -- the Kronecker-substitution ring against a schoolbook reference ------------

# (m, p): primes, and prime powers as in the p-adic lift.  Only an m just below
# a power of two, as 2^31 - 1 is, lets a product fill a slot to its width.
# Modulus degrees run from the zero ring to twice the largest F_p cap, and to
# the F_p(x) entry cap MAX_DEGREE for the moduli of TOP_DEGREE_MODULI.
KERNEL_MODULI = ((3, 3), (10007, 10007), (2**31 - 1, 2**31 - 1), (7**40, 7), (10007**9, 10007))
KERNEL_DEGREES = (0, 1, 2, 3, 7, 15, 31, 48)
TOP_DEGREE_MODULI = (3, 2**31 - 1, 7**40)


def _kernel_degrees(m):
    return KERNEL_DEGREES + ((MAX_DEGREE,) if m in TOP_DEGREE_MODULI else ())


def _school_mulmod(a, b, f, m):
    """a * b mod (f, m), trimmed, by the double loop of `_mulmod`."""
    out = _mulmod([c % m for c in a] or [0], [c % m for c in b] or [0], f, m)
    while out and not out[-1]:
        out.pop()
    return out


def _school_pow(a, e, f, m):
    acc, base = _school_mulmod([1], [1], f, m), _school_mulmod(a, [1], f, m)
    while e:
        if e & 1:
            acc = _school_mulmod(acc, base, f, m)
        base = _school_mulmod(base, base, f, m)
        e >>= 1
    return acc


def _kernel_moduli(rng, m, n):
    """x^n + 1, whose rows are sparse, and a random monic f of degree n."""
    return [[1] + [0] * (n - 1) + [1] if n else [1], [rng.randrange(m) for _ in range(n)] + [1]]


def _edge_operands(rng, m, n):
    """Empty, longer than f, negative, every coefficient m - 1 (at length n
    and longer), a random residue, and coefficients just below m.  The last
    fill a product's slots nearly as full as m - 1 does, but leave its high
    slots large mod m (with m - 1 they are small, as (m - 1)^2 = 1), so the
    fold adds large multiples of the rows on top: the slot-width worst case."""
    return [[], [rng.randrange(m) for _ in range(2 * n + 3)],
            [-rng.randrange(m * m) for _ in range(n + 1)], [m - 1] * n, [m - 1] * (2 * n),
            [rng.randrange(m) for _ in range(n)],
            [m - 1 - rng.randrange(m // 64 + 1) for _ in range(n)]]


class TestZxRing:
    @pytest.mark.parametrize("m", [m for m, _ in KERNEL_MODULI])
    def test_mulmod_matches_schoolbook(self, m):
        rng = random.Random(m % 1009)
        for n in _kernel_degrees(m):
            for f in _kernel_moduli(rng, m, n):
                ops = _edge_operands(rng, m, n)
                for a in ops:
                    for b in ops:
                        assert ZxRing(f, m).mul(a, b) == _school_mulmod(a, b, f, m), (n, a, b)

    @pytest.mark.parametrize("m,p", KERNEL_MODULI)
    def test_pow_matches_schoolbook(self, m, p):
        rng = random.Random(m % 1013)
        for n in _kernel_degrees(m):
            # the Euler exponent (p^d - 1)/2 is too long for the reference at d = 48
            exps = (0, 1, p) + (((p**n - 1) // 2,) if n <= 15 else ())
            for f in _kernel_moduli(rng, m, n):
                ring = ZxRing(f, m)
                for a in [[0, 1]] + _edge_operands(rng, m, n):
                    for e in exps:
                        want = _school_pow(a, e, f, m)
                        assert ring.pow(a, e) == want, (n, a, e)
                        if m == p:
                            got = polyfp_pow_mod(PolyFp.make(p, a), e, PolyFp.make(p, f))
                            assert list(got.coeffs) == want

    @pytest.mark.parametrize("m", [m for m, _ in KERNEL_MODULI])
    def test_fold_of_worst_case_inputs(self, m):
        # every one of 2n slots at its largest: a product's n (m - 1)^2, and
        # 2^(b-1) - 1, the bound `fold` admits (b = 2 bitlen(m) + bitlen(4n)),
        # where the low half plus q (-f mod m) comes closest to 2^b
        rng = random.Random(m % 1021)
        for n in _kernel_degrees(m):
            top = 1 << (2 * m.bit_length() + (4 * n).bit_length() - 1)
            for f in _kernel_moduli(rng, m, n) + [[m - 1] * n + [1], [1] * (n + 1)]:
                ring = ZxRing(f, m)
                for slot in (n * (m - 1) ** 2, top - 1, top - 1 - rng.randrange(m)):
                    # all slots at the largest, then about half of them
                    for slots in ([slot] * 2 * n, [rng.choice([slot, rng.randrange(slot)])
                                                   for _ in range(2 * n)]):
                        v = sum(c << i * ring.w for i, c in enumerate(slots))
                        assert ring.fold(v) == ring.pack(_school_mulmod(slots, [1], f, m)), (n, f)

    # Fermat primes 2^(2^j) + 1, just past a power of two, are where a Barrett
    # quotient that truncates one bit more would come out short by two
    @pytest.mark.parametrize("m", [m for m, _ in KERNEL_MODULI] + [17, 257, 65537])
    def test_barrett_step_brings_slots_below_2m(self, m):
        rng = random.Random(m % 1031)
        for n in (1, 2, 9):
            ring, b = ZxRing([rng.randrange(m) for _ in range(n)] + [1], m), \
                2 * m.bit_length() + (4 * n).bit_length()
            for _ in range(2000 // n):
                # any slot below 2^b, its low bits often all ones
                slots = [rng.randrange(1 << b) | (1 << rng.randrange(b)) - 1 for _ in range(n)]
                v = ring._barrett(sum(c << i * ring.w for i, c in enumerate(slots)))
                for i, c in enumerate(slots):
                    r = v >> i * ring.w & ring.mask
                    assert r < 2 * m and r % m == c % m, (n, c)
                assert v >> n * ring.w == 0

    @pytest.mark.parametrize("p", [3, 10007, 2**31 - 1])
    def test_packed_frobenius_is_pth_power(self, p):
        rng = random.Random(p % 1019)
        for n in _kernel_degrees(p)[1:]:
            for f in _kernel_moduli(rng, p, n):
                ring = ZxRing(f, p)
                rows = exact_arith._frobenius_rows(PolyFp.make(p, f), ring)
                for t in ([], [p - 1] * n, [rng.randrange(p) for _ in range(n)]):
                    assert exact_arith._frobenius(t, rows, ring) == _school_pow(t, p, f, p)


class TestSplitFp:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 10007])
    def test_squarefree_parts_match_sympy(self, p):
        rng = random.Random(p + 4)
        cases = []
        for _ in range(25):
            # a p-th power part (zero derivative) for small p, repeated factors always
            g = _random_monic(rng, p, rng.randint(1, 3))
            f = PolyFp.const(p, rng.randrange(1, p)) * g * g * _random_monic(rng, p, 2)
            if p * 2 <= 24:
                f = prod([_random_monic(rng, p, 2)] * p, start=f)
            cases.append(f)
        if p <= 7:
            # multiplicities past p: p + 1 and 2p + 1 mix a p-th power part with
            # a derivative that does not vanish, which a characteristic-0 split misses
            for mults in ([p + 1], [2 * p + 1], [p * p], [1, p + 1, 2 * p + 1, p * p]):
                for _ in range(4):
                    f = PolyFp.const(p, rng.randrange(1, p))
                    for m in mults:
                        f = prod([_random_monic(rng, p, rng.randint(1, 2))] * m, start=f)
                    cases.append(f)
            g = _random_monic(rng, p, 3) * _random_monic(rng, p, 1)
            cases.append(prod([g] * p, start=PolyFp.const(p, 2)))
            assert cases[-1].derivative().is_zero()
        for f in cases:
            got = squarefree_parts(f)
            _, want = gf.gf_sqf_list([int(c) for c in reversed(f.coeffs)], p, ZZ)
            want = [(PolyFp.make(p, [int(c) for c in reversed(h)]), k) for h, k in want]
            assert sorted(got, key=lambda hm: hm[1]) == sorted(want, key=lambda hm: hm[1]), f
            _assert_split(f, got)

    @pytest.mark.parametrize("p", [3, 7, 2**31 - 1])
    def test_irreducible_factors_fp_split_a_squarefree_product(self, p):
        rng = random.Random(p + 5)
        for _ in range(20):
            f = _random_monic(rng, p, rng.randint(1, 8)) * _random_monic(rng, p, 3)
            for h, _ in squarefree_parts(f):
                got = irreducible_factors_fp(h)
                assert list(got) == sorted(got, key=lambda g: (g.degree, g.coeffs))
                assert all(g.is_monic() and _irreducible(g) for g in got)
                assert prod(got, start=PolyFp.const(p, 1)) == h

    def test_same_coefficients_in_two_characteristics(self):
        # x^2 + 1 is irreducible over F_3 and splits over F_5
        irreducible_factors_fp.cache_clear()
        f3, f5 = PolyFp.make(3, [1, 0, 1]), PolyFp.make(5, [1, 0, 1])
        assert irreducible_factors_fp(f3) == (f3,)
        assert irreducible_factors_fp(f5) == (PolyFp.make(5, [2, 1]), PolyFp.make(5, [3, 1]))
        assert irreducible_factors_fp(f3) == (f3,)
        info = irreducible_factors_fp.cache_info()
        assert (info.hits, info.misses) == (1, 2)

    def test_split_cache_is_bounded(self):
        assert irreducible_factors_fp.cache_info().maxsize == exact_arith.SPLIT_CACHE_SIZE
        assert irreducible_factors_q.cache_info().maxsize == exact_arith.SPLIT_CACHE_SIZE
        assert exact_arith.SPLIT_CACHE_SIZE is not None

    @pytest.mark.parametrize("coeffs", [[1, 2, 1], [2, 2]])  # (x + 1)^2, 2x + 2
    def test_irreducible_factors_fp_refuse_non_squarefree_or_non_monic(self, coeffs):
        with pytest.raises(DomainError):
            irreducible_factors_fp(PolyFp.make(5, coeffs))


def _sqrt_mod(a, p):
    """sqrt_tonelli_shanks on built-in integers mod p, with the least nonresidue."""
    z = next(z for z in range(2, p) if pow(z, p // 2, p) == p - 1)
    return sqrt_tonelli_shanks(a, z, p, lambda u, v: u * v % p, lambda u, e: pow(u, e, p), 1)


class TestTonelliShanks:
    """The square root loop on built-in integers mod p, as the F_p split of
    a quadratic runs it; p - 1 = 2^s e with s from 1 to 16."""

    @pytest.mark.parametrize("p,s", [(7, 1), (5, 2), (13, 2), (41, 3), (73, 3), (17, 4), (113, 4)])
    def test_every_square(self, p, s):
        assert (p - 1) % 2**s == 0 and (p - 1) // 2**s % 2 == 1
        for a in sorted({x * x % p for x in range(1, p)}):
            r = _sqrt_mod(a, p)
            assert 0 <= r < p and r * r % p == a, (a, r)

    def test_random_squares_mod_65537(self):
        p, rng = 65537, random.Random(65537)  # p - 1 = 2^16
        for _ in range(300):
            a = rng.randrange(1, p) ** 2 % p
            assert _sqrt_mod(a, p) ** 2 % p == a, a

    @pytest.mark.parametrize("p", [7, 13, 17, 65537])
    def test_nonsquare_and_zero_raise(self, p):
        # unguarded, the loop would run forever on 0 and shift by -1 on a nonsquare
        for a in (0, next(z for z in range(2, p) if pow(z, p // 2, p) == p - 1)):
            with pytest.raises(InternalError):
                _sqrt_mod(a, p)


def test_sqrt_fraction():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_fraction(Fraction(0)) == 0
    assert sqrt_fraction(Fraction(2)) is None
    assert sqrt_fraction(Fraction(-1)) is None


# -- the norm-Legendre character of F_p[x]/(h) ---------------------------------

CHAR_PRIMES = (3, 5, 7, 10007, 2**31 - 1)


def _mulmod(a, b, h, p):
    """Product of coefficient lists (low degree first) modulo monic h."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    d = len(h) - 1
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        for i in range(d + 1):
            out[k - d + i] = (out[k - d + i] - c * h[i]) % p
    return (out[:d] + [0] * d)[:d]


def _euler_power(t, h, p):
    """Reference character: t^((q-1)/2) in F_p[x]/(h) by square and multiply,
    returned as +1 or -1."""
    d = len(h) - 1
    base = _mulmod(t, [1], h, p)
    acc = [1] + [0] * (d - 1)
    e = (p**d - 1) // 2
    while e:
        if e & 1:
            acc = _mulmod(acc, base, h, p)
        base = _mulmod(base, base, h, p)
        e >>= 1
    assert acc[1:] == [0] * (d - 1) and acc[0] in (1, p - 1)
    return 1 if acc[0] == 1 else -1


@st.composite
def residue_fields(draw):
    """(p, h) with h monic irreducible over F_p: an irreducible factor of a
    random monic polynomial, found by sympy."""
    p = draw(st.sampled_from(CHAR_PRIMES))
    n = draw(st.integers(1, 4 if p > 10**4 else 7))
    f = [1] + draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    _, facs = gf.gf_factor(f, p, ZZ)
    h = max((g for g, _ in facs), key=len)
    return p, [int(c) for c in reversed(h)]


class TestNormLegendre:
    @settings(max_examples=60, deadline=None)
    @given(residue_fields(), st.data())
    def test_fq_char_is_euler_power(self, field, data):
        """The character of one to three factors is `_euler_power` of their
        product; a factor that is a non-unit mod h raises."""
        p, h = field
        d = len(h) - 1
        ts = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=1, max_size=2 * d + 1),
                                min_size=1, max_size=3))
        tps, hp = [PolyFp.make(p, t) for t in ts], PolyFp.make(p, h)
        if any((tp % hp).is_zero() for tp in tps):
            with pytest.raises(InternalError):
                fq_char(hp, tps)
        else:
            product = ts[0]
            for t in ts[1:]:
                product = _mulmod(product, t, h, p)
            assert fq_char(hp, tps) == _euler_power(product, h, p)

    def test_fq_char_in_the_factor_first_order_raises(self):
        """The modulus comes first; the other order cannot pass for a value."""
        t, h = PolyFp.make(7, [3, 1]), PolyFp.make(7, [1, 0, 1])
        with pytest.raises(AttributeError):
            fq_char(t, h)

    def test_resultant_x_minus_one(self):
        f = PolyFp.make(11, [1, 5, 10, 1, 3, 1])  # x^5+3x^4+x^3+10x^2+5x+1
        assert polyfp_resultant(PolyFp.make(11, [-1, 1]), f) == 10

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CHAR_PRIMES), st.lists(st.integers(0, 2**31), max_size=8))
    def test_resultant_with_x_minus_one_is_value_at_one(self, p, cs):
        f = PolyFp.make(p, cs)
        if not f.is_zero():
            assert polyfp_resultant(PolyFp.make(p, [-1, 1]), f) == sum(cs) % p

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CHAR_PRIMES),
           *[st.lists(st.integers(0, 2**31), min_size=1, max_size=6)] * 3)
    def test_resultant_multiplicative(self, p, a, b, c):
        fa, fb, fc = (PolyFp.make(p, cs + [1]) for cs in (a, b, c))
        assert polyfp_resultant(fa, fb * fc) == \
            polyfp_resultant(fa, fb) * polyfp_resultant(fa, fc) % p

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CHAR_PRIMES),
           *[st.lists(st.integers(0, 2**31), min_size=1, max_size=5)] * 3)
    def test_resultant_zero_on_common_factor(self, p, a, b, c):
        fa, fb, fc = (PolyFp.make(p, cs + [1]) for cs in (a, b, c))
        assert polyfp_resultant(fa * fc, fb * fc) == 0

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(CHAR_PRIMES), *[st.lists(st.integers(0, 2**31), max_size=9)] * 2)
    @example(7, [3], [5])
    @example(7, [3], [1, 2, 1])
    @example(11, [1, 2, 1], [4])
    @example(7, [1, 2, 0, 3], [2, 0, 1, 0, 4, 1])  # deg f < deg g, deg f deg g = 15 odd
    @example(7, [1, 1, 2], [3, 0, 1, 5])  # deg f < deg g, deg f deg g = 6 even
    @example(7, [3, 2], [1, 0, 5, 4, 6])  # linear f = 2x + 3: the Horner step of `_rem`
    @example(2**31 - 1, [5, 2**31 - 2, 7], [1, 2, 3, 4, 5, 2**31 - 3])
    def test_resultant_matches_sylvester_determinant(self, p, a, b):
        fa, fb = PolyFp.make(p, a), PolyFp.make(p, b)
        if fa.is_zero() or fb.is_zero():
            assert polyfp_resultant(fa, fb) == 0
        else:
            assert polyfp_resultant(fa, fb) == _sylvester_det(fa.coeffs, fb.coeffs, p)


def _sylvester_det(f, g, p):
    """Res(f, g) mod p as the determinant of the Sylvester matrix of the
    coefficient lists f, g (low degree first), by elimination mod p."""
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + list(f[::-1]) + [0] * (n - 1 - i) for i in range(n)] + \
        [[0] * i + list(g[::-1]) + [0] * (m - 1 - i) for i in range(m)]
    det = 1
    for col in range(m + n):
        piv = next((r for r in range(col, m + n) if rows[r][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det = det * rows[col][col] % p
        inv = pow(rows[col][col], -1, p)
        for r in range(col + 1, m + n):
            c = rows[r][col] * inv % p
            if c:
                rows[r] = [(u - c * v) % p for u, v in zip(rows[r], rows[col])]
    return det % p
