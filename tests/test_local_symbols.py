"""Tests for Euler characters, Hilbert symbols and the number-field square tester."""

import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.specialpolys import swinnerton_dyer_poly

from oracles import hilbert_oracle
from quatbrauer import brauer_q, exact_arith, funcfield, integers, local_symbols, zassenhaus
from quatbrauer.brauer_q import REAL, PlaceQ, hilbert
from quatbrauer.errors import BudgetError, DomainError, InternalError
from quatbrauer.exact_arith import (
    PolyFp,
    PolyQ,
    fq_char,
    irreducible_factors_fp,
    polyfp_from_polyq,
)
from quatbrauer.integers import euler_char
from quatbrauer.local_symbols import (
    NonsquareWitness,
    NumberFieldElem,
    is_square_in_number_field,
    verify_nonsquare_certificate,
    verify_square_certificate,
)


def support_places(a, b):
    """The real place, 2 and sympy's primes of the numerators and denominators."""
    a, b = Fraction(a), Fraction(b)
    ints = (abs(a.numerator), a.denominator, abs(b.numerator), b.denominator)
    return [REAL] + [PlaceQ(p) for p in sorted({2}.union(*map(sympy.factorint, ints)))]


# odd places of the `hilbert` tests, from 3 to a prime above 2^64
ODD_PRIMES = [3, 5, 10**9 + 7, 2**31 - 1, 2**61 - 1, 18446744073709551629]


class TestEulerChar:
    def test_known_values(self):
        assert euler_char(2, 7) == 1
        assert euler_char(3, 7) == -1
        assert euler_char(-1, 7) == -1

    def test_euler_consistency(self):
        for p in [3, 5, 7, 11, 13]:
            residues = {x * x % p for x in range(1, p)}
            for a in range(1, p):
                want = 1 if a in residues else -1
                assert euler_char(a, p) == euler_char(a - 3 * p, p) == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-2**70, 2**70), st.integers(3, 2**31 - 2).map(sympy.nextprime))
    @example(-1, 2**31 - 1)
    def test_matches_the_norm_character_route(self, a, p):
        """euler_char against the quadratic character of F_p = F_p[x]/(x) by
        `fq_char`, which reaches the same Euler criterion through a resultant."""
        assume(a % p)
        assert euler_char(a, p) == fq_char(PolyFp.const(p, a), PolyFp.x(p))

    def test_multiplicativity(self):
        rng = random.Random(2)
        for _ in range(50):
            p = rng.choice([3, 5, 7, 11, 13, 17])
            a, b = rng.randint(1, 100), rng.randint(1, 100)
            if a % p and b % p:
                assert euler_char(a * b, p) == euler_char(a, p) * euler_char(b, p)


class TestPlaceQ:
    def test_parse(self):
        assert PlaceQ.parse("real") == REAL
        assert PlaceQ.parse("17") == PlaceQ(17)
        with pytest.raises(DomainError):
            PlaceQ.parse("15")

    def test_sorting(self):
        places = [REAL, PlaceQ(5), PlaceQ(2)]
        assert sorted(places, key=PlaceQ.sort_key) == [PlaceQ(2), PlaceQ(5), REAL]


class TestSupportPlaces:
    ENTRIES = st.builds(Fraction, st.integers(-10**12, 10**12).filter(bool), st.integers(1, 10**12))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ENTRIES, ENTRIES)
    @example(Fraction(10**19 + 51, 3 * 10**19 + 41), Fraction(3))  # 20-digit primes
    @example(Fraction(-7, (10**12 + 39)**2), Fraction((2**61 - 1)**3, 10**19 + 51))
    def test_matches_sympy(self, a, b):
        """Each of the four integers is factored apart, so a quotient of two
        primes that rho could not split as a product raises no BudgetError."""
        assert brauer_q.support_places(a, b) == support_places(a, b)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_each_integer_factored_once(self, monkeypatch, sign):
        """(N, N) and (N, -N) factor N once: one call per distinct |entry|."""
        n = 2 * 3 * 10007 * (10**7 + 19) * (10**7 + 79)
        calls, factor = [], integers._factor_positive
        monkeypatch.setattr(integers, "_factor_positive", lambda m: calls.append(m) or factor(m))
        places = brauer_q.support_places(Fraction(n), Fraction(sign * n))
        assert sorted(calls) == [1, n]
        assert places == support_places(n, sign * n)


class TestHilbert:
    def test_known_values(self):
        assert hilbert(-1, -1, REAL) == -1
        assert hilbert(-1, 2, REAL) == 1
        assert hilbert(2, 3, PlaceQ(3)) == -1
        assert hilbert(2, 5, PlaceQ(2)) == -1
        assert hilbert(2, 5, PlaceQ(5)) == -1
        assert hilbert(2, 5, REAL) == 1

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            hilbert(0, 3, REAL)

    def test_symmetry_and_bilinearity(self):
        rng = random.Random(4)
        for _ in range(60):
            a = Fraction(rng.randint(1, 50) * rng.choice([1, -1]), rng.randint(1, 20))
            b = Fraction(rng.randint(1, 50) * rng.choice([1, -1]), rng.randint(1, 20))
            c = Fraction(rng.randint(1, 50) * rng.choice([1, -1]))
            v = rng.choice(support_places(a, b * c))
            assert hilbert(a, b, v) == hilbert(b, a, v)
            assert hilbert(a, b * c, v) == hilbert(a, b, v) * hilbert(a, c, v)

    def test_steinberg(self):
        rng = random.Random(6)
        for _ in range(40):
            a = Fraction(rng.randint(1, 60) * rng.choice([1, -1]), rng.randint(1, 9))
            for v in support_places(a, -a):
                assert hilbert(a, -a, v) == 1
            if a != 1:
                for v in support_places(a, 1 - a):
                    assert hilbert(a, 1 - a, v) == 1

    def test_square_invariance(self):
        rng = random.Random(8)
        for _ in range(40):
            a = Fraction(rng.randint(1, 30) * rng.choice([1, -1]))
            b = Fraction(rng.randint(1, 30) * rng.choice([1, -1]))
            s = Fraction(rng.randint(1, 12)) ** 2
            for v in support_places(a * s, b):
                assert hilbert(a * s, b, v) == hilbert(a, b, v)

    def test_against_bruteforce_oracle(self):
        for v in [REAL, PlaceQ(2), PlaceQ(3), PlaceQ(5), PlaceQ(7)]:
            for a in [-10, -5, -3, -2, -1, 1, 2, 3, 5, 10]:
                for b in [-10, -5, -3, -2, -1, 1, 2, 3, 5, 10]:
                    assert hilbert(a, b, v) == hilbert_oracle(a, b, v), (a, b, v)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(ODD_PRIMES), st.integers(-3, 3), st.integers(-3, 3),
           st.tuples(*[st.integers(1, 2**80)] * 4), st.booleans(), st.booleans())
    @example(2**61 - 1, -1, -3, (2, 1, 1, 2), False, False)  # only the sign term is -1
    @example(2**61 - 1, 3, -1, (5, 7, 11, 13), True, False)
    @example(18446744073709551629, -3, -1, (1, 3, 2, 1), False, True)
    @example(3, -1, -1, (1, 1, 1, 1), False, False)
    def test_odd_place_matches_the_case_formula(self, p, alpha, beta, units, neg_a, neg_b):
        """At odd p, the Euler character of the tame symbol against the case
        formula on Legendre symbols, for valuations of either sign."""
        an, ad, bn, bd = (u if u % p else u + 1 for u in units)
        a = Fraction(-an if neg_a else an, ad) * Fraction(p) ** alpha
        b = Fraction(-bn if neg_b else bn, bd) * Fraction(p) ** beta
        assert hilbert(a, b, PlaceQ(p)) == hilbert_by_cases(a, b, p)

    def test_odd_place_checks_no_prime(self, monkeypatch):
        calls = _count_prime_checks(monkeypatch)
        for p in (3, 5, 2**61 - 1, 18446744073709551629):
            for a, b in ((2, 3), (Fraction(p, 7), Fraction(5, p**3)), (-p, -p)):
                assert hilbert(a, b, PlaceQ(p)) == hilbert_by_cases(Fraction(a), Fraction(b), p)
        assert calls == []


def hilbert_by_cases(a: Fraction, b: Fraction, p: int) -> int:
    """(a, b)_p at an odd prime p by the case formula (Serre, A Course in
    Arithmetic, III.1.2): (-1)^(alpha beta (p-1)/2), times (u / p) if beta
    is odd and (w / p) if alpha is odd, for a = p^alpha u, b = p^beta w,
    the valuations of either sign and u, w read mod p."""
    def val_unit(c: Fraction) -> tuple[int, int]:
        n, d, v = c.numerator, c.denominator, 0
        while n % p == 0:
            n, v = n // p, v + 1
        while d % p == 0:
            d, v = d // p, v - 1
        return v, n * pow(d, -1, p) % p

    def legendre(u: int) -> int:
        return 1 if pow(u, (p - 1) // 2, p) == 1 else -1

    (alpha, u), (beta, w) = val_unit(a), val_unit(b)
    sym = -1 if alpha * beta * ((p - 1) // 2) % 2 else 1
    if beta % 2:
        sym *= legendre(u)
    if alpha % 2:
        sym *= legendre(w)
    return sym


def _count_prime_checks(monkeypatch) -> list[tuple[int, str]]:
    """(n, caller) for every `is_prime(n)` call, in every module that binds
    the name."""
    calls = []
    is_prime = integers.is_prime

    def counted(n):
        calls.append((n, sys._getframe(1).f_code.co_name))
        return is_prime(n)
    for module in (integers, local_symbols, brauer_q, funcfield, zassenhaus):
        monkeypatch.setattr(module, "is_prime", counted)
    return calls


GAUSS = PolyQ.make([1, 0, 1])        # x^2 + 1
SQRT2 = PolyQ.make([-2, 0, 1])       # x^2 - 2
CBRT2 = PolyQ.make([-2, 0, 0, 1])    # x^3 - 2
RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=12)
# degree 16: Q(sqrt 2, sqrt 3, sqrt 5, sqrt 7); pi factors mod every prime
SWINNERTON_DYER = PolyQ.make([int(c) for c in reversed(swinnerton_dyer_poly(4).as_poly().all_coeffs())])


class TestNumberFieldElem:
    def test_reduction(self):
        e = NumberFieldElem.make(GAUSS, PolyQ.make([0, 0, 1]))  # x^2 = -1
        assert e.value == PolyQ.const(-1)

    def test_product_across_fields_rejected(self):
        a = NumberFieldElem.make(GAUSS, PolyQ.make([1, 1]))
        with pytest.raises(DomainError):
            a * NumberFieldElem.make(SQRT2, PolyQ.make([1, 1]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(RATIONALS, max_size=5), st.lists(RATIONALS, max_size=6),
           st.lists(RATIONALS, max_size=6))
    @example([Fraction(-2, 3), 0, Fraction(1, 5)], [Fraction(3, 2), Fraction(-9, 4)],
             [Fraction(5, 6), 0, Fraction(7, 3), Fraction(-10, 9)])
    def test_product_matches_reduced_polyq_product(self, low, a, b):
        # a monic modulus with rational coefficients; values with rational
        # coefficients and content other than 1, reduced or not
        pi = PolyQ.make(low + [1])
        x, y = NumberFieldElem(pi, PolyQ.make(a)), NumberFieldElem(pi, PolyQ.make(b))
        assert (x * y).value == (x.value * y.value) % pi

    @pytest.mark.parametrize("e,products", [(0, 0), (1, 0), (2, 1), (3, 2), (5, 3), (8, 3)])
    def test_power_products(self, monkeypatch, e, products):
        # left-to-right square and multiply from the base: no product for
        # e = 1, one for e = 2, three for e = 5
        base = PolyQ.make([1, 1, Fraction(1, 2)])
        want = PolyQ.const(1)
        for _ in range(e):
            want = want * base % CBRT2
        calls = []
        mul = NumberFieldElem.__mul__
        monkeypatch.setattr(NumberFieldElem, "__mul__",
                            lambda a, b: calls.append(1) or mul(a, b))
        assert (NumberFieldElem.make(CBRT2, base) ** e).value == want
        assert len(calls) == products
        inv = NumberFieldElem.make(CBRT2, base).inverse()
        assert (NumberFieldElem.make(CBRT2, base) ** -e).value == (inv ** e).value

    def test_inverse_random(self):
        rng = random.Random(10)
        for _ in range(30):
            v = PolyQ.make([rng.randint(-9, 9) for _ in range(3)])
            if v.is_zero():
                continue
            e = NumberFieldElem.make(CBRT2, v)
            assert (e * e.inverse()).value == PolyQ.const(1)

    def test_pow_negative(self):
        e = NumberFieldElem.make(GAUSS, PolyQ.x())
        assert (e ** -2).value == PolyQ.const(-1)  # 1/i^2 = -1

    def test_non_monic_modulus_rejected(self):
        # the square test reads Res(pi, t) as the norm, which needs pi monic
        with pytest.raises(DomainError):
            NumberFieldElem.make(PolyQ.make([1, 0, 2]), PolyQ.x())


# (x^2 - 2)(x^2 + 1): Q[x]/(pi) is Q(sqrt 2) x Q(i), where 2 and -1 are
# each a square in one factor only
ETALE = SQRT2 * GAUSS
CYCLOTOMIC8 = PolyQ.make([1, 0, 0, 0, 1])  # x^4 + 1, reducible mod every prime


class TestEtaleModuli:
    def test_inverse(self):
        rng = random.Random(12)
        for _ in range(30):
            v = PolyQ.make([rng.randint(-9, 9) for _ in range(4)])
            if v.is_zero() or v == SQRT2 or v == GAUSS:
                continue
            e = NumberFieldElem.make(ETALE, v)
            assert (e * e.inverse()).value == PolyQ.const(1)

    def test_zero_divisor_has_no_inverse(self):
        with pytest.raises(DomainError):
            NumberFieldElem.make(ETALE, SQRT2 * PolyQ.make([3, 1])).inverse()

    @pytest.mark.parametrize("c", [2, -1, -2, 3])
    def test_square_in_one_factor_only_is_a_nonsquare(self, c):
        # 2 is a square only in Q(sqrt 2), -1 only in Q(i), -2 in neither
        e = NumberFieldElem.make(ETALE, PolyQ.const(c))
        v = is_square_in_number_field(e)
        assert not v.is_square and v.verified
        assert verify_nonsquare_certificate(e, v.witness)

    def test_witness_factor_need_not_be_irreducible_mod_p(self):
        # mod 7, pi = (x - 3)(x + 3)(x^2 + 1); -1 has character -1 at x - 3
        # and +1 in F_49, so their product is a witness, and the product of
        # the two linear factors is not
        e = NumberFieldElem.make(ETALE, PolyQ.const(-1))
        x_minus_3, x_plus_3 = PolyFp.make(7, [4, 1]), PolyFp.make(7, [3, 1])
        h = x_minus_3 * PolyFp.make(7, [1, 0, 1])
        assert verify_nonsquare_certificate(e, NonsquareWitness(7, h))
        assert not verify_nonsquare_certificate(e, NonsquareWitness(7, x_minus_3 * x_plus_3))

    def test_squares_are_recognized_with_a_root(self):
        rng = random.Random(13)
        for modulus in (ETALE, CYCLOTOMIC8):
            for _ in range(6):
                r = NumberFieldElem.make(modulus, PolyQ.make(
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]))
                if r.is_zero():
                    continue
                c = r * r
                v = is_square_in_number_field(c)
                assert v.is_square and v.verified
                assert verify_square_certificate(c, v.root)

    @pytest.mark.parametrize("c,square", [(2, True), (-1, True), (-2, True), (3, False),
                                          (-3, False), (6, False)])
    def test_cyclotomic_field_of_8(self, c, square):
        # Q(zeta_8) holds i and sqrt 2 = zeta + zeta^-1, but not sqrt 3
        e = NumberFieldElem.make(CYCLOTOMIC8, PolyQ.const(c))
        v = is_square_in_number_field(e)
        assert v.is_square is square and v.verified
        if square:
            assert verify_square_certificate(e, v.root)
        else:
            assert verify_nonsquare_certificate(e, v.witness)


NON_SQUAREFREE_SCRIPT = """
from quatbrauer.errors import DomainError
from quatbrauer.exact_arith import PolyQ
from quatbrauer.local_symbols import NumberFieldElem, is_square_in_number_field

for modulus, value in (([1, 2, 1], [3]), ([1, 2, 1], [1, 1, 1]), ([0, 1, 1], [0, 1])):
    try:
        is_square_in_number_field(NumberFieldElem.make(PolyQ.make(modulus), PolyQ.make(value)))
    except DomainError as exc:
        print(exc)
"""


def test_non_squarefree_modulus_and_zero_divisor_are_refused():
    # no prime passes the good-prime screen for these; the test runs in a
    # separate process so that a search that never ends fails on a timeout
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-c", NON_SQUAREFREE_SCRIPT],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.stdout.splitlines() == ["modulus x^2 + 2*x + 1 is not squarefree"] * 2 + \
        ["x is a zero divisor mod x^2 + x"], out.stdout + out.stderr


class TestSquareTester:
    def test_minus_one_square_in_gauss_field(self):
        c = NumberFieldElem.make(GAUSS, PolyQ.const(-1))
        v = is_square_in_number_field(c)
        assert v.is_square and v.verified
        assert (PolyQ.make([]) + v.root * v.root) % GAUSS == PolyQ.const(-1) % GAUSS

    def test_two_nonsquare_in_gauss_field(self):
        c = NumberFieldElem.make(GAUSS, PolyQ.const(2))
        v = is_square_in_number_field(c)
        assert not v.is_square and v.verified
        assert verify_nonsquare_certificate(c, v.witness)

    def test_forged_nonsquare_certificates_rejected(self):
        # 2i = (1+i)^2 is a square; its norm 4 is no square mod 21 = 3 * 7
        c = NumberFieldElem.make(GAUSS, PolyQ.make([0, 2]))
        assert not verify_nonsquare_certificate(
            c, NonsquareWitness(21, PolyFp.make(21, [1, 0, 1])))
        assert not verify_nonsquare_certificate(
            c, NonsquareWitness(5, PolyFp.make(5, [1, 1])))  # x + 1 does not divide pi
        assert not verify_nonsquare_certificate(
            c, NonsquareWitness(3, PolyFp.make(3, [2, 0, 2])))  # not monic

    def test_certificates_at_bad_primes_rejected(self):
        # 3 divides a denominator of the value: rejected, not raised
        c = NumberFieldElem.make(GAUSS, PolyQ.const(Fraction(1, 3)))
        assert not verify_nonsquare_certificate(c, NonsquareWitness(3, PolyFp.make(3, [1, 0, 1])))
        # 5 divides a denominator of pi = x^2 + 1/5
        c = NumberFieldElem.make(PolyQ.make([Fraction(1, 5), 0, 1]), PolyQ.const(2))
        assert not verify_nonsquare_certificate(c, NonsquareWitness(5, PolyFp.make(5, [0, 1])))
        # x^2 - 3 = x^2 mod 3 is not squarefree, though (Res(x, 2) / 3) = -1
        c = NumberFieldElem.make(PolyQ.make([-3, 0, 1]), PolyQ.const(2))
        assert not verify_nonsquare_certificate(c, NonsquareWitness(3, PolyFp.make(3, [0, 1])))
        # 3x^2 + x + 1 drops to degree 1 mod 3, though (Res(x + 1, 2) / 3) = -1
        c = NumberFieldElem(PolyQ.make([1, 1, 3]), PolyQ.const(2))
        assert not verify_nonsquare_certificate(c, NonsquareWitness(3, PolyFp.make(3, [1, 1])))
        # a factor over another field, and the prime 2
        c = NumberFieldElem.make(GAUSS, PolyQ.const(3))
        assert not verify_nonsquare_certificate(c, NonsquareWitness(7, PolyFp.make(3, [1, 0, 1])))
        assert not verify_nonsquare_certificate(c, NonsquareWitness(2, PolyFp(2, (1, 1))))

    def test_two_square_in_sqrt2_field(self):
        c = NumberFieldElem.make(SQRT2, PolyQ.const(2))
        v = is_square_in_number_field(c)
        assert v.is_square
        assert verify_square_certificate(c, v.root)

    def test_generator_nonsquare_in_cubic_field(self):
        # x = 2^(1/3): its norm is 2, and a square has square norm
        c = NumberFieldElem.make(CBRT2, PolyQ.x())
        v = is_square_in_number_field(c)
        assert not v.is_square and v.verified

    def test_norm_witness_needs_no_factoring(self, monkeypatch):
        # N(2^(1/3)) = 2, a nonresidue mod 5: all of pi mod 5 is the witness
        calls = _count_factorizations(monkeypatch)
        c = NumberFieldElem.make(CBRT2, PolyQ.x())
        v = is_square_in_number_field(c)
        assert not v.is_square and v.verified and calls == []
        assert v.witness == NonsquareWitness(5, PolyFp.make(5, [3, 0, 0, 1]))
        assert verify_nonsquare_certificate(c, v.witness)

    def test_norm_screen_checks_only_the_primes_it_generates(self, monkeypatch):
        # N(x + 3) = 10 in Q(i), a residue mod 3 and a nonresidue mod 7: the
        # screen tries 3 to 7, and the certificate re-check proves 7 prime
        calls = _count_prime_checks(monkeypatch)
        c = NumberFieldElem.make(GAUSS, PolyQ.make([3, 1]))
        v = is_square_in_number_field(c)
        assert v.witness == NonsquareWitness(7, polyfp_from_polyq(GAUSS, 7))
        assert calls == [(n, "_good_primes") for n in range(3, 8)] + \
            [(7, "verify_nonsquare_certificate")]

    def test_forged_norm_witness_rejected(self):
        # (2 / 7) = +1, so x^3 - 2 mod 7 certifies nothing about 2^(1/3)
        c = NumberFieldElem.make(CBRT2, PolyQ.x())
        assert not verify_nonsquare_certificate(c, NonsquareWitness(7, PolyFp.make(7, [5, 0, 0, 1])))

    def test_factoring_search_without_norm_primes(self, monkeypatch):
        monkeypatch.setattr(local_symbols, "NORM_PRIMES", 0)
        calls = _count_factorizations(monkeypatch)
        c = NumberFieldElem.make(CBRT2, PolyQ.x())
        v = is_square_in_number_field(c)
        assert not v.is_square and v.verified and calls
        assert verify_nonsquare_certificate(c, v.witness)

    def test_nonsquares_with_square_norm(self):
        # N(3) = 9 in Q(i); N(11) = 11^16 in the Swinnerton-Dyer field
        for pi, t in [(GAUSS, 3), (SWINNERTON_DYER, 11)]:
            c = NumberFieldElem.make(pi, PolyQ.const(t))
            v = is_square_in_number_field(c)
            assert not v.is_square and v.verified
            assert verify_nonsquare_certificate(c, v.witness)

    def test_lift_reduces_once_per_exponent(self, monkeypatch):
        # 11 in the Swinnerton-Dyer field lifts through six exponents, and
        # all 128 sign patterns read their roots off that one lift; pi and the
        # value are reduced once per exponent
        calls = []
        reduce = local_symbols.coeffs_mod

        def counted(f, m):
            calls.append(m)
            return reduce(f, m)

        monkeypatch.setattr(local_symbols, "coeffs_mod", counted)
        c = NumberFieldElem.make(SWINNERTON_DYER, PolyQ.const(11))
        v = is_square_in_number_field(c)
        assert not v.is_square and v.verified
        assert len(calls) == 12 and len(set(calls)) == 6, calls

    def test_lift_inverts_once_per_factor(self, monkeypatch):
        # 11 in the Swinnerton-Dyer field: pi has 8 factors mod the lifting
        # prime, so 8 idempotents and 8 inverses of the roots s mod h; the
        # Newton steps and the 128 sign patterns invert nothing
        calls = []
        inverse = local_symbols.poly_inverse

        def counted(a, mod):
            calls.append(mod.degree)
            return inverse(a, mod)

        monkeypatch.setattr(local_symbols, "poly_inverse", counted)
        c = NumberFieldElem.make(SWINNERTON_DYER, PolyQ.const(11))
        v = is_square_in_number_field(c)
        assert not v.is_square and v.verified
        assert len(calls) == 16 and max(calls) < SWINNERTON_DYER.degree, calls

    def test_lift_products_linear_in_factors(self, monkeypatch):
        # 11 in the Swinnerton-Dyer field: 8 factors mod the lifting prime.
        # One lift of 1/sqrt(c) and 7 idempotents costs 17 products per
        # exponent and 8 per reading of all 128 sign patterns: linear in k
        calls = []
        mul = exact_arith.ZxRing.mul

        def counted(ring, a, b):
            if not integers.is_prime(ring.m):
                calls.append(ring.m)
            return mul(ring, a, b)

        monkeypatch.setattr(exact_arith.ZxRing, "mul", counted)
        v = is_square_in_number_field(NumberFieldElem.make(SWINNERTON_DYER, PolyQ.const(11)))
        assert not v.is_square and v.verified
        assert 0 < len(calls) <= 200, len(calls)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_sign_patterns_in_doubling_order(self, monkeypatch, k):
        # the candidates of `_LiftState.roots`, read off one running vector,
        # are those of the doubling construction, mask by mask: bit j of the
        # mask subtracts the flip 2 r E_j
        rng, p = random.Random(k), 10007
        f = [rng.randrange(p) for _ in range(6)] + [1]
        cm = [rng.randrange(p) for _ in range(6)]
        y = PolyFp.make(p, [rng.randrange(p) for _ in range(6)])
        idems = [PolyFp.make(p, [rng.randrange(p) for _ in range(rng.randint(1, 6))])
                 for _ in range(k - 1)]
        ring = exact_arith.ZxRing(f, p)
        seen = []
        monkeypatch.setattr(local_symbols, "rational_reconstruct",
                            lambda r, m: seen.append(list(r)) or None)
        state = local_symbols._LiftState(y, idems, lambda e: (ring, cm))
        assert list(state.roots(1)) == []
        cands = [ring.mul(cm, list(y.coeffs))]
        for e in idems:
            flip = ring.mul([2 * a for a in cands[0]], list(e.coeffs))
            cands += [[u - v for u, v in zip_longest(r, flip, fillvalue=0)] for r in cands]

        def trimmed(r):
            while r and not r[-1]:
                r = r[:-1]
            return r

        assert len(seen) == len(cands) == 2 ** (k - 1)
        assert [trimmed(r) for r in seen] == [trimmed(r) for r in cands]

    @pytest.mark.parametrize("budget", [20, 8, 1])
    def test_lift_stops_at_the_budget(self, monkeypatch, budgets, budget):
        # a square whose root has a 41-digit coefficient: the lift climbs to
        # p^budget exactly, never to the next power of two above it, and
        # the witness search still runs out at a budget of 1
        calls = []
        reduce = local_symbols.coeffs_mod

        def counted(f, m):
            calls.append(m)
            return reduce(f, m)

        monkeypatch.setattr(local_symbols, "coeffs_mod", counted)
        budgets(lift_exponent=budget, witness_prime=50)
        r = PolyQ.make([10**40 + 7, 3])
        with pytest.raises(BudgetError):
            is_square_in_number_field(NumberFieldElem.make(GAUSS, (r * r) % GAUSS))
        p = next(q for q in range(3, 50, 2) if min(calls) % q == 0)
        assert max(calls) == p**budget, calls

    def test_squares_in_swinnerton_dyer_field(self):
        r = PolyQ.make([1, 1, 0, 1])
        for t in [(r * r) % SWINNERTON_DYER, PolyQ.const(3)]:
            c = NumberFieldElem.make(SWINNERTON_DYER, t)
            v = is_square_in_number_field(c)
            assert v.is_square and verify_square_certificate(c, v.root)

    def test_square_lifts_after_four_factorizations(self, monkeypatch):
        # (5 + 3i)^2 = 16 + 30i: the lift at an inert prime succeeds at once
        calls = _count_factorizations(monkeypatch)
        c = NumberFieldElem.make(GAUSS, PolyQ.make([16, 30]))
        v = is_square_in_number_field(c)
        assert v.is_square and verify_square_certificate(c, v.root)
        assert len(calls) <= 4, calls

    def test_no_polynomial_factored_twice(self, monkeypatch):
        calls = _count_factorizations(monkeypatch)
        r = PolyQ.make([1, 1, 0, 1])
        for pi, t in [(GAUSS, PolyQ.make([16, 30])), (GAUSS, PolyQ.const(3)),
                      (CBRT2, (r * r) % CBRT2), (SWINNERTON_DYER, PolyQ.const(3))]:
            calls.clear()
            irreducible_factors_fp.cache_clear()
            is_square_in_number_field(NumberFieldElem.make(pi, t))
            assert calls and len(set(calls)) == len(calls), calls

    def test_rational_square_constant(self):
        c = NumberFieldElem.make(CBRT2, PolyQ.const(Fraction(9, 16)))
        v = is_square_in_number_field(c)
        assert v.is_square and v.root == PolyQ.const(Fraction(3, 4))

    def test_degree_one_modulus(self):
        pi = PolyQ.make([-3, 1])  # residue field Q
        assert is_square_in_number_field(
            NumberFieldElem.make(pi, PolyQ.const(Fraction(4, 9)))).is_square
        assert not is_square_in_number_field(
            NumberFieldElem.make(pi, PolyQ.const(2))).is_square

    def test_random_squares_recognized(self):
        rng = random.Random(12)
        count = 0
        while count < 25:
            pi = PolyQ.make([rng.randint(-6, 6)
                             for _ in range(rng.randint(2, 4))] + [1])
            if not sympy.Poly([int(c) for c in reversed(pi.coeffs)],
                              sympy.Symbol("x")).is_irreducible:
                continue
            r = PolyQ.make([rng.randint(-9, 9) for _ in range(pi.degree)])
            if r.is_zero():
                continue
            c = NumberFieldElem.make(pi, (r * r) % pi)
            v = is_square_in_number_field(c)
            assert v.is_square, (pi, r)
            assert (v.root * v.root) % pi == c.value
            count += 1

    def test_zero_rejected(self):
        c = NumberFieldElem.make(GAUSS, PolyQ.make([]))
        with pytest.raises(DomainError):
            is_square_in_number_field(c)

    def test_small_budget_raises_budget_error(self, budgets):
        # a square whose root has a 41-digit coefficient: precision p^16
        # cannot reconstruct it, and no witness prime can exist for a square
        budgets(lift_exponent=16, witness_prime=50)
        r = PolyQ.make([10**40 + 7, 3])
        with pytest.raises(BudgetError):
            is_square_in_number_field(NumberFieldElem.make(GAUSS, (r * r) % GAUSS))

    def test_budgets_are_per_context(self, budgets):
        # the square above under the narrowed budgets of this test's context,
        # and in a thread, which starts from the defaults
        budgets(lift_exponent=16, witness_prime=50)
        r = PolyQ.make([10**40 + 7, 3])
        c = NumberFieldElem.make(GAUSS, (r * r) % GAUSS)
        verdicts = []
        thread = threading.Thread(target=lambda: verdicts.append(is_square_in_number_field(c)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and verdicts[0].is_square
        with pytest.raises(BudgetError, match="lift_exponent = 16 and witness_prime = 50"):
            is_square_in_number_field(c)


def _count_factorizations(monkeypatch) -> list[tuple[int, tuple[int, ...]]]:
    """Record (p, coefficients) of every polynomial the square test factors:
    the misses of the F_p[x] split memo."""
    calls = []
    factor = exact_arith.factor_poly_fp

    def counted(f):
        calls.append((f.p, f.coeffs))
        return factor(f)

    monkeypatch.setattr(exact_arith, "factor_poly_fp", counted)
    return calls


# A nonsquare certificate that fails its own check must stop the run, also
# under `python -O`, which strips `assert` statements.
REJECTED_CERTIFICATE_SCRIPT = """
import sys
from quatbrauer import exact_arith, local_symbols
from quatbrauer.cli import main
from quatbrauer.errors import DomainError, InternalError
from quatbrauer.exact_arith import PolyFp, PolyQ

assert False, "assert statements must be stripped"
local_symbols.verify_nonsquare_certificate = lambda c, w: False
# 3 in Q(i) is certified by the factoring search, x in Q(2^(1/3)) by its norm
for pi, t in [([1, 0, 1], [3]), ([-2, 0, 0, 1], [0, 1])]:
    c = local_symbols.NumberFieldElem.make(PolyQ.make(pi), PolyQ.make(t))
    try:
        verdict = local_symbols.is_square_in_number_field(c)
    except InternalError:
        print("InternalError")
    else:
        print("verdict", verdict)
# an F_p[x] factorization that does not multiply back to its input
edf = exact_arith._edf
exact_arith._edf = lambda g, *args: [g + PolyFp.const(g.p, 1)]
try:
    print("factors", exact_arith.factor_poly_fp(PolyFp.make(5, [1, 0, 1])))
except InternalError:
    print("InternalError")
exact_arith._edf = edf
# a Q[x] factorization that does not multiply back to its input
from quatbrauer import zassenhaus
recombine = zassenhaus._recombine
zassenhaus._recombine = lambda *args: [[2, 0, 1], [1, 0, 1]]
try:
    print("factors", exact_arith.factor_poly_q(PolyQ.make([1, 0, 0, 0, 1])))
except InternalError:
    print("InternalError")
zassenhaus._recombine = recombine
# a product across two number fields is refused with or without assert statements
gauss = local_symbols.NumberFieldElem.make(PolyQ.make([1, 0, 1]), PolyQ.make([1, 1]))
sqrt2 = local_symbols.NumberFieldElem.make(PolyQ.make([-2, 0, 1]), PolyQ.make([1, 1]))
try:
    print("accepted", gauss * sqrt2)
except DomainError:
    print("DomainError")
print("exit", main(["qx", "residues", "-f", "x^3-2", "-g", "x"]))
# a residue comparison whose odd tame bases, 3 * 5, need a certificate
print("exit", main(["qx", "isom", "-f1", "x^2+1", "-g1", "3", "-f2", "x^2+1", "-g2", "5"]))
sys.exit(main(["qx", "residues", "-f", "x^2+1", "-g", "3"]))
"""


def test_rejected_certificate_raises_internal_error(monkeypatch):
    monkeypatch.setattr(local_symbols, "verify_nonsquare_certificate", lambda c, w: False)
    c = NumberFieldElem.make(PolyQ.make([1, 0, 1]), PolyQ.const(3))
    with pytest.raises(InternalError):
        is_square_in_number_field(c)


def test_rejected_certificate_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-O", "-c", REJECTED_CERTIFICATE_SCRIPT],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.stdout.splitlines()[:7] == \
        ["InternalError"] * 4 + ["DomainError"] + ["exit 4"] * 2, \
        out.stdout + out.stderr
    assert out.returncode == 4, out.stdout + out.stderr
    assert "internal error" in out.stderr
