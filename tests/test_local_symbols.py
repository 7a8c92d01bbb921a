"""Tests for Legendre/Hilbert symbols and the number-field square tester."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import hilbert_oracle
from quatbrauer import local_symbols
from quatbrauer.errors import BudgetError, DomainError, InternalError
from quatbrauer.exact_arith import PolyFp, PolyQ, factor_rational, is_irreducible_q
from quatbrauer.local_symbols import (
    REAL,
    NonsquareWitness,
    NumberFieldElem,
    PlaceQ,
    hilbert,
    is_square_in_number_field,
    legendre,
    square_class_q,
    verify_nonsquare_certificate,
    verify_square_certificate,
)


def support_places(a, b):
    primes = {2}
    primes.update(factor_rational(Fraction(a)).primes())
    primes.update(factor_rational(Fraction(b)).primes())
    return [REAL] + [PlaceQ(p) for p in sorted(primes)]


class TestLegendre:
    def test_known_values(self):
        assert legendre(2, 7) == 1
        assert legendre(3, 7) == -1
        assert legendre(14, 7) == 0

    def test_euler_consistency(self):
        for p in [3, 5, 7, 11, 13]:
            residues = {x * x % p for x in range(1, p)}
            for a in range(1, p):
                assert legendre(a, p) == (1 if a in residues else -1)

    def test_multiplicativity(self):
        rng = random.Random(2)
        for _ in range(50):
            p = rng.choice([3, 5, 7, 11, 13, 17])
            a, b = rng.randint(1, 100), rng.randint(1, 100)
            if a % p and b % p:
                assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)

    def test_even_modulus_rejected(self):
        with pytest.raises(DomainError):
            legendre(3, 2)


class TestPlaceQ:
    def test_parse(self):
        assert PlaceQ.parse("real") == REAL
        assert PlaceQ.parse("17") == PlaceQ(17)
        with pytest.raises(DomainError):
            PlaceQ.parse("15")

    def test_sorting(self):
        places = [REAL, PlaceQ(5), PlaceQ(2)]
        assert sorted(places, key=PlaceQ.sort_key) == [PlaceQ(2), PlaceQ(5), REAL]


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


def test_square_class_q():
    assert square_class_q(18) == 2
    assert square_class_q(-4) == -1
    assert square_class_q(Fraction(8, 9)) == 2
    assert square_class_q(1) == 1
    with pytest.raises(DomainError):
        square_class_q(0)


GAUSS = PolyQ.make([1, 0, 1])        # x^2 + 1
SQRT2 = PolyQ.make([-2, 0, 1])       # x^2 - 2
CBRT2 = PolyQ.make([-2, 0, 0, 1])    # x^3 - 2


class TestNumberFieldElem:
    def test_reduction(self):
        e = NumberFieldElem.make(GAUSS, PolyQ.make([0, 0, 1]))  # x^2 = -1
        assert e.value == PolyQ.const(-1)

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
            if not is_irreducible_q(pi):
                continue
            r = PolyQ.make([rng.randint(-9, 9) for _ in range(pi.degree)])
            if r.is_zero():
                continue
            c = NumberFieldElem.make(pi, (r * r) % pi)
            v = is_square_in_number_field(c, rng=rng)
            assert v.is_square, (pi, r)
            assert (v.root * v.root) % pi == c.value
            count += 1

    def test_zero_rejected(self):
        c = NumberFieldElem.make(GAUSS, PolyQ.make([]))
        with pytest.raises(DomainError):
            is_square_in_number_field(c)

    def test_small_budget_raises_budget_error(self, monkeypatch):
        # a square whose root has a 41-digit coefficient: precision p^16
        # cannot reconstruct it, and no witness prime can exist for a square
        monkeypatch.setattr(local_symbols, "MAX_LIFT_EXPONENT", 16)
        monkeypatch.setattr(local_symbols, "WITNESS_PRIME_LIMIT", 50)
        r = PolyQ.make([10**40 + 7, 3])
        with pytest.raises(BudgetError):
            is_square_in_number_field(NumberFieldElem.make(GAUSS, (r * r) % GAUSS))


# A nonsquare certificate that fails its own check must stop the run, also
# under `python -O`, which strips `assert` statements.
REJECTED_CERTIFICATE_SCRIPT = """
import sys
from quatbrauer import local_symbols
from quatbrauer.cli import main
from quatbrauer.errors import InternalError
from quatbrauer.exact_arith import PolyQ

assert False, "assert statements must be stripped"
local_symbols.verify_nonsquare_certificate = lambda c, w: False
c = local_symbols.NumberFieldElem.make(PolyQ.make([1, 0, 1]), PolyQ.const(3))
try:
    verdict = local_symbols.is_square_in_number_field(c)
except InternalError:
    print("InternalError")
else:
    print("verdict", verdict)
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
    assert out.stdout.splitlines()[0] == "InternalError", out.stdout + out.stderr
    assert out.returncode == 4, out.stdout + out.stderr
    assert "internal error" in out.stderr
