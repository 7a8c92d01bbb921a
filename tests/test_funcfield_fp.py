"""Tests for quaternion classes over F_p(x)."""

import random

import pytest

from quatbrauer.errors import DomainError
from quatbrauer.exact_arith import PolyFp, polyfp_from_string
from quatbrauer.funcfield import FactoredFunc, Place
from quatbrauer.funcfield_fp import class_fp, is_isomorphic_fpx, residue_fp


def ffp(p, s):
    if isinstance(s, int):
        return FactoredFunc.from_constant(s, p)
    return FactoredFunc.from_poly(polyfp_from_string(s, p))


class TestFactoredFuncFp:
    def test_roundtrip(self):
        rng = random.Random(41)
        for _ in range(30):
            p = rng.choice([3, 5, 7, 11])
            f = PolyFp.make(p, [rng.randrange(p)
                                for _ in range(rng.randint(1, 7))] + [1])
            fz = FactoredFunc.from_poly(f, rng)
            prod = PolyFp.const(p, fz.constant)
            for h, m in fz.factors:
                for _ in range(m):
                    prod = prod * h
            assert prod == f

    def test_valuation_at_infinity(self):
        f = ffp(5, "x^3 + x")
        assert f.valuation(Place(None)) == -3
        assert ffp(5, 2).valuation(Place(None)) == 0

    def test_char_checks(self):
        for p in (2, 4, 9, 2**31 + 11):
            with pytest.raises(DomainError):
                FactoredFunc.from_constant(1, p)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            FactoredFunc.from_constant(0, 5)
        with pytest.raises(DomainError):
            FactoredFunc.from_poly(PolyFp.make(5, []))


class TestResidues:
    def test_x_and_nonresidue_constant(self):
        p = 5
        f, g = ffp(p, "x"), ffp(p, 2)  # 2 is a nonresidue mod 5
        at_x = Place(PolyFp.x(p))
        assert residue_fp(f, g, at_x) == -1
        assert residue_fp(f, g, Place(None)) == -1

    def test_x_and_residue_constant(self):
        p = 5
        f, g = ffp(p, "x"), ffp(p, 4)  # 4 = 2^2
        assert residue_fp(f, g, Place(PolyFp.x(p))) == 1
        assert residue_fp(f, g, Place(None)) == 1

    def test_unramified_away_from_support(self):
        p = 7
        f, g = ffp(p, "x"), ffp(p, "x + 1")
        v = Place(PolyFp.make(p, [3, 1]))
        assert residue_fp(f, g, v) == 1

    def test_quadratic_place(self):
        p = 3
        h = PolyFp.make(p, [1, 0, 1])  # irreducible over F_3
        f, g = ffp(p, "x^2 + 1"), ffp(p, "x")
        r = residue_fp(f, g, Place(h))
        # the residue at h | f is the square class of g^{-v(f)} = x^{-1}
        # in F_9; recompute the squares of F_9 exhaustively
        squares = set()
        for a in range(3):
            for b in range(3):
                e = PolyFp.make(3, [a, b])
                squares.add(((e * e) % h).coeffs)
        want = 1 if PolyFp.x(3).coeffs in squares else -1
        assert r == want

    def test_infinity_reciprocity_explicit(self):
        rng = random.Random(43)
        for _ in range(60):
            p = rng.choice([3, 5, 7, 11])
            f = FactoredFunc.from_poly(
                PolyFp.make(p, [rng.randrange(p)
                                for _ in range(rng.randint(1, 6))] + [1]), rng)
            g = FactoredFunc.from_poly(
                PolyFp.make(p, [rng.randrange(p)
                                for _ in range(rng.randint(1, 6))] + [1]), rng)
            mods = {q for q, _ in f.factors} | {q for q, _ in g.factors}
            prod = 1
            for m in mods:
                prod *= residue_fp(f, g, Place(m))
            assert residue_fp(f, g, Place(None)) == prod


class TestClassFp:
    def test_x_and_two_over_f5(self):
        cls = class_fp(ffp(5, "x"), ffp(5, 2))
        assert [str(v) for v in cls.residues] == ["x", "inf"]
        assert not cls.is_zero()

    def test_constant_pair_split(self):
        assert class_fp(ffp(5, 2), ffp(5, 3)).is_zero()

    def test_even_support(self):
        rng = random.Random(47)
        for _ in range(40):
            p = rng.choice([3, 5, 7])
            f = FactoredFunc.from_poly(
                PolyFp.make(p, [rng.randrange(p)
                                for _ in range(rng.randint(1, 5))] + [1]), rng)
            g = FactoredFunc.from_poly(
                PolyFp.make(p, [rng.randrange(p)
                                for _ in range(rng.randint(1, 5))] + [1]), rng)
            assert len(class_fp(f, g).residues) % 2 == 0

    def test_json(self):
        data = class_fp(ffp(5, "x"), ffp(5, 2)).to_json()
        assert data == {"char": 5, "ramified": ["x", "inf"]}


class TestIsomorphismFp:
    def test_square_twist(self):
        v = is_isomorphic_fpx((ffp(5, "x"), ffp(5, 2)),
                              (ffp(5, "x"), ffp(5, 8)))
        assert v.isomorphic

    def test_witness(self):
        v = is_isomorphic_fpx((ffp(5, "x"), ffp(5, 2)),
                              (ffp(5, "x"), ffp(5, 4)))
        assert not v.isomorphic
        assert v.witness_place is not None

    def test_char_mismatch(self):
        with pytest.raises(DomainError):
            is_isomorphic_fpx((ffp(5, "x"), ffp(5, 2)),
                              (ffp(7, "x"), ffp(7, 2)))

    def test_square_multiplier_invariance(self):
        rng = random.Random(53)
        for _ in range(20):
            p = rng.choice([3, 5, 7])
            f = FactoredFunc.from_poly(
                PolyFp.make(p, [rng.randrange(p)
                                for _ in range(rng.randint(1, 4))] + [1]), rng)
            g = FactoredFunc.from_poly(
                PolyFp.make(p, [rng.randrange(p)
                                for _ in range(rng.randint(1, 4))] + [1]), rng)
            h = PolyFp.make(p, [rng.randrange(p)
                                for _ in range(rng.randint(1, 3))] + [1])
            g2 = g * FactoredFunc.from_poly(h * h, rng)
            assert is_isomorphic_fpx((f, g), (f, g2)).isomorphic
