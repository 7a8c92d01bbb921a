"""Tests for quaternion classes over F_p(x)."""

import random
from math import prod

import pytest

from quatbrauer.errors import DomainError
from quatbrauer.exact_arith import PolyFp, factor_poly_fp, polyfp_from_string, polyfp_pow_mod
from quatbrauer.funcfield import FactoredFunc, Place, places
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
            fz = FactoredFunc.from_poly(f)
            assert fz.constant == PolyFp.const(p, 1)  # f is monic
            prod = fz.constant
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
                                for _ in range(rng.randint(1, 6))] + [1]))
            g = FactoredFunc.from_poly(
                PolyFp.make(p, [rng.randrange(p)
                                for _ in range(rng.randint(1, 6))] + [1]))
            prod = 1
            for v in places(f, g):
                prod *= residue_fp(f, g, v)
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
                                for _ in range(rng.randint(1, 5))] + [1]))
            g = FactoredFunc.from_poly(
                PolyFp.make(p, [rng.randrange(p)
                                for _ in range(rng.randint(1, 5))] + [1]))
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
                                for _ in range(rng.randint(1, 4))] + [1]))
            g = FactoredFunc.from_poly(
                PolyFp.make(p, [rng.randrange(p)
                                for _ in range(rng.randint(1, 4))] + [1]))
            h = PolyFp.make(p, [rng.randrange(p)
                                for _ in range(rng.randint(1, 3))] + [1])
            g2 = g * FactoredFunc.from_poly(h * h)
            assert is_isomorphic_fpx((f, g), (f, g2)).isomorphic


# -- differential test against a per-place reference ---------------------------

def _euler_char(t: PolyFp, pi: PolyFp) -> int:
    """Quadratic character of a unit t of F_p[x]/(pi) by Euler's criterion."""
    r = polyfp_pow_mod(t, (pi.p ** pi.degree - 1) // 2, pi)
    assert r.coeffs in ((1,), (pi.p - 1,)), (t, pi)
    return 1 if r.coeffs == (1,) else -1


def _reference_support(f: PolyFp, g: PolyFp) -> list[Place]:
    """The places where the tame residue of (f, g) is -1, from entries fully
    factored by `factor_poly_fp`: every place is visited on its own, with no
    common basis and no shared tame bases."""
    p = f.p
    (cf, ff), (cg, fg) = factor_poly_fp(f), factor_poly_fp(g)
    vf, vg = dict(ff), dict(fg)

    def char(terms, pi):
        return prod(_euler_char(t, pi) for t, e in terms if e % 2)

    def consts(a, b):
        return [(PolyFp.const(p, -1), a * b), (PolyFp.const(p, cf), b),
                (PolyFp.const(p, cg), -a)]

    support = []
    for pi in set(vf) | set(vg):
        a, b = vf.get(pi, 0), vg.get(pi, 0)
        terms = consts(a, b) + [(q, m * b) for q, m in ff if q != pi] \
            + [(q, -m * a) for q, m in fg if q != pi]
        if char(terms, pi) == -1:
            support.append(Place(pi))
    if char(consts(-f.degree, -g.degree), PolyFp.x(p)) == -1:
        support.append(Place(None))
    return sorted(support, key=Place.sort_key)


def _reference_verdict(s1: list[Place], s2: list[Place]) -> dict:
    if s1 == s2:
        return {"isomorphic": True}
    diff = sorted(set(s1) ^ set(s2), key=Place.sort_key)
    return {"isomorphic": False, "witness_place": str(diff[0])}


def _rand(rng, p, lo, hi, monic=False):
    lc = 1 if monic else rng.randrange(1, p)
    return PolyFp.make(p, [rng.randrange(p) for _ in range(rng.randint(lo, hi))] + [lc])


def _nonresidue(p):
    return next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)


def _pair_of_pairs(rng, p, kind):
    """Four entries (f1, g1, f2, g2): the benchmark's four twist kinds, a
    p-th power with zero derivative times a cofactor, or f and g sharing
    places; entries are products of random, often reducible, polynomials."""
    f = _rand(rng, p, 1, 3) * _rand(rng, p, 0, 3, monic=True)
    g = _rand(rng, p, 1, 3) * _rand(rng, p, 0, 2, monic=True)
    if kind == "square_twist":
        h = _rand(rng, p, 1, 2, monic=True)
        return f, g, f, g * h * h
    if kind == "swap":
        return f, g, g, f
    if kind == "norm_twist":
        return f, g, f, PolyFp.const(p, -1) * f * g
    if kind == "nonresidue_twist":
        return f, g, f, PolyFp.const(p, _nonresidue(p)) * g
    if kind == "pth_power":
        u = _rand(rng, p, 1, 24 // p, monic=True)
        up = PolyFp.make(p, [u.coeffs[i // p] if i % p == 0 else 0
                             for i in range(p * u.degree + 1)])  # u(x^p) = u^p
        return up * f, g, up, g * u
    a = _rand(rng, p, 1, 2, monic=True)  # shared: a place of both f and g
    return a * f, a * a * g, a * g, f


FP_DIFF_CHARS = (3, 5, 7, 11, 10007, 2**31 - 1)
FP_DIFF_KINDS = ("square_twist", "swap", "norm_twist", "nonresidue_twist", "shared",
                 "pth_power")


class TestAgainstPerPlaceReference:
    @pytest.mark.parametrize("p", FP_DIFF_CHARS)
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_classes_and_verdicts_match(self, p, seed):
        rng = random.Random(1000 * seed + p)
        kinds = FP_DIFF_KINDS if p <= 11 else FP_DIFF_KINDS[:-1]  # p-th powers of small p
        for i in range(15):
            polys = _pair_of_pairs(rng, p, kinds[i % len(kinds)])
            f1, g1, f2, g2 = (FactoredFunc.from_poly(e) for e in polys)
            s1, s2 = _reference_support(*polys[:2]), _reference_support(*polys[2:])
            for (f, g), s in (((f1, g1), s1), ((f2, g2), s2)):
                assert class_fp(f, g).to_json() == \
                    {"char": p, "ramified": [str(v) for v in s]}, polys
            assert is_isomorphic_fpx((f1, g1), (f2, g2)).to_json() == \
                _reference_verdict(s1, s2), polys

    @pytest.mark.parametrize("p", [3, 7, 2**31 - 1])
    def test_products_equal_the_expanded_entry(self, p):
        rng = random.Random(p)
        for _ in range(15):
            f, g, h = (_rand(rng, p, 1, 3) for _ in range(3))
            parts = [FactoredFunc.from_poly(e) for e in (f, g, h, h)]
            assert prod(parts[1:], start=parts[0]) == FactoredFunc.from_poly(f * g * h * h)
