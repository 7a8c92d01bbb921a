"""Tests of the function-field core shared by F_p(x) and Q(x).

The tame symbol is checked against an independent reduction: expand
(-1)^(v(f)v(g)) f^v(g) g^(-v(f)) to num/den, cancel the place's modulus,
reduce both mod the modulus and divide (over Q with sympy; over F_p by the
Euler power of the residue-field element).
"""

import importlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatbrauer import exact_arith, funcfield, funcfield_fp, funcfield_q
from quatbrauer.errors import DomainError
from quatbrauer.exact_arith import (
    PolyFp,
    PolyQ,
    factor_key,
    fq_char,
    irreducible_factors_fp,
    irreducible_factors_q,
    poly_from_string,
    poly_gcd,
    poly_key,
    polyfp_from_string,
    polyfp_pow_mod,
    squarefree_parts,
)
from quatbrauer.funcfield import (
    MAX_DEGREE,
    FactoredFunc,
    Place,
    common_basis,
    odd_tame_bases,
    places,
    residue_support,
    tame_terms,
)
from quatbrauer.funcfield_fp import class_fp, is_isomorphic_fpx, residue_fp
from quatbrauer.funcfield_q import QuaternionFF, is_isomorphic_qx, tame_symbol

X = sympy.Symbol("x")

# monic irreducibles over Q
Q_POOL = [PolyQ.make(c) for c in ([0, 1], [1, 1], [-2, 1], [1, 0, 1], [-2, 0, 1],
                                  [1, 1, 1], [-3, 0, 0, 1])]


def _random_entry_q(rng):
    num = PolyQ.const(Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 7])))
    den = PolyQ.const(1)
    for q in rng.sample(Q_POOL, rng.randint(1, 3)):
        e = rng.choice([-2, -1, 1, 2, 3])
        if e > 0:
            num = num * q**e
        else:
            den = den * q**-e
    return FactoredFunc.from_poly(num) * FactoredFunc.from_poly(den).inverse()


def _rat(c: Fraction) -> sympy.Rational:
    return sympy.Rational(c.numerator, c.denominator)


def _sym(f: PolyQ) -> sympy.Expr:
    return sum((_rat(c) * X**i for i, c in enumerate(f.coeffs)), sympy.Integer(0))


def _sym_entry(F: FactoredFunc) -> sympy.Expr:
    out = _sym(F.constant)
    for q, m in F.factors:
        out *= _sym(q) ** m
    return out


def _expanded_poly_fp(F: FactoredFunc, sign: int) -> tuple[PolyFp, PolyFp]:
    """(num, den) of F ** sign with every factor multiplied out."""
    num = den = PolyFp.const(F.p, 1)
    for q, m in F.factors:
        for _ in range(abs(m)):
            if m * sign > 0:
                num = num * q
            else:
                den = den * q
    c = F.constant
    return (num * c, den) if sign > 0 else (num, den * c)


class TestFactoredFunc:
    def test_mixed_characteristics_rejected(self):
        with pytest.raises(DomainError):
            FactoredFunc.from_constant(2) * FactoredFunc.from_constant(2, 5)

    def test_inverse_over_fp(self):
        f = FactoredFunc.from_poly(PolyFp.make(7, [3, 0, 2]))  # 2x^2 + 3
        g = f * f.inverse()
        assert g.constant == PolyFp.const(7, 1) and g.factors == () and g.p == 7

    def test_rational_constant_over_fp(self):
        f = FactoredFunc.from_constant(Fraction(1, 2), 5)  # 1/2 = 3 mod 5
        assert str(f) == "3" and f == FactoredFunc.from_constant(3, 5)

    def test_value_at_over_fp(self):
        f = FactoredFunc.from_poly(PolyFp.make(7, [1, 1])).inverse()  # 1/(x + 1)
        assert f.value_at(2) == pow(3, -1, 7)

    def test_value_at_a_fraction_over_fp(self):
        # x + 1 at 1/2 = 3 mod 5; 1/(x + 1) there is 4^-1 = 4
        f = FactoredFunc.from_poly(PolyFp.make(5, [1, 1]))
        assert f.value_at(Fraction(1, 2)) == 4 == f.inverse().value_at(Fraction(1, 2))
        with pytest.raises(DomainError, match="denominator"):
            f.value_at(Fraction(3, 5))

    def test_places_sorted_and_merged(self):
        f = FactoredFunc.from_poly(PolyQ.make([1, 0, 1]) * PolyQ.make([0, 1]))
        g = FactoredFunc.from_poly(PolyQ.make([-2, 1]) * PolyQ.make([0, 1]))
        assert [str(v) for v in places(f, g)] == ["x - 2", "x", "x^2 + 1"]

    def test_infinity_prints_and_sorts_last(self):
        v = Place(PolyFp.make(5, [1, 0, 1, 1]))
        assert str(Place(None)) == "inf"
        assert sorted([Place(None), v], key=Place.sort_key) == [v, Place(None)]


# -- sort keys: integer numerators where they serve, the order of Fractions ----

def _fraction_factor_key(fm):
    """`factor_key` as it was, with every PolyQ coefficient a Fraction."""
    f, _ = fm
    return (f.degree, tuple(f.coeffs))


def _fraction_place_key(v):
    """`Place.sort_key` as it was, with every PolyQ coefficient a Fraction."""
    if v.modulus is None:
        return (1, 0, ())
    return (0, v.modulus.degree, v.modulus.coeffs)


# monic, so that x + 1/2, x + 1 and x - 3 (den 2, 1 and 1) share a degree
MONIC_Q = st.builds(lambda cs: PolyQ.make(cs + [1]),
                    st.lists(st.fractions(-3, 3, max_denominator=3), max_size=3))
MONIC_FP = st.builds(lambda cs: PolyFp.make(7, cs + [1]), st.lists(st.integers(0, 6), max_size=3))
EQUAL_DEGREE_Q = [PolyQ.make(c) for c in ([Fraction(1, 2), 1], [1, 1], [-3, 1],
                                          [Fraction(-7, 3), 1], [0, 1])]


class TestSortKeys:
    """The keys compare PolyQ numerators as ints when den = 1 and Fractions
    otherwise; int and Fraction compare by value, so every order stays that
    of the all-Fraction keys (ties too, sorted being stable)."""

    def test_equal_degree_linears(self):
        facs = [(f, 1) for f in EQUAL_DEGREE_Q]
        want = ["x - 3", "x - 7/3", "x", "x + 1/2", "x + 1"]
        assert [str(f) for f, _ in sorted(facs, key=factor_key)] == want
        assert sorted(facs, key=factor_key) == sorted(facs, key=_fraction_factor_key)
        vs = [Place(f) for f in EQUAL_DEGREE_Q] + [Place(None)]
        assert [str(v) for v in sorted(vs, key=Place.sort_key)] == want + ["inf"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(MONIC_Q, st.integers(-2, 2)), max_size=8))
    def test_factor_key_keeps_the_fraction_order_over_q(self, facs):
        assert sorted(facs, key=factor_key) == sorted(facs, key=_fraction_factor_key)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(MONIC_Q, max_size=8) | st.lists(MONIC_FP, max_size=8), st.booleans())
    def test_place_key_keeps_the_fraction_order(self, mods, infinity):
        vs = [Place(f) for f in mods] + [Place(None)] * infinity
        got = sorted(vs, key=Place.sort_key)
        assert got == sorted(vs, key=_fraction_place_key)
        assert not infinity or got[-1] == Place(None)


# -- one ring arithmetic over Q (p = 0) and F_p --------------------------------

CHARS = [0, 3, 5, 7]


def _constants(p: int):
    """Nonzero constants of K = Q or F_p, the latter as any integer prime to p."""
    if p:
        return st.integers(-50, 50).filter(lambda c: c % p)
    return st.fractions(-20, 20, max_denominator=9).filter(bool)


@st.composite
def entries_over(draw, p: int):
    """An element of K(x): a constant times powers of small monic polynomials."""
    out = FactoredFunc.from_constant(draw(_constants(p)), p)
    for cs, m in draw(st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=1, max_size=3),
                                         st.integers(-2, 3).filter(bool)), max_size=3)):
        part = FactoredFunc.from_poly(PolyFp.make(p, cs + [1]) if p else PolyQ.make(cs + [1]))
        for _ in range(abs(m)):
            out = out * (part if m > 0 else part.inverse())
    return out


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CHARS), st.data())
def test_from_constant_is_from_poly_of_the_constant(p, data):
    c = data.draw(_constants(p))
    const = PolyFp.const(p, c) if p else PolyQ.const(c)
    F = FactoredFunc.from_constant(c, p)
    assert F == FactoredFunc.from_poly(const)
    assert F.constant == const and F.factors == () and F.p == p


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CHARS), st.data())
def test_times_inverse_is_one(p, data):
    F = data.draw(entries_over(p))
    assert F * F.inverse() == FactoredFunc.from_constant(1, p)
    assert F.inverse().inverse() == F


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(CHARS), min_size=2, max_size=2, unique=True), st.data())
def test_mixed_characteristics_raise(chars, data):
    F, G = (data.draw(entries_over(p)) for p in chars)
    with pytest.raises(DomainError, match="characteristic mismatch"):
        F * G
    for v in (Place(None), Place(PolyQ.x()), Place(PolyFp.x(max(chars)))):
        with pytest.raises(DomainError, match="characteristic mismatch"):
            tame_terms(F, G, v)


def _pool_exponents(rng, n):
    """n random {pool place: exponent} maps, some places shared."""
    return [{q: rng.choice([-2, -1, 1, 2, 3]) for q in rng.sample(Q_POOL, rng.randint(0, 3))}
            for _ in range(n)]


def _from_exponents(exps, c=1) -> FactoredFunc:
    out = FactoredFunc.from_constant(c)
    for q, e in exps.items():
        part = FactoredFunc.from_poly(q**abs(e))
        out = out * (part if e > 0 else part.inverse())
    return out


def _assert_q_invariant(F: FactoredFunc):
    hs = [h for h, _ in F.factors]
    assert all(h.is_monic() and poly_gcd(h, h.derivative()).degree == 0 for h in hs)
    assert all(poly_gcd(a, b).degree == 0 for i, a in enumerate(hs) for b in hs[i + 1:])
    assert all(m != 0 for _, m in F.factors)
    assert list(F.factors) == sorted(F.factors, key=factor_key)


class TestQInvariant:
    def test_products_stay_squarefree_and_coprime(self):
        rng = random.Random(71)
        for _ in range(40):
            (e1, e2), c = _pool_exponents(rng, 2), Fraction(rng.choice([-3, 1, 2]), 5)
            F = _from_exponents(e1, c) * _from_exponents(e2)
            _assert_q_invariant(F)
            assert F.constant == PolyQ.const(c)
            for q in Q_POOL:
                assert F.valuation(Place(q)) == e1.get(q, 0) + e2.get(q, 0)

    def test_from_poly_splits_only_squarefree_parts(self):
        x, x1, x2 = PolyQ.x(), PolyQ.make([1, 1]), PolyQ.make([1, 0, 1])
        F = FactoredFunc.from_poly(PolyQ.const(-2) * x * x1**2 * x2 * x2)
        assert F.constant == PolyQ.const(-2) and F.factors == ((x, 1), (x1 * x2, 2))

    def test_equal_functions_have_equal_forms(self):
        # however a function is built, products and inverses keep one factor
        # per exponent, and str prints its irreducible factors
        x, x1, x2 = PolyQ.x(), PolyQ.make([1, 1]), PolyQ.make([1, 0, 1])
        built = [FactoredFunc.from_poly(x * x1 * x2**2),
                 FactoredFunc.from_poly(x) * FactoredFunc.from_poly(x1 * x2**2),
                 FactoredFunc.from_poly(x * x2) * FactoredFunc.from_poly(x1 * x2),
                 FactoredFunc.from_poly(x * x2**3) * FactoredFunc.from_poly(x2).inverse()
                 * FactoredFunc.from_poly(x1)]
        assert all(F == built[0] for F in built)
        assert built[0].factors == ((x * x1, 1), (x2, 2))
        assert {str(F) for F in built} == {"1 * (x) * (x + 1) * (x^2 + 1)^2"}
        assert str(FactoredFunc.from_poly(x * x - PolyQ.const(1))) == "1 * (x - 1) * (x + 1)"

    def test_common_basis_rewrites_each_entry(self):
        rng = random.Random(73)
        for _ in range(30):
            exps = _pool_exponents(rng, 4)
            entries = [_from_exponents(e, i + 1) for i, e in enumerate(exps)]
            basis, rewritten = common_basis(*entries)
            _assert_q_invariant(FactoredFunc(1, tuple(sorted(((v.modulus, 1) for v in basis),
                                                             key=factor_key))))
            for e, r, ex in zip(entries, rewritten, exps):
                _assert_q_invariant(r)
                assert r.constant == e.constant
                assert {h for h, _ in r.factors} <= {v.modulus for v in basis}
                for q in Q_POOL:
                    assert r.valuation(Place(q)) == ex.get(q, 0)

    def test_split_at_an_irreducible_place(self):
        x, x1, x2 = PolyQ.x(), PolyQ.make([1, 1]), PolyQ.make([1, 0, 1])
        F = FactoredFunc.from_poly(x * x1 * x2) * FactoredFunc.from_poly(x * x1 * x2)
        G, m = F.split_at(Place(x1))
        assert m == 2 and G.factors == ((x1, 2), (x * x2, 2))
        assert F.split_at(Place(PolyQ.make([-1, 1]))) == (F, 0)
        assert F.split_at(Place(None)) == (F, -8)


class TestDegreeCap:
    def test_cap_accepted(self):
        f = FactoredFunc.from_poly(PolyFp.make(1000003, [3] + [0] * (MAX_DEGREE - 1) + [1]))
        assert sum(q.degree * m for q, m in f.factors) == MAX_DEGREE

    def test_above_cap_refused(self):
        with pytest.raises(DomainError, match="exceeds"):
            FactoredFunc.from_poly(PolyFp.make(1000003, [3] + [0] * MAX_DEGREE + [1]))

    def test_q_cap_accepted(self):
        f = FactoredFunc.from_poly(PolyQ.make([1, 0, 1]) ** (MAX_DEGREE // 2))
        assert sum(q.degree * m for q, m in f.factors) == MAX_DEGREE

    def test_q_above_cap_refused(self):
        with pytest.raises(DomainError, match="exceeds"):
            FactoredFunc.from_poly(PolyQ.make([3] + [0] * MAX_DEGREE + [1]))


class TestTameSymbolOracle:
    def test_q_tame_symbol_matches_sympy_reduction(self):
        rng = random.Random(61)
        checked = 0
        for _ in range(25):
            f, g = _random_entry_q(rng), _random_entry_q(rng)
            for v in places(f, g):
                vf, vg = f.valuation(v), g.valuation(v)
                t = tame_symbol(QuaternionFF(f, g), v)
                expr = sympy.Integer(-1) ** (vf * vg) * _sym_entry(f) ** vg * _sym_entry(g) ** (-vf)
                num, den = sympy.fraction(sympy.cancel(expr))
                pi = _sym(v.modulus)
                rn, rd = sympy.rem(num, pi, X), sympy.rem(den, pi, X)
                want = sympy.rem(rn * sympy.invert(rd, pi, X), pi, X)
                assert sympy.expand(_sym(t.value) - want) == 0, (f, g, v)
                checked += 1
        assert checked > 50

    def test_fp_residue_matches_euler_power(self):
        rng = random.Random(67)
        checked = 0
        for _ in range(40):
            p = rng.choice([3, 5, 7, 11, 13])

            def entry():
                num = PolyFp.make(p, [rng.randrange(p) for _ in range(rng.randint(1, 5))] + [1])
                den = PolyFp.make(p, [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1])
                c = FactoredFunc.from_constant(rng.randrange(1, p), p)
                return c * FactoredFunc.from_poly(num) * FactoredFunc.from_poly(den).inverse()

            f, g = entry(), entry()
            for v in places(f, g):
                h = v.modulus
                vf, vg = f.valuation(v), g.valuation(v)
                fn, fd = _expanded_poly_fp(f, 1 if vg >= 0 else -1)
                gn, gd = _expanded_poly_fp(g, 1 if vf <= 0 else -1)
                num = PolyFp.const(p, -1 if vf * vg % 2 else 1)
                den = PolyFp.const(p, 1)
                for _ in range(abs(vg)):
                    num, den = num * fn, den * fd
                for _ in range(abs(vf)):
                    num, den = num * gn, den * gd
                # cancel h: num/den has valuation zero at h
                while (num % h).is_zero() and (den % h).is_zero():
                    num, den = num.divmod(h)[0], den.divmod(h)[0]
                assert not (num % h).is_zero() and not (den % h).is_zero()
                # the character is multiplicative, so num/den and num*den agree
                power = polyfp_pow_mod(num * den % h, (p**h.degree - 1) // 2, h)
                want = 1 if power == PolyFp.const(p, 1) else -1
                assert power in (PolyFp.const(p, 1), PolyFp.const(p, -1))
                assert residue_fp(f, g, v) == want, (f, g, v)
                checked += 1
        assert checked > 80


class TestOddTameBases:
    def test_equal_constants_and_minus_ones_cancel(self):
        # -1 enters as the sign term and as either constant: one base at x
        v = Place(PolyQ.x())
        minus_one = FactoredFunc.from_constant(-1)
        x = FactoredFunc.from_poly(PolyQ.x())
        assert odd_tame_bases(v, (minus_one, minus_one)) == []
        terms = tame_terms(minus_one, minus_one * x, v)
        assert [e for b, e in terms if b == PolyQ.const(-1)] == [0, 1, 0]
        assert odd_tame_bases(v, (minus_one, minus_one * x)) == [PolyQ.const(-1)]
        assert odd_tame_bases(v, (minus_one, minus_one * x), (minus_one * x, minus_one)) == []

    def test_squared_factor_drops_out(self):
        v = Place(PolyQ.x())
        f = FactoredFunc.from_poly(PolyQ.x())
        g = FactoredFunc.from_poly(PolyQ.make([1, 1]) * PolyQ.make([1, 1]) * PolyQ.const(3))
        assert odd_tame_bases(v, (f, g)) == [PolyQ.const(3)]


FP_PRIMES = st.sampled_from([3, 5, 7, 11, 13])


@st.composite
def fp_entries(draw, n):
    """n entries over one F_p with constants that often coincide or are -1."""
    p = draw(FP_PRIMES)
    consts = st.sampled_from([1, p - 1, 2, p - 2])

    def entry():
        out = FactoredFunc.from_constant(draw(consts), p)
        for cs, m in draw(st.lists(st.tuples(st.lists(st.integers(0, p - 1), min_size=1,
                                                      max_size=3), st.integers(-2, 3)),
                                   max_size=3)):
            f = PolyFp.make(p, cs + [1])
            if m:
                part = FactoredFunc.from_poly(f)
                out = out * (part if m > 0 else part.inverse())
        return out

    return tuple(entry() for _ in range(n))


@settings(max_examples=80, deadline=None)
@given(fp_entries(2))
@example((FactoredFunc.from_constant(4, 5), FactoredFunc.from_constant(4, 5)))
@example((FactoredFunc.from_constant(2, 7) * FactoredFunc.from_poly(PolyFp.make(7, [0, 1])),
          FactoredFunc.from_constant(2, 7)))
def test_residue_fp_is_product_over_raw_odd_terms(pair):
    f, g = pair
    for v in places(f, g) + [Place(None)]:
        h = PolyFp.x(f.p) if v.modulus is None else v.modulus
        want = 1
        for base, e in tame_terms(f, g, v):
            if e % 2:
                want *= fq_char(base, h)
        assert residue_fp(f, g, v) == want, (f, g, v)


# -- the residue support of a sum of symbols -----------------------------------

def _support_fp(*pairs):
    return residue_support(pairs, funcfield_fp._nonsquare_places)


def _support_q(*pairs):
    return residue_support(pairs, funcfield_q._nonsquare_places)


@st.composite
def q_entries(draw, n):
    """n entries over Q: small constants times powers of the Q_POOL places."""
    def entry():
        out = FactoredFunc.from_constant(draw(st.sampled_from([1, -1, 2, -3, 5, Fraction(1, 7)])))
        for pi in draw(st.lists(st.sampled_from(Q_POOL), max_size=3, unique=True)):
            m = draw(st.sampled_from([-2, -1, 1, 2, 3]))
            part = FactoredFunc.from_poly(pi**abs(m))
            out = out * (part if m > 0 else part.inverse())
        return out

    return tuple(entry() for _ in range(n))


@settings(max_examples=80, deadline=None)
@given(fp_entries(3))
def test_support_fp_of_a_symbol_twice_is_empty(entries):
    f, g, _ = entries
    assert _support_fp((f, g), (f, g)) == []


@settings(max_examples=80, deadline=None)
@given(fp_entries(3))
def test_support_fp_is_bilinear(entries):
    f, g, h = entries
    assert _support_fp((f, g), (f, h)) == _support_fp((f, g * h))


@settings(max_examples=80, deadline=None)
@given(fp_entries(4))
def test_support_fp_of_two_symbols_is_the_difference_of_their_classes(entries):
    f1, g1, f2, g2 = entries
    diff = set(class_fp(f1, g1).residues) ^ set(class_fp(f2, g2).residues)
    finite = sorted((v for v in diff if v.modulus is not None), key=Place.sort_key)
    assert _support_fp((f1, g1), (f2, g2)) == finite


@settings(max_examples=40, deadline=None)
@given(q_entries(3))
def test_support_q_of_a_symbol_twice_is_empty(entries):
    f, g, _ = entries
    assert _support_q((f, g), (f, g)) == []


@settings(max_examples=40, deadline=None)
@given(q_entries(3))
def test_support_q_is_bilinear(entries):
    f, g, h = entries
    assert _support_q((f, g), (f, h)) == _support_q((f, g * h))


def _support_by_division(pairs, nonsquare_places):
    """The residue support built the old way: at each basis element h,
    `odd_tame_bases` of every pair, its valuations found by `split_at`."""
    basis, entries = common_basis(*(e for pair in pairs for e in pair))
    pairs = list(zip(entries[::2], entries[1::2]))
    return sorted((v for h in basis if (bases := odd_tame_bases(h, *pairs))
                   for v in nonsquare_places(h.modulus, bases)), key=Place.sort_key)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(["fp", "q"]), st.data())
def test_support_matches_the_support_by_division(field, data):
    # pairs drawn from four entries, so entries repeat within and across
    # pairs; the entries have repeated factors, or none (constants)
    entries = data.draw(fp_entries(4) if field == "fp" else q_entries(4))
    idx = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                             min_size=1, max_size=2))
    pairs = [(entries[i], entries[j]) for i, j in idx]
    module = funcfield_fp if field == "fp" else funcfield_q

    def recorded(calls):
        def nonsquare_places(h, bases):
            calls.append((h, sorted(bases, key=poly_key)))
            return module._nonsquare_places(h, bases)
        return nonsquare_places

    new, old = [], []
    assert residue_support(pairs, recorded(new)) == _support_by_division(pairs, recorded(old))
    assert new == old


def test_support_splits_no_entry_at_a_finite_place(monkeypatch):
    # on the common basis every valuation is an exponent read off the entry:
    # with `split_at` refused at finite places, Q(x) decisions with no
    # residue witness and F_p(x) classes come out as before
    x2, x1, x3 = (poly_from_string(s) for s in ("x^2 - 2", "x + 1", "x^2 + 1"))
    f = FactoredFunc.from_poly(x2**3 * x1 * x3)
    g = FactoredFunc.from_poly(x1**2 * x3 * PolyQ.const(3)) * FactoredFunc.from_poly(x2).inverse()
    h, one = FactoredFunc.from_poly(x1 * x3), FactoredFunc.from_constant(1)
    decisions = [(QuaternionFF(f, g), QuaternionFF(g, f)),
                 (QuaternionFF(f, g), QuaternionFF(f, g * h * h)),
                 (QuaternionFF(f, f * FactoredFunc.from_constant(-1)), QuaternionFF(one, one))]
    fp = [(FactoredFunc.from_poly(polyfp_from_string(a, 5)),
           FactoredFunc.from_poly(polyfp_from_string(b, 5)))
          for a, b in [("(x^2+2)*(x+1)^3", "2*(x+1)*(x^2+x+1)"), ("x^3+x+1", "x*(x^3+x+1)^2")]]
    want = ([is_isomorphic_qx(*d).to_json() for d in decisions],
            [class_fp(*pair) for pair in fp])
    split_at = FactoredFunc.split_at

    def finite_refused(self, v):
        if v.modulus is not None:
            raise AssertionError(f"split_at({v}) on the common basis")
        return split_at(self, v)

    monkeypatch.setattr(FactoredFunc, "split_at", finite_refused)
    assert ([is_isomorphic_qx(*d).to_json() for d in decisions],
            [class_fp(*pair) for pair in fp]) == want
    assert any(c.residues for c in want[1])
    assert all(v["isomorphic"] for v in want[0])


# -- factor refinement: a factor already on the basis --------------------------

def _full_refinement(*entries):
    """`common_basis` with every factor taken through the gcd loop."""
    basis = []
    for i, e in enumerate(entries):
        for a, m in e.factors:
            va = [0] * len(entries)
            va[i] = m
            refined = []
            for b, vb in basis:
                if a.degree == 0 or (g := b if a == b else a.gcd(b)).degree == 0:
                    refined.append((b, vb))
                    continue
                refined.append((g, [x + y for x, y in zip(va, vb)]))
                if g != b:
                    refined.append((b.divmod(g)[0], vb))
                a = a.divmod(g)[0]
            if a.degree > 0:
                refined.append((a, va))
            basis = refined
    rewritten = [FactoredFunc(e.constant, tuple(sorted(((h, v[i]) for h, v in basis if v[i]),
                                                       key=factor_key)))
                 for i, e in enumerate(entries)]
    return [Place(h) for h, _ in basis], rewritten


@settings(max_examples=60, deadline=None)
@given(st.one_of(fp_entries(3), q_entries(3)))
def test_common_basis_matches_the_full_refinement(entries):
    f, g, h = entries
    for es in ((f, g, f, h), (f, g, h, g), (f, f), (f, g, h), (f, g, g * h, f * h)):
        assert common_basis(*es) == _full_refinement(*es)


@pytest.mark.parametrize("p", [0, 7])
def test_a_factor_on_the_basis_costs_no_gcd(monkeypatch, p):
    # g only splits x + 1 off its own factor, so f's factors x, x^2 + 1 and
    # x + 3 stay basis elements: f's second turn adds exponents, no gcds
    f, g, g2 = (FactoredFunc.from_poly(polyfp_from_string(s, p) if p else poly_from_string(s))
                for s in ("x*(x^2 + 1)^2*(x + 3)^3", "(x + 1)*(x^2 + 1)", "5*x*(x - 2)^2"))
    ring, calls = type(f.constant), []
    gcd = ring.gcd
    monkeypatch.setattr(ring, "gcd", lambda a, b: calls.append((a, b)) or gcd(a, b))

    def counted(refine, *entries):
        calls.clear()
        return refine(*entries), len(calls)

    got, n = counted(common_basis, f, g, f, g2)
    want, n_full = counted(_full_refinement, f, g, f, g2)
    assert got == want
    assert n == counted(common_basis, f, g, g2)[1] < n_full


@pytest.mark.parametrize("p", [0, 7])
def test_a_constant_multiple_is_split_once(p):
    # the split memo is keyed on the monic polynomial
    s = "(x^2 + 1)^2*(x + 3)"
    f = polyfp_from_string(s, p) if p else poly_from_string(s)
    assert squarefree_parts(f.scalar(3) * f) is squarefree_parts(f)


def test_the_characteristic_is_proved_prime_once(monkeypatch):
    calls = []
    is_prime = funcfield.is_prime
    monkeypatch.setattr(funcfield, "is_prime", lambda n: calls.append(n) or is_prime(n))
    funcfield.check_char.cache_clear()
    p = 2**31 - 1
    for c in range(1, 51):
        FactoredFunc.from_poly(PolyFp.make(p, [c, 1, 1]))
    assert calls == [p]


@pytest.mark.parametrize("p", [2, 9, 2**31])
def test_a_bad_characteristic_is_refused_on_every_call(p):
    funcfield.check_char.cache_clear()
    for _ in range(3):
        with pytest.raises(DomainError):
            funcfield.check_char(p)
    if p != 2:  # PolyFp refuses characteristic 2 itself
        f = PolyFp(p, (1, 1))
        for _ in range(3):
            with pytest.raises(DomainError):
                FactoredFunc.from_poly(f)


BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("field", ["qx", "ffx"])
def test_decisions_do_not_depend_on_the_decisions_before(monkeypatch, field):
    # 96 seeded benchmark cases decided cold (every split memo cleared before
    # each), warm in order, and warm in a shuffled order
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    if field == "qx":
        cases = [[PolyQ.make(cs) for cs in workloads.qx_case(11, i)["coeffs"]]
                 for i in range(96)]
    else:
        cases = [[PolyFp.make(c["p"], cs) for cs in c["coeffs"]]
                 for c in (workloads.fpx_case(11, i, small=True) for i in range(96))]

    def decide(i):
        f1, g1, f2, g2 = (FactoredFunc.from_poly(e) for e in cases[i])
        if field == "ffx":
            return is_isomorphic_fpx((f1, g1), (f2, g2)).to_json()
        return is_isomorphic_qx(QuaternionFF(f1, g1), QuaternionFF(f2, g2)).to_json()

    cold = {}
    for i in range(len(cases)):
        for memo in (squarefree_parts, irreducible_factors_fp, irreducible_factors_q,
                     exact_arith._mod_p_splits):
            memo.cache_clear()
        cold[i] = decide(i)
    warm = {i: decide(i) for i in range(len(cases))}
    order = list(range(len(cases)))
    random.Random(5).shuffle(order)
    shuffled = {i: decide(i) for i in order}
    assert warm == cold and shuffled == cold
    assert squarefree_parts.cache_info().hits
