"""Tests for quaternion algebras over Q(x)."""

import importlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatbrauer import funcfield_q
from quatbrauer.brauer_q import BrauerClassQ, class_of_quaternion
from quatbrauer.cli import _funcfield
from quatbrauer.errors import DomainError
from quatbrauer.exact_arith import (
    PolyQ,
    RatFuncQ,
    factor_key,
    factor_poly_fp,
    factor_poly_q,
    irreducible_factors_fp,
    irreducible_factors_q,
    poly_from_string,
    polyfp_from_polyq,
    sqrt_fraction,
)
from quatbrauer.funcfield import Place, odd_tame_bases, places, residue_support
from quatbrauer.funcfield_q import (
    FactoredFunc,
    IsomorphismVerdict,
    QuaternionFF,
    is_isomorphic_qx,
    residue_at,
    specialize,
    tame_symbol,
)
from quatbrauer.local_symbols import NumberFieldElem, is_square_in_number_field


def ff(s):
    if isinstance(s, (int, Fraction)):
        return FactoredFunc.from_constant(s)
    return FactoredFunc.from_poly(poly_from_string(s))


def alg(f, g):
    return QuaternionFF(ff(f), ff(g))


def support(D):
    """The places where D ramifies, sorted."""
    return residue_support([(D.f, D.g)], funcfield_q._nonsquare_places)


X_PLACE = Place(PolyQ.x())


class TestFactoredFunc:
    def test_multiplication_and_valuation(self):
        f = ff("x^2 - 1") * ff("x + 1")
        assert f.valuation(Place(PolyQ.make([1, 1]))) == 2
        assert f.valuation(Place(PolyQ.make([-1, 1]))) == 1
        assert f.valuation(X_PLACE) == 0

    def test_inverse(self):
        f = ff("3*x^2 + 3")
        g = f * f.inverse()
        assert g.constant == PolyQ.const(1) and g.factors == ()

    def test_value_at(self):
        f = ff("x^2 - 1") * FactoredFunc.from_constant(Fraction(1, 2))
        assert f.value_at(3) == 4
        with pytest.raises(DomainError):
            f.value_at(1)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            FactoredFunc.from_constant(0)


class TestTameSymbol:
    def test_x_and_constant(self):
        t = tame_symbol(alg("x", 3), X_PLACE)
        assert t.value == PolyQ.const(Fraction(1, 3))

    def test_x_and_x(self):
        t = tame_symbol(alg("x", "x"), X_PLACE)
        assert t.value == PolyQ.const(-1)

    def test_unramified_unit(self):
        t = tame_symbol(alg("x + 1", "x + 2"), X_PLACE)
        assert t.value == PolyQ.const(1)

    def test_bilinear_in_first_slot(self):
        rng = random.Random(31)
        v = Place(PolyQ.make([1, 0, 1]))
        for _ in range(10):
            f1 = ff([3, "x", "x + 1", "x^2 + 2"][rng.randrange(4)])
            f2 = ff(["x^2 + 1", 5, "x - 1"][rng.randrange(3)])
            g = ff(["x^2 + 1", "x", 7][rng.randrange(3)])
            lhs = tame_symbol(QuaternionFF(f1 * f2, g), v)
            rhs = tame_symbol(QuaternionFF(f1, g), v) * tame_symbol(QuaternionFF(f2, g), v)
            assert lhs.value == rhs.value


class TestResidues:
    def test_ramified_at_x(self):
        ch = residue_at(alg("x", 3), X_PLACE)
        assert not ch.trivial

    def test_trivial_for_square_residue(self):
        ch = residue_at(alg("x", 9), X_PLACE)
        assert ch.trivial

    def test_constant_algebra_unramified(self):
        assert support(alg(5, 7)) == []

    def test_gauss_place(self):
        D = alg("x^2 + 1", 2)
        assert [str(v) for v in support(D)] == ["x^2 + 1"]
        assert not residue_at(D, support(D)[0]).trivial

    def test_even_valuations_unramified(self):
        D = alg("x^2", "3*x^4")
        assert support(D) == []
        assert residue_at(D, X_PLACE).trivial


class TestSpecialize:
    def test_basic(self):
        q = specialize(alg("x", "x + 1"), 2)
        assert (q.a, q.b) == (2, 3)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            specialize(alg("x", "x + 1"), 0)

    def test_homomorphism_on_classes(self):
        # the class of the specialized symbol only depends on the entries
        # up to squares, matching the specialization homomorphism
        D1, D2 = alg("x", "x + 3"), alg("9*x", "4*x + 12")
        for pt in (1, 2, 5):
            c1 = class_of_quaternion(specialize(D1, pt))
            c2 = class_of_quaternion(specialize(D2, pt))
            assert c1 == c2


class TestIsomorphism:
    def test_square_twist(self):
        v = is_isomorphic_qx(alg("x", 3), alg("x", 12))
        assert v.isomorphic

    def test_residue_witness(self):
        v = is_isomorphic_qx(alg("x", 3), alg("x", 5))
        assert not v.isomorphic
        assert str(v.witness_place) == "x"
        assert v.witness_symbols is not None

    def test_constant_witness(self):
        v = is_isomorphic_qx(alg(-1, -1), alg(2, 5))
        assert not v.isomorphic
        assert v.witness_place is None
        diff = v.witness_invariants
        assert diff == (class_of_quaternion(specialize(alg(-1, -1), v.specialization_point))
                        + class_of_quaternion(specialize(alg(2, 5), v.specialization_point)))
        assert not diff.is_zero()

    def test_split_constants_isomorphic(self):
        v = is_isomorphic_qx(alg(1, 1), alg(4, 9))
        assert v.isomorphic

    def test_reflexive(self):
        for D in (alg("x", 3), alg("x^2 + 1", "x"), alg(-1, "x - 2")):
            assert is_isomorphic_qx(D, D).isomorphic

    def test_entry_swap(self):
        assert is_isomorphic_qx(alg("x", "x + 1"), alg("x + 1", "x")).isomorphic

    def test_citations_use_classical_names(self):
        v = is_isomorphic_qx(alg(-1, -1), alg(2, 5))
        assert any("Albert" in c or "Faddeev" in c or "specialization" in c
                   for c in v.citations)


def _reference_isomorphism(D1, D2):
    """(isomorphic, witness place) by the rule without exponent parity: a
    certified square test of t1 * t2 at every place where it is not 1, then
    the constant classes at the first integer 0, 1, -1, 2, ... where all four
    entries are units."""
    for v in places(D1.f, D1.g, D2.f, D2.g):
        ratio = tame_symbol(D1, v) * tame_symbol(D2, v)
        if ratio.value != PolyQ.const(1) and not is_square_in_number_field(ratio).is_square:
            return False, v
    for n in range(100):
        alpha = (n + 1) // 2 * (1 if n % 2 else -1)
        try:
            q1, q2 = specialize(D1, alpha), specialize(D2, alpha)
        except DomainError:
            continue
        return class_of_quaternion(q1) == class_of_quaternion(q2), None
    raise AssertionError("no common unit point")


# places that are shared, squared or absent; constants that coincide or are -1
POOL = ["x", "x + 1", "x - 3", "x^2 + 1", "x^2 - 2", "x^2 + x + 1", "x^3 - 2"]
CONSTANTS = [1, -1, 2, -2, 3, -3, 5, 6, 12, Fraction(1, 2), Fraction(-5, 3)]
ENTRIES = st.builds(
    lambda c, facs: FactoredFunc.from_constant(c) * FactoredFunc.from_poly(
        poly_from_string("*".join(f"({q})^{m}" for q, m in facs) or "1")),
    st.sampled_from(CONSTANTS),
    st.lists(st.tuples(st.sampled_from(POOL), st.integers(1, 3)), max_size=3,
             unique_by=lambda t: t[0]))


def _second(D1, kind, e1, e2):
    """The second algebra of a pair, built from the first by `kind`."""
    if kind == "swap":
        return QuaternionFF(D1.g, D1.f)
    if kind == "square_twist":
        return QuaternionFF(D1.f, D1.g * e1 * e1)
    if kind == "twist":
        return QuaternionFF(D1.f, D1.g * e1)
    if kind == "minus_one":
        return QuaternionFF(FactoredFunc.from_constant(-1) * D1.f, D1.g)
    return QuaternionFF(e1, e2)


class TestParityOracle:
    @settings(max_examples=100, deadline=None)
    @given(ENTRIES, ENTRIES, ENTRIES, ENTRIES,
           st.sampled_from(["swap", "square_twist", "twist", "minus_one", "other"]))
    @example(ff(-1), ff(-1), ff(-1), ff(-1), "minus_one")
    @example(ff(3), ff("x"), ff(12), ff(1), "twist")
    def test_verdict_and_witness_match_reference(self, f, g, e1, e2, kind):
        D1 = QuaternionFF(f, g)
        D2 = _second(D1, kind, e1, e2)
        verdict = is_isomorphic_qx(D1, D2)
        assert (verdict.isomorphic, verdict.witness_place) == _reference_isomorphism(D1, D2)
        if verdict.witness_place is not None:
            v = verdict.witness_place
            assert verdict.witness_symbols == (tame_symbol(D1, v), tame_symbol(D2, v))


def _fully_factored(e: FactoredFunc) -> FactoredFunc:
    """e with each squarefree factor split into irreducibles by sympy."""
    exps: dict[PolyQ, int] = {}
    for h, m in e.factors:
        for pi, k in factor_poly_q(h)[1]:
            exps[pi] = exps.get(pi, 0) + k * m
    return FactoredFunc(e.constant, tuple(sorted(exps.items(), key=factor_key)))


def _odd_base_product(v: Place, *algebras: QuaternionFF) -> NumberFieldElem | None:
    """The product of the algebras' tame symbols at v up to squares: the odd
    tame bases multiplied in Q[x]/(pi), or None when that is a rational
    square (the empty product included)."""
    acc = NumberFieldElem.make(v.modulus, PolyQ.const(1))
    for base in odd_tame_bases(v, *((D.f, D.g) for D in algebras)):
        acc = acc * NumberFieldElem.make(v.modulus, base)
    rational_square = acc.value.degree == 0 and sqrt_fraction(acc.value.lc()) is not None
    return None if rational_square else acc


def _per_place_verdict(D1, D2) -> IsomorphismVerdict:
    """The decision place by place on fully factored entries: the first
    irreducible place in sort order where the ratio of the residues is a
    nonsquare is the witness; else the classes at the first unit point."""
    F1 = QuaternionFF(_fully_factored(D1.f), _fully_factored(D1.g))
    F2 = QuaternionFF(_fully_factored(D2.f), _fully_factored(D2.g))
    entries = [F1.f, F1.g, F2.f, F2.g]
    for v in sorted({Place(pi) for e in entries for pi, _ in e.factors}, key=Place.sort_key):
        ratio = _odd_base_product(v, F1, F2)
        if ratio is not None and not is_square_in_number_field(ratio).is_square:
            return IsomorphismVerdict(
                False, witness_place=v, witness_symbols=(tame_symbol(F1, v), tame_symbol(F2, v)),
                citations=("Faddeev exact sequence (residue comparison)",))
    alpha = next(a for a in (Fraction((n + 1) // 2 * (1 if n % 2 else -1)) for n in range(100))
                 if all(pi.evaluate(a) != 0 for e in entries for pi, _ in e.factors))
    diff = class_of_quaternion(specialize(F1, alpha)) + class_of_quaternion(specialize(F2, alpha))
    if diff.is_zero():
        return IsomorphismVerdict(True, specialization_point=alpha, citations=(
            "Faddeev exact sequence", "specialization homomorphism", "Albert-Hasse-Brauer-Noether"))
    return IsomorphismVerdict(False, witness_invariants=diff, specialization_point=alpha,
                              citations=("specialization homomorphism", "Albert-Hasse-Brauer-Noether"))


# irreducible places of degree 1 to 4, x^4 + 1 among them
DIFF_POOL = ["x", "x + 1", "x - 2", "x + 3", "x^2 + 1", "x^2 - 2", "x^2 + x + 1", "x^2 - 3",
             "x^3 - 2", "x^3 - x - 1", "x^4 + 1", "x^4 - 2*x + 3"]
DIFF_CONSTANTS = ["1", "-1", "2", "-3", "5", "6", "1/2", "-5/3"]


def _diff_entry(rng) -> str:
    """A rational function as CLI text: a constant times powers of up to
    three pool places."""
    parts = [f"({q})^{rng.choice((-2, -1, 1, 1, 2, 3))}"
             for q in rng.sample(DIFF_POOL, rng.randint(1, 3))]
    return "*".join([f"({rng.choice(DIFF_CONSTANTS)})"] + parts)


def _diff_pair(rng, kind):
    """A pair of algebras, as CLI entry strings, related by `kind`."""
    f, g = _diff_entry(rng), _diff_entry(rng)
    if kind == "prime_twist":
        # several odd places in f, often sharing one squarefree factor
        f = "*".join([f"({rng.choice(DIFF_CONSTANTS)})"] + [
            f"({q})^{rng.choice((1, 1, 3, 2))}" for q in rng.sample(DIFF_POOL, rng.randint(2, 4))])
        return (f, g), (f, f"{rng.choice((3, 5, 7, 11, 13))}*{g}")
    if kind == "x4_plus_1":
        f = f"(x^4 + 1)^{rng.choice((1, 3))}*{f}"
        return (f, g), (f, f"{rng.choice((-1, 2, 3, -6))}*{g}")
    if kind == "swap":
        return (f, g), (g, f)
    if kind == "square_twist":
        return (f, g), (f, f"{g}*({rng.choice(DIFF_POOL)})^2*({rng.choice(DIFF_CONSTANTS)})^2")
    return (f, g), (_diff_entry(rng), _diff_entry(rng))


@pytest.mark.parametrize("seed", range(4))
def test_common_basis_json_matches_the_per_place_decision(seed):
    rng = random.Random(seed)
    kinds = []
    for kind in ["prime_twist"] * 6 + ["x4_plus_1"] * 3 + ["swap", "square_twist", "other"] * 2:
        while True:
            (f1, g1), (f2, g2) = _diff_pair(rng, kind)
            try:
                D1 = QuaternionFF(_funcfield(f1), _funcfield(g1))
                D2 = QuaternionFF(_funcfield(f2), _funcfield(g2))
                break
            except DomainError:  # a numerator or denominator above funcfield.MAX_DEGREE
                continue
        got = json.dumps(is_isomorphic_qx(D1, D2).to_json(), sort_keys=True)
        want = json.dumps(_per_place_verdict(D1, D2).to_json(), sort_keys=True)
        assert got == want, (kind, f1, g1, f2, g2)
        kinds.append((kind, json.loads(got).get("witness_place")))
    # the draws reach witnesses of every kind
    assert any(w is not None for k, w in kinds if k == "prime_twist")
    assert any(w is not None for k, w in kinds if k == "x4_plus_1")


def test_witness_on_a_reducible_basis_element_is_its_smallest_failing_place():
    # f has one squarefree factor h = (x - 2)(x^2 + 1); the ratio of the
    # residues at h is x + 2, a square mod x - 2 (it is 4) but not mod
    # x^2 + 1 (2 + i has norm 5); at x + 2 the ratio f(-2) = 100 is a square
    f = "-5*(x - 2)*(x^2 + 1)"
    D1 = QuaternionFF(_funcfield(f), _funcfield("7"))
    D2 = QuaternionFF(_funcfield(f), _funcfield("7*(x + 2)"))
    assert [str(h) for h, _ in D1.f.factors] == ["x^3 - 2*x^2 + x - 2"]
    verdict = is_isomorphic_qx(D1, D2)
    assert str(verdict.witness_place) == "x^2 + 1"
    assert verdict.to_json() == _per_place_verdict(D1, D2).to_json()
    # with 3 in place of x + 2 both components fail and x - 2 is the witness
    D3 = QuaternionFF(_funcfield(f), _funcfield("21"))
    assert str(is_isomorphic_qx(D1, D3).witness_place) == "x - 2"


def test_basis_element_with_many_places_is_split_before_its_test(monkeypatch):
    # one squarefree factor with 16 linear places: the ratio x^2 mod h is a
    # square, but its lift in Q[x]/(h) could need 2^15 sign patterns, so h,
    # of degree above 8, is split and each place is tested on its own
    h = "*".join(f"(x - {i})" for i in range(1, 17))
    D1 = QuaternionFF(_funcfield(h), _funcfield("3"))
    D2 = QuaternionFF(_funcfield(h), _funcfield(f"3*(x^2 + {h})"))
    assert len(D1.f.factors) == 1
    degrees, square = [], funcfield_q.is_square_in_number_field

    def recording(c):
        degrees.append(c.modulus.degree)
        return square(c)

    monkeypatch.setattr(funcfield_q, "is_square_in_number_field", recording)
    assert is_isomorphic_qx(D1, D2).to_json() == _per_place_verdict(D1, D2).to_json()
    # h's 16 places one by one; the one test of degree 16 is at the
    # irreducible place x^2 + h of D2's second entry
    assert degrees.count(1) == 16 and set(degrees) == {1, 16}


# Irreducible (Eisenstein at 29) of degree 11: it is x^11 mod 3, 5, 7 and
# 11, and (x - 1)(x - 2)...(x - 11) mod 13, 17, 19 and 23, the first primes
# where it stays squarefree.  A square test that reaches the lift in
# Q[x]/(WIDE) has 11 factors at each candidate prime: 2^10 sign patterns.
WIDE = ("x^11 - 36902747805*x^10 - 33761385735*x^9 + 26197444350*x^8 - 16549946490*x^7"
        " - 42635685015*x^6 - 11789335635*x^5 - 15726237450*x^4 - 22308138930*x^3"
        " + 2609059530*x^2 + 27432036555*x + 45582575115")


def test_irreducible_place_with_a_wide_lift_gets_a_verdict():
    pi = poly_from_string(WIDE)
    assert factor_poly_q(pi)[1] == ((pi, 1),)
    for p in (13, 17, 19, 23):
        assert len(factor_poly_fp(polyfp_from_polyq(pi, p))[1]) == 11
    # g = 1 / (x (x + pi)): the residue at pi is the class of x (x + pi) = x^2,
    # a square that only the lift certifies
    g = (ff("x") * FactoredFunc.from_poly(pi + PolyQ.x())).inverse()
    D = QuaternionFF(FactoredFunc.from_poly(pi), g)
    res = residue_at(D, Place(pi))
    assert res.trivial and res.verdict.verified and str(res.verdict.root) in ("x", "-x")
    # pi is a basis element of degree above 8: split, found irreducible and
    # tested with no limit on the lift; the witness is x, where the residue
    # of D is the class of pi(0), not a square
    D1 = QuaternionFF(FactoredFunc.from_poly(pi), ff(1))
    bases = odd_tame_bases(Place(pi), (D1.f, D1.g), (D.f, D.g))
    assert funcfield_q._nonsquare_places(pi, bases) == []
    verdict = is_isomorphic_qx(D1, D)
    assert str(verdict.witness_place) == "x"
    assert verdict.to_json() == _per_place_verdict(D1, D).to_json()


BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_decisions_agree_with_cold_and_warm_split_memos(monkeypatch):
    # 96 benchmark cases (one period of its schedule): each decided after the
    # split memos are cleared, then all again with the memos kept warm
    monkeypatch.syspath_prepend(str(BENCH))
    cases = [importlib.import_module("workloads").qx_case(7, i) for i in range(96)]

    def decide(i, case):
        f1, g1, f2, g2 = (FactoredFunc.from_poly(PolyQ.make(cs)) for cs in case["coeffs"])
        return is_isomorphic_qx(QuaternionFF(f1, g1), QuaternionFF(f2, g2)).to_json()

    cold = []
    for i, case in enumerate(cases):
        irreducible_factors_fp.cache_clear()
        irreducible_factors_q.cache_clear()
        cold.append(decide(i, case))
    warm = [decide(i, case) for i, case in enumerate(cases)]
    assert warm == cold
    assert irreducible_factors_fp.cache_info().hits and irreducible_factors_q.cache_info().hits


class TestCallCounts:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"square": 0, "tame": []}
        square, tame = funcfield_q.is_square_in_number_field, funcfield_q.tame_symbol

        def counting_square(c):
            calls["square"] += 1
            return square(c)

        def counting_tame(D, v):
            calls["tame"].append(str(v))
            return tame(D, v)

        monkeypatch.setattr(funcfield_q, "is_square_in_number_field", counting_square)
        monkeypatch.setattr(funcfield_q, "tame_symbol", counting_tame)
        return calls

    def test_swap_needs_no_square_test(self, calls):
        assert is_isomorphic_qx(alg("x", "x + 1"), alg("x + 1", "x")).isomorphic
        assert calls == {"square": 0, "tame": []}

    def test_square_twist_needs_no_square_test(self, calls):
        D1 = alg("(x^2 + 1)*(x - 3)^2", "5*(x^3 - 2)")
        D2 = alg("(x^2 + 1)*(x - 3)^2", "5*(x^3 - 2)*(x + 7)^2")
        assert is_isomorphic_qx(D1, D2).isomorphic
        assert calls == {"square": 0, "tame": []}

    def test_prime_twist_tests_once_and_reads_symbols_at_the_witness(self, calls):
        verdict = is_isomorphic_qx(alg("x", 3), alg("x", 5))
        assert not verdict.isomorphic
        assert calls == {"square": 1, "tame": ["x", "x"]}


class TestDivision:
    # a quaternion algebra over Q(x) is division iff its class is nonzero, that
    # is iff it is not isomorphic to the split algebra (1, 1)
    def test_ramified_is_division(self):
        verdict = is_isomorphic_qx(alg("x", 3), alg(1, 1))
        assert not verdict.isomorphic and verdict.witness_place == X_PLACE

    def test_constant_division(self):
        verdict = is_isomorphic_qx(alg(2, 3), alg(1, 1))
        assert not verdict.isomorphic and not verdict.witness_invariants.is_zero()

    def test_split(self):
        assert is_isomorphic_qx(alg(1, "x"), alg(1, 1)).isomorphic


def test_ratfunc_equality_cross_multiplies():
    a = RatFuncQ.make(PolyQ.make([-1, 0, 1]), PolyQ.make([1, 1]))  # (x^2-1)/(x+1)
    b = RatFuncQ.make(PolyQ.make([-1, 1]))                         # x - 1
    assert a == b


def test_ratfunc_unhashable():
    # equal values can have different (num, den), so no hash can agree with ==
    a = RatFuncQ.make(PolyQ.x(), PolyQ.x())
    assert a == RatFuncQ.make(PolyQ.const(1))
    with pytest.raises(TypeError):
        hash(a)
