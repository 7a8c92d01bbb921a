"""Acceptance suite: nine exact criteria, each with a stated time bound.

Every expected value here is either pinned by an independent construction
(square twists, explicitly built invariant vectors, unramified primes of a
number field) or checked against the brute-force conic oracle in
`oracles.py`; nothing is compared against the implementation's own output
frozen earlier.
"""

import math
import random
import time
from fractions import Fraction

import sympy

from oracles import hilbert_oracle
from quatbrauer.brauer_q import (
    REAL,
    BrauerClassQ,
    PlaceQ,
    QuaternionQ,
    class_of_quaternion,
    example_6_5,
    hilbert,
    same_maximal_subfields_q,
    same_subgroup,
)
from quatbrauer.errors import BudgetError
from quatbrauer.exact_arith import (
    PolyFp,
    PolyQ,
    factor_poly_q,
)
from quatbrauer.funcfield import Place, places
from quatbrauer.funcfield_fp import residue_fp
from quatbrauer.funcfield_q import (
    FactoredFunc,
    QuaternionFF,
    is_isomorphic_qx,
    specialize,
)
from quatbrauer.integers import is_prime
from quatbrauer.local_symbols import (
    NumberFieldElem,
    is_square_in_number_field,
    verify_nonsquare_certificate,
    verify_square_certificate,
)


def _sympy_poly(f: PolyQ) -> sympy.Poly:
    """f as a sympy polynomial over QQ, the oracle for irreducibility and
    discriminants."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)],
                      sympy.Symbol("x"), domain="QQ")


def report(n: int, title: str, t0: float, bound: float) -> None:
    dt = time.time() - t0
    assert dt < bound, f"criterion {n} exceeded its {bound}s budget ({dt:.1f}s)"
    print(f"[acceptance] criterion {n} ({title}): PASS ({dt:.2f}s < {bound:.0f}s)")


def support_places(a: Fraction, b: Fraction) -> list[PlaceQ]:
    ints = (abs(a.numerator), a.denominator, abs(b.numerator), b.denominator)
    return [REAL] + [PlaceQ(p) for p in sorted({2}.union(*map(sympy.factorint, ints)))]


def test_criterion_1_example_reproduction(capsys):
    t0 = time.time()
    places = tuple(PlaceQ(p) for p in (2, 3, 5, 7))
    for n in (3, 4, 5, 7):
        c1, c2 = example_6_5(n, places)
        assert same_maximal_subfields_q(c1, c2) is True
        assert same_subgroup(c1, c2) is False
        assert c1 != c2
    c1, c2 = example_6_5(2, places)
    assert c1 == c2
    with capsys.disabled():
        report(1, "four-place example, n in {3,4,5,7} and n=2", t0, 1)


def test_criterion_2_product_formula(capsys):
    t0 = time.time()
    rng = random.Random(0xF0)
    for _ in range(1000):
        a = Fraction(rng.randint(1, 10**6) * rng.choice([1, -1]),
                     rng.randint(1, 10**6))
        b = Fraction(rng.randint(1, 10**6) * rng.choice([1, -1]),
                     rng.randint(1, 10**6))
        prod = 1
        support = support_places(a, b)
        for v in support:
            prod *= hilbert(a, b, v)
        assert prod == 1, (a, b)
        # the unit criterion: symbols away from the support are +1
        q = rng.choice([101, 103, 107, 109, 113])
        if PlaceQ(q) not in support:
            assert hilbert(a, b, PlaceQ(q)) == 1
    with capsys.disabled():
        report(2, "Hilbert product formula, 1000 random pairs", t0, 10)


def test_criterion_3_local_solvability_oracle(capsys):
    t0 = time.time()
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        v = PlaceQ(p)
        for a in range(-30, 31):
            if a == 0:
                continue
            for b in range(-30, 31):
                if b == 0:
                    continue
                assert hilbert(a, b, v) == hilbert_oracle(a, b, v), (a, b, p)
    with capsys.disabled():
        report(3, "brute-force conic solvability, p <= 50, |a|,|b| <= 30", t0, 60)


def test_criterion_4_constant_decision_soundness(capsys):
    t0 = time.time()
    grid = [s * n for n in (1, 2, 3, 5, 6, 7, 10) for s in (1, -1)]
    algebras = []
    for a in grid:
        for b in grid:
            lift = QuaternionFF(FactoredFunc.from_constant(a),
                                FactoredFunc.from_constant(b))
            cls = class_of_quaternion(QuaternionQ.make(a, b))
            algebras.append((lift, cls))
    for lift1, cls1 in algebras:
        for lift2, cls2 in algebras:
            verdict = is_isomorphic_qx(lift1, lift2)
            assert verdict.isomorphic == (cls1 == cls2), (lift1, lift2)
    with capsys.disabled():
        report(4, "lifted constants vs Br(Q) vectors, 196^2 pairs", t0, 30)


def _random_irreducible(rng: random.Random, max_deg: int) -> PolyQ:
    while True:
        d = rng.randint(1, max_deg)
        f = PolyQ.make([rng.randint(-6, 6) for _ in range(d)] + [1])
        if _sympy_poly(f).is_irreducible:
            return f


def test_criterion_5_decision_mechanism(capsys):
    t0 = time.time()
    rng = random.Random(0xF5)

    # isomorphic by construction: multiply one slot by h^2 * (rational square)
    for _ in range(100):
        f = FactoredFunc.from_poly(_random_irreducible(rng, 2)) \
            * FactoredFunc.from_constant(rng.choice([1, -1, 2, -3]))
        g = FactoredFunc.from_poly(_random_irreducible(rng, 2)) \
            * FactoredFunc.from_constant(rng.choice([1, -1, 3, 5]))
        h = FactoredFunc.from_poly(
            PolyQ.make([rng.randint(-4, 4) for _ in range(rng.randint(1, 2))] + [1]))
        s = FactoredFunc.from_constant(Fraction(rng.randint(1, 9),
                                                rng.randint(1, 9)) ** 2)
        D1 = QuaternionFF(f, g)
        D2 = QuaternionFF(f, g * h * h * s)
        assert is_isomorphic_qx(D1, D2).isomorphic, (D1, D2)

    # non-isomorphic by a nontrivial constant class, witnessed by
    # specialization; entries differ from the constants by polynomial squares
    done = 0
    while done < 100:
        a1, b1, a2, b2 = (rng.choice([1, -1]) * rng.randint(1, 10)
                          for _ in range(4))
        c1 = class_of_quaternion(QuaternionQ.make(a1, b1))
        c2 = class_of_quaternion(QuaternionQ.make(a2, b2))
        if c1 == c2:
            continue

        def sq():
            u = PolyQ.make([rng.randint(-3, 3)
                            for _ in range(rng.randint(1, 2))] + [1])
            return FactoredFunc.from_poly(u * u)

        D1 = QuaternionFF(FactoredFunc.from_constant(a1) * sq(),
                          FactoredFunc.from_constant(b1) * sq())
        D2 = QuaternionFF(FactoredFunc.from_constant(a2) * sq(),
                          FactoredFunc.from_constant(b2) * sq())
        verdict = is_isomorphic_qx(D1, D2)
        assert not verdict.isomorphic, (D1, D2)
        assert verdict.specialization_point is not None
        assert verdict.witness_invariants is not None
        # re-verify the witness from scratch at the reported point
        pt = verdict.specialization_point
        w1 = class_of_quaternion(specialize(D1, pt))
        w2 = class_of_quaternion(specialize(D2, pt))
        assert verdict.witness_invariants == w1 + w2
        assert not verdict.witness_invariants.is_zero()
        done += 1
    with capsys.disabled():
        report(5, "square twists isomorphic, constant twists witnessed", t0, 120)


def test_criterion_6_fp_reciprocity(capsys):
    t0 = time.time()
    rng = random.Random(0xF6)
    for p in (3, 5, 7, 11):
        for _ in range(500):
            f = FactoredFunc.from_poly(
                PolyFp.make(p, [rng.randrange(p)
                                for _ in range(rng.randint(1, 5))] + [1]))
            g = FactoredFunc.from_poly(
                PolyFp.make(p, [rng.randrange(p)
                                for _ in range(rng.randint(1, 5))] + [1]))
            prod = 1
            for v in places(f, g):
                prod *= residue_fp(f, g, v)
            prod *= residue_fp(f, g, Place(None))
            assert prod == 1, (p, f, g)
    with capsys.disabled():
        report(6, "F_p(x) residue reciprocity, 4 x 500 pairs", t0, 30)


def _unramified_odd_prime(pi: PolyQ) -> int:
    """An odd prime q with sqrt(q) provably outside Q[x]/(pi): q ramifies in
    Q(sqrt(q)) but is unramified in the field since q does not divide
    disc(pi)."""
    disc = sympy.discriminant(_sympy_poly(pi))
    assert disc != 0 and disc.is_Integer
    q = 3
    while int(disc) % q == 0 or not is_prime(q):
        q += 2
    return q


def test_criterion_7_square_tester(capsys):
    t0 = time.time()
    rng = random.Random(0xF7)
    undecided = 0

    squares = 0
    while squares < 100:
        pi = _random_irreducible(rng, 6)
        if pi.degree < 2:
            continue
        r = PolyQ.make([rng.randint(-9, 9) for _ in range(pi.degree)])
        if r.is_zero():
            continue
        c = NumberFieldElem.make(pi, (r * r) % pi)
        try:
            verdict = is_square_in_number_field(c)
        except BudgetError:
            undecided += 1
            continue
        assert verdict.is_square and verdict.verified, (pi, r)
        assert verify_square_certificate(c, verdict.root)
        squares += 1

    nonsquares = 0
    while nonsquares < 100:
        pi = _random_irreducible(rng, 6)
        q = _unramified_odd_prime(pi)
        r = PolyQ.make([rng.randint(-9, 9) for _ in range(max(1, pi.degree))])
        if r.is_zero() or (r % pi).is_zero():
            continue
        c = NumberFieldElem.make(pi, (PolyQ.const(q) * r * r) % pi)
        try:
            verdict = is_square_in_number_field(c)
        except BudgetError:
            undecided += 1
            continue
        assert not verdict.is_square and verdict.verified, (pi, q, r)
        assert verify_nonsquare_certificate(c, verdict.witness)
        nonsquares += 1

    assert undecided == 0
    with capsys.disabled():
        report(7, "100 squares + 100 nonsquares certified, none undecided", t0, 120)


def test_criterion_8_scaling_preserves_subfields(capsys):
    t0 = time.time()
    rng = random.Random(0xF8)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    done = 0
    while done < 100:
        n = rng.randint(3, 8)
        support = rng.sample(primes, rng.randint(3, 5))
        invs = {PlaceQ(p): Fraction(rng.randint(1, n - 1), n)
                for p in support[:-1]}
        invs[PlaceQ(support[-1])] = -sum(invs.values()) % 1
        c = BrauerClassQ.make(invs)
        if c.exponent() != n:
            continue
        m = rng.choice([m for m in range(2, 2 * n) if math.gcd(m, n) == 1])
        assert same_maximal_subfields_q(c, c.scale(m)) is True
        assert same_maximal_subfields_q(c, c.scale(-1)) is True
        done += 1
    with capsys.disabled():
        report(8, "prime-to-index scaling keeps local index vectors", t0, 5)


def test_criterion_9_factorization_roundtrip(capsys):
    t0 = time.time()
    rng = random.Random(0xF9)
    pool = [_random_irreducible(rng, 4) for _ in range(40)]
    for _ in range(200):
        picks = [rng.choice(pool).monic() for _ in range(rng.randint(1, 5))]
        unit = Fraction(rng.randint(1, 9) * rng.choice([1, -1]), rng.randint(1, 9))
        f = PolyQ.const(unit)
        expected: dict[PolyQ, int] = {}
        for g in picks:
            f = f * g
            expected[g] = expected.get(g, 0) + 1
        got_unit, factors = factor_poly_q(f)
        assert got_unit == unit
        assert dict(factors) == expected
    got_unit, factors = factor_poly_q(PolyQ.make([1, 0, 0, 0, 1]))
    assert got_unit == 1 and len(factors) == 1
    assert factors[0] == (PolyQ.make([1, 0, 0, 0, 1]), 1)
    with capsys.disabled():
        report(9, "multiset round-trip, 200 products; x^4+1 irreducible", t0, 60)
