"""Tests for Br(Q) as local invariant vectors."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatbrauer import integers
from quatbrauer.brauer_q import (
    REAL,
    BrauerClassQ,
    PlaceQ,
    QuaternionQ,
    class_of_quaternion,
    example_6_5,
    hilbert,
    quaternion_of_class,
    same_maximal_subfields_q,
    same_subgroup,
)
from quatbrauer.errors import DomainError, InternalError
from quatbrauer.integers import is_prime


def places(*ps):
    return tuple(PlaceQ(p) for p in ps)


class TestBrauerClassQ:
    def test_normalization(self):
        c = BrauerClassQ.make({PlaceQ(3): Fraction(4, 3), PlaceQ(5): Fraction(5, 3),
                               PlaceQ(7): 0})
        assert c.support() == places(3, 5)
        assert c.inv_at(PlaceQ(3)) == Fraction(1, 3)
        assert c.inv_at(PlaceQ(7)) == 0

    def test_real_invariant_restricted(self):
        with pytest.raises(DomainError):
            BrauerClassQ.make({REAL: Fraction(1, 3), PlaceQ(3): Fraction(2, 3)})

    def test_sum_condition(self):
        with pytest.raises(DomainError):
            BrauerClassQ.make({PlaceQ(2): Fraction(1, 3)})

    def test_group_laws(self):
        c = BrauerClassQ.make({PlaceQ(2): Fraction(1, 3), PlaceQ(3): Fraction(2, 3)})
        assert (c + c.scale(-1)).is_zero()
        assert c.scale(3).is_zero()
        assert c.scale(2) == c.scale(-1)
        assert c.exponent() == 3 and c.index() == 3

    def test_json_schema_roundtrip(self):
        c = BrauerClassQ.make({PlaceQ(2): Fraction(1, 5), PlaceQ(3): Fraction(4, 5)})
        data = c.to_json()
        assert data == {"invariants": [{"place": "2", "inv": "1/5"},
                                       {"place": "3", "inv": "4/5"}]}
        assert BrauerClassQ.from_json(data) == c

    def test_json_real_place(self):
        c = BrauerClassQ.make({REAL: Fraction(1, 2), PlaceQ(2): Fraction(1, 2)})
        assert BrauerClassQ.from_json(c.to_json()) == c


class TestClassOfQuaternion:
    def test_two_five(self):
        cls = class_of_quaternion(QuaternionQ.make(2, 5))
        assert cls == BrauerClassQ.make({PlaceQ(2): Fraction(1, 2),
                                         PlaceQ(5): Fraction(1, 2)})

    def test_hamilton(self):
        cls = class_of_quaternion(QuaternionQ.make(-1, -1))
        assert cls.support() == (PlaceQ(2), REAL)

    def test_split(self):
        assert class_of_quaternion(QuaternionQ.make(1, 7)).is_zero()
        assert class_of_quaternion(QuaternionQ.make(2, -1)).is_zero()

    def test_canceling_valuations(self):
        # v_3 of the product vanishes but both entries are ramified at 3
        cls = class_of_quaternion(QuaternionQ.make(Fraction(69, 131),
                                                   Fraction(-121, 780)))
        prod = 1
        for v, inv in cls.invariants:
            assert inv == Fraction(1, 2)
            prod *= hilbert(Fraction(69, 131), Fraction(-121, 780), v)
        assert prod == 1

    def test_product_formula_random(self):
        rng = random.Random(19)
        for _ in range(200):
            a = Fraction(rng.randint(1, 10**4) * rng.choice([1, -1]),
                         rng.randint(1, 10**4))
            b = Fraction(rng.randint(1, 10**4) * rng.choice([1, -1]),
                         rng.randint(1, 10**4))
            cls = class_of_quaternion(QuaternionQ.make(a, b))
            assert len(cls.invariants) % 2 == 0
            assert sum((v for _, v in cls.invariants), Fraction(0)) % 1 == 0


class TestPredicates:
    def test_same_maximal_subfields_requires_equal_index(self):
        c1 = BrauerClassQ.make({PlaceQ(2): Fraction(1, 2), PlaceQ(3): Fraction(1, 2)})
        c2 = BrauerClassQ.make({PlaceQ(2): Fraction(1, 3), PlaceQ(3): Fraction(2, 3)})
        with pytest.raises(DomainError):
            same_maximal_subfields_q(c1, c2)

    def test_inverse_class(self):
        c = BrauerClassQ.make({PlaceQ(2): Fraction(1, 5), PlaceQ(7): Fraction(4, 5)})
        assert same_maximal_subfields_q(c, c.scale(-1))
        assert same_subgroup(c, c.scale(-1))

    def test_same_subgroup_false_for_different_support(self):
        c1 = BrauerClassQ.make({PlaceQ(2): Fraction(1, 2), PlaceQ(3): Fraction(1, 2)})
        c2 = BrauerClassQ.make({PlaceQ(2): Fraction(1, 2), PlaceQ(5): Fraction(1, 2)})
        assert not same_subgroup(c1, c2)
        assert not same_maximal_subfields_q(c1, c2)


def _generates(a: BrauerClassQ, b: BrauerClassQ) -> bool:
    """The brute-force oracle: m a = b for some m up to the exponent of a."""
    return any(a.scale(m) == b for m in range(a.exponent() + 1))


@st.composite
def small_classes(draw):
    """Classes of exponent dividing e <= 12 at the real place and 2, 3, 5, 7."""
    e = draw(st.integers(1, 12))
    inv = {PlaceQ(q): Fraction(draw(st.integers(0, e - 1)), e) for q in (3, 5, 7)}
    inv[REAL] = Fraction(draw(st.integers(0, 1)), 2) if e % 2 == 0 else Fraction(0)
    inv[PlaceQ(2)] = -sum(inv.values())
    return BrauerClassQ.make(inv)


@settings(max_examples=400, deadline=None)
@given(small_classes(), small_classes(), st.integers(-30, 30))
def test_same_subgroup_matches_brute_force(c1, c2, m):
    for b in (c2, c1.scale(m)):
        assert same_subgroup(c1, b) == (_generates(c1, b) and _generates(b, c1)), (c1, b)


class TestExample65:
    def test_n5(self):
        c1, c2 = example_6_5(5, places(2, 3, 5, 7))
        assert same_maximal_subfields_q(c1, c2)
        assert not same_subgroup(c1, c2)
        assert c1 != c2

    def test_n2_degenerate(self):
        c1, c2 = example_6_5(2, places(2, 3, 5, 7))
        assert c1 == c2

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            example_6_5(1, places(2, 3, 5, 7))
        with pytest.raises(DomainError):
            example_6_5(3, places(2, 3, 5, 5))
        with pytest.raises(DomainError):
            example_6_5(3, (REAL,) + places(3, 5, 7))


class TestQuaternionOfClass:
    def test_roundtrip_random(self):
        rng = random.Random(21)
        for _ in range(15):
            a = Fraction(rng.randint(1, 30) * rng.choice([1, -1]))
            b = Fraction(rng.randint(1, 30) * rng.choice([1, -1]))
            cls = class_of_quaternion(QuaternionQ.make(a, b))
            q = quaternion_of_class(cls)
            assert class_of_quaternion(q) == cls

    def test_roundtrip_every_even_support(self):
        small = (REAL,) + places(2, 3, 5, 7, 11, 13, 17)
        supports = [s for k in range(0, len(small) + 1, 2) for s in combinations(small, k)]
        assert len(supports) == 128
        for support in supports:
            cls = BrauerClassQ.make(dict.fromkeys(support, Fraction(1, 2)))
            assert class_of_quaternion(quaternion_of_class(cls)) == cls, cls

    def test_deterministic(self):
        c = BrauerClassQ.make(dict.fromkeys((REAL,) + places(3, 7, 13), Fraction(1, 2)))
        assert quaternion_of_class(c) == quaternion_of_class(c)

    def test_factors_nothing(self, monkeypatch):
        def refuse(n):
            raise RuntimeError(f"factored {n}")

        c = BrauerClassQ.make(dict.fromkeys((REAL,) + places(2, 3, 5, 7, 11, 13, 17),
                                            Fraction(1, 2)))
        monkeypatch.setattr(integers, "_factor_positive", refuse)
        q = quaternion_of_class(c)
        monkeypatch.undo()
        assert class_of_quaternion(q) == c

    def test_twenty_digit_primes(self):
        """Checking candidates by their invariant vectors factors their
        entries, which exhausts pollard_steps on this support; the
        construction's entries are p1 p2 and a prime."""
        p1, p2 = 10**19 + 51, 3 * 10**19 + 41
        q = quaternion_of_class(BrauerClassQ.make(dict.fromkeys(places(p1, p2), Fraction(1, 2))))
        assert q.a == p1 * p2 and q.b.denominator == 1 and is_prime(abs(q.b.numerator))
        ramified = {v for v in (REAL,) + places(2, p1, p2, abs(q.b.numerator))
                    if hilbert(q.a, q.b, v) == -1}
        assert ramified == set(places(p1, p2))

    def test_zero_class(self):
        assert class_of_quaternion(quaternion_of_class(BrauerClassQ.zero())).is_zero()

    def test_exponent_cap(self):
        c = BrauerClassQ.make({PlaceQ(2): Fraction(1, 3), PlaceQ(3): Fraction(2, 3)})
        with pytest.raises(DomainError):
            quaternion_of_class(c)


class TestReciprocityCheck:
    """An odd count of symbols -1 is a faulty symbol: both scans into Br(Q)
    raise InternalError, not the DomainError that would blame the input."""

    def test_class_of_quaternion(self, flipped_real_symbol):
        with pytest.raises(InternalError, match=r"\(2, 5\) is -1 at an odd number of "
                                                r"places: real, 2, 5$"):
            class_of_quaternion(QuaternionQ.make(2, 5))

    def test_quaternion_of_class(self, flipped_real_symbol):
        c = BrauerClassQ.make(dict.fromkeys(places(2, 5), Fraction(1, 2)))
        with pytest.raises(InternalError, match="is -1 at an odd number of places"):
            quaternion_of_class(c)


def test_scale_preserves_local_orders():
    c = BrauerClassQ.make({PlaceQ(2): Fraction(1, 6), PlaceQ(3): Fraction(1, 6),
                           PlaceQ(5): Fraction(2, 3)})
    def orders(cls):
        return {p: v.denominator for p, v in cls.invariants}

    assert orders(c.scale(5)) == orders(c)
