"""The package's records are immutable values with a fixed shape.

Each record class, listed here with its fields, must refuse attribute
assignment, hash as the tuple of its fields (RatFuncQ and SuiteResult are
unhashable), and print as `Name(field=value, ...)`.  IsomorphismVerdict is
checked twice, as a Q(x) and as an F_p(x) verdict.
"""

from fractions import Fraction

import pytest

from quatbrauer import (
    brauer_q,
    errors,
    exact_arith,
    funcfield,
    funcfield_fp,
    funcfield_q,
    integers,
    local_symbols,
    selftest,
)
from quatbrauer.brauer_q import BrauerClassQ, PlaceQ, QuaternionQ, class_of_quaternion
from quatbrauer.errors import Budgets
from quatbrauer.exact_arith import PolyFp, PolyQ, RatFuncQ
from quatbrauer.funcfield import FactoredFunc, IsomorphismVerdict, Place
from quatbrauer.funcfield_fp import QuatClassFp, class_fp, is_isomorphic_fpx
from quatbrauer.funcfield_q import (
    QuaternionFF,
    ResidueCharacter,
    is_isomorphic_qx,
    residue_at,
)
from quatbrauer.local_symbols import (
    NonsquareWitness,
    NumberFieldElem,
    SquareClassVerdict,
    is_square_in_number_field,
)
from quatbrauer.selftest import SuiteResult

GAUSS = PolyQ.make([1, 0, 1])  # x^2 + 1


def _elem():
    return NumberFieldElem.make(GAUSS, PolyQ.make([1, 1]))


def _qff(g):
    return QuaternionFF(FactoredFunc.from_poly(GAUSS), FactoredFunc.from_constant(g))


def _fp_pair(g):
    return FactoredFunc.from_poly(PolyFp.make(7, [3, 0, 1])), FactoredFunc.from_constant(g, 7)


# class -> (fields, a function that builds one instance, equal on every call)
RECORDS = {
    PolyQ: (("nums", "den"), lambda: PolyQ.make([Fraction(1, 2), 0, 1])),
    RatFuncQ: (("num", "den"), lambda: RatFuncQ.make(PolyQ.x(), PolyQ.make([1, 1]))),
    PolyFp: (("p", "coeffs"), lambda: PolyFp.make(7, [3, 0, 1])),
    PlaceQ: (("p",), lambda: PlaceQ.finite(5)),
    NumberFieldElem: (("modulus", "value"), _elem),
    NonsquareWitness: (("prime", "factor"),
                       lambda: NonsquareWitness(7, PolyFp.make(7, [3, 0, 1]))),
    SquareClassVerdict: (("is_square", "root", "witness", "verified"),
                         lambda: is_square_in_number_field(_elem())),
    QuaternionQ: (("a", "b"), lambda: QuaternionQ.make(2, 5)),
    BrauerClassQ: (("invariants",), lambda: class_of_quaternion(QuaternionQ.make(-1, -1))),
    Place: (("modulus",), lambda: Place(GAUSS)),
    FactoredFunc: (("constant", "factors"),
                   lambda: FactoredFunc.from_poly(PolyQ.make([-2, 0, 0, 3]))),
    QuatClassFp: (("p", "residues"), lambda: class_fp(*_fp_pair(3))),
    QuaternionFF: (("f", "g"), lambda: _qff(3)),
    ResidueCharacter: (("place", "symbol", "trivial", "verdict"),
                       lambda: residue_at(_qff(3), Place(GAUSS))),
    IsomorphismVerdict: (("isomorphic", "witness_place", "witness_symbols",
                          "witness_invariants", "specialization_point", "citations"),
                         lambda: is_isomorphic_qx(_qff(3), _qff(5))),
    SuiteResult: (("name", "cases", "failures"),
                  lambda: SuiteResult("suite", 3, ["case 1: failed"])),
    Budgets: (("lift_exponent", "witness_prime", "subsets", "pollard_steps"),
              lambda: Budgets(subsets=1)),
}
# equal RatFuncQ values may have different (num, den); SuiteResult holds a list
UNHASHABLE = {RatFuncQ, SuiteResult}
# case -> (class, fields, make): one case per class, and an F_p(x) verdict
CASES = {cls.__name__: (cls, *entry) for cls, entry in RECORDS.items()}
CASES["IsomorphismVerdict-Fp"] = (IsomorphismVerdict, RECORDS[IsomorphismVerdict][0],
                                  lambda: is_isomorphic_fpx(_fp_pair(3), _fp_pair(1)))


def test_every_record_class_is_listed():
    defined = {c for m in (errors, integers, exact_arith, local_symbols, brauer_q, funcfield,
                           funcfield_fp, funcfield_q, selftest)
               for c in vars(m).values()
               if isinstance(c, type) and issubclass(c, tuple) and c.__module__ == m.__name__
               and not c.__name__.startswith("_")}
    assert defined == set(RECORDS)


@pytest.mark.parametrize("case", CASES)
def test_fields_cannot_be_assigned(case):
    cls, fields, make = CASES[case]
    obj = make()
    assert type(obj) is cls
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


@pytest.mark.parametrize("case", CASES)
def test_equal_records_hash_equal(case):
    cls, fields, make = CASES[case]
    a, b = make(), make()
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))


@pytest.mark.parametrize("case", CASES)
def test_repr_names_every_field(case):
    cls, fields, make = CASES[case]
    obj = make()
    assert repr(obj) == f"{cls.__name__}({', '.join(f'{f}={getattr(obj, f)!r}' for f in fields)})"


@pytest.mark.parametrize("g,keys", [(1, {"isomorphic", "witness_place"}),
                                    (5, {"isomorphic"})])
def test_fp_verdict_sets_only_residue_fields(g, keys):
    """Br(F_p) = 0: an F_p(x) verdict has no symbols, invariants, point or citations."""
    v = is_isomorphic_fpx(_fp_pair(3), _fp_pair(g))
    assert type(v) is IsomorphismVerdict and v.isomorphic == (g == 5)
    assert set(v.to_json()) == keys
    assert v._replace(witness_place=None) == IsomorphismVerdict(v.isomorphic)


def test_ratfunc_equality_is_by_value():
    a, b = RatFuncQ.make(PolyQ.x(), PolyQ.x()), RatFuncQ.make(PolyQ.const(1))
    assert a == b and not a != b
    assert a != RatFuncQ.make(PolyQ.x()) and not a == RatFuncQ.make(PolyQ.x())
