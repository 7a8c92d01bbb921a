"""Seeded property suites behind the `selftest` CLI command.

Each suite draws its own cases from a single seed so a run is reproducible
bit for bit, and passes its stream to no library call, whose results depend
on their inputs alone; the CLI exits 0 iff every suite passes.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .brauer_q import QuaternionQ, class_of_quaternion, hilbert, support_places
from .errors import InternalError
from .exact_arith import PolyFp, PolyQ, factor_poly_fp, factor_poly_q
from .funcfield import FactoredFunc
from .funcfield_fp import class_fp
from .funcfield_q import QuaternionFF, is_isomorphic_qx
from .local_symbols import NumberFieldElem, is_square_in_number_field


class SuiteResult(NamedTuple):
    name: str
    cases: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _random_rational(rng: random.Random, bound: int = 10**4) -> Fraction:
    n = rng.randint(1, bound) * rng.choice([1, -1])
    d = rng.randint(1, bound)
    return Fraction(n, d)


def _suite(name: str, cases: int, case) -> SuiteResult:
    """Run the generator `case()` `cases` times, collecting the failures it
    yields; an InternalError it raises fails that case, and the rest still run."""
    failures = []
    for i in range(cases):
        try:
            failures.extend(case())
        except InternalError as exc:
            failures.append(f"case {i}: internal error: {exc}")
    return SuiteResult(name, cases, failures)


def suite_product_formula(rng: random.Random, cases: int) -> SuiteResult:
    def case():
        a, b = _random_rational(rng), _random_rational(rng)
        prod = 1
        for v in support_places(a, b):
            prod *= hilbert(a, b, v)
        if prod != 1:
            yield f"product formula fails for ({a}, {b})"
    return _suite("hilbert product formula", cases, case)


def suite_steinberg(rng: random.Random, cases: int) -> SuiteResult:
    def case():
        a = _random_rational(rng, 100)
        if a in (0, 1):
            return
        for v in support_places(a, a * (1 - a) if a != 1 else a):
            if hilbert(a, -a, v) != 1:
                yield f"(a, -a) != 1 at {v} for a = {a}"
            if a != 1 and hilbert(a, 1 - a, v) != 1:
                yield f"(a, 1-a) != 1 at {v} for a = {a}"
    return _suite("steinberg relations", cases, case)


def suite_fp_reciprocity(rng: random.Random, cases: int) -> SuiteResult:
    def case():
        # class_fp checks reciprocity itself: a violation is an InternalError
        p = rng.choice([3, 5, 7, 11])
        f = PolyFp.make(p, [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1])
        g = PolyFp.make(p, [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1])
        class_fp(FactoredFunc.from_poly(f), FactoredFunc.from_poly(g))
        yield from ()
    return _suite("F_p(x) reciprocity", cases, case)


def _multiplies_back(f, unit, factors) -> bool:
    """Whether unit * prod(h ** m) over the (h, m) of `factors` is f."""
    return math.prod((h for h, m in factors for _ in range(m)), start=f.scalar(unit)) == f


def suite_factor_roundtrip(rng: random.Random, cases: int) -> SuiteResult:
    def case():
        nfac = rng.randint(2, 4)
        prod = PolyQ.const(rng.choice([1, 2, -3, Fraction(1, 2)]))
        for _ in range(nfac):
            d = rng.randint(1, 3)
            prod = prod * PolyQ.make([rng.randint(-4, 4) for _ in range(d)] + [1])
        if not _multiplies_back(prod, *factor_poly_q(prod)):
            yield f"round-trip failed for {prod}"
    return _suite("Q[x] factorization round-trip", cases, case)


def suite_fp_factor_roundtrip(rng: random.Random, cases: int) -> SuiteResult:
    def case():
        p = rng.choice([3, 5, 7, 13])
        f = PolyFp.make(p, [rng.randrange(p) for _ in range(rng.randint(2, 8))] + [1])
        if not _multiplies_back(f, *factor_poly_fp(f)):
            yield f"CZ round-trip failed for {f} over F_{p}"
    return _suite("F_p[x] factorization round-trip", cases, case)


def suite_square_tester(rng: random.Random, cases: int) -> SuiteResult:
    pi = PolyQ.make([1, 0, 1])  # x^2 + 1

    def case():
        r = PolyQ.make([rng.randint(-9, 9), rng.randint(-9, 9)])
        if r.is_zero():
            return
        c = NumberFieldElem.make(pi, (r * r) % pi)
        verdict = is_square_in_number_field(c)
        if not verdict.is_square:
            yield f"square {r}^2 mod {pi} not recognized"
    return _suite("number-field square recognition", cases, case)


def suite_quaternion_parity(rng: random.Random, cases: int) -> SuiteResult:
    def case():
        a, b = _random_rational(rng, 100), _random_rational(rng, 100)
        cls = class_of_quaternion(QuaternionQ.make(a, b))
        if len(cls.invariants) % 2:
            yield f"odd ramification support for ({a}, {b})"
    return _suite("quaternion support parity", cases, case)


def suite_qx_isomorphism(rng: random.Random, cases: int) -> SuiteResult:
    def entry():
        # products of small monic polynomials, often reducible or repeated,
        # so that the entries' common basis has to be refined
        out = FactoredFunc.from_constant(rng.choice([1, -1, 2, -3, 5, Fraction(1, 2)]))
        for _ in range(rng.randint(1, 3)):
            part = FactoredFunc.from_poly(
                PolyQ.make([rng.randint(-3, 3) for _ in range(rng.randint(1, 2))] + [1]))
            out = out * (part if rng.random() < 0.7 else part.inverse())
        return out

    def case():
        f, g, h = entry(), entry(), entry()
        D = QuaternionFF(f, g)
        for E in (QuaternionFF(g, f), QuaternionFF(f, g * h * h)):
            if not is_isomorphic_qx(D, E).isomorphic:
                yield f"{D} and {E} are not found isomorphic"
    return _suite("Q(x) isomorphism invariances", cases, case)


def run_selftest(seed: int = 0, cases: int = 50) -> list[SuiteResult]:
    rng = random.Random(seed)
    return [
        suite_product_formula(random.Random(rng.random()), cases),
        suite_steinberg(random.Random(rng.random()), max(10, cases // 5)),
        suite_fp_reciprocity(random.Random(rng.random()), cases),
        suite_factor_roundtrip(random.Random(rng.random()), max(10, cases // 2)),
        suite_fp_factor_roundtrip(random.Random(rng.random()), cases),
        suite_square_tester(random.Random(rng.random()), max(5, cases // 10)),
        suite_quaternion_parity(random.Random(rng.random()), cases),
        suite_qx_isomorphism(random.Random(rng.random()), max(10, cases // 2)),
    ]
