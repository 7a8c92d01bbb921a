"""Negative tests of the benchmark's output checks.

Each check must accept the program's real output on a tiny list and reject
the same output with a flipped verdict, a wrong residue vector or a wrong
invariant vector.  The lists run in-process through the workload code.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path(__file__).resolve().parents[1] / "src")]

import ops  # noqa: E402
import oracle  # noqa: E402
import refclock  # noqa: E402
import workloads as W  # noqa: E402
from quatbrauer.cli import main as cli_main  # noqa: E402
from quatbrauer.exact_arith import PolyFp, PolyQ  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def qx_outputs():
    cases = [W.qx_case(SEED, i, small=True) for i in range(len(W.QX_KIND_CYCLE))]
    outs = []
    for i, c in enumerate(cases):
        c["polys"] = [PolyQ.make(cs) for cs in c["coeffs"]]
        outs.append(ops.qx_isom(c, i).to_json())
    return cases, outs


@pytest.fixture(scope="module")
def fpx_outputs():
    cases = [W.fpx_case(SEED, i, small=True) for i in range(16)]
    outs = []
    for i, c in enumerate(cases):
        c["polys"] = [PolyFp.make(c["p"], cs) for cs in c["coeffs"]]
        classes = []
        with ops.recording_classes(classes):
            verdict = ops.fpx_class(c, i)
        outs.append((verdict.to_json(), [cl.to_json() for cl in classes]))
    return cases, outs


@pytest.fixture(scope="module")
def cli_outputs():
    cases = [W.cli_case(SEED, i) for i in range(2 * len(W.CLI_KINDS))]
    outs = []
    for c in cases:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main(c["argv"]) == 0
        outs.append(json.loads(buf.getvalue()))
    return cases, outs


def test_qx_checks_accept_real_outputs(qx_outputs):
    cases, outs = qx_outputs
    assert {c["kind"] for c in cases} == set(W.QX_KINDS)
    assert [W.check_qx(c, o) for c, o in zip(cases, outs)] == [None] * len(cases)


def test_qx_flipped_verdict_fails(qx_outputs):
    for case, out in zip(*qx_outputs):
        bad = dict(out, isomorphic=not out["isomorphic"])
        assert W.check_qx(case, bad) is not None


def test_qx_wrong_invariant_vector_fails(qx_outputs):
    checked = 0
    for case, out in zip(*qx_outputs):
        if case["kind"] != "const_twist":
            continue
        bad = copy.deepcopy(out)
        bad["witness_invariants"]["invariants"].pop()
        assert W.check_qx(case, bad) is not None
        bad = copy.deepcopy(out)
        bad["witness_invariants"]["invariants"].append({"place": "1000003", "inv": "1/2"})
        assert W.check_qx(case, bad) is not None
        checked += 1
    assert checked


def test_qx_wrong_witness_place_fails(qx_outputs):
    checked = 0
    for case, out in zip(*qx_outputs):
        if case["kind"] == "prime_twist":
            assert W.check_qx(case, dict(out, witness_place="x - 1000")) is not None
            checked += 1
    assert checked


def test_fpx_checks_accept_real_outputs(fpx_outputs):
    cases, outs = fpx_outputs
    assert {c["kind"] for c in cases} == set(W.FP_KINDS)
    assert [W.check_fpx(c, v, cl) for c, (v, cl) in zip(cases, outs)] == [None] * len(cases)


def test_fpx_flipped_verdict_fails(fpx_outputs):
    for case, (verdict, classes) in zip(*fpx_outputs):
        bad = dict(verdict, isomorphic=not verdict["isomorphic"])
        assert W.check_fpx(case, bad, classes) is not None


def test_fpx_wrong_residue_vector_fails(fpx_outputs):
    for case, (verdict, classes) in zip(*fpx_outputs):
        for k in range(2):
            bad = copy.deepcopy(classes)
            ram = bad[k]["ramified"]
            if ram:
                ram.pop()
            else:
                ram.append("inf")
            assert W.check_fpx(case, verdict, bad) is not None


def test_fpx_oracle_obeys_reciprocity():
    # the product of all residues of a quaternion class over F_p(x) is 1
    for i in range(32):
        case = W.fpx_case(SEED + 1, i)
        for support in W.fpx_expected_supports(case):
            assert len(support) % 2 == 0


def test_cli_checks_accept_real_outputs(cli_outputs):
    cases, outs = cli_outputs
    assert [W.check_cli(c, o) for c, o in zip(cases, outs)] == [None] * len(cases)


def test_cli_wrong_outputs_fail(cli_outputs):
    for case, out in zip(*cli_outputs):
        bad = copy.deepcopy(out)
        kind = case["kind"]
        if kind == "hilbert_real":
            bad["symbol"] = -bad["symbol"]
        elif kind == "hilbert_all":
            bad["symbols"]["2"] = -bad["symbols"]["2"]
        elif kind == "brq_class":
            bad["invariants"] = bad["invariants"][1:] or [{"place": "3", "inv": "1/2"}]
        elif kind == "qx_residues":
            bad["ramified"] = bad["ramified"][1:]
        else:
            bad["isomorphic"] = not bad["isomorphic"]
        assert W.check_cli(case, bad) is not None, kind


def test_cli_brq_factorization_check(cli_outputs):
    for case, out in zip(*cli_outputs):
        if case["kind"] == "brq_class":
            bad = copy.deepcopy(case)
            bad["built_from"][0][1][-1] += 2
            assert W.check_cli(bad, out) is not None


def test_hilbert_oracle_product_formula():
    for a, b in ((30, -42), (Fraction(-7, 12), 5), (-1, -1), (2, 17), (Fraction(3, 8), -6)):
        places = [None, 2] + sorted(oracle.primes_of(a) | oracle.primes_of(b))
        prod = 1
        for p in dict.fromkeys(places):
            prod *= oracle.hilbert_symbol(a, b, p)
        assert prod == 1
    assert oracle.brq_support(-1, -1) == {"real", "2"}


def test_refclock_rescales_by_the_nearby_median():
    # interval i lies between gaps i and i+1
    clock = refclock.RefClock(passes_per_gap=1, window=2)
    clock.gaps = [[1.0], [2.0], [2.0], [4.0], [100.0], [100.0]]
    assert clock.factor(0) == refclock.NOMINAL_PASS_S / 2.0   # gaps 0..2
    assert clock.factor(2) == refclock.NOMINAL_PASS_S / 3.0   # gaps 1..4
    clock = refclock.RefClock(passes_per_gap=3, window=1)
    clock.gaps = [[1.0, 9.0, 2.0], [3.0, 3.0, 50.0], [3.0, 3.0, 3.0]]
    assert clock.factor(0) == refclock.NOMINAL_PASS_S / 3.0   # gaps 0, 1
    assert clock.factor(1) == refclock.NOMINAL_PASS_S / 3.0   # gaps 1, 2
