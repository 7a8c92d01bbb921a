"""Verdict pins: one schedule period of each in-process benchmark workload,
decided at a fixed seed, must give the verdicts recorded before.

A speed change that moves any verdict, witness place, witness symbol,
specialization point or F_p(x) residue vector fails here.  The inputs come
from `bench/workloads.py` (read only), and the library is called as
`bench/ops.py` calls it.  When a change is meant to move a verdict, record
the new hashes with the reason next to them.
"""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

from quatbrauer.exact_arith import PolyFp, PolyQ
from quatbrauer.funcfield_fp import class_fp, is_isomorphic_fpx
from quatbrauer.funcfield_q import FactoredFunc, QuaternionFF, is_isomorphic_qx

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 1

# sha256 of json.dumps([...to_json()...], sort_keys=True) over one period:
# 96 `qx_case`s and 64 `fpx_case`s at SEED
QX_VERDICTS = "edf1ac01d12b05f218c3c7ce61518756a443069138be14e77c9f38b04a17ad23"
FPX_VERDICTS = "cec73d7dca083ba35c33fd06e8aa3dc09d3e2796946587145c8480d195f9bfbb"
FPX_CLASSES = "e19af86e046cc9001b89d62a5cc1e28867b731b894fde944d83c502c9dc69a88"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


def _sha(outs) -> str:
    return hashlib.sha256(json.dumps(outs, sort_keys=True).encode()).hexdigest()


def test_qx_isom_verdicts(workloads):
    outs = []
    for i in range(workloads.QX_PERIOD):
        polys = [PolyQ.make(cs) for cs in workloads.qx_case(SEED, i)["coeffs"]]
        f1, g1, f2, g2 = (FactoredFunc.from_poly(e) for e in polys)
        outs.append(is_isomorphic_qx(QuaternionFF(f1, g1), QuaternionFF(f2, g2)).to_json())
    assert len(outs) == 96
    assert _sha(outs) == QX_VERDICTS


def test_fpx_class_verdicts(workloads):
    outs, classes = [], []
    for i in range(workloads.FP_PERIOD):
        case = workloads.fpx_case(SEED, i)
        f1, g1, f2, g2 = (FactoredFunc.from_poly(PolyFp.make(case["p"], cs))
                          for cs in case["coeffs"])
        outs.append(is_isomorphic_fpx((f1, g1), (f2, g2)).to_json())
        classes += [class_fp(f1, g1).to_json(), class_fp(f2, g2).to_json()]
    assert len(outs) == 64
    assert _sha(outs) == FPX_VERDICTS
    assert _sha(classes) == FPX_CLASSES
