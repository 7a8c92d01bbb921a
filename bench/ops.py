"""The timed operations: calls into quatbrauer and nothing else.

Kept apart from input generation and checking so that a fresh interpreter
timed for set-up imports only this module and the package.
"""

from __future__ import annotations

import contextlib
import random


def qx_isom(case: dict, rng_seed: int):
    """Factor four expanded Q[x] entries, then decide isomorphism over Q(x)."""
    from quatbrauer.funcfield_q import FactoredFunc, QuaternionFF, is_isomorphic_qx

    f1, g1, f2, g2 = (FactoredFunc.from_poly(e) for e in case["polys"])
    return is_isomorphic_qx(QuaternionFF(f1, g1), QuaternionFF(f2, g2),
                            random.Random(rng_seed))


def fpx_class(case: dict, rng_seed: int):
    """Factor four expanded F_p[x] entries, then decide isomorphism over F_p(x)."""
    from quatbrauer.funcfield_fp import FactoredFuncFp, is_isomorphic_fpx

    rng = random.Random(rng_seed)
    f1, g1, f2, g2 = (FactoredFuncFp.from_poly(e, rng) for e in case["polys"])
    return is_isomorphic_fpx((f1, g1), (f2, g2))


@contextlib.contextmanager
def recording_classes(sink: list):
    """While active, append every residue vector `class_fp` returns to sink,
    so that a check reads the vectors a verdict was made from.  The cost is
    one extra call and one append per vector."""
    from quatbrauer import funcfield_fp

    class_fp = funcfield_fp.class_fp

    def recording(f, g):
        out = class_fp(f, g)
        sink.append(out)
        return out

    funcfield_fp.class_fp = recording
    try:
        yield
    finally:
        funcfield_fp.class_fp = class_fp


def cli_inprocess(argv: list[str]) -> None:
    """Run one CLI command inside this interpreter, output discarded."""
    import io

    from quatbrauer.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"quatbrauer {' '.join(argv)} exited {code}")
