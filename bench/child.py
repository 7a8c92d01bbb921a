"""Fresh-interpreter entry points, started and timed by run.py.

    python3 bench/child.py setup <workload> <json>   import, one warm-up operation, print "ready"
    python3 bench/child.py import                     print the seconds `import quatbrauer.exact_arith` takes
    python3 bench/child.py trace <json argv>          one traced CLI command, printed as JSON

run.py sets PYTHONPATH to the checkout's src/ and PYTHONHASHSEED.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import traceback
from fractions import Fraction


def setup(workload: str, payload: str) -> None:
    if workload == "cli":
        import quatbrauer.cli  # noqa: F401  the set-up being timed
        import ops
        warm_up = functools.partial(ops.cli_inprocess, json.loads(payload))
    else:
        import quatbrauer  # noqa: F401  the set-up being timed
        import ops
        from quatbrauer.exact_arith import PolyFp, PolyQ
        case = json.loads(payload)
        if workload == "qx_isom":
            case["polys"] = [PolyQ.make([Fraction(c) for c in cs]) for cs in case["coeffs"]]
            warm_up = functools.partial(ops.qx_isom, case, 0)
        else:
            case["polys"] = [PolyFp.make(case["p"], [int(c) for c in cs]) for cs in case["coeffs"]]
            warm_up = functools.partial(ops.fpx_class, case, 0)
    try:
        warm_up()
    except Exception:  # a failing operation is counted by the timed list, not here
        traceback.print_exc()
    print("ready", flush=True)


def import_time() -> None:
    t0 = time.perf_counter()
    import quatbrauer.exact_arith  # noqa: F401
    print(time.perf_counter() - t0, flush=True)


def trace(payload: str) -> None:
    import contextlib
    import io

    import quatbrauer.cli
    import spans

    tracer = spans.Tracer()
    tracer.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = quatbrauer.cli.main(json.loads(payload))
    print(json.dumps({"code": code, "stdout": buf.getvalue(), "spans": tracer.spans}))


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], sys.argv[3])
    elif mode == "import":
        import_time()
    elif mode == "trace":
        trace(sys.argv[2])
    else:
        sys.exit(f"unknown mode {mode!r}")
