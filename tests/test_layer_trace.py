"""The benchmark's per-layer trace must still find the package's layers.

`bench/spans.py` wraps functions by module and name; a refactor that moves
or renames one of them would silently zero that layer's metrics.  This runs
one Q(x) and one F_p(x) isomorphism through the CLI with the tracer
installed and checks that every function-field layer recorded spans, and
that the F_p(x) decision's splits reach the traced F_p[x] factoring.  It
also runs Hilbert symbols and a Br(Q) class, whose functions live in
`integers` and `brauer_q` but are traced under the names `exact_arith` and
`local_symbols` still bind.
"""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

from quatbrauer.cli import main
from quatbrauer.exact_arith import irreducible_factors_fp

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_function_field_layers_are_traced():
    tracer = _load_spans().Tracer()
    irreducible_factors_fp.cache_clear()  # a split cached by an earlier test makes no span
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            assert main(["qx", "isom", "-f1", "x", "-g1", "3", "-f2", "x", "-g2", "5"]) == 0
            tracer.op = 1
            assert main(["ffx", "isom", "--char", "5", "-f1", "x", "-g1", "2",
                         "-f2", "x", "-g2", "4"]) == 0
    finally:
        tracer.uninstall()
    layers = {span[2] for span in tracer.spans}
    assert {"funcfield_q.tame_symbol", "funcfield_q.is_isomorphic_qx",
            "funcfield_fp.residue_fp", "funcfield_fp.class_fp"} <= layers
    # the places of an F_p(x) basis element are named by the traced factoring
    assert "exact_arith.factor_poly_fp" in {span[2] for span in tracer.spans if span[5] == 1}


def test_brauer_q_layers_are_traced():
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            assert main(["hilbert", "-a", "30", "-b", "-42", "--all"]) == 0
            tracer.op = 1
            assert main(["brq", "class", "-a", "-6", "-b", "35"]) == 0
    finally:
        tracer.uninstall()
    for op in (0, 1):
        assert {"local_symbols.hilbert", "exact_arith.factor_int"} <= \
            {span[2] for span in tracer.spans if span[5] == op}
    assert "brauer_q.class_of_quaternion" in {span[2] for span in tracer.spans if span[5] == 1}
