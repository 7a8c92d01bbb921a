"""The benchmark's per-layer trace must still find the function-field layers.

`bench/spans.py` wraps functions by module and name; a refactor that moves
or renames one of them would silently zero that layer's metrics.  This runs
one Q(x) and one F_p(x) isomorphism through the CLI with the tracer
installed and checks that every function-field layer recorded spans.
"""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

from quatbrauer.cli import main

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_function_field_layers_are_traced():
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            assert main(["qx", "isom", "-f1", "x", "-g1", "3", "-f2", "x", "-g2", "5"]) == 0
            assert main(["ffx", "isom", "--char", "5", "-f1", "x", "-g1", "2",
                         "-f2", "x", "-g2", "4"]) == 0
    finally:
        tracer.uninstall()
    layers = {span[2] for span in tracer.spans}
    assert {"funcfield_q.tame_symbol", "funcfield_q.is_isomorphic_qx",
            "funcfield_fp.residue_fp", "funcfield_fp.class_fp"} <= layers
