"""Per-layer tracing done from the benchmark's side of the package boundary.

`Tracer.install()` wraps the public functions of each layer in every loaded
quatbrauer module that binds them (`from .x import f` copies the name, so
patching the defining module alone would miss callers).  Each call records a
span [id, parent id, layer, start, end, operation, tag] in memory; the spans
are written out when the run ends.  A layer's self time is its spans'
durations minus the parts covered by their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> (module, public functions); the layers are the package's modules
LAYERS = {
    "exact_arith.parse": ("exact_arith", ("poly_from_string", "ratfunc_from_string",
                                          "polyfp_from_string")),
    "exact_arith.factor_int": ("exact_arith", ("factor_int",)),
    "exact_arith.factor_poly_q": ("exact_arith", ("factor_poly_q",)),
    "exact_arith.factor_poly_fp": ("exact_arith", ("factor_poly_fp",)),
    "local_symbols.square_test": ("local_symbols", ("is_square_in_number_field",)),
    "local_symbols.hilbert": ("local_symbols", ("hilbert",)),
    "brauer_q.class_of_quaternion": ("brauer_q", ("class_of_quaternion",)),
    "funcfield_q.tame_symbol": ("funcfield_q", ("tame_symbol",)),
    "funcfield_q.is_isomorphic_qx": ("funcfield_q", ("is_isomorphic_qx",)),
    "funcfield_fp.residue_fp": ("funcfield_fp", ("residue_fp",)),
    "funcfield_fp.class_fp": ("funcfield_fp", ("class_fp",)),
}

# spans of these layers also record one fact about the result
TAGS = {"local_symbols.square_test": lambda verdict: verdict.is_square}

# metrics reported per layer: both, or self time only
CALLS_AND_SELF = ("exact_arith.parse", "exact_arith.factor_int", "exact_arith.factor_poly_q",
                  "exact_arith.factor_poly_fp", "local_symbols.square_test",
                  "local_symbols.hilbert", "brauer_q.class_of_quaternion",
                  "funcfield_q.tame_symbol", "funcfield_fp.residue_fp")
SELF_ONLY = ("funcfield_q.is_isomorphic_qx", "funcfield_fp.class_fp")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        spans, stack, tag = self.spans, self._stack, TAGS.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, layer, 0.0, 0.0, self.op, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if tag is not None:
                rec[6] = tag(out)
            return out

        return traced

    def install(self) -> None:
        for layer, (modname, names) in LAYERS.items():
            mod = importlib.import_module(f"quatbrauer.{modname}")
            for name in names:
                orig = getattr(mod, name)
                wrapper = self._wrap(layer, orig)
                for m in list(sys.modules.values()):
                    if getattr(m, "__name__", "").split(".")[0] != "quatbrauer":
                        continue
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()


def layer_metrics(spans: list[list], n_ops: int, factors: list[float]) -> dict[str, float]:
    """Per-operation calls and self time (ms, on the reference clock) of each
    layer, plus the square test's witness-prime counters.

    `factors[op]` rescales the spans of operation `op`.  A call is counted
    where a layer is entered from outside itself, so a layer function that
    calls another function of the same layer counts once.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[4] - s[3]
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    witness_primes = nonsquares = 0
    for s in spans:
        sid, parent, layer, t0, t1, op, tag = s
        self_s[layer] += (t1 - t0 - child_time[sid]) * factors[op]
        if parent < 0 or spans[parent][2] != layer:
            calls[layer] += 1
        if layer == "local_symbols.square_test" and tag is False:
            nonsquares += 1
        if layer == "exact_arith.factor_poly_fp":
            p = parent
            while p >= 0 and spans[p][2] != "local_symbols.square_test":
                p = spans[p][1]
            witness_primes += p >= 0
    out: dict[str, float] = {}
    for layer in CALLS_AND_SELF:
        out[f"{layer}.calls"] = calls[layer] / n_ops
        out[f"{layer}.self_ms"] = self_s[layer] * 1e3 / n_ops
    for layer in SELF_ONLY:
        out[f"{layer}.self_ms"] = self_s[layer] * 1e3 / n_ops
    out["local_symbols.square_test.witness_primes"] = witness_primes / n_ops
    out["local_symbols.square_test.witness_yield"] = (nonsquares / witness_primes
                                                      if witness_primes else 0.0)
    return out
