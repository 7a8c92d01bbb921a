"""quatbrauer benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload qx_isom|fpx_class|cli [--seed 1] [--seconds 15] [--trace 0|1]

Run from the root of a checkout.  The workload list has a fixed length for a
given --seconds (calibrated operations per second of the reference host),
so every run with the same arguments does identical work.  Every timing is
read against the reference clock in refclock.py; raw wall-clock figures are
printed beside the rescaled ones.  With --trace 0 the last line of standard
output holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of spans.py, from a traced pass over the same list.  The full record
of a run is written to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import sympy

import ops
import spans
import workloads as W
from refclock import (INPROCESS_PASSES, INPROCESS_WINDOW, PROCESS_PASSES, PROCESS_WINDOW,
                      RefClock)

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

# operations per --seconds: sized so that the timed part of a run takes about
# --seconds on the reference host.  A list holds whole periods of its
# workload's schedule (see workloads.py), and at least MIN_OPS operations.
OPS_PER_SECOND = {"qx_isom": 40.0, "fpx_class": 26.0, "cli": 2.0}
MIN_OPS = {"qx_isom": 100, "fpx_class": 100, "cli": 12}
SETUP_RUNS = 7          # fresh interpreters per run for setup_s
IMPORT_RUNS = 3         # fresh interpreters for exact_arith.import_ms
INTERPRETER_RUNS = 5    # bare `python -c pass` for cli.interpreter_ms
PROCESS_TIMEOUT_S = 60


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QUATBRAUER_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: list[str], until_line: bool = False) -> tuple[float, int, str]:
    """Start a process, wait for it, and return (seconds, exit code, stdout).

    With until_line the time runs to the first line of output (the child's
    "ready"), otherwise to the process's exit.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        if until_line:
            if not select.select([proc.stdout], [], [], PROCESS_TIMEOUT_S)[0]:
                raise subprocess.TimeoutExpired(argv, PROCESS_TIMEOUT_S)
            first = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
            out = first + rest
        else:
            out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
            elapsed = time.perf_counter() - t0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(f"{' '.join(argv[:6])} ... exited {proc.returncode}: {err[-2000:]}\n")
    return elapsed, proc.returncode, out


def timed_processes(argvs: list[list[str]], until_line: bool = False):
    """Run processes one at a time with reference passes between them; return
    raw seconds, rescaled seconds, exit codes and outputs."""
    clock = RefClock(PROCESS_PASSES, PROCESS_WINDOW)
    clock.tick()
    raw, codes, outs = [], [], []
    for argv in argvs:
        t, code, out = run_process(argv, until_line)
        clock.tick()
        raw.append(t)
        codes.append(code)
        outs.append(out)
    scaled = [t * clock.factor(i) for i, t in enumerate(raw)]
    return raw, scaled, codes, outs, clock


def case_json(case: dict) -> str:
    """The inputs of an in-process case, for a fresh interpreter."""
    return json.dumps({"coeffs": [[str(c) for c in cs] for cs in case["coeffs"]],
                       "p": case.get("p")})


# -- in-process workloads ------------------------------------------------------

class InProcess:
    """qx_isom and fpx_class: a list of library calls in this interpreter."""

    def __init__(self, name: str, seed: int, n: int):
        from quatbrauer.exact_arith import PolyFp, PolyQ

        self.name = name
        gen = W.qx_case if name == "qx_isom" else W.fpx_case
        # case n is the untimed warm-up operation
        self.cases = [gen(seed, i) for i in range(n + 1)]
        for c in self.cases:
            if name == "qx_isom":
                c["polys"] = [PolyQ.make(cs) for cs in c["coeffs"]]
            else:
                c["polys"] = [PolyFp.make(c["p"], cs) for cs in c["coeffs"]]
        self.warmup = self.cases.pop()
        self.op = ops.qx_isom if name == "qx_isom" else ops.fpx_class
        self.seeds = [W.case_seed(seed, i) for i in range(n + 1)]
        self.info = {}
        if name == "qx_isom":
            self.info["repeated_place_share"] = W.repeated_place_share(self.cases)

    def warm(self) -> None:
        try:
            self.op(self.warmup, self.seeds[-1])
        except Exception:  # a failing operation is counted by the timed list, not here
            pass

    def setup_argv(self) -> list[str]:
        return [sys.executable, str(BENCH / "child.py"), "setup", self.name,
                case_json(self.warmup)]

    def timed_pass(self, tracer=None):
        """Run the list once; return raw and rescaled seconds, the outputs in
        their JSON form (None for a failed operation), failures and the clock."""
        clock = RefClock(INPROCESS_PASSES, INPROCESS_WINDOW)
        raw, outs, failed, classes = [], [], 0, []
        with ops.recording_classes(classes):
            clock.tick()
            for i, case in enumerate(self.cases):
                if tracer is not None:
                    tracer.op = i
                seen = len(classes)
                t0 = time.perf_counter()
                try:
                    out = self.op(case, self.seeds[i])
                except Exception as exc:  # an operation that raises counts as failed
                    out = exc
                raw.append(time.perf_counter() - t0)
                clock.tick()
                if isinstance(out, Exception):
                    failed += 1
                    outs.append(None)
                elif self.name == "qx_isom":
                    outs.append(out.to_json())
                else:
                    outs.append((out.to_json(), [c.to_json() for c in classes[seen:]]))
        scaled = [t * clock.factor(i) for i, t in enumerate(raw)]
        return raw, scaled, outs, failed, clock

    def check(self, outs_json) -> list[str]:
        errors = []
        for i, (case, out) in enumerate(zip(self.cases, outs_json)):
            if out is None:
                continue
            err = W.check_qx(case, out) if self.name == "qx_isom" else W.check_fpx(case, *out)
            if err:
                errors.append(f"op {i}: {err}")
        return errors


# -- cli workload ----------------------------------------------------------------

class Cli:
    """Whole `python -m quatbrauer.cli --json ...` processes, one at a time."""

    def __init__(self, seed: int, n: int):
        self.name = "cli"
        self.cases = [W.cli_case(seed, i) for i in range(n + 1)]
        self.warmup = self.cases.pop()
        self.info = {}

    def setup_argv(self) -> list[str]:
        return [sys.executable, str(BENCH / "child.py"), "setup", "cli",
                json.dumps(self.warmup["argv"])]

    def argvs(self, traced: bool) -> list[list[str]]:
        if traced:
            return [[sys.executable, str(BENCH / "child.py"), "trace", json.dumps(c["argv"])]
                    for c in self.cases]
        return [[sys.executable, "-m", "quatbrauer.cli", *c["argv"]] for c in self.cases]

    def timed_pass(self):
        """Run the list once; return raw and rescaled seconds, the outputs
        (None for a process that failed), failures and the clock."""
        raw, scaled, codes, outs, clock = timed_processes(self.argvs(False))
        outs = [o if c == 0 else None for o, c in zip(outs, codes)]
        return raw, scaled, outs, sum(1 for c in codes if c != 0), clock

    def check(self, outs: list[str | None]) -> list[str]:
        errors = []
        for i, (case, out) in enumerate(zip(self.cases, outs)):
            if out is None:
                continue
            try:
                payload = json.loads(out)
            except json.JSONDecodeError:
                errors.append(f"op {i}: output is not JSON: {out[:200]!r}")
                continue
            err = W.check_cli(case, payload)
            if err:
                errors.append(f"op {i} ({case['kind']}): {err}")
        return errors


# -- metrics -----------------------------------------------------------------------

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def timing_metrics(seconds: list[float], ok: list[bool]) -> dict:
    """ops_per_s counts completed operations over the time of all of them;
    the percentiles are over completed operations."""
    done = [t for t, good in zip(seconds, ok) if good]
    q = statistics.quantiles(done, n=10, method="inclusive") if len(done) > 1 else done * 9
    return {"ops_per_s": len(done) / sum(seconds),
            "op_p50_ms": statistics.median(done) * 1e3,
            "op_p90_ms": q[8] * 1e3}


def fresh_interpreters(argv: list[str], runs: int, until_line: bool):
    """Median rescaled and raw seconds over `runs` fresh interpreters, and the
    reference passes taken between them."""
    raw, scaled, codes, _, clock = timed_processes([argv] * runs, until_line)
    if any(codes):
        raise RuntimeError(f"fresh interpreter {argv[1:3]} failed")
    return statistics.median(scaled), statistics.median(raw), clock


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def versions() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "machine": platform.machine()}


# -- the run -------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("qx_isom", "fpx_class", "cli"))
    ap.add_argument("--seed", type=int, default=1, help="workload seed")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="sets the list length: about this many seconds of timed work")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "quatbrauer" / "__init__.py").is_file():
        print(f"no quatbrauer sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    os.environ.pop("QUATBRAUER_SEED", None)
    os.environ.pop("QUATBRAUER_SQUARE_BUDGET", None)
    import quatbrauer
    if Path(quatbrauer.__file__).resolve().parent != (SRC / "quatbrauer").resolve():
        print(f"imported quatbrauer from {quatbrauer.__file__}, not {SRC}", file=sys.stderr)
        return 2

    name = args.workload
    period = {"qx_isom": W.QX_PERIOD, "fpx_class": W.FP_PERIOD, "cli": len(W.CLI_KINDS)}[name]
    periods = max(-(-MIN_OPS[name] // period), round(args.seconds * OPS_PER_SECOND[name] / period))
    n = periods * period
    wl = Cli(args.seed, n) if name == "cli" else InProcess(name, args.seed, n)
    record: dict = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "ops": n, "versions": versions(),
                    "python_hash_seed_children": 0, **wl.info}
    errors: list[str] = []

    if name != "cli":
        wl.warm()

    if args.trace == 0:
        setup_s, setup_raw, setup_clock = fresh_interpreters(
            wl.setup_argv(), SETUP_RUNS, until_line=True)
        raw, scaled, outs, failed, clock = wl.timed_pass()
        errors += wl.check(outs)
        ok = [o is not None for o in outs]
        metrics, raw_metrics = timing_metrics(scaled, ok), timing_metrics(raw, ok)
        metrics["setup_s"], raw_metrics["setup_s"] = setup_s, setup_raw
        metrics["peak_rss_mb"] = raw_metrics["peak_rss_mb"] = peak_rss_mb(name)
        units = END_TO_END_UNITS
        record["reference_pass"] = {"ops": clock.summary(), "setup": setup_clock.summary()}
        record["op_seconds"] = {"raw": raw, "rescaled": scaled, "passes": clock.passes}
    else:
        metrics, raw_metrics, units, failed = traced_run(wl, record, errors)

    record.update({"attempted": n, "failed": failed, "errors": errors[:50],
                   "metrics": metrics, "raw_metrics": raw_metrics})
    write_result(f"{name}-seed{args.seed}-trace{args.trace}.json", record)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"run": {k: record[k] for k in ("workload", "seed", "ops", "versions")},
                      "reference_pass": record.get("reference_pass"),
                      "raw_metrics": raw_metrics}))
    print(json.dumps({"correct": not errors, "attempted": n, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def traced_run(wl, record: dict, errors: list[str]):
    """Per-layer metrics: the list untraced, then traced, in the same process
    (for cli, in fresh processes either way)."""

    # the child reports its own import time; rescale that, not the process time
    _, _, codes, outs, imp_clock = timed_processes(
        [[sys.executable, str(BENCH / "child.py"), "import"]] * IMPORT_RUNS)
    if any(codes):
        raise RuntimeError("import quatbrauer.exact_arith failed in a fresh interpreter")
    child_import = [float(o) for o in outs]
    import_ms = statistics.median(t * imp_clock.factor(i) for i, t in enumerate(child_import)) * 1e3
    interp_s, interp_raw, _ = fresh_interpreters(
        [sys.executable, "-c", "pass"], INTERPRETER_RUNS, until_line=False)

    sympy.core.cache.clear_cache()
    raw, scaled, outs, failed, clock = wl.timed_pass()
    errors += wl.check(outs)
    cmd_p50 = dict.fromkeys(W.CLI_KINDS, 0.0)
    if wl.name == "cli":
        for kind in W.CLI_KINDS:
            ts = [t for t, c, o in zip(scaled, wl.cases, outs) if c["kind"] == kind and o]
            cmd_p50[kind] = statistics.median(ts) * 1e3 if ts else 0.0
        t_raw, t_scaled, codes, t_outs, t_clock = timed_processes(wl.argvs(True))
        all_spans = []
        for i, (code, out) in enumerate(zip(codes, t_outs)):
            if code != 0:
                if outs[i] is not None:
                    errors.append(f"op {i}: traced process failed, untraced one did not")
                continue
            child = json.loads(out)
            if outs[i] is not None and json.loads(child["stdout"]) != json.loads(outs[i]):
                errors.append(f"op {i}: traced output differs from untraced output")
            base = len(all_spans)
            for s in child["spans"]:
                all_spans.append([s[0] + base, s[1] + base if s[1] >= 0 else -1,
                                  s[2], s[3], s[4], i, s[6]])
        factors = [t_clock.factor(i) for i in range(len(wl.cases))]
    else:
        tracer = spans.Tracer()
        tracer.install()
        sympy.core.cache.clear_cache()
        try:
            t_raw, t_scaled, t_outs, _, t_clock = wl.timed_pass(tracer)
        finally:
            tracer.uninstall()
        for i, (a, b) in enumerate(zip(outs, t_outs)):
            if a != b:
                errors.append(f"op {i}: traced output differs from untraced output")
        all_spans = tracer.spans
        factors = [t_clock.factor(i) for i in range(len(wl.cases))]

    metrics = {"exact_arith.import_ms": import_ms}
    metrics.update(spans.layer_metrics(all_spans, len(wl.cases), factors))
    metrics["cli.interpreter_ms"] = interp_s * 1e3
    for kind in W.CLI_KINDS:
        metrics[f"cli.{kind}.p50_ms"] = cmd_p50[kind]
    metrics["trace.overhead_pct"] = (sum(t_scaled) / sum(scaled) - 1) * 100
    raw_metrics = {"exact_arith.import_ms": statistics.median(child_import) * 1e3,
                   "cli.interpreter_ms": interp_raw * 1e3,
                   "trace.overhead_pct": (sum(t_raw) / sum(raw) - 1) * 100,
                   "untraced_s": sum(scaled), "traced_s": sum(t_scaled)}
    units = {k: ("ms/op" if k.endswith("self_ms") else
                 "1/op" if k.endswith((".calls", "witness_primes")) else
                 "ratio" if k.endswith("witness_yield") else
                 "%" if k.endswith("_pct") else "ms") for k in metrics}
    record["reference_pass"] = {"untraced": clock.summary(), "traced": t_clock.summary(),
                                "import": imp_clock.summary()}
    write_result(f"{wl.name}-seed{record['seed']}-spans.json", all_spans)
    return metrics, raw_metrics, units, failed


def write_result(filename: str, data) -> None:
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / filename).write_text(json.dumps(data, default=str))


if __name__ == "__main__":
    sys.exit(main())
