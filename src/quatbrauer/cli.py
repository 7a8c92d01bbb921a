"""Command-line surface.

Subcommands mirror the library modules: `hilbert` for symbols over Q,
`brq` for local invariant vectors, `qx` for quaternions over Q(x),
`ffx` for quaternions over F_p(x), and `selftest` for the seeded property
suites.  Exit codes: 0 ok, 1 mathematical precondition error, 2 parse
error, 3 undecided within budget, 4 internal self-check failed.  Each
handler imports the layers it runs, so that a process compiles only those.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import prod

from .errors import BUDGETS, BudgetError, DomainError, InternalError, ParseError


def _fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}") from None


def _funcfield(s: str):
    from .exact_arith import ratfunc_from_string
    from .funcfield import FactoredFunc
    num, den = ratfunc_from_string(s)
    if num.is_zero():
        raise DomainError(f"{s!r} is zero, not a unit of Q(x)")
    return FactoredFunc.from_poly(num) * FactoredFunc.from_poly(den).inverse()


def _load_class(path: str):
    from .brauer_q import BrauerClassQ
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON in {path}: {exc}") from None
    try:
        return BrauerClassQ.from_json(data)
    except DomainError:  # a place that is no prime, or no valid vector: exit 1, as `-p 9`
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad class schema in {path}: {exc}") from None


def _positive(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


# -- command handlers --------------------------------------------------------

def cmd_hilbert(args) -> int:
    from .brauer_q import REAL, PlaceQ, hilbert, support_places
    a, b = _fraction(args.a), _fraction(args.b)
    if args.all:
        syms = {str(v): hilbert(a, b, v) for v in support_places(a, b)}
        product = prod(syms.values())
        _emit(args, {"symbols": syms, "product": product},
              "\n".join(f"({a}, {b})_{v} = {s}" for v, s in syms.items())
              + f"\nproduct = {product}")
    else:
        place = REAL if args.real else PlaceQ.finite(args.p)
        s = hilbert(a, b, place)
        _emit(args, {"place": str(place), "symbol": s},
              f"({a}, {b})_{place} = {s}")
    return 0


def cmd_brq_class(args) -> int:
    from .brauer_q import QuaternionQ, class_of_quaternion
    q = QuaternionQ.make(_fraction(args.a), _fraction(args.b))
    cls = class_of_quaternion(q)
    _emit(args, cls.to_json(), f"class of {q}: {cls}")
    return 0


def cmd_brq_samesub(args) -> int:
    from .brauer_q import same_maximal_subfields_q
    c1, c2 = _load_class(args.file1), _load_class(args.file2)
    same = same_maximal_subfields_q(c1, c2)
    _emit(args, {"same_maximal_subfields": same,
                 "citations": ["equal local index vectors (AHBN)"]},
          f"same maximal subfields: {same}")
    return 0


def cmd_brq_ex65(args) -> int:
    from .brauer_q import PlaceQ, example_6_5, same_maximal_subfields_q, same_subgroup
    try:  # only int's ValueError: PlaceQ.finite's DomainError (exit 1) is one too
        primes = [int(p) for p in args.places.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad place list {args.places!r}: {exc}") from None
    c1, c2 = example_6_5(args.n, tuple(map(PlaceQ.finite, primes)))
    preds = {
        "same_maximal_subfields": same_maximal_subfields_q(c1, c2),
        "same_subgroup": same_subgroup(c1, c2),
        "equal": c1 == c2,
    }
    _emit(args, {"class1": c1.to_json(), "class2": c2.to_json(), **preds},
          f"class1 = {c1}\nclass2 = {c2}\n"
          + "\n".join(f"{k} = {v}" for k, v in preds.items()))
    return 0


def cmd_brq_scale(args) -> int:
    c = _load_class(args.file)
    out = c.scale(args.m)
    _emit(args, out.to_json(), f"{args.m} * {c} = {out}")
    return 0


def cmd_brq_present(args) -> int:
    from .brauer_q import quaternion_of_class
    c = _load_class(args.file)
    q = quaternion_of_class(c)
    _emit(args, {"a": str(q.a), "b": str(q.b)}, f"presentation of {c}: {q}")
    return 0


def cmd_qx_residues(args) -> int:
    from .funcfield import places
    from .funcfield_q import QuaternionFF, residue_at
    D = QuaternionFF(_funcfield(args.f), _funcfield(args.g))
    table = {str(v): residue_at(D, v).to_json() for v in places(D.f, D.g)}
    ram = [v for v, t in table.items() if not t["trivial"]]
    _emit(args, {"residues": table, "ramified": ram},
          "\n".join(f"{v}: {'trivial' if t['trivial'] else 'ramified'}"
                    for v, t in table.items()) or "no finite places divide the entries")
    return 0


def cmd_qx_isom(args) -> int:
    from .funcfield_q import QuaternionFF, is_isomorphic_qx
    D1 = QuaternionFF(_funcfield(args.f1), _funcfield(args.g1))
    D2 = QuaternionFF(_funcfield(args.f2), _funcfield(args.g2))
    verdict = is_isomorphic_qx(D1, D2)
    _emit(args, verdict.to_json(), str(verdict))
    return 0


def cmd_qx_specialize(args) -> int:
    from .brauer_q import class_of_quaternion
    from .funcfield_q import QuaternionFF, specialize
    D = QuaternionFF(_funcfield(args.f), _funcfield(args.g))
    q = specialize(D, _fraction(args.at))
    cls = class_of_quaternion(q)
    _emit(args, {"quaternion": {"a": str(q.a), "b": str(q.b)},
                 "class": cls.to_json()},
          f"specialization at {args.at}: {q}, class {cls}")
    return 0


def _fp_entries(args, *texts: str) -> list:
    from .exact_arith import polyfp_from_string
    from .funcfield import FactoredFunc, check_char
    check_char(args.char)
    return [FactoredFunc.from_poly(polyfp_from_string(s, args.char)) for s in texts]


def cmd_ffx_residues(args) -> int:
    from .funcfield_fp import class_fp
    cls = class_fp(*_fp_entries(args, args.f, args.g))
    _emit(args, cls.to_json(), f"ramified places over F_{args.char}(x): {cls}")
    return 0


def cmd_ffx_isom(args) -> int:
    from .funcfield_fp import is_isomorphic_fpx
    f1, g1, f2, g2 = _fp_entries(args, args.f1, args.g1, args.f2, args.g2)
    verdict = is_isomorphic_fpx((f1, g1), (f2, g2))
    _emit(args, verdict.to_json(), str(verdict))
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest
    results = run_selftest(args.seed, args.cases)
    ok = all(r.ok for r in results)
    if args.json:
        print(json.dumps({"seed": args.seed, "cases": args.cases, "passed": ok,
                          "suites": [{"name": r.name, "ok": r.ok,
                                      "failures": r.failures} for r in results]},
                         indent=2))
    else:
        for r in results:
            print(f"[{'PASS' if r.ok else 'FAIL'}] {r.name} ({r.cases} cases)")
            for msg in r.failures[:5]:
                print(f"    {msg}")
        print(f"selftest seed={args.seed}: {'all suites passed' if ok else 'FAILURES'}")
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with '-' but names no option as a value,
    so that `-a -9/5` and `-f "-2*(x+1)"` parse."""

    def _parse_optional(self, arg_string):
        out = super()._parse_optional(arg_string)
        first = out[0] if isinstance(out, list) else out
        return None if first is not None and first[0] is None else out


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="quatbrauer",
        description="Quaternion algebras and exponent-2 Brauer classes over "
                    "Q, Q(x) and F_p(x)")
    top.add_argument("--json", action="store_true", help="machine-readable output")
    top.add_argument("--seed", type=int, default=0,
                     help="seed of selftest's random cases (default: 0)")
    sub = top.add_subparsers(dest="command", required=True)

    ph = sub.add_parser("hilbert", help="Hilbert symbols over Q")
    ph.add_argument("-a", required=True)
    ph.add_argument("-b", required=True)
    grp = ph.add_mutually_exclusive_group(required=True)
    grp.add_argument("-p", type=int, help="finite place")
    grp.add_argument("--real", action="store_true")
    grp.add_argument("--all", action="store_true",
                     help="all support places plus the product")
    ph.set_defaults(func=cmd_hilbert)

    pb = sub.add_parser("brq", help="Brauer classes of Q as invariant vectors")
    bsub = pb.add_subparsers(dest="brq_command", required=True)
    b1 = bsub.add_parser("class")
    b1.add_argument("-a", required=True)
    b1.add_argument("-b", required=True)
    b1.set_defaults(func=cmd_brq_class)
    b2 = bsub.add_parser("samesub")
    b2.add_argument("file1")
    b2.add_argument("file2")
    b2.set_defaults(func=cmd_brq_samesub)
    b3 = bsub.add_parser("ex65")
    b3.add_argument("-n", type=int, required=True)
    b3.add_argument("-p", dest="places", required=True,
                    help="four distinct primes, comma separated")
    b3.set_defaults(func=cmd_brq_ex65)
    b4 = bsub.add_parser("scale")
    b4.add_argument("file")
    b4.add_argument("-m", type=int, required=True)
    b4.set_defaults(func=cmd_brq_scale)
    b5 = bsub.add_parser("present")
    b5.add_argument("file")
    b5.set_defaults(func=cmd_brq_present)

    pq = sub.add_parser("qx", help="quaternions over Q(x)")
    qsub = pq.add_subparsers(dest="qx_command", required=True)
    q1 = qsub.add_parser("residues")
    q1.add_argument("-f", required=True)
    q1.add_argument("-g", required=True)
    q1.set_defaults(func=cmd_qx_residues)
    q2 = qsub.add_parser("isom")
    for entry in ("-f1", "-g1", "-f2", "-g2"):
        q2.add_argument(entry, required=True)
    q2.set_defaults(func=cmd_qx_isom)
    q3 = qsub.add_parser("specialize")
    q3.add_argument("-f", required=True)
    q3.add_argument("-g", required=True)
    q3.add_argument("--at", required=True)
    q3.set_defaults(func=cmd_qx_specialize)

    pf = sub.add_parser("ffx", help="quaternions over F_p(x)")
    fsub = pf.add_subparsers(dest="ffx_command", required=True)
    f1 = fsub.add_parser("residues")
    f1.add_argument("--char", type=int, required=True)
    f1.add_argument("-f", required=True)
    f1.add_argument("-g", required=True)
    f1.set_defaults(func=cmd_ffx_residues)
    f2 = fsub.add_parser("isom")
    f2.add_argument("--char", type=int, required=True)
    for entry in ("-f1", "-g1", "-f2", "-g2"):
        f2.add_argument(entry, required=True)
    f2.set_defaults(func=cmd_ffx_isom)

    ps = sub.add_parser("selftest", help="run the seeded property suites")
    ps.add_argument("--cases", type=_positive, default=50)
    ps.set_defaults(func=cmd_selftest)

    return top


def _env_int(name: str, default: int) -> int:
    """A positive integer environment variable, default if it is unset or empty."""
    text = os.environ.get(name)
    if not text:
        return default
    if not text.isdecimal() or int(text) < 1:
        raise ParseError(f"{name}={text!r} is not a positive integer")
    return int(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    token = BUDGETS.set(BUDGETS.get())  # the caller's budgets, restored on return
    try:
        lift = _env_int("QUATBRAUER_SQUARE_BUDGET", BUDGETS.get().lift_exponent)
        BUDGETS.set(BUDGETS.get()._replace(lift_exponent=lift))
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    finally:
        BUDGETS.reset(token)


if __name__ == "__main__":
    sys.exit(main())
