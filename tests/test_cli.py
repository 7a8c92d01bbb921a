"""End-to-end tests of the command-line surface and its exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy

from quatbrauer import exact_arith, funcfield_q
from quatbrauer.cli import main
from quatbrauer.errors import BUDGETS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 0, err
    return json.loads(out)


def _child_env() -> dict:
    """The environment for a child interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}


class TestHilbert:
    def test_real_place(self, capsys):
        code, out, _ = run(capsys, "hilbert", "-a", "-1", "-b", "-1", "--real")
        assert code == 0 and "= -1" in out

    def test_finite_place(self, capsys):
        data = run_json(capsys, "hilbert", "-a", "2", "-b", "3", "-p", "3")
        assert data == {"place": "3", "symbol": -1}

    def test_all_places_product(self, capsys):
        data = run_json(capsys, "hilbert", "-a", "30", "-b", "-42", "--all")
        assert data["product"] == 1
        assert set(data["symbols"]) >= {"real", "2", "3", "5", "7"}

    def test_rational_input(self, capsys):
        data = run_json(capsys, "hilbert", "-a", "1/2", "-b", "2", "-p", "2")
        assert data["symbol"] in (-1, 1)

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "hilbert", "-a", "abc", "-b", "1", "--real")
        assert code == 2 and "parse error" in err

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run(capsys, "hilbert", "-a", "0", "-b", "1", "--real")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("place", [["--all"], ["--real"], ["-p", "3"]])
    def test_zero_entry_one_message(self, capsys, place):
        assert run(capsys, "hilbert", "-a", "0", "-b", "3", *place) == \
            (1, "", "error: Hilbert symbol needs nonzero arguments\n")

    def test_negative_fraction_values(self, capsys):
        data = run_json(capsys, "hilbert", "-a", "-9/5", "-b", "-3", "--real")
        assert data == {"place": "real", "symbol": -1}

    def test_equals_form(self, capsys):
        data = run_json(capsys, "hilbert", "-a=-9/5", "-b=-3", "--real")
        assert data == {"place": "real", "symbol": -1}

    def test_unsplittable_cofactor_exit_3(self):
        # (10^24 + 7)(3 * 10^24 + 7): Pollard rho needs about 10^12 steps
        n = (10**24 + 7) * (3 * 10**24 + 7)
        for argv in (["hilbert", "-a", str(n), "-b", "3", "--all"],
                     ["brq", "class", "-a", str(n), "-b", "3"]):
            t0 = time.perf_counter()
            out = subprocess.run([sys.executable, "-m", "quatbrauer.cli", *argv],
                                 capture_output=True, text=True, env=_child_env(), timeout=60)
            assert time.perf_counter() - t0 < 10
            assert out.returncode == 3, out.stderr
            assert out.stderr.startswith("undecided:") and str(n) in out.stderr

    def test_unknown_option_still_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hilbert", "-a", "2", "-b", "3", "--real", "--bogus"])
        assert exc.value.code == 2


class TestBrq:
    def test_class(self, capsys):
        data = run_json(capsys, "brq", "class", "-a", "2", "-b", "5")
        assert data == {"invariants": [{"place": "2", "inv": "1/2"},
                                       {"place": "5", "inv": "1/2"}]}

    def test_ex65(self, capsys):
        data = run_json(capsys, "brq", "ex65", "-n", "5", "-p", "2,3,5,7")
        assert data["same_maximal_subfields"] is True
        assert data["same_subgroup"] is False
        assert data["equal"] is False

    def test_ex65_large_n_decided_at_once(self, capsys):
        # same_subgroup is decided in closed form, not by trying every m up to n
        t0 = time.perf_counter()
        data = run_json(capsys, "brq", "ex65", "-n", "100000007", "-p", "3,5,7,11")
        assert time.perf_counter() - t0 < 2
        assert data["same_subgroup"] is False

    def test_ex65_n2(self, capsys):
        data = run_json(capsys, "brq", "ex65", "-n", "2", "-p", "2,3,5,7")
        assert data["equal"] is True

    def test_ex65_bad_places(self, capsys):
        code, _, _ = run(capsys, "brq", "ex65", "-n", "3", "-p", "2,3,5")
        assert code == 1

    def test_ex65_non_prime_place_exit_1(self, capsys):
        # a place that is no prime is a domain error, as for hilbert's -p;
        # text that is no integer stays a parse error
        for argv in (("brq", "ex65", "-n", "3", "-p", "2,3,5,9"),
                     ("hilbert", "-a", "2", "-b", "3", "-p", "9")):
            assert run(capsys, *argv) == (1, "", "error: 9 is not prime\n")
        code, _, err = run(capsys, "brq", "ex65", "-n", "3", "-p", "2,3,5,x")
        assert code == 2 and err.startswith("parse error: bad place list")

    def test_faulty_symbol_exit_4(self, capsys, flipped_real_symbol):
        code, out, err = run(capsys, "brq", "class", "-a", "2", "-b", "5")
        assert code == 4 and not out
        assert err == ("internal error: the Hilbert symbol (2, 5) is -1 at an odd "
                       "number of places: real, 2, 5\n")

    def test_samesub(self, capsys, tmp_path):
        f1 = tmp_path / "c1.json"
        f2 = tmp_path / "c2.json"
        f1.write_text(json.dumps({"invariants": [{"place": "2", "inv": "1/3"},
                                                 {"place": "3", "inv": "2/3"}]}))
        f2.write_text(json.dumps({"invariants": [{"place": "2", "inv": "2/3"},
                                                 {"place": "3", "inv": "1/3"}]}))
        data = run_json(capsys, "brq", "samesub", str(f1), str(f2))
        assert data["same_maximal_subfields"] is True

    def test_samesub_unequal_index_exit_1(self, capsys, tmp_path):
        f1 = tmp_path / "c1.json"
        f2 = tmp_path / "c2.json"
        f1.write_text(json.dumps({"invariants": [{"place": "2", "inv": "1/2"},
                                                 {"place": "3", "inv": "1/2"}]}))
        f2.write_text(json.dumps({"invariants": [{"place": "2", "inv": "1/3"},
                                                 {"place": "3", "inv": "2/3"}]}))
        code, _, err = run(capsys, "brq", "samesub", str(f1), str(f2))
        assert code == 1

    def test_bad_json_exit_2(self, capsys, tmp_path):
        f1 = tmp_path / "c1.json"
        f1.write_text("not json")
        code, _, _ = run(capsys, "brq", "samesub", str(f1), str(f1))
        assert code == 2
        # JSON of the wrong shape: a number, a list, a list of strings, a zero
        # denominator, and places listed twice
        for data in ({"invariants": 5}, [1], {"invariants": ["2"]},
                     {"invariants": [{"place": "3", "inv": "1/0"}]},
                     {"invariants": [{"place": q, "inv": "1/2"} for q in ("3", "3", "5", "5")]}):
            f1.write_text(json.dumps(data))
            for argv in (("samesub", str(f1), str(f1)), ("scale", str(f1), "-m", "2")):
                code, _, err = run(capsys, "brq", *argv)
                assert code == 2 and "bad class schema" in err, (data, argv, err)

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "brq", "samesub",
                         str(tmp_path / "nope.json"), str(tmp_path / "nope.json"))
        assert code == 2

    def test_scale(self, capsys, tmp_path):
        f1 = tmp_path / "c.json"
        f1.write_text(json.dumps({"invariants": [{"place": "2", "inv": "1/3"},
                                                 {"place": "3", "inv": "2/3"}]}))
        data = run_json(capsys, "brq", "scale", str(f1), "-m", "2")
        assert data == {"invariants": [{"place": "2", "inv": "2/3"},
                                       {"place": "3", "inv": "1/3"}]}


    def test_present_zero_class(self, capsys, tmp_path):
        f1 = tmp_path / "zero.json"
        f1.write_text(json.dumps({"invariants": []}))
        assert run(capsys, "brq", "present", str(f1)) == (0, "presentation of 0: (1, 1 / Q)\n", "")
        assert run_json(capsys, "brq", "present", str(f1)) == {"a": "1", "b": "1"}

    @pytest.mark.parametrize("a,b", [("2", "5"), ("-1", "-1"), ("-3", "7/2"),
                                     ("18446744073709551629", "3"),
                                     ("-18446744073709551629", str(2 * 18446744073709551557))])
    def test_present_round_trip(self, capsys, tmp_path, a, b):
        """The class of the printed presentation is the class in the file."""
        cls = run_json(capsys, "brq", "class", "-a", a, "-b", b)
        f1 = tmp_path / "c.json"
        f1.write_text(json.dumps(cls))
        q = run_json(capsys, "brq", "present", str(f1))
        assert run_json(capsys, "brq", "class", "-a", q["a"], "-b", q["b"]) == cls

    def test_present_exponent_3_exit_1(self, capsys, tmp_path):
        f1 = tmp_path / "c.json"
        f1.write_text(json.dumps({"invariants": [{"place": "2", "inv": "1/3"},
                                                 {"place": "3", "inv": "2/3"}]}))
        assert run(capsys, "brq", "present", str(f1)) == \
            (1, "", "error: class has exponent > 2, not quaternion\n")

    def test_present_non_prime_place_exit_1(self, capsys, tmp_path):
        f1 = tmp_path / "c.json"
        f1.write_text(json.dumps({"invariants": [{"place": "3", "inv": "1/2"},
                                                 {"place": "9", "inv": "1/2"}]}))
        assert run(capsys, "brq", "present", str(f1)) == (1, "", "error: 9 is not prime\n")


class TestQx:
    def test_residues(self, capsys):
        data = run_json(capsys, "qx", "residues", "-f", "x", "-g", "3")
        assert data["ramified"] == ["x"]
        assert data["residues"]["x"]["trivial"] is False

    def test_residues_negative_entry(self, capsys):
        data = run_json(capsys, "qx", "residues", "-f", "-2*(x+1)", "-g", "3")
        assert data["ramified"] == ["x + 1"]
        assert data["residues"]["x + 1"]["symbol"] == "1/3"

    def test_residues_one_tame_symbol_per_place(self, capsys, monkeypatch):
        calls = []
        tame_symbol = funcfield_q.tame_symbol

        def counting(D, v):
            calls.append(str(v))
            return tame_symbol(D, v)

        monkeypatch.setattr(funcfield_q, "tame_symbol", counting)
        data = run_json(capsys, "qx", "residues",
                        "-f", "(x^2+1)*(x^2-3)", "-g", "5*(x-7)")
        assert sorted(calls) == sorted(data["residues"])
        assert len(calls) == 3
        assert sorted(data["ramified"]) == sorted(
            v for v, t in data["residues"].items() if not t["trivial"])

    def test_isom_true(self, capsys):
        data = run_json(capsys, "qx", "isom", "-f1", "x", "-g1", "3",
                        "-f2", "x", "-g2", "12")
        assert data["isomorphic"] is True

    def test_isom_false_residue_witness(self, capsys):
        data = run_json(capsys, "qx", "isom", "-f1", "x", "-g1", "3",
                        "-f2", "x", "-g2", "5")
        assert data["isomorphic"] is False
        assert data["witness_place"] == "x"

    def test_isom_false_constant_witness(self, capsys):
        data = run_json(capsys, "qx", "isom", "-f1", "-1", "-g1", "-1",
                        "-f2", "2", "-g2", "5")
        assert data["isomorphic"] is False
        assert "witness_invariants" in data

    def test_specialize(self, capsys):
        data = run_json(capsys, "qx", "specialize", "-f", "x", "-g", "x+1",
                        "--at", "2")
        assert data["quaternion"] == {"a": "2", "b": "3"}

    def test_specialize_at_pole_exit_1(self, capsys):
        code, _, _ = run(capsys, "qx", "specialize", "-f", "x", "-g", "x+1",
                         "--at", "0")
        assert code == 1

    def test_rational_function_entries(self, capsys):
        data = run_json(capsys, "qx", "isom",
                        "-f1", "(x^2-1)/(x+2)", "-g1", "3",
                        "-f2", "(x^2-1)/(x+2)", "-g2", "27")
        assert data["isomorphic"] is True

    def test_square_budget_exit_3(self, capsys, budgets):
        budgets(lift_exponent=16, witness_prime=50)
        code, _, err = run(capsys, "qx", "residues", "-f", "x^2+1",
                           "-g", f"(3*x+{10**40 + 7})^2")
        assert code == 3 and "undecided:" in err

    def test_degree_cap_exit_1(self, capsys):
        # degree 26 needs no factoring: Q(x) entries share the F_p(x) cap of 64
        code, out, _ = run(capsys, "qx", "residues", "-f", "(x^2+1)^13", "-g", "3")
        assert code == 0 and out == "x^2 + 1: ramified\n"
        code, _, err = run(capsys, "qx", "residues", "-f", "(x^2+1)^32*(x+1)", "-g", "3")
        assert code == 1 and "exceeds" in err

    def test_injection_is_a_parse_error(self, capsys, tmp_path):
        marker = tmp_path / "INJECTED"
        code, _, err = run(capsys, "qx", "residues", "-f",
                           f"__import__('os').system('touch {marker}') or x", "-g", "3")
        assert code == 2 and "parse error" in err
        assert not marker.exists()


class TestFfx:
    def test_residues(self, capsys):
        data = run_json(capsys, "ffx", "residues", "--char", "5",
                        "-f", "x", "-g", "2")
        assert data == {"char": 5, "ramified": ["x", "inf"]}

    def test_isom(self, capsys):
        data = run_json(capsys, "ffx", "isom", "--char", "5",
                        "-f1", "x", "-g1", "2", "-f2", "x", "-g2", "8")
        assert data["isomorphic"] is True

    def test_isom_witness(self, capsys):
        data = run_json(capsys, "ffx", "isom", "--char", "5",
                        "-f1", "x", "-g1", "2", "-f2", "x", "-g2", "4")
        assert data["isomorphic"] is False and "witness_place" in data

    def test_degree_cap_exit_1(self, capsys):
        t0 = time.perf_counter()
        code, _, err = run(capsys, "ffx", "residues", "--char", "1000003",
                           "-f", "(x^2+x+1)^60*(x+2)^40*x^100+3", "-g", "2")
        assert code == 1 and "exceeds" in err
        assert time.perf_counter() - t0 < 5  # refused before factoring (about 12 s)

    def test_degree_64_accepted(self, capsys):
        data = run_json(capsys, "ffx", "residues", "--char", "1000003",
                        "-f", "x^64+3", "-g", "2")
        assert data["char"] == 1000003

    def test_char_two_exit_1(self, capsys):
        code, _, _ = run(capsys, "ffx", "residues", "--char", "2",
                         "-f", "x", "-g", "1")
        assert code == 1

    @pytest.mark.parametrize("char", [0, 1, -7, 9, 2**31 + 11])
    @pytest.mark.parametrize("entries", [
        ("residues", "-f", "x+1", "-g", "3"),
        ("isom", "-f1", "x+1", "-g1", "3", "-f2", "x", "-g2", "3")])
    def test_invalid_char_exit_1_before_parsing(self, capsys, char, entries):
        code, out, err = run(capsys, "ffx", entries[0], f"--char={char}", *entries[1:])
        assert code == 1 and not out
        assert err == f"error: {char} is not an odd prime below 2^31\n"
        assert "Traceback" not in err


# The exact stdout of pinned commands, each recorded before a refactor that
# keeps it: --json qx and ffx commands, then human output (the commands a CI
# job runs without sympy, and one per verdict shape that those lack).
PINNED = json.loads((Path(__file__).with_name("cli_pinned.json")).read_text())

# a square whose root has a 41-digit coefficient, and a product of two
# 25-digit primes that Pollard rho cannot split within its budget
SQUARE = f"(3*x+{10**40 + 7})^2"
UNSPLITTABLE = (10**24 + 7) * (3 * 10**24 + 7)


def _pin_id(case: dict) -> str:
    if "id" in case:  # pins whose argv alone would repeat an earlier id
        return case["id"]
    argv = case["argv"]
    if argv[0] == "--json":
        return " ".join(argv[1:3])
    return " ".join(a for a in argv[:2] if not a.startswith("-")) + " text"


@pytest.mark.parametrize("case", PINNED, ids=[_pin_id(c) for c in PINNED])
def test_json_output_is_pinned(capsys, case):
    code, out, err = run(capsys, *case["argv"])
    assert code == 0, err
    assert out == case["stdout"]


def test_prime_power_pins_match_sympy(capsys):
    """The pinned prime square and prime cube, past Pollard rho's reach: the
    square's places are sympy's primes, and the cube's class is that of
    (3, p), since p^3 and p differ by a square."""
    pins = {c.get("id"): c for c in PINNED}
    argv = pins["hilbert --all prime square"]["argv"]
    a, b = int(argv[argv.index("-a") + 1]), int(argv[argv.index("-b") + 1])
    symbols = json.loads(pins["hilbert --all prime square"]["stdout"])["symbols"]
    assert set(symbols) == {"real", "2", *(str(p) for n in (a, b) for p in sympy.factorint(n))}
    argv = pins["brq class prime cube"]["argv"]
    [(p, k)] = sympy.factorint(int(argv[argv.index("-b") + 1])).items()
    assert k == 3
    code, out, _ = run(capsys, "--json", "brq", "class", "-a", "3", "-b", str(p))
    assert code == 0 and out == pins["brq class prime cube"]["stdout"]


def test_qx_residues_does_not_depend_on_the_seed(capsys):
    """The seed reaches no certificate: the pinned x^2 - 2 root is the same
    under any seed, and each entry is what `residue_at` certifies on its own."""
    from quatbrauer.cli import _funcfield
    from quatbrauer.funcfield import places
    from quatbrauer.funcfield_q import QuaternionFF, residue_at

    argv = ["qx", "residues", "-f", "(x^2-2)*(x^2+1)^3", "-g", "2"]
    outs = {run(capsys, "--json", "--seed", seed, *argv)[1] for seed in ("0", "7")}
    assert len(outs) == 1, outs
    table = json.loads(outs.pop())["residues"]
    D = QuaternionFF(_funcfield(argv[3]), _funcfield(argv[5]))
    assert table == {str(v): residue_at(D, v).to_json() for v in places(D.f, D.g)}


def test_square_budget_lasts_one_call(capsys, monkeypatch):
    """A budget read from the environment is gone once its call returns: a
    later call in the same process decides what a fresh process decides."""
    pin = next(c for c in PINNED if c["argv"][:3] == ["--json", "--seed", "7"])
    cap = BUDGETS.get()
    monkeypatch.setenv("QUATBRAUER_SQUARE_BUDGET", "4")
    assert run(capsys, "qx", "residues", "-f", "x^2+1", "-g", "3")[:2] == (0, "x^2 + 1: ramified\n")
    monkeypatch.delenv("QUATBRAUER_SQUARE_BUDGET")
    assert BUDGETS.get() == cap
    assert run(capsys, *pin["argv"]) == (0, pin["stdout"], "")


def test_square_budget_lasts_one_call_that_exits_3(capsys, monkeypatch, budgets):
    """An environment budget that stops its call is gone once the call
    returns, and the budgets set before the call are back."""
    pin = next(c for c in PINNED if c["argv"][:3] == ["--json", "--seed", "7"])
    cap = budgets(witness_prime=50)
    monkeypatch.setenv("QUATBRAUER_SQUARE_BUDGET", "16")
    assert run(capsys, "qx", "residues", "-f", "x^2+1", "-g", SQUARE)[0] == 3
    monkeypatch.delenv("QUATBRAUER_SQUARE_BUDGET")
    assert BUDGETS.get() == cap
    assert run(capsys, *pin["argv"]) == (0, pin["stdout"], "")


@pytest.mark.parametrize("narrow,square_budget,argv,named", [
    ({"pollard_steps": 2**10}, None, ["brq", "class", "-a", str(UNSPLITTABLE), "-b", "3"],
     ["pollard_steps = 1024"]),
    ({"subsets": 1}, None, ["qx", "residues", "-f", "x^4 + 1", "-g", "3"], ["subsets = 1"]),
    ({"witness_prime": 50}, "16", ["qx", "residues", "-f", "x^2+1", "-g", SQUARE],
     ["lift_exponent = 16", "witness_prime = 50"]),
], ids=["pollard_steps", "subsets", "square_test"])
def test_every_exit_3_names_its_budget(capsys, monkeypatch, budgets,
                                       narrow, square_budget, argv, named):
    before = budgets(**narrow)
    if square_budget:
        monkeypatch.setenv("QUATBRAUER_SQUARE_BUDGET", square_budget)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.startswith("undecided: "), err
    assert BUDGETS.get() == before
    assert all(name in err for name in named), err


@pytest.mark.parametrize("name,value", [("QUATBRAUER_SQUARE_BUDGET", "abc"),
                                        ("QUATBRAUER_SQUARE_BUDGET", "0")])
def test_bad_environment_value_exit_2(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, "hilbert", "-a", "2", "-b", "3", "--real")
    assert code == 2 and not out
    assert err.startswith("parse error:") and name in err


def test_environment_seed_is_ignored(capsys, monkeypatch):
    """--seed alone sets the seed; an old QUATBRAUER_SEED variable is not read."""
    monkeypatch.setenv("QUATBRAUER_SEED", "7")
    assert run_json(capsys, "selftest", "--cases", "1")["seed"] == 0
    assert run_json(capsys, "--seed", "3", "selftest", "--cases", "1")["seed"] == 3


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_selftest_cases_must_be_positive(capsys, cases):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--cases", cases])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_selftest_small(capsys):
    code, out, _ = run(capsys, "--seed", "1", "selftest", "--cases", "10")
    assert code == 0
    assert "all suites passed" in out


def test_selftest_json(capsys):
    data = run_json(capsys, "--seed", "1", "selftest", "--cases", "5")
    assert data["passed"] is True
    assert len(data["suites"]) == 8


def test_selftest_reports_internal_errors_as_failures(capsys, monkeypatch):
    # an equal-degree split that returns a wrong factor makes factor_poly_fp
    # raise InternalError inside four suites (Q[x] factoring splits mod
    # small primes first); each records it and the run still prints every
    # suite
    monkeypatch.setattr(exact_arith, "_edf",
                        lambda g, *args: [g + exact_arith.PolyFp.const(g.p, 1)])
    code, out, err = run(capsys, "selftest", "--cases", "20")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert "[FAIL] F_p[x] factorization round-trip (20 cases)" in lines
    assert "[FAIL] F_p(x) reciprocity (20 cases)" in lines
    assert "[FAIL] Q[x] factorization round-trip (10 cases)" in lines
    assert sum(line.startswith(("[PASS]", "[FAIL]")) for line in lines) == 8
    assert "internal error: factorization over F_" in out
    assert lines[-1] == "selftest seed=0: FAILURES"


def test_selftest_fails_a_suite_on_a_faulty_symbol(capsys, flipped_real_symbol):
    # the parity suite's InternalError fails that suite, and the run goes on
    code, out, err = run(capsys, "selftest", "--cases", "3")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert "[FAIL] quaternion support parity (3 cases)" in lines
    assert "[PASS] hilbert product formula (3 cases)" in lines
    assert sum(line.startswith(("[PASS]", "[FAIL]")) for line in lines) == 8
    assert lines[-1] == "selftest seed=0: FAILURES"


# The package never imports sympy, which the tests use as an oracle only; a
# process must not pay for its import.  The test session imports sympy
# itself, so the check runs in a fresh interpreter.
SYMPY_FREE_SCRIPT = """
import json
import sys

import quatbrauer.cli

loaded_on_import = "sympy" in sys.modules
codes = [quatbrauer.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"loaded_on_import": loaded_on_import, "codes": codes,
                  "loaded": sorted(m for m in sys.modules if m.split(".")[0] == "sympy")}))
"""


def test_hilbert_brq_ffx_do_not_import_sympy():
    big = int(sympy.nextprime(10**7)) * int(sympy.nextprime(5 * 10**7)) * 3 * 7 * 97
    argvs = [["hilbert", "-a", str(big), "-b", "-6", "--all"],
             ["brq", "class", "-a", str(big), "-b", "-1/15"],
             ["ffx", "isom", "--char", "7", "-f1", "(x^2+1)*(x+3)", "-g1", "3",
              "-f2", "x^3 + 3*x^2 + x + 3", "-g2", "5/2"]]
    out = subprocess.run([sys.executable, "-c", SYMPY_FREE_SCRIPT, json.dumps(argvs)],
                         capture_output=True, text=True, env=_child_env(), timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result == {"loaded_on_import": False, "codes": [0, 0, 0], "loaded": []}, result


# qx isom names a place only at a witness, and proves most witness places
# irreducible mod small primes without a Hensel lift; these runs, too: a
# swap and a square twist of entries with a reducible squarefree factor, and
# a prime twist with odd places x and x^3 - 2, whose witness x has degree 1
QX_F = "(x^2 + 1)*(x - 3)^2*(x^2 - 2)"
QX_G = "5*(x^3 - 2)/(x + 4)"
QX_TWIST = "x*(x^2 + 1)^2*(x^3 - 2)^3"
QX_SYMPY_FREE = [["qx", "isom", "-f1", QX_F, "-g1", QX_G, "-f2", QX_G, "-g2", QX_F],
                 ["qx", "isom", "-f1", QX_F, "-g1", QX_G,
                  "-f2", QX_F, "-g2", f"{QX_G}*(x^2 + x - 1)^2*(x + 4)^4/9"],
                 ["qx", "isom", "-f1", QX_TWIST, "-g1", "3", "-f2", QX_TWIST, "-g2", "15"]]


def test_qx_isom_without_a_sympy_split_does_not_import_sympy():
    argvs = [["--json"] + argv for argv in QX_SYMPY_FREE]
    out = subprocess.run([sys.executable, "-c", SYMPY_FREE_SCRIPT, json.dumps(argvs)],
                         capture_output=True, text=True, env=_child_env(), timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result == {"loaded_on_import": False, "codes": [0, 0, 0], "loaded": []}, result


def test_qx_isom_verdicts_of_the_sympy_free_runs(capsys):
    swap, square_twist, prime_twist = (run_json(capsys, *argv) for argv in QX_SYMPY_FREE)
    assert swap["isomorphic"] is True and square_twist["isomorphic"] is True
    assert prime_twist["isomorphic"] is False and prime_twist["witness_place"] == "x"
    assert prime_twist["witness_symbols"] == ["1/3", "1/15"]


# (x^2 + 1)(x + 3) is reducible, so qx residues splits it by Hensel lifting
QX_REDUCIBLE = ["qx", "residues", "-f", "(x^2+1)*(x+2)^2*(x+3)", "-g", "3"]


def test_every_subcommand_runs_without_sympy(capsys, tmp_path):
    files = []
    for a, b in (("2", "5"), ("-1", "3")):
        files.append(tmp_path / f"class_{a}_{b}.json")
        files[-1].write_text(json.dumps(run_json(capsys, "brq", "class", "-a", a, "-b", b)))
    argvs = [QX_REDUCIBLE,
             ["qx", "specialize", "-f", "x^2 + 1", "-g", "x", "--at", "2"],
             ["brq", "samesub", *map(str, files)],
             ["brq", "ex65", "-n", "5", "-p", "2,3,5,7"],
             ["selftest", "--cases", "2"]]
    out = subprocess.run([sys.executable, "-c", SYMPY_FREE_SCRIPT, json.dumps(argvs)],
                         capture_output=True, text=True, env=_child_env(), timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result == {"loaded_on_import": False, "codes": [0] * 5, "loaded": []}, result


def test_reducible_qx_residues_output(capsys):
    data = run_json(capsys, *QX_REDUCIBLE)
    assert data["ramified"] == ["x + 3", "x^2 + 1"] and set(data["residues"]) == \
        {"x + 2", "x + 3", "x^2 + 1"}


# Each subcommand imports only the layers it runs, and no process imports
# `dataclasses` (with `inspect`, about 14 ms of start-up): a fresh interpreter
# per command lists the package modules it loaded.
LAYERS_SCRIPT = """
import json
import sys

import quatbrauer.cli

code = quatbrauer.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "loaded": sorted(m for m in sys.modules
                                                 if m.startswith("quatbrauer.")),
                  "dataclasses": "dataclasses" in sys.modules}))
"""
FUNCTION_FIELD_LAYERS = {"quatbrauer.funcfield", "quatbrauer.funcfield_fp",
                         "quatbrauer.funcfield_q", "quatbrauer.selftest",
                         "quatbrauer.zassenhaus"}
Q_LAYERS = {"quatbrauer.local_symbols", "quatbrauer.brauer_q", "quatbrauer.funcfield_q",
            "quatbrauer.selftest", "quatbrauer.zassenhaus"}
# Hilbert symbols and Br(Q) classes run on `integers` alone
POLYNOMIAL_LAYERS = FUNCTION_FIELD_LAYERS | {"quatbrauer.exact_arith", "quatbrauer.local_symbols"}


@pytest.mark.parametrize("argv,unloaded", [
    (["hilbert", "-a", "30", "-b", "-42", "--all"], POLYNOMIAL_LAYERS),
    (["hilbert", "-a", "30", "-b", "-42", "--real"], POLYNOMIAL_LAYERS),
    (["brq", "class", "-a", "2", "-b", "5"], POLYNOMIAL_LAYERS),
    (["brq", "ex65", "-n", "5", "-p", "2,3,5,7"], POLYNOMIAL_LAYERS),
    (["ffx", "residues", "--char", "5", "-f", "x^2 + 2", "-g", "x"], Q_LAYERS),
    (["ffx", "isom", "--char", "7", "-f1", "(x^2+1)*(x+3)", "-g1", "3",
      "-f2", "x^3 + 3*x^2 + x + 3", "-g2", "5/2"], Q_LAYERS),
    (["qx", "isom", "-f1", "x^2+1", "-g1", "3", "-f2", "x^2+1", "-g2", "5"],
     {"quatbrauer.funcfield_fp", "quatbrauer.selftest"}),
    (["selftest", "--cases", "2"], set()),
])
def test_subcommand_loads_only_its_layers(argv, unloaded):
    out = subprocess.run([sys.executable, "-c", LAYERS_SCRIPT, json.dumps(argv)],
                         capture_output=True, text=True, env=_child_env(), timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["code"] == 0 and not unloaded & set(result["loaded"]), result
    assert not result["dataclasses"], result


def test_square_budget_loads_no_q_layer_for_ffx():
    """QUATBRAUER_SQUARE_BUDGET is applied for every command, but only the
    commands that run the square test load it: `ffx` still loads no Q layer."""
    argv = ["ffx", "isom", "--char", "5", "-f1", "x", "-g1", "2", "-f2", "x", "-g2", "8"]
    out = subprocess.run([sys.executable, "-c", LAYERS_SCRIPT, json.dumps(argv)],
                         capture_output=True, text=True, timeout=120,
                         env={**_child_env(), "QUATBRAUER_SQUARE_BUDGET": "64"})
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["code"] == 0 and "quatbrauer.local_symbols" not in result["loaded"], result


def test_subset_budget_gives_exit_3(capsys, budgets):
    budgets(subsets=1)
    code, out, err = run(capsys, "qx", "residues", "-f", "x^4 + 1", "-g", "3")
    assert code == 3 and out == ""
    assert err == "undecided: no split of a degree-4 polynomial within subsets = 1\n"
