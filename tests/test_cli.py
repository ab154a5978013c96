import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cyclebetti

from cyclebetti import cli, verify
from cyclebetti.cli import (BinOp, LiteralAtom, NamedAtom, ParseError, Power,
                            _tokenize, build_ideal, classify_family, emit_betti_table,
                            evaluate, main, parse_ideal, resolve_ambient)
from cyclebetti.families import (corner_power, cycle_path_ideal, mixed_power,
                                 short_path_ideal)
from cyclebetti.formulas import short_path_betti_parts
from cyclebetti.monomials import Monomial, MonomialIdeal
from cyclebetti.oracle import BettiTable, LatticeCapError, graded_betti
from cyclebetti.verify import FamilyCase


class TestParser:
    def test_atoms(self):
        assert parse_ideal("Jc(5,3)") == NamedAtom("Jc", (5, 3))
        assert parse_ideal("I(6)") == NamedAtom("I", (6,))
        assert parse_ideal("J(6)") == NamedAtom("J", (6,))
        assert parse_ideal("m(x1,x6)") == LiteralAtom((((1, 1),), ((6, 1),)))
        assert parse_ideal("m(x1,x6)") == parse_ideal("(x1, x6)")
        assert parse_ideal("(x1*x2, x2^2)") == LiteralAtom(
            (((1, 1), (2, 1)), ((2, 2),)))
        assert parse_ideal("(1)") == LiteralAtom(((),))
        assert parse_ideal("()") == LiteralAtom(())

    def test_power_binds_tightest(self):
        assert parse_ideal("Jc(5,3)^2") == Power(NamedAtom("Jc", (5, 3)), 2)
        node = parse_ideal("J(6)^2 * I(6)")
        assert node == BinOp("*", Power(NamedAtom("J", (6,)), 2), NamedAtom("I", (6,)))

    def test_sum_and_meet_level(self):
        node = parse_ideal("I(4) + J(4) & m(x1,x4)")
        assert node == BinOp("&", BinOp("+", NamedAtom("I", (4,)), NamedAtom("J", (4,))),
                             LiteralAtom((((1, 1),), ((4, 1),))))

    def test_parenthesized_expression(self):
        node = parse_ideal("(I(4) + J(4)) * m(x1,x4)")
        assert node == BinOp("*", BinOp("+", NamedAtom("I", (4,)), NamedAtom("J", (4,))),
                             LiteralAtom((((1, 1),), ((4, 1),))))

    def test_position_annotated_errors(self):
        # one input per parse refusal; the position is where the offending token starts
        cases = {
            "I(4)?": "position 4: unexpected '?'",
            "I(4) ?": "position 5: unexpected '?'",
            "Jc(5": "position 4: unexpected end of input",
            "I(4,5)": "position 3: expected ')', found ','",
            "I(4) I(4)": "position 5: trailing input 'I'",
            "K(3)": "position 0: unknown atom 'K' (expected Jc, I, J or m)",
            "I(4) + ^": "position 7: expected an atom, found '^'",
            "I(4) +": "position 6: expected an atom",
            "(x1,2)": "position 4: a literal monomial is '1' or a product of x-powers",
        }

        def refusal(text):
            with pytest.raises(ParseError) as raised:
                parse_ideal(text)
            return str(raised.value)

        assert ({text: refusal(text) for text in cases}
                == {text: f"syntax error at {message}" for text, message in cases.items()})

    def test_tokens(self):
        # an operator is its own kind; positions skip the whitespace before a token
        assert _tokenize("  Jc(5,3)^2 * (x1*x2, 1) & m(x1,x5)") == [
            ("name", "Jc", 2), ("(", "(", 4), ("int", "5", 5), (",", ",", 6),
            ("int", "3", 7), (")", ")", 8), ("^", "^", 9), ("int", "2", 10),
            ("*", "*", 12), ("(", "(", 14), ("var", "x1", 15), ("*", "*", 17),
            ("var", "x2", 18), (",", ",", 20), ("int", "1", 22), (")", ")", 23),
            ("&", "&", 25), ("name", "m", 27), ("(", "(", 28), ("var", "x1", 29),
            (",", ",", 31), ("var", "x5", 32), (")", ")", 34)]


class TestAmbientAndEvaluation:
    def test_declared_ambient(self):
        node = parse_ideal("Jc(5,3)^2")
        assert resolve_ambient(node) == 5

    def test_inferred_ambient(self):
        assert resolve_ambient(parse_ideal("m(x1,x6)^3")) == 6
        assert resolve_ambient(parse_ideal("(x1*x2, x4)")) == 4

    def test_ambient_conflict(self):
        with pytest.raises(ParseError, match="ambient"):
            resolve_ambient(parse_ideal("I(4) * I(5)"))
        with pytest.raises(ParseError, match="ambient"):
            resolve_ambient(parse_ideal("I(4) * m(x1,x6)"))

    def test_evaluation(self):
        assert build_ideal("Jc(5,3)") == cycle_path_ideal(5, 3)
        assert build_ideal("J(6)^2 * I(6)") == mixed_power(6, 2, 1)
        assert build_ideal("m(x1,x4)^2") == corner_power(4, 0, 2)
        assert build_ideal("(x1*x2, x2^2)") == MonomialIdeal(
            [Monomial((1, 1)), Monomial((0, 2))])
        assert build_ideal("I(4) & J(4)") == \
            short_path_ideal(4) & build_ideal("J(4)")

    def test_bad_path_range(self):
        with pytest.raises(ParseError):
            build_ideal("Jc(5,1)")

    def test_empty_literal_is_zero_ideal(self):
        assert build_ideal("()") == MonomialIdeal.zero(1)
        assert build_ideal("() + (x1)") == build_ideal("(x1)")
        assert build_ideal("(x1*x2) * ()").embed(3) == MonomialIdeal.zero(3)


class TestClassify:
    def test_patterns(self):
        def classify(text):
            node = parse_ideal(text)
            return classify_family(node, resolve_ambient(node))

        assert classify("Jc(5,4)^2").kind == "long-power"
        assert classify("Jc(5,3)^2") == classify("I(5)^2")
        case = classify("J(6)^2 * I(6)")
        assert (case.kind, case.n, case.s, case.t) == ("mixed", 6, 2, 1)
        case = classify("J(4) * m(x1,x4)^2")
        assert (case.kind, case.s, case.t) == ("corner", 1, 2)
        assert classify("J(5)^3").kind == "mixed"
        assert classify("I(4) + J(4)") is None
        assert classify("Jc(6,3)") is None
        assert classify("m(x1,x3)^2 * I(4)") is None
        # a corner factor is the generator set {x1, xn}, however it is written
        assert classify("J(4)*(x1,x4)^2") == FamilyCase("corner", 4, 1, 2)
        assert classify("(x4, x1, x1)^2") == FamilyCase("corner", 4, 0, 2)
        assert classify("(x1, x4^2)") is None
        # exponents multiply through nested powers
        assert classify("(J(5)*I(5))^2") == classify("J(5)^2*I(5)^2")
        assert classify("(Jc(6,5)^2)^3") == FamilyCase("long-power", 6, 0, 6)
        assert classify("(J(4)*m(x1,x4)^2)^3") == FamilyCase("corner", 4, 3, 6)
        assert classify("((J(5)^2)^2*I(5))^0") == FamilyCase("mixed", 5, 0, 0)
        assert classify("(I(4) + J(4))^2") is None
        assert classify("(Jc(6,3)*I(6))^2") is None


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTableCommand:
    def test_oracle_text(self, capsys):
        code, out, _ = run_cli(capsys, "table", "Jc(3,2)", "--route", "oracle")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split() == ["total:", "3", "2"]
        assert lines[2].split() == ["2:", "3", "2"]

    def test_formula_example_row(self, capsys):
        code, out, _ = run_cli(capsys, "table", "Jc(27,25)^4", "--route", "formula")
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("100:"))
        assert row.split()[1:] == ["27405", "98658", "136332", "89181",
                                   "27405", "3654", "378", "27", "1"]

    def test_formula_huge_exponents(self, capsys):
        # exponents at the parser's limit: the closed route reads i = 0..n only
        e = 2**31
        code, out, _ = run_cli(capsys, "table", f"J(5)^{e}*I(5)^{e}", "--route", "formula")
        assert code == 0
        parts = (short_path_betti_parts(5, e, e, i) for i in range(5))
        want = [str(plus - minus + const) for plus, minus, const in parts]
        assert out.splitlines()[1].split()[1:] == want

    def test_json_stable(self, capsys):
        code, out, _ = run_cli(capsys, "table", "m(x1,x2)", "--route", "oracle",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["ambient", "char", "entries", "pd", "reg"]
        assert payload["entries"] == [{"i": 0, "j": 1, "value": "2"},
                                      {"i": 1, "j": 2, "value": "1"}]
        assert json.dumps(payload) == out.strip()

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "m(x1,x2)", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["i,j,value", "0,1,2", "1,2,1"]

    def test_routes_agree(self, capsys):
        outputs = []
        for route in ("oracle", "formula", "recursion"):
            code, out, _ = run_cli(capsys, "table", "J(5)^2 * I(5)",
                                   "--route", route, "--format", "csv")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_written_out_corner_factor(self, capsys):
        # (x1,x4) and m(x1,x4) are one literal node, so one corner factor
        written, named = (run_cli(capsys, "table", expr, "--route", "recursion",
                                  "--format", "csv")
                          for expr in ("J(4)*(x1,x4)^2", "J(4)*m(x1,x4)^2"))
        assert written == named and written[0] == 0

    @pytest.mark.parametrize("nested, flat, route", [
        ("(J(5)*I(5))^2", "J(5)^2*I(5)^2", "formula"),
        ("(Jc(6,5)^2)^3", "Jc(6,5)^6", "recursion"),
        ("(J(5)*m(x1,x5))^2", "J(5)^2*m(x1,x5)^2", "recursion"),
    ])
    def test_nested_powers_equal_the_flattened_expression(self, capsys, nested, flat, route):
        outputs = []
        for expr in (nested, flat):
            code, out, _ = run_cli(capsys, "table", expr, "--route", route, "--format", "csv")
            assert code == 0, expr
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_formula_refuses_general_expressions(self, capsys):
        code, _, err = run_cli(capsys, "table", "I(4) + J(4)", "--route", "formula")
        assert code == 2
        assert "route" in err

    def test_formula_refuses_corner(self, capsys):
        code, _, err = run_cli(capsys, "table", "m(x1,x4)^2", "--route", "formula")
        assert code == 2
        assert "recursion" in err

    def test_unit_ideal_rejected(self, capsys):
        # reduced(n)^s * full(n)^t is the unit ideal when n = 2 or s = t = 0
        routes = {"table": ("oracle", "formula", "recursion", "series"),
                  "pd": ("closed", "recursive", "oracle", "series")}
        cases = [("table", "(1)", "oracle"), ("pd", "(1)", "oracle")]
        cases += [(command, expr, route) for command in routes for route in routes[command]
                  for expr in ("I(2)^2", "J(5)^0", "J(2) * I(2)^3", "Jc(5,4)^0")]
        for command, expr, route in cases:
            code, out, err = run_cli(capsys, command, expr, "--route", route)
            assert code == 2 and out == "", (command, expr, route)
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "unit" in err, (command, expr, route)

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "table", "Jc(5")
        assert code == 2 and "syntax error" in err

    def test_lattice_cap_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "table", "Jc(6,5)^2", "--lattice-cap", "5")
        assert code == 3 and "cap" in err

    def test_strict_delta_flag(self, capsys):
        # the corner recursion's beta_0 of (x1,x4)^2 is its 3 generators
        _, chain, _ = run_cli(capsys, "table", "m(x1,x4)^2", "--route",
                              "recursion", "--format", "csv")
        assert chain.splitlines()[1] == "0,2,3"

    @pytest.mark.parametrize("expr, route, first_row", [
        ("I(5)^2", "recursion", "0,6,15"),
        ("I(5)^2", "formula", "0,6,15"),
        ("I(5)^2", "oracle", "0,6,15"),
        ("m(x1,x4)^2", "oracle", "0,2,3"),
        ("Jc(5,4)^2", "recursion", "0,8,15"),
        ("Jc(5,4)^2", "formula", "0,8,15"),
    ], ids=["mixed-recursion", "mixed-formula", "mixed-oracle",
            "corner-oracle", "long-power-recursion", "long-power-formula"])
    def test_strict_delta_where_it_applies(self, capsys, expr, route, first_row):
        # the flag is gone from every route: each refuses it, and each
        # answers the chain row without it (the strict recursion's
        # I(5)^2 row was 0,6,16)
        with pytest.raises(SystemExit) as exit_info:
            main(["table", expr, "--route", route, "--format", "csv", "--strict-delta"])
        assert exit_info.value.code == 2, (expr, route)
        assert capsys.readouterr().err.splitlines()[-1] == \
            "cyclebetti: error: unrecognized arguments: --strict-delta"
        code, out, err = run_cli(capsys, "table", expr, "--route", route, "--format", "csv")
        assert code == 0 and err == "", (expr, route)
        assert out.splitlines()[1] == first_row, (expr, route)


class TestBadCharacteristic:
    @pytest.mark.parametrize("argv", [
        ("table", "Jc(4,3)", "--char", "4"),
        ("table", "Jc(4,3)", "--char", "1"),
        ("table", "Jc(4,3)", "--char", "-7"),
        ("table", "Jc(4,3)", "--char", "two"),
        ("pd", "Jc(4,3)", "--route", "oracle", "--char", "561"),
        ("split", "Jc(4,3)", "(x1*x2*x3)", "(x1*x2*x4, x1*x3*x4, x2*x3*x4)",
         "--char", "3215031751"),
        ("table", "Jc(5,2)", "--lattice-cap", "0"),
        ("table", "Jc(5,2)", "--lattice-cap", "-3"),
        ("table", "Jc(5,2)", "--lattice-cap", "ten"),
        ("pd", "Jc(4,3)", "--route", "oracle", "--lattice-cap", "0"),
        ("split", "Jc(4,3)", "(x1*x2*x3)", "(x1*x2*x4, x1*x3*x4, x2*x3*x4)",
         "--lattice-cap", "-3"),
        ("verify", "residuals", "--lattice-cap", "-1"),
        ("verify", "residuals", "--lattice-cap", "ten"),
        ("table", "Jc(4,3)", "--route", "gf"),
        ("pd", "Jc(4,3)", "--route", "formulas"),
    ])
    def test_usage_exit(self, capsys, argv):
        # the option with the bad value is the second-last argument
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"cyclebetti {argv[0]}: error: argument {argv[-2]}:")

    @pytest.mark.parametrize("argv", [
        ("pd", "m(x1,x4)^2", "--route", "recursive"),
        ("split", "m(x1,x2)", "m(x1)", "m(x2)"),
        ("verify", "delta-edge"),
    ], ids=["pd", "split", "verify"])
    def test_refuses_strict_delta(self, capsys, argv):
        # no command has the flag (table's refusals are checked with its
        # routes above): the strict corner multiset is read by verify
        # delta-edge alone
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--strict-delta"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            "cyclebetti: error: unrecognized arguments: --strict-delta"


SRC = Path(cyclebetti.__file__).resolve().parents[1]


class TestBadInput:
    """Values the grammar accepts but the mathematics or the exponent limit
    refuses: exit 2 with one error line, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ("table", "Jc(5,4)^0", "--route", "series"),
        ("pd", "J(4) * m(x1,x4)^2", "--route", "series"),
        ("table", "(x1^99999999999*x2)"),
        ("table", "(x1^2147483648*x2)^2"),
        ("pd", "(x1^2147483648) * m(x1,x2)", "--route", "oracle"),
        ("split", "(x1^2147483648)^2", "(x1)", "(x2)"),
        ("table", "(x0*x2, x1)"),
        ("table", "(x1, x2, x0^5)"),
        ("split", "(1)", "(1)", "(1)"),
        ("split", "(1)", "m(x1)", "(1)"),
        ("table", "()"),
        ("pd", "()", "--route", "oracle"),
        ("split", "()", "()", "()"),
        ("table", "I(5)^2", "--route", "closed", "--char", "2"),
        ("table", "I(5)^2", "--route", "recursion", "--lattice-cap", "200000"),
        ("pd", "I(5)^2", "--char", "32003"),
        ("pd", "Jc(5,4)^2", "--route", "series", "--lattice-cap", "1"),
        ("table", "(x1)^3000000000"),
        ("table", "()^3000000000"),
        ("table", "(x1,x2)^3000000000", "--route", "oracle"),
    ])
    def test_usage_exit(self, argv):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-m", "cyclebetti", *argv], env=env,
                              capture_output=True, text=True, timeout=30)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv, flag", [
        (("table", "I(5)^2", "--route", "formula", "--char", "2", "--lattice-cap", "1"),
         "--char"),
        (("pd", "I(5)^2", "--lattice-cap", "200000"), "--lattice-cap"),
    ], ids=["table", "pd"])
    def test_oracle_options_refused_off_the_oracle(self, capsys, argv, flag):
        # only the oracle reads them, so elsewhere a given one is refused, whatever its value
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {flag} applies to --route oracle only\n"

    @pytest.mark.parametrize("command", ["table", "pd"])
    def test_oracle_options_default_when_left_out(self, capsys, monkeypatch, command):
        seen = []
        real = cli.graded_betti

        def spy(ideal, p, cap):
            seen.append((p, cap))
            return real(ideal, p, cap)
        monkeypatch.setattr(cli, "graded_betti", spy)
        code, _, _ = run_cli(capsys, command, "I(5)^2", "--route", "oracle")
        assert code == 0 and seen == [(32003, 200000)]

    @pytest.mark.parametrize("argv", [
        ("table", "()"),
        ("pd", "()", "--route", "oracle"),
        ("split", "()", "()", "()"),
        ("split", "(x1)", "()", "(x1)"),
    ], ids=["table", "pd", "split", "split-zero-summand"])
    def test_zero_ideal_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: the zero and unit ideals have no Betti table or pd\n"


def run_module(*argv, timeout=30):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "cyclebetti", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestHugeInputs:
    """Inputs whose size, not whose mathematics, is the fault: refused at
    once where the ideal would be built, answered where it is not."""

    def test_ring_past_the_list_length(self):
        done = run_module("pd", "J(100000000000000000000)", "--route", "oracle", timeout=20)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (f"error: a ring of 100000000000000000000 variables is past "
                               f"the largest list length, {sys.maxsize}\n")

    def test_family_routes_answer_past_the_list_length(self):
        # the family routes never build the ideal: pd of J(n) is 1
        done = run_module("pd", "J(100000000000000000000)", "--route", "formula")
        assert (done.returncode, done.stdout, done.stderr) == (0, "1\n", "")

    def test_entries_past_4300_digits_print(self):
        # J(5)^s has entries C(3, i) C(s + 3 - i, 3) in row 3s, about
        # 4,500 digits at s = 10^1500, past Python's default of 4,300
        s = 10 ** 1500
        done = run_module("table", f"J(5)^{s}", "--route", "formula", "--format", "csv")
        assert done.returncode == 0, done.stderr
        header, *rows = done.stdout.splitlines()
        assert header == "i,j,value"
        # this process keeps Python's limit, so the values are compared as ints
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            got = [tuple(map(int, row.split(","))) for row in rows]
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        assert got == [(i, 3 * s + i, math.comb(3, i) * math.comb(s + 3 - i, 3))
                       for i in range(4)]
        assert math.comb(s + 3, 3) > 10 ** 4300


class TestSupportLimit:
    def test_support_past_limit_exits_3(self):
        # the top lattice point of Jc(64,63) has all 64 variables in its support
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-m", "cyclebetti", "table", "Jc(64,63)"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 3 and done.stdout == ""
        assert done.stderr == ("error: lcm lattice point has a support of 64 variables, "
                               "past the oracle's limit of 63\n")

    def test_support_refused_before_the_lattice(self):
        # the support is refused from the used columns alone, before the
        # symmetries and the lattice walk, whose dense images of 600 columns
        # would run for over half a minute
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-m", "cyclebetti", "table", "Jc(600,599)",
                               "--route", "oracle"],
                              env=env, capture_output=True, text=True, timeout=20)
        assert done.returncode == 3 and done.stdout == ""
        assert done.stderr == ("error: lcm lattice point has a support of 600 variables, "
                               "past the oracle's limit of 63\n")

    def test_unused_variables_cost_nothing(self):
        # the oracle ranks only the columns some generator uses: one of a million
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-m", "cyclebetti", "table", "m(x1000000)",
                               "--route", "oracle", "--format", "csv"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout.splitlines() == ["i,j,value", "0,1,1"]


class TestCandidateCapCommand:
    def test_cap_exit_code(self, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "table", "I(10)^20")
        assert time.perf_counter() - start < 10
        assert code == 3
        [line] = err.splitlines()
        assert "candidate generators" in line and "cap of 1000000" in line


class TestOutOfMemory:
    def test_exit_code_and_one_line(self, capsys, monkeypatch):
        # exit 1 would read as a verification mismatch
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cli, "route_totals", exhausted)
        code, out, err = run_cli(capsys, "table", "Jc(5,3)^2", "--route", "recursion")
        assert (code, out, err) == (3, "", "error: out of memory\n")


class TestPdCommand:
    @pytest.mark.parametrize("route", ["closed", "recursive", "oracle", "recursion"])
    def test_routes_agree(self, capsys, route):
        # pd caps at n-1 = 4 for odd n, below 2(s+t) = 6
        code, out, _ = run_cli(capsys, "pd", "J(5)^2 * I(5)", "--route", route)
        assert code == 0 and out.strip() == "4"

    def test_long_power(self, capsys):
        code, out, _ = run_cli(capsys, "pd", "Jc(27,25)^4", "--route", "closed")
        assert code == 0 and out.strip() == "8"

    @pytest.mark.parametrize("expr, pd", [("J(7)^3", "3"), ("I(6)^2", "4"),
                                          ("Jc(9,8)^5", "5")])
    def test_closed_uses_family_pd(self, capsys, expr, pd):
        for route in ("closed", "recursive"):
            code, out, _ = run_cli(capsys, "pd", expr, "--route", route)
            assert code == 0 and out.strip() == pd, route

    def test_closed_refuses_corner(self, capsys):
        code, out, err = run_cli(capsys, "pd", "J(4) * m(x1,x4)^2", "--route", "closed")
        assert code == 2 and out == ""
        assert err == ("error: route 'closed' not applicable to corner families; "
                       "use --route recursion or oracle\n")


class TestRouteParity:
    """table, pd and a config sweep read one route registry: for every route
    name and alias and a member of each family kind, all three accept or all
    three refuse, with one message naming the routes that apply."""

    MEMBERS = {"long-power": ("Jc(5,4)^2", 5, 0, 2),
               "mixed": ("J(4) * I(4)", 4, 1, 1),
               "corner": ("J(4) * m(x1,x4)^2", 4, 1, 2)}

    @pytest.mark.parametrize("route", [*verify.ROUTES, *verify.ROUTE_ALIASES])
    @pytest.mark.parametrize("kind", verify.FAMILY_KINDS)
    def test_table_pd_and_configs_agree(self, capsys, kind, route):
        expr, n, s, t = self.MEMBERS[kind]
        refusals = []
        for command in ("table", "pd"):
            code, out, err = run_cli(capsys, command, expr, "--route", route)
            assert (code, bool(out)) in ((0, True), (2, False)), (command, err)
            refusals.append(err.removeprefix("error: ").rstrip("\n"))
        # a lone route other than the oracle compares nothing, so it is paired
        routes = [route] if route == "oracle" else [route, "oracle"]
        sweep = {"kind": kind, "n": [n, n], "s": [s, s], "t": [t, t], "routes": routes}
        try:
            verify._read_config({"sweeps": [sweep]})
            refusals.append("")
        except ValueError as exc:
            refusals.append(str(exc).removeprefix("config sweep 1: "))
        assert refusals[0] == refusals[1] == refusals[2]
        name = verify.ROUTE_ALIASES.get(route, route)
        applies = kind in verify.ROUTES[name].totals
        assert (refusals[0] == "") == applies, refusals[0]
        if not applies:
            assert refusals[0].startswith(
                f"route {name!r} not applicable to {kind} families; use --route ")


class TestLongRecursionCommand:
    def test_recursion_table_at_n400(self):
        # the per-entry long-path recursion overflowed the interpreter stack here
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        outputs = []
        for route in ("recursion", "formula"):
            done = subprocess.run(
                [sys.executable, "-m", "cyclebetti", "table", "Jc(400,399)^2",
                 "--route", route], env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            assert done.stderr == ""
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[1].split() == ["total:", "80200", "159600", "79401"]

    def test_formula_table_at_n10000(self):
        # the closed form stops at i = t, where its binomials vanish, so a
        # long path of 10,000 variables costs three entries
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        outputs = []
        for route in ("formula", "recursion"):
            done = subprocess.run(
                [sys.executable, "-m", "cyclebetti", "table", "Jc(10000,9999)^2",
                 "--route", route, "--format", "csv"],
                env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines() == [
            "i,j,value", "0,19998,50005000", "1,19999,99990000", "2,20000,49985001"]


class TestSeriesRoute:
    def test_columns(self, capsys):
        # the long power Jc(3,2): beta_0 = 3, beta_1 = 2, and beta_2 = 0 is stripped
        code, out, _ = run_cli(capsys, "table", "Jc(3,2)", "--route", "series",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["i,j,value", "0,2,3", "1,3,2"]

    @pytest.mark.parametrize("expr", ["Jc(6,5)^3", "Jc(400,399)^2"])
    def test_equals_the_formula_route(self, capsys, expr):
        for command, fmt in (("table", ["--format", "csv"]), ("pd", [])):
            outputs = []
            for route in ("series", "formula"):
                code, out, _ = run_cli(capsys, command, expr, "--route", route, *fmt)
                assert code == 0, (command, route)
                outputs.append(out)
            assert outputs[0] == outputs[1], command


class TestSplitCommand:
    def test_match(self, capsys):
        code, out, _ = run_cli(capsys, "split", "m(x1,x2)", "m(x1)", "m(x2)")
        assert code == 0
        assert json.loads(out)["status"] == "match"

    def test_mismatch(self, capsys):
        code, out, _ = run_cli(capsys, "split", "(x1^2, x1*x2, x2^2)",
                               "(x1^2, x2^2)", "(x1*x2)")
        assert code == 1
        assert json.loads(out)["witness"] == {"at": [1], "routes": ["total", "split"],
                                              "values": ["2", "3"]}

    def test_not_a_decomposition(self, capsys):
        code, _, err = run_cli(capsys, "split", "m(x1)", "m(x1)", "m(x2)")
        assert code == 2 and "decomposition" in err


class TestVerifyCommand:
    def test_named_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "delta-edge")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 2
        assert all(line["status"] == "match" for line in lines)

    def test_oracle_lines_lead_with_the_old_keys(self, capsys):
        # route_millis is added after millis; the keys before it keep their order
        code, out, _ = run_cli(capsys, "verify", "long-path-oracle")
        assert code == 0
        for line in out.splitlines():
            assert list(json.loads(line))[:3] == ["case", "status", "millis"], line

    def test_cap_after_lines_keeps_them(self, capsys, monkeypatch):
        def capped(cap, seed):
            yield verify.Report("first case", "match")
            raise LatticeCapError("lcm lattice exceeds cap")
        monkeypatch.setitem(verify.SUITES, "delta-edge", capped)
        code, out, err = run_cli(capsys, "verify", "delta-edge")
        assert code == 3
        assert [json.loads(line)["case"] for line in out.splitlines()] == ["first case"]
        assert err == "error: lcm lattice exceeds cap\n"

    def test_fault_inside_a_suite_is_no_usage_error(self, capsys, monkeypatch):
        # a ValueError from a running suite is a program fault, not exit 2
        def faulty(cap, seed):
            yield verify.Report("first case", "match")
            raise ValueError("negative Betti number")
        monkeypatch.setitem(verify.SUITES, "delta-edge", faulty)
        with pytest.raises(ValueError, match="negative Betti number"):
            main(["verify", "delta-edge"])
        captured = capsys.readouterr()
        assert json.loads(captured.out)["case"] == "first case" and captured.err == ""

    def test_unknown_suite(self, capsys):
        # run_suite's message, on one line
        code, out, err = run_cli(capsys, "verify", "bogus")
        assert code == 2 and out == ""
        assert err == ("error: unknown suite 'bogus'; choices: example-row, "
                       "long-path-oracle, short-path-oracle, main-identity, three-route, "
                       "splittings, residuals, delta-edge, support-facts or all\n")

    def test_config_file(self, capsys, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"sweeps": [
            {"kind": "mixed", "n": [3, 3], "s": [0, 1], "t": [1, 1],
             "routes": ["closed", "recursion"]}]}))
        code, out, _ = run_cli(capsys, "verify", str(config))
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_oracle_alone_is_audited(self, capsys, tmp_path):
        config = tmp_path / "oracle.json"
        config.write_text(json.dumps({"sweeps": [
            {"kind": "mixed", "n": [3, 3], "t": [1, 1], "routes": ["oracle"]}]}))
        code, out, _ = run_cli(capsys, "verify", str(config))
        assert code == 0
        assert [json.loads(line)["case"] for line in out.splitlines()] == [
            "mixed(n=3,s=0,t=1) routes=oracle", "mixed(n=3,s=0,t=1) oracle(p=32003) audit"]

    @pytest.mark.parametrize("config, message", [
        ([{"kind": "mixed"}], "config must be a JSON object"),
        ({"sweeps": [{"kind": "mixed", "n": 5}]}, "'n' must be an integer range"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 4], "t": [1, 1], "chars": ["x"]}]},
         "'chars' must be a list of integers"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 4], "t": [1, 1], "routes": "closed"}]},
         "'routes' must be a list of strings"),
        ({"suites": "example-row"}, "'suites' must be a list of strings"),
        ({"sweeps": [{"kind": "mixed", "n": [4, 4], "s": [-2, -1], "t": [1, 1],
                      "routes": ["closed", "recursion"]}]},
         "config sweep 1: 's' must be a range [lo, hi] with 0 <= lo <= hi"),
        ({"suites": ["example-row"], "sweeps": [{"kind": "mixed", "n": [4, 4]}]},
         "config sweep 1: mixed(n=4,s=0,t=0) is the unit ideal"),
        ({"suites": ["example-row"],
          "sweeps": [{"kind": "corner", "n": [4, 5], "routes": ["recursion", "oracle"]}]},
         "config sweep 1: corner(n=4,s=0,t=0) is the unit ideal"),
        ({"sweeps": [{"kind": "long-power", "n": [3, 3], "s": [0, 2], "t": [1, 1],
                      "routes": ["closed", "recursion"]}]},
         "config sweep 1: 's' must be [0, 0] for long-power families"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1],
                      "routes": ["closed", "closed", "oracle"], "chars": [2]}]},
         "config sweep 1: 'routes' lists 'closed' twice"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1],
                      "routes": ["formula", "closed"]}]},
         "config sweep 1: 'routes' lists 'closed' twice"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1],
                      "routes": ["closed", "gf"]}]},
         "config sweep 1: unknown route 'gf'; routes: closed, recursion, series, oracle"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1],
                      "routes": ["closed", "oracle"], "chars": [2, 2]}]},
         "config sweep 1: 'chars' lists 2 twice"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1], "routes": []}]},
         "config sweep 1: 'routes' must list at least one item"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1],
                      "routes": ["oracle"], "chars": []}]},
         "config sweep 1: 'chars' must list at least one item"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1],
                      "routes": ["closed", "oracle"], "chars": []}]},
         "config sweep 1: 'chars' must list at least one item"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1], "routes": ["closed"]}]},
         "config sweep 1: route 'closed' alone compares nothing"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1],
                      "routes": ["closed", "recursion"], "chars": [2, 3]}]},
         "config sweep 1: 'chars' is read by the oracle route only"),
        ({"suites": ["delta-edge", "delta-edge"]}, "config: 'suites' lists 'delta-edge' twice"),
        ({"suites": ["example-row", "all"]}, "config: 'suites' lists 'example-row' twice"),
        ({}, "config lists no suite and no sweep, so it verifies nothing"),
        ({"suites": []}, "config lists no suite and no sweep, so it verifies nothing"),
        ({"sweeps": []}, "config lists no suite and no sweep, so it verifies nothing"),
    ], ids=["top-level-list", "scalar-range", "chars-of-strings", "routes-string",
            "suites-string", "negative-s", "mixed-unit", "corner-unit", "long-power-s",
            "repeated-route", "alias-repeats-route", "unknown-route", "repeated-char",
            "no-routes", "no-chars", "no-chars-closed-oracle", "lone-route",
            "chars-without-oracle", "repeated-suite", "suite-repeated-through-all", "empty-config", "no-suites",
            "no-sweeps"])
    def test_malformed_config_exits_2(self, tmp_path, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-m", "cyclebetti", "verify", str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert message in done.stderr


class TestStreaming:
    def test_first_line_arrives_before_the_run_ends(self):
        pinned = json.loads((SRC.parent / "bench" / "pins.json").read_text())["verify"]["all"]
        # a block-buffered stdout, as a pipe gets by default: only the
        # program's own flush can send the first line early
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        child = subprocess.Popen([sys.executable, "-m", "cyclebetti", "verify", "all"],
                                 env=env, stdout=subprocess.PIPE)
        try:
            chunk = os.read(child.stdout.fileno(), 1 << 16)
            arrived = time.perf_counter()
            rest = child.stdout.read()
            child.wait(timeout=120)
            ended = time.perf_counter()
        finally:
            child.kill()
            child.stdout.close()
        assert json.loads(chunk.partition(b"\n")[0])["case"] == pinned[0]
        # the line came on its own: a block-buffered stdout writes its first
        # block only when nearly io.DEFAULT_BUFFER_SIZE bytes are pending
        assert len(chunk) < io.DEFAULT_BUFFER_SIZE // 2
        lines = (chunk + rest).decode().splitlines()
        assert child.returncode == 0 and [json.loads(line)["case"] for line in lines] == pinned
        assert ended - arrived >= 0.2


class TestClosedPipe:
    def test_no_traceback_when_the_reader_leaves(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        child = subprocess.Popen([sys.executable, "-m", "cyclebetti", "verify", "example-row"],
                                 env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 text=True)
        child.stdout.close()
        try:
            err = child.communicate(timeout=60)[1]
        finally:
            child.kill()
        assert err == ""  # no traceback, and no message either
        assert child.returncode == 1


class TestEmit:
    def test_refuses_empty_table(self):
        with pytest.raises(ValueError):
            emit_betti_table(BettiTable({}, 2), "text")

    def test_text_dot_for_gaps(self):
        table = graded_betti(build_ideal("(x1*x2, x3^3)"))
        text = emit_betti_table(table, "text")
        assert "." in text  # sparse rows render gaps as dots
