import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cyclebetti

from cyclebetti import verify
from cyclebetti.cli import (BinOp, CycleAtom, LiteralAtom, ParseError, Power,
                            ReducedAtom, ShortAtom, VarsAtom, _tokenize, build_ideal,
                            classify_family, emit_betti_table, evaluate, main,
                            parse_ideal, resolve_ambient)
from cyclebetti.families import (corner_power, cycle_path_ideal, mixed_power,
                                 short_path_ideal)
from cyclebetti.monomials import Monomial, MonomialIdeal
from cyclebetti.oracle import BettiTable, LatticeCapError, graded_betti


class TestParser:
    def test_atoms(self):
        assert parse_ideal("Jc(5,3)") == CycleAtom(5, 3)
        assert parse_ideal("I(6)") == ShortAtom(6)
        assert parse_ideal("J(6)") == ReducedAtom(6)
        assert parse_ideal("m(x1,x6)") == VarsAtom((1, 6))
        assert parse_ideal("(x1*x2, x2^2)") == LiteralAtom(
            (((1, 1), (2, 1)), ((2, 2),)))
        assert parse_ideal("(1)") == LiteralAtom(((),))

    def test_power_binds_tightest(self):
        assert parse_ideal("Jc(5,3)^2") == Power(CycleAtom(5, 3), 2)
        node = parse_ideal("J(6)^2 * I(6)")
        assert node == BinOp("*", Power(ReducedAtom(6), 2), ShortAtom(6))

    def test_sum_and_meet_level(self):
        node = parse_ideal("I(4) + J(4) & m(x1,x4)")
        assert node == BinOp("&", BinOp("+", ShortAtom(4), ReducedAtom(4)),
                             VarsAtom((1, 4)))

    def test_parenthesized_expression(self):
        node = parse_ideal("(I(4) + J(4)) * m(x1,x4)")
        assert node == BinOp("*", BinOp("+", ShortAtom(4), ReducedAtom(4)),
                             VarsAtom((1, 4)))

    def test_position_annotated_errors(self):
        with pytest.raises(ParseError, match="position"):
            parse_ideal("Jc(5")
        with pytest.raises(ParseError, match="position"):
            parse_ideal("I(4) +")
        with pytest.raises(ParseError, match="position"):
            parse_ideal("K(4)")
        with pytest.raises(ParseError, match="position"):
            parse_ideal("I(4) I(4)")

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
        routes = {"table": ("oracle", "formula", "recursion"),
                  "pd": ("closed", "recursive", "oracle")}
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
        _, chain, _ = run_cli(capsys, "table", "m(x1,x4)^2", "--route",
                              "recursion", "--format", "csv")
        _, strict, _ = run_cli(capsys, "table", "m(x1,x4)^2", "--route",
                               "recursion", "--format", "csv", "--strict-delta")
        assert chain.splitlines()[1] == "0,2,3"
        assert strict.splitlines()[1] == "0,2,4"


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
        ("gf", "--n", "3", "--t", "1", "--imax", "-3"),
    ])
    def test_usage_exit(self, capsys, argv):
        # the option with the bad value is the second-last argument
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"cyclebetti {argv[0]}: error: argument {argv[-2]}:")

    def test_split_refuses_strict_delta(self, capsys):
        # split never reads the flag, so it is refused rather than ignored
        with pytest.raises(SystemExit) as exit_info:
            main(["split", "m(x1,x2)", "m(x1)", "m(x2)", "--strict-delta"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            "cyclebetti: error: unrecognized arguments: --strict-delta"

    @pytest.mark.parametrize("argv", [
        ("pd", "m(x1,x4)^2", "--route", "recursive"),
        ("verify", "delta-edge"),
    ], ids=["pd", "verify"])
    def test_refuses_strict_delta_off_table(self, capsys, argv):
        # only table answers differently with the flag; pd and verify never do
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
        ("gf", "--n", "1", "--t", "1", "--imax", "2"),
        ("gf", "--n", "4", "--t", "-1", "--imax", "2"),
        ("table", "(x1^99999999999*x2)"),
        ("table", "(x1^2147483648*x2)^2"),
        ("pd", "(x1^2147483648) * m(x1,x2)", "--route", "oracle"),
        ("split", "(x1^2147483648)^2", "(x1)", "(x2)"),
        ("table", "(x0*x2, x1)"),
        ("table", "(x1, x2, x0^5)"),
        ("split", "(1)", "(1)", "(1)"),
        ("split", "(1)", "m(x1)", "(1)"),
    ])
    def test_usage_exit(self, argv):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-m", "cyclebetti", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


class TestSupportLimit:
    def test_support_past_limit_exits_3(self):
        # the top lattice point of Jc(64,63) has all 64 variables in its support
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-m", "cyclebetti", "table", "Jc(64,63)"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 3 and done.stdout == ""
        assert done.stderr == ("error: lcm lattice point has a support of 64 variables, "
                               "past the oracle's limit of 63\n")


class TestCandidateCapCommand:
    def test_cap_exit_code(self, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "table", "I(10)^20")
        assert time.perf_counter() - start < 10
        assert code == 3
        [line] = err.splitlines()
        assert "candidate generators" in line and "cap of 1000000" in line


class TestPdCommand:
    @pytest.mark.parametrize("route", ["closed", "recursive", "oracle"])
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
        assert err == ("error: no closed pd for corner families; "
                       "use --route recursive or oracle\n")


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


class TestGfCommand:
    def test_columns(self, capsys):
        code, out, _ = run_cli(capsys, "gf", "--n", "3", "--t", "1", "--imax", "2")
        assert code == 0
        assert [line.split() for line in out.splitlines()] == \
            [["0", "3"], ["1", "2"], ["2", "0"]]


class TestSplitCommand:
    def test_match(self, capsys):
        code, out, _ = run_cli(capsys, "split", "m(x1,x2)", "m(x1)", "m(x2)")
        assert code == 0
        assert json.loads(out)["status"] == "match"

    def test_mismatch(self, capsys):
        code, out, _ = run_cli(capsys, "split", "(x1^2, x1*x2, x2^2)",
                               "(x1^2, x2^2)", "(x1*x2)")
        assert code == 1
        assert json.loads(out)["witness"] == {"i": 1, "values": ["2", "3"]}

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
    ], ids=["top-level-list", "scalar-range", "chars-of-strings", "routes-string",
            "suites-string", "negative-s", "mixed-unit", "corner-unit", "long-power-s"])
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
