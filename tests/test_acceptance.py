"""Acceptance criteria, one test per criterion.

Every comparison is exact integer equality (tolerance 0).  Each test prints
one PASS/FAIL line (visible with pytest -s); stated runtime budgets are
asserted where the criterion pins one.
"""
import json
import time

import pytest

from cyclebetti.cli import main
from cyclebetti.families import chain_pair, corner_chain_pairs
from cyclebetti.recursion import mixed_rec
from cyclebetti.verify import run_suite

EXPECTED_ROW = ["27405", "98658", "136332", "89181", "27405", "3654", "378", "27", "1"]


def report(number, label, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{status}] {label} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} failed: {label}"


def run_suite_criterion(number, label, suite, budget=None, **opt):
    start = time.perf_counter()
    reports = list(run_suite(suite, **opt))
    elapsed = time.perf_counter() - start
    bad = [r for r in reports if not r.ok]
    ok = not bad and (budget is None or elapsed <= budget)
    for r in bad[:3]:
        print("  mismatch:", r.to_json())
    report(number, label, ok, elapsed)


def cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_1_example_row(capsys):
    start = time.perf_counter()
    code, out = cli(capsys, "table", "Jc(27,25)^4", "--route", "formula")
    elapsed = time.perf_counter() - start
    lines = out.splitlines()
    row = next((line for line in lines if line.startswith("100:")), "")
    ok = code == 0 and row.split()[1:] == EXPECTED_ROW and elapsed < 1.0

    code_json, out_json = cli(capsys, "table", "Jc(27,25)^4", "--route", "formula",
                              "--format", "json")
    payload = json.loads(out_json)
    ok = ok and code_json == 0 and payload["pd"] == 8 and payload["reg"] == 100
    ok = ok and [e["value"] for e in payload["entries"]] == EXPECTED_ROW
    with capsys.disabled():
        report(1, "formula route emits the worked example row in under 1s",
               ok, elapsed)


def test_criterion_2_long_powers_vs_oracle(capsys):
    with capsys.disabled():
        run_suite_criterion(
            2, "long-path powers: closed form == oracle at p=2 and p=32003, "
               "single-row tables", "long-path-oracle", budget=600)


def test_criterion_3_short_powers_vs_oracle(capsys):
    with capsys.disabled():
        run_suite_criterion(
            3, "short-path powers: closed form == oracle, linearity and pd parity",
            "short-path-oracle", budget=900)


def test_criterion_4_main_identity(capsys):
    with capsys.disabled():
        run_suite_criterion(
            4, "chain recursion == closed form for n<=12, s,t<=8, i<=2(s+t)+2",
            "main-identity", budget=60)


def test_criterion_5_three_routes(capsys):
    with capsys.disabled():
        run_suite_criterion(
            5, "recursion == generating function == closed form; pd/reg vs oracle",
            "three-route")


def test_criterion_6_splitting_audits(capsys):
    with capsys.disabled():
        run_suite_criterion(
            6, "splitting identities and chain intersections at n=4,5",
            "splittings")


def test_criterion_7_residuals(capsys):
    with capsys.disabled():
        run_suite_criterion(
            7, "1000-sample residual and binomial-identity sweeps (seeded)",
            "residuals", seed=20240613)


def test_criterion_8_delta_edge(capsys):
    start = time.perf_counter()
    code_a, out_a = cli(capsys, "table", "m(x1,x4)^2", "--route", "recursion",
                        "--format", "csv")
    code_c, out_c = cli(capsys, "table", "m(x1,x4)^2", "--route", "oracle",
                        "--format", "csv")
    first = lambda out: out.splitlines()[1]
    # beta_0 of one corner-chain step over the strict multiset, read off the
    # recursion one size down: at n = 4 the whole strict recursion
    pairs = [chain_pair(0, 2, 2, "corner"), *corner_chain_pairs(0, 2, strict=True)]
    strict = sum(mixed_rec(3, a, b, 0) for a, b in pairs)
    with pytest.raises(SystemExit) as flag:
        main(["table", "m(x1,x4)^2", "--route", "recursion", "--strict-delta"])
    capsys.readouterr()
    ok = (code_a == code_c == 0
          and first(out_a) == "0,2,3" == first(out_c)
          and strict == 4 and flag.value.code == 2)
    reports = run_suite("delta-edge")
    ok = ok and all(r.ok for r in reports)
    with capsys.disabled():
        report(8, "the strict multiset over-counts the corner family by one; "
                  "default matches the oracle", ok, time.perf_counter() - start)


def test_criterion_9_support_facts(capsys):
    with capsys.disabled():
        run_suite_criterion(
            9, "composed-support multiplicity, envelope containment, pd recursion",
            "support-facts")
