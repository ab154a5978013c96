"""Self-tests of the benchmark harness (not of cyclebetti):

    python3 -m pytest -q bench
"""
from __future__ import annotations

import json

import pytest

import run
import workloads as wl

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def tiny(name, trace=False, seed=1):
    return run.measure(name, seed, seconds=0, trace=trace, size="tiny", probes=1,
                       write_spans=False)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tiny_mode_runs_end_to_end(name):
    for trace, names in ((False, END_TO_END), (True, PER_LAYER)):
        line = tiny(name, trace)["line"]
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert sorted(line["metrics"]) == sorted(names)
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        assert all(m["unit"] == units[k] for k, m in line["metrics"].items())
        if not trace:
            assert all(m["value"] > 0 for m in line["metrics"].values())


def off_by_one(real):
    def stub(case, route, *args, **kwargs):
        return [b + 1 for b in real(case, route, *args, **kwargs)]
    return stub


def raises(real):
    def stub(case, route, *args, **kwargs):
        raise RecursionError("stub")
    return stub


@pytest.mark.parametrize("make_stub", [off_by_one, raises])
def test_wrong_or_raising_route_is_a_failed_op(monkeypatch, make_stub):
    verify = run.load_program()["verify"]
    monkeypatch.setattr(verify, "route_totals", make_stub(verify.route_totals))
    outcome = tiny("routes-grid")
    line = outcome["line"]
    assert not line["correct"]
    assert line["failed"] == line["attempted"] == len(outcome["ops"])


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
@pytest.mark.parametrize("size", wl.SIZES)
def test_same_seed_same_inputs(name, size):
    workload = wl.WORKLOADS[name]
    assert workload.inputs(7, size) == workload.inputs(7, size)
    assert workload.inputs(7, size) != workload.inputs(8, size)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_outputs_equal_untraced(name):
    workload = wl.WORKLOADS[name]

    def outputs(outcome):
        return [[workload.fingerprint(r) for r in got]
                for got in outcome["passes"][-1]["results"]]

    traced = tiny(name, trace=True)
    assert traced["passes"][-1]["traced"]
    assert outputs(traced) == outputs(tiny(name))


def test_known_defect_ops_are_counted_not_dropped():
    for name in ("oracle-ladder", "routes-grid"):
        workload = wl.WORKLOADS[name]
        plain = workload.inputs(1, "tiny")
        with_defects = workload.inputs(1, "tiny", known_defects=True)
        assert len(with_defects) == len(plain) + 1
        outcome = run.measure(name, 1, 0, False, "tiny", known_defects=True, probes=0)
        assert outcome["line"]["attempted"] == len(with_defects)


def test_reference_matches_the_grammar_and_the_evaluator():
    tree = ("&", ("^", ("Jc", 6, 2), 2), ("+", ("J", 6), ("m", (1, 6))))
    cli = run.load_program()["cli"]
    for literal in (frozenset(), frozenset({0, 2}), frozenset({0, 1, 2})):
        ideal = cli.build_ideal(wl.ref.render(tree, literal))
        assert tuple(g.exponents for g in ideal.gens) == tuple(
            map(tuple, wl.ref.evaluate(tree).tolist()))
