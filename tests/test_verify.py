import json
import re
from itertools import product

import pytest

from cyclebetti import verify
from cyclebetti.monomials import Monomial, MonomialIdeal
from cyclebetti.oracle import LatticeCapError
from cyclebetti.verify import (FamilyCase, Report, check_splitting,
                               cross_validate, route_totals, run_config,
                               run_suite)


def ideal(*gens_exps):
    return MonomialIdeal([Monomial(e) for e in gens_exps])


class TestReport:
    def test_json_schema(self):
        report = Report("case x", "mismatch", {"i": 1, "values": ["2", "3"]}, 7)
        payload = json.loads(report.to_json())
        assert list(payload) == ["case", "status", "witness", "millis"]
        assert payload["witness"]["values"] == ["2", "3"]

    def test_witness_omitted_on_match(self):
        payload = json.loads(Report("c", "match", None, 0).to_json())
        assert list(payload) == ["case", "status", "millis"]

    def test_route_millis_follows_millis(self):
        report = Report("c", "match", None, 3, {"closed": 0, "oracle(p=2)": 3})
        payload = json.loads(report.to_json())
        assert list(payload) == ["case", "status", "millis", "route_millis"]
        assert payload["route_millis"] == {"closed": 0, "oracle(p=2)": 3}

    def test_ok_flag(self):
        assert Report("c", "match").ok
        assert Report("c", "skipped").ok
        assert not Report("c", "mismatch").ok


class TestCheckSplitting:
    def test_two_variables_by_hand(self):
        # beta(P) = (2, 1); both parts principal; meet principal in degree 2
        report = check_splitting(ideal((1, 0), (0, 1)), ideal((1, 0)), ideal((0, 1)))
        assert report.ok

    def test_rejects_non_decomposition(self):
        with pytest.raises(ValueError):
            check_splitting(ideal((1, 0)), ideal((1, 0)), ideal((0, 1)))

    def test_detects_non_splitting(self):
        # (x1^2, x1x2, x2^2) split into (x1^2, x2^2) + (x1x2) fails at i = 1
        report = check_splitting(ideal((2, 0), (1, 1), (0, 2)),
                                 ideal((2, 0), (0, 2)), ideal((1, 1)))
        assert not report.ok
        assert report.witness == {"i": 1, "values": ["2", "3"]}

    def test_mismatch_reproducible(self):
        runs = [check_splitting(ideal((2, 0), (1, 1), (0, 2)),
                                ideal((2, 0), (0, 2)), ideal((1, 1)))
                for _ in range(2)]
        assert runs[0].case == runs[1].case
        assert runs[0].witness == runs[1].witness


class TestFamilyCase:
    @pytest.mark.parametrize("kind", ["long-power", "mixed", "corner"])
    def test_is_unit_matches_the_ideal(self, kind):
        for n, s, t in product(range(2, 6), range(3), range(3)):
            case = FamilyCase(kind, n, s, t)
            assert case.is_unit() == case.ideal().is_unit(), case

    def test_is_unit_builds_no_ideal(self, monkeypatch):
        # the formula routes answer for members the monomial layer cannot build
        monkeypatch.setattr(FamilyCase, "ideal", None)
        assert not FamilyCase("mixed", 240, 60, 60).is_unit()


class TestRouteTotals:
    def test_long_power_routes_agree(self):
        case = FamilyCase("long-power", 4, 0, 2)
        closed = route_totals(case, "closed")
        assert closed == route_totals(case, "recursion")
        assert closed == route_totals(case, "series")
        assert closed == route_totals(case, "oracle", char=32003)

    def test_corner_has_no_closed_route(self):
        with pytest.raises(ValueError):
            route_totals(FamilyCase("corner", 4, 0, 2), "closed")

    def test_series_only_for_long(self):
        with pytest.raises(ValueError):
            route_totals(FamilyCase("mixed", 4, 0, 2), "series")


class TestCrossValidate:
    def test_small_sweep_matches(self):
        cases = [FamilyCase("mixed", n, s, t)
                 for n in (3, 4) for s in (0, 1) for t in (1, 2)]
        reports = list(cross_validate(cases, ["closed", "recursion", "oracle"],
                                      chars=(2, 32003)))
        assert reports and all(r.ok for r in reports)

    def test_audit_reports_present(self):
        reports = cross_validate([FamilyCase("long-power", 3, 0, 1)],
                                 ["closed", "oracle"], chars=(32003,))
        assert any("audit" in r.case for r in reports)

    def test_route_millis_per_expanded_route(self):
        reports = list(cross_validate([FamilyCase("long-power", 3, 0, 2)],
                                      ["closed", "recursion", "oracle"], chars=(2, 32003)))
        assert [list(r.route_millis or {}) for r in reports] == [
            ["closed", "recursion", "oracle(p=2)", "oracle(p=32003)"], [], []]
        assert all(type(ms) is int and ms >= 0 for ms in reports[0].route_millis.values())

    def test_yields_before_the_next_case(self, monkeypatch):
        # the first case's reports arrive before the second case is computed
        seen = []
        real = verify.route_totals

        def recorded(case, *args, **kwargs):
            seen.append(case.n)
            return real(case, *args, **kwargs)
        monkeypatch.setattr(verify, "route_totals", recorded)
        reports = cross_validate([FamilyCase("mixed", n, 0, 1) for n in (3, 4)],
                                 ["closed", "recursion"])
        assert seen == []
        assert next(reports).case.startswith("mixed(n=3,")
        assert seen == [3, 3]


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match=r"^unknown suite 'nope'; choices: example-row, "
                                             r".*, support-facts or all$"):
            run_suite("nope")

    def test_example_row_suite(self):
        reports = run_suite("example-row")
        assert all(r.ok for r in reports)

    def test_delta_edge_suite(self):
        reports = list(run_suite("delta-edge"))
        assert len(reports) == 2 and all(r.ok for r in reports)

    @pytest.mark.parametrize("name", ["long-path-oracle", "short-path-oracle",
                                      "three-route", "splittings", "delta-edge"])
    def test_oracle_suites_keep_lattice_cap(self, name):
        with pytest.raises(LatticeCapError):
            list(run_suite(name, cap=1))

    def test_all_starts_each_suite_on_demand(self, monkeypatch):
        def must_not_run(cap, seed):
            raise AssertionError("a suite ran before its first report was asked for")
        for name in verify.SUITES:
            if name != "example-row":
                monkeypatch.setitem(verify.SUITES, name, must_not_run)
        first = next(iter(run_suite("all")))
        assert first.case == "example row short-power(n=27,t=4)" and first.ok

    def test_unknown_option_refused(self):
        with pytest.raises(TypeError):
            run_suite("example-row", bogus=1)

    def test_config_sweep(self):
        config = {"sweeps": [{"kind": "mixed", "n": [3, 4], "s": [0, 1],
                              "t": [1, 2], "routes": ["closed", "recursion"]}]}
        reports = list(run_config(config))
        assert len(reports) == 8 and all(r.ok for r in reports)

    @pytest.mark.parametrize("kind", ["mixed", "corner"])
    def test_refuses_exactly_the_unit_members(self, kind):
        for n, s, t in product(range(2, 5), range(3), range(3)):
            config = {"sweeps": [{"kind": kind, "n": [n, n], "s": [s, s], "t": [t, t],
                                  "routes": ["recursion"]}]}
            unit = FamilyCase(kind, n, s, t).ideal().is_unit()
            if unit:
                with pytest.raises(ValueError, match="is the unit ideal"):
                    verify._check_config(config)
            else:
                verify._check_config(config)

    def test_config_suites_key(self):
        reports = list(run_config({"suites": ["example-row"]}))
        assert len(reports) == 1 and reports[0].ok

    @pytest.mark.parametrize("config, message", [
        ({"suite": ["example-row"]}, "unknown key 'suite'"),
        ({"suites": ["example-row", "bogus"]}, "unknown suite 'bogus'"),
        ({"sweeps": {"kind": "mixed"}}, "'sweeps' must be a list of objects"),
        ({"sweeps": [{"kind": "cycle"}]}, "'kind' must be one of"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 4], "step": 2}]}, "unknown key 'step'"),
        ({"sweeps": [{"kind": "mixed", "n": [3]}]}, "'n' must be an integer range"),
        ({"sweeps": [{"kind": "mixed", "s": [True, 2]}]}, "'s' must be an integer range"),
        ({"sweeps": [{"kind": "mixed", "routes": ["series"]}]},
         "route 'series' not applicable to mixed families"),
        ({"sweeps": [{"kind": "mixed", "chars": [2.0]}]}, "'chars' must be a list of integers"),
        ({"sweeps": [{"kind": "mixed", "chars": [4]}]}, "'chars': 4 is not prime"),
        ({"sweeps": [{"kind": "mixed", "n": [4, 4], "s": [-2, -1], "t": [1, 1],
                      "routes": ["closed", "recursion"]}]},
         "config sweep 1: 's' must be a range [lo, hi] with 0 <= lo <= hi for mixed "
         "families, not [-2, -1]"),
        ({"sweeps": [{"kind": "corner", "n": [4, 4], "t": [-1, 2]}]},
         "config sweep 1: 't' must be a range [lo, hi] with 0 <= lo <= hi"),
        ({"sweeps": [{"kind": "mixed", "n": [1, 4]}]},
         "config sweep 1: 'n' must be a range [lo, hi] with 2 <= lo <= hi"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3]}, {"kind": "mixed", "n": [5, 3]}]},
         "config sweep 2: 'n' must be a range [lo, hi] with 2 <= lo <= hi for mixed "
         "families, not [5, 3]"),
        ({"sweeps": [{"kind": "long-power", "n": [3, 4], "t": [0, 2]}]},
         "config sweep 1: 't' must be a range [lo, hi] with 1 <= lo <= hi for "
         "long-power families"),
        ({"sweeps": [{"kind": "long-power", "n": [3, 4]}]},
         "config sweep 1: 't' must be a range [lo, hi] with 1 <= lo <= hi"),
        ({"sweeps": [{"kind": "long-power", "n": [3, 3], "s": [0, 2], "t": [1, 1],
                      "routes": ["closed", "recursion"]}]},
         "config sweep 1: 's' must be [0, 0] for long-power families, not [0, 2]"),
        ({"sweeps": [{"kind": "mixed", "n": [4, 4]}]},
         "config sweep 1: mixed(n=4,s=0,t=0) is the unit ideal"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 4], "t": [1, 1]},
                     {"kind": "mixed", "t": [1, 2], "routes": ["closed"]}]},
         "config sweep 2: mixed(n=2,s=0,t=1) is the unit ideal"),
        ({"sweeps": [{"kind": "corner", "n": [4, 6], "routes": ["recursion"]}]},
         "config sweep 1: corner(n=4,s=0,t=0) is the unit ideal"),
        ({"sweeps": [{"kind": "corner", "n": [4, 4], "t": [1, 1]}]},
         "config sweep 1: route 'closed' not applicable to corner families"),
    ], ids=["unknown-key", "unknown-suite", "sweeps-object", "unknown-kind",
            "unknown-sweep-key", "short-range", "bool-bound", "route-not-applicable",
            "float-char", "composite-char", "negative-s", "negative-t", "n-below-2",
            "lo-above-hi", "long-power-t0", "long-power-default-t", "long-power-s-range",
            "mixed-unit", "mixed-n2-unit", "corner-unit", "corner-default-routes"])
    def test_malformed_config_refused_before_running(self, monkeypatch, config, message):
        def must_not_run(cap, seed):
            raise AssertionError("a suite ran before the config was checked")
        monkeypatch.setitem(verify.SUITES, "example-row", must_not_run)
        config = {"suites": ["example-row"], **config}
        with pytest.raises(ValueError, match=re.escape(message)):
            run_config(config)
