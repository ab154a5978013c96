import json
import random
import re
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclebetti import families, formulas, recursion, verify
from cyclebetti.families import cycle_path_ideal
from cyclebetti.monomials import Monomial, MonomialIdeal, variable
from cyclebetti.oracle import LatticeCapError, graded_betti, lcm_lattice
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
        report = check_splitting(ideal((1, 0), (0, 1)), ideal((1, 0)), ideal((0, 1)),
                                 label="x1, x2")
        assert report.ok

    def test_rejects_non_decomposition(self):
        with pytest.raises(ValueError):
            check_splitting(ideal((1, 0)), ideal((1, 0)), ideal((0, 1)), label="x1")

    def test_detects_non_splitting(self):
        # (x1^2, x1x2, x2^2) split into (x1^2, x2^2) + (x1x2) fails at i = 1
        report = check_splitting(ideal((2, 0), (1, 1), (0, 2)),
                                 ideal((2, 0), (0, 2)), ideal((1, 1)), label="m^2")
        assert not report.ok
        assert report.witness == {"at": [1], "routes": ["total", "split"],
                                  "values": ["2", "3"]}

    def test_mismatch_reproducible(self):
        runs = [check_splitting(ideal((2, 0), (1, 1), (0, 2)),
                                ideal((2, 0), (0, 2)), ideal((1, 1)), label="m^2")
                for _ in range(2)]
        assert runs[0].case == runs[1].case
        assert runs[0].witness == runs[1].witness


def oracle_spy(monkeypatch):
    """Start the oracle memo cold and count the graded_betti calls it makes."""
    verify.clear_oracle_cache()
    calls = []
    real = verify.graded_betti

    def spy(ideal, p, cap):
        calls.append((ideal, p, cap))
        return real(ideal, p, cap)
    monkeypatch.setattr(verify, "graded_betti", spy)
    return calls


@st.composite
def scaled_ideals(draw):
    """(I, m*I): I has two or more generators in k used variables, embedded
    with up to two unused ones; m is any monomial of the larger ring."""
    k = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 2)] * k).filter(any)
    I = MonomialIdeal([Monomial(e) for e in draw(st.lists(exponents, min_size=2,
                                                          max_size=4))], k)
    assume(len(I) >= 2)
    I = I.embed(k + draw(st.integers(0, 2)))
    m = Monomial(draw(st.tuples(*[st.integers(0, 3)] * I.ambient)))
    return I, I * m


class TestOracleMemo:
    """oracle_table computes one table per ideal up to a monomial factor and
    the variables no generator uses, shifted by the factor's degree."""
    P = verify.DEFAULT_PRIME
    CAP = verify.DEFAULT_LATTICE_CAP

    @settings(max_examples=60, deadline=None)
    @given(scaled_ideals(), st.sampled_from([2, 32003]))
    def test_scaled_table_equals_the_oracle(self, pair, p):
        I, scaled = pair
        verify.oracle_table(I, p, self.CAP)  # the scaled ideal's reduced form is held now
        table = verify.oracle_table(scaled, p, self.CAP)
        direct = graded_betti(scaled, p, self.CAP)
        assert table == direct
        assert (table.ambient, table.char) == (direct.ambient, direct.char) == \
            (scaled.ambient, p)

    def test_one_call_up_to_a_factor_and_unused_variables(self, monkeypatch):
        calls = oracle_spy(monkeypatch)
        I = cycle_path_ideal(5, 3)
        plain = verify.oracle_table(I, self.P, self.CAP)
        scaled = verify.oracle_table(variable(1, 5) * I, self.P, self.CAP)
        wider = verify.oracle_table(I.embed(7), self.P, self.CAP)
        assert len(calls) == 1
        assert scaled.entries == {(i, j + 1): v for (i, j), v in plain.entries.items()}
        assert wider == plain and (plain.ambient, wider.ambient) == (5, 7)

    def test_cap_fires_for_the_scaled_ideal_as_for_the_ideal(self, monkeypatch):
        oracle_spy(monkeypatch)
        I = cycle_path_ideal(5, 3)
        scaled = MonomialIdeal([Monomial((2, 0, 1, 0, 0))], 5) * I
        size = len(lcm_lattice(I))
        for ideal_ in (I, scaled):
            with pytest.raises(LatticeCapError):
                verify.oracle_table(ideal_, self.P, size - 1)
        assert verify.oracle_table(scaled, self.P, size) == \
            graded_betti(scaled, self.P, size)

    def test_zero_ideal_refused_as_by_the_oracle(self, monkeypatch):
        calls = oracle_spy(monkeypatch)
        for trivial in (MonomialIdeal.zero(3), MonomialIdeal.unit(3)):
            with pytest.raises(ValueError, match="nonzero, non-unit"):
                verify.oracle_table(trivial, self.P, self.CAP)
        assert [ideal_ for ideal_, _, _ in calls] == [MonomialIdeal.zero(3),
                                                      MonomialIdeal.unit(3)]

    def test_one_generator_ideal_is_its_own_key(self, monkeypatch):
        calls = oracle_spy(monkeypatch)
        principal = ideal((2, 1, 0))
        for _ in range(2):
            table = verify.oracle_table(principal, 2, self.CAP)
            assert table.entries == {(0, 3): 1}
            assert (table.ambient, table.char) == (3, 2)
        assert calls == [(principal, 2, self.CAP)]

    def test_all_suites_rank_148_tables_from_cold(self, monkeypatch):
        # 455 oracle requests: 297 distinct ideals, 148 up to a monomial factor
        calls = oracle_spy(monkeypatch)
        assert all(report.ok for report in run_suite("all"))
        assert len(calls) == 148
        assert sum(len(ideal_) == 1 for ideal_, _, _ in calls) == 50


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

    def test_long_power_routes_agree_at_n10000(self):
        # the closed route stops at i = t, not at i = n
        case = FamilyCase("long-power", 10000, 0, 2)
        closed = route_totals(case, "closed")
        assert closed == [50005000, 99990000, 49985001]
        assert closed == route_totals(case, "recursion") == route_totals(case, "series")

    def test_series_stops_where_its_terms_vanish(self, monkeypatch):
        # every term of series_betti is zero past i = min(n-1, t)
        calls = []
        real = formulas.series_betti

        def counted(n, t, i):
            calls.append(i)
            return real(n, t, i)

        monkeypatch.setattr(formulas, "series_betti", counted)
        route_totals(FamilyCase("long-power", 300, 0, 2), "series")
        assert calls == [0, 1, 2]

    def test_corner_has_no_closed_route(self):
        with pytest.raises(ValueError, match=re.escape(
                "route 'closed' not applicable to corner families; "
                "use --route recursion or oracle")):
            route_totals(FamilyCase("corner", 4, 0, 2), "closed")

    def test_series_only_for_long(self):
        with pytest.raises(ValueError, match=re.escape(
                "route 'series' not applicable to mixed families; "
                "use --route closed, recursion or oracle")):
            route_totals(FamilyCase("mixed", 4, 0, 2), "series")

    @pytest.mark.parametrize("case", [
        FamilyCase("long-power", 5, 0, 2), FamilyCase("mixed", 5, 1, 1),
        FamilyCase("mixed", 6, 2, 0), FamilyCase("corner", 4, 1, 2)])
    def test_route_pd_equals_the_oracle(self, case):
        # mixed t = 0 has no recursive pd function, so the recursion counts its totals
        want = len(route_totals(case, "oracle")) - 1
        for route, entry in verify.ROUTES.items():
            if case.kind in entry.totals:
                assert verify.route_pd(case, route) == want, route

    @pytest.mark.parametrize("route", ["gf", "formula"])
    def test_unknown_route(self, route):
        # aliases are read where a name enters, so below that one is unknown
        with pytest.raises(ValueError, match=re.escape(
                f"unknown route {route!r}; routes: closed, recursion, series, oracle")):
            route_totals(FamilyCase("mixed", 4, 0, 2), route)


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

    def test_each_case_builds_its_ideal_once(self, monkeypatch):
        # two characteristics, each compared and audited, share one build per case
        built = []
        real = FamilyCase._ideal.func

        def counted(case):
            built.append(case)
            return real(case)
        monkeypatch.setattr(FamilyCase._ideal, "func", counted)
        reports = list(run_suite("long-path-oracle"))
        assert len(reports) == 11 * 3 and all(r.ok for r in reports)
        assert len(built) == len(set(built)) == len(verify.LONG_DESK_SET) == 11

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


class TestAgreement:
    """Every point-by-point report stops at the first disagreement and names
    it with one witness shape: {at, routes, values}."""

    def test_main_identity_witness(self, monkeypatch):
        real = formulas.short_path_seq

        def one_too_high(n, s, t):
            seq = list(real(n, s, t))
            if (n, s, t) == (5, 1, 2):
                seq[3] += 1
            return tuple(seq)
        monkeypatch.setattr(formulas, "short_path_seq", one_too_high)
        reports = {r.case: r for r in run_suite("main-identity")}
        assert [r.case for r in reports.values() if not r.ok] == [
            "main identity recursion==closed n=5 s,t<=8"]
        assert reports["main identity recursion==closed n=5 s,t<=8"].witness == {
            "at": [5, 1, 2, 3], "routes": ["recursion", "closed"], "values": ["25", "26"]}

    def test_main_identity_checks_closed_entries_past_n(self, monkeypatch):
        real = formulas.short_path_window

        def one_too_high(n, s, t, lo, hi):
            values = real(n, s, t, lo, hi)
            if (n, s, t) == (4, 2, 2) and lo <= 6 <= hi:
                values[6 - lo] += 1
            return values
        monkeypatch.setattr(formulas, "short_path_window", one_too_high)
        failed = [r for r in run_suite("main-identity") if not r.ok]
        assert [r.case for r in failed] == ["main identity recursion==closed n=4 s,t<=8"]
        assert failed[0].witness == {
            "at": [4, 2, 2, 6], "routes": ["recursion", "closed"], "values": ["0", "1"]}

    def test_main_identity_checks_recursion_entries_past_n(self, monkeypatch):
        real = recursion.mixed_seq

        def one_too_high(n, s, t):
            seq = list(real(n, s, t))
            if (n, s, t) == (4, 2, 2):
                seq += [0] * (7 - len(seq))
                seq[6] += 1
            return tuple(seq)
        monkeypatch.setattr(recursion, "mixed_seq", one_too_high)
        failed = [r for r in run_suite("main-identity") if not r.ok]
        assert [r.case for r in failed] == ["main identity recursion==closed n=4 s,t<=8"]
        assert failed[0].witness == {
            "at": [4, 2, 2, 6], "routes": ["recursion", "closed"], "values": ["1", "0"]}

    def test_main_identity_compares_every_entry(self, monkeypatch):
        # entries 0..2(s+t)+2 of every member n <= 12, s, t <= 8, by both
        # routes: 10,046 lie past n, and the closed route sums the 8,466 of
        # them up to formulas._top in one window per member
        real, sizes = verify._member_entries, []
        window, summed = formulas.short_path_window, []

        def counted(n, s, t, lo, hi):
            summed.append(max(min(hi, formulas._top(n, s, t)) - lo + 1, 0))
            return window(n, s, t, lo, hi)
        monkeypatch.setattr(formulas, "short_path_window", counted)

        def recorded():
            def wrap(name, route):
                def entries(n, s, t):
                    seq = route(n, s, t)
                    sizes.append((name, n, len(seq)))
                    return seq
                return entries
            return {name: wrap(name, route) for name, route in real().items()}
        monkeypatch.setattr(verify, "_member_entries", recorded)
        assert all(report.ok for report in run_suite("main-identity"))
        for name in ("recursion", "closed"):
            seen = [(n, size) for route, n, size in sizes if route == name]
            assert len(seen) == 11 * 9 * 9
            assert sum(size for _, size in seen) == 16929
            assert sum(max(size - n - 1, 0) for n, size in seen) == 10046
        assert len(summed) == 11 * 9 * 9 and sum(summed) == 8466

    def test_cross_validate_witness_names_every_route(self, monkeypatch):
        entries = verify.ROUTES["closed"].totals
        closed = entries["mixed"]

        def one_too_high(*args):
            totals = list(closed(*args))
            totals[1] += 1
            return totals
        monkeypatch.setitem(entries, "mixed", one_too_high)
        report = next(cross_validate([FamilyCase("mixed", 4, 0, 1)],
                                     ["closed", "recursion", "oracle"], chars=(2, 32003)))
        assert report.witness == {
            "at": [1], "routes": ["closed", "recursion", "oracle(p=2)", "oracle(p=32003)"],
            "values": ["5", "4", "4", "4"]}

    def test_residual_witness_is_the_drawn_point(self, monkeypatch):
        real = recursion.shift_residual
        drawn = []

        def off_at_the_third_draw(f, n, s, i):
            if f is recursion.mixed_rec:
                drawn.append((n, s, i))
                if len(drawn) >= 3 and (n, s, i) == drawn[2]:
                    return 1
            return real(f, n, s, i)
        monkeypatch.setattr(recursion, "shift_residual", off_at_the_third_draw)
        first = next(run_suite("residuals"))
        assert first.case == "shift residual, recursion route"
        assert first.witness == {"at": list(drawn[2]), "routes": ["residual", "zero"],
                                 "values": ["1", "0"]}
        # the seeded samples, drawn in order: the third is the one reported
        rng = random.Random(verify.DEFAULT_SEED)
        samples = [[rng.randint(4, 12), rng.randint(0, 8), rng.randint(0, 20)]
                   for _ in range(3)]
        assert first.witness["at"] == samples[2]


def _example_row_pd_off(monkeypatch):
    real = formulas.short_path_pd_reg
    monkeypatch.setattr(formulas, "short_path_pd_reg",
                        lambda n, s, t: (real(n, s, t)[0] + 1, real(n, s, t)[1]))
    return run_suite("example-row")


def _long_path_audit_pd_off(monkeypatch):
    # the audits read the oracle's table from the cache; start them cold
    verify.clear_oracle_cache()
    real = formulas.long_path_pd_reg
    monkeypatch.setattr(formulas, "long_path_pd_reg",
                        lambda n, t: (real(n, t)[0] + 1, real(n, t)[1]))
    return run_suite("long-path-oracle")


def _m2_non_splitting(monkeypatch):
    return [check_splitting(ideal((2, 0), (1, 1), (0, 2)), ideal((2, 0), (0, 2)),
                            ideal((1, 1)), label="m^2")]


def _delta_edge_off(monkeypatch):
    real = recursion.corner_rec
    monkeypatch.setattr(recursion, "corner_rec", lambda *args, **kwargs:
                        real(*args, **kwargs) + 1)
    return run_suite("delta-edge")


def _strict_multiset_as_chain(monkeypatch):
    # the strict multiset made equal to the chain one no longer over-counts
    real = families.corner_chain_pairs
    monkeypatch.setattr(families, "corner_chain_pairs",
                        lambda s, t, strict=False: real(s, t))
    return run_suite("delta-edge")


def _chain_intersection_off(monkeypatch):
    # the first-generator splits build their parts with verify.variable, so
    # it is patched only once they are done; the chain checks read it per call
    reports = run_suite("splittings")
    for report in reports:
        if " chain " in report.case:
            break
    real = verify.variable
    monkeypatch.setattr(verify, "variable", lambda i, n: real(1, n))
    return reports


def _envelope_empty(monkeypatch):
    monkeypatch.setattr(verify.families, "support_envelope", lambda s, t: set())
    return run_suite("support-facts")


class TestOneWitnessShape:
    """Each check, made to mismatch by patching one subject, names its first
    disagreement as {at, routes, values}."""

    @pytest.mark.parametrize("mismatch, case, at, routes", [
        (_example_row_pd_off, "example row short-power(n=27,t=4)", ["pd"],
         ["closed", "pinned"]),
        (_long_path_audit_pd_off, "long-power(n=3,t=1) oracle(p=2) audit", ["pd"],
         ["oracle", "closed"]),
        (_m2_non_splitting, "m^2 (p=32003)", [1], ["total", "split"]),
        (_delta_edge_off, "delta edge default corner(n=4,t=2)", [4, 0, 2, 0],
         ["recursion", "oracle", "generators"]),
        (_strict_multiset_as_chain, "delta edge strict over-counts corner(n=4,t=2)",
         [4, 0, 2, 0], ["recursion", "oracle", "generators"]),
        (_chain_intersection_off, "mixed chain intersection n=4 s=0 t=1 j=0", [],
         ["meet", "xn * piece"]),
        (_envelope_empty, "composed support inside envelope", [0, 1],
         ["outside envelope", "none"]),
    ], ids=["example-row", "oracle-audit", "splitting", "delta-edge",
            "delta-edge-strict", "chain-intersection", "containment"])
    def test_first_mismatch(self, monkeypatch, mismatch, case, at, routes):
        report = next(r for r in mismatch(monkeypatch) if not r.ok)
        assert report.case == case
        assert set(report.witness) == {"at", "routes", "values"}
        assert report.witness["at"] == at
        assert report.witness["routes"] == routes
        assert len(report.witness["values"]) == len(routes)
        assert len(set(report.witness["values"])) > 1


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
                                  "routes": ["recursion", "oracle"]}]}
            unit = FamilyCase(kind, n, s, t).ideal().is_unit()
            if unit:
                with pytest.raises(ValueError, match="is the unit ideal"):
                    verify._read_config(config)
            else:
                verify._read_config(config)

    def test_first_report_builds_a_bounded_number_of_cases(self, monkeypatch):
        # a sweep over millions of members yields its first report without
        # listing them: one case read with the config, one run
        built = []
        real = verify.FamilyCase

        def counted(*args):
            built.append(args)
            return real(*args)
        monkeypatch.setattr(verify, "FamilyCase", counted)
        config = {"sweeps": [{"kind": "mixed", "n": [3, 3_000_000], "t": [1, 1],
                              "routes": ["closed", "recursion"]}]}
        report = next(run_config(config))
        assert report.ok and report.case.startswith("mixed(n=3,s=0,t=1)")
        assert len(built) <= 2

    def test_config_edited_after_the_call_runs_as_read(self):
        # the plan is read at the call: neither an in-place edit of a list
        # nor a replaced range reaches the reports
        routes = ["closed", "recursion"]
        config = {"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 2],
                              "routes": routes}]}
        reports = run_config(config)
        routes[:] = ["closed"]
        config["sweeps"][0]["n"] = [4, 5]
        assert [r.case for r in reports] == [
            "mixed(n=3,s=0,t=1) routes=closed/recursion",
            "mixed(n=3,s=0,t=2) routes=closed/recursion"]

    def test_config_aliases_read_as_route_names(self):
        config = {"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1],
                              "routes": ["formula", "recursive"]}]}
        assert [r.case for r in run_config(config)] == [
            "mixed(n=3,s=0,t=1) routes=closed/recursion"]

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
        ({"sweeps": [{"kind": "corner", "n": [4, 4], "t": [1, 1],
                      "routes": ["formula", "oracle"]}]},
         "config sweep 1: route 'closed' not applicable to corner families; "
         "use --route recursion or oracle"),
        ({"sweeps": [{"kind": "mixed", "routes": ["gf", "oracle"]}]},
         "config sweep 1: unknown route 'gf'; routes: closed, recursion, series, oracle"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1],
                      "routes": ["formula", "closed"]}]},
         "config sweep 1: 'routes' lists 'closed' twice"),
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
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1],
                      "routes": ["closed", "closed", "oracle"]}]},
         "config sweep 1: 'routes' lists 'closed' twice"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1],
                      "routes": ["closed", "oracle"], "chars": [2, 32003, 2]}]},
         "config sweep 1: 'chars' lists 2 twice"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1], "routes": []}]},
         "config sweep 1: 'routes' must list at least one item"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1],
                      "routes": ["oracle"], "chars": []}]},
         "config sweep 1: 'chars' must list at least one item"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1],
                      "routes": ["closed", "oracle"], "chars": []}]},
         "config sweep 1: 'chars' must list at least one item"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1],
                      "routes": ["closed", "recursion"], "chars": []}]},
         "config sweep 1: 'chars' must list at least one item"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1], "routes": ["oracle"]},
                     {"kind": "mixed", "n": [3, 3], "t": [1, 1], "routes": ["closed"]}]},
         "config sweep 2: route 'closed' alone compares nothing"),
        ({"sweeps": [{"kind": "mixed", "n": [3, 3], "t": [1, 1],
                      "routes": ["closed", "recursion"], "chars": [2, 3]}]},
         "config sweep 1: 'chars' is read by the oracle route only; "
         "list 'oracle' in 'routes' or drop 'chars'"),
        ({"suites": ["delta-edge", "delta-edge"]}, "config: 'suites' lists 'delta-edge' twice"),
        ({"suites": ["example-row", "all"]}, "config: 'suites' lists 'example-row' twice"),
        ({"suites": []}, "config lists no suite and no sweep, so it verifies nothing"),
        ({"suites": [], "sweeps": []},
         "config lists no suite and no sweep, so it verifies nothing"),
    ], ids=["unknown-key", "unknown-suite", "sweeps-object", "unknown-kind",
            "unknown-sweep-key", "short-range", "bool-bound", "route-not-applicable",
            "alias-not-applicable", "unknown-route", "alias-repeats-route",
            "float-char", "composite-char", "negative-s", "negative-t", "n-below-2",
            "lo-above-hi", "long-power-t0", "long-power-default-t", "long-power-s-range",
            "mixed-unit", "mixed-n2-unit", "corner-unit", "corner-default-routes",
            "repeated-route", "repeated-char", "no-routes", "no-chars",
            "no-chars-closed-oracle", "no-chars-without-oracle", "lone-route",
            "chars-without-oracle", "repeated-suite", "suite-repeated-through-all", "no-suites", "nothing-listed"])
    def test_malformed_config_refused_before_running(self, monkeypatch, config, message):
        def must_not_run(cap, seed):
            raise AssertionError("a suite ran before the config was checked")
        monkeypatch.setitem(verify.SUITES, "example-row", must_not_run)
        config = {"suites": ["example-row"], **config}
        with pytest.raises(ValueError, match=re.escape(message)):
            run_config(config)
