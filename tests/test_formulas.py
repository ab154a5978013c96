import math
import random
from functools import cache, lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclebetti import formulas
from cyclebetti.families import long_path_ideal, mixed_power
from cyclebetti.formulas import (binomial, long_path_betti, long_path_pd_reg,
                                 long_power_seq, reduced_power_betti,
                                 reduced_power_pd_reg,
                                 series_betti, short_path_betti,
                                 short_path_betti_parts, short_path_pd_reg,
                                 short_path_seq, short_path_window)
from cyclebetti.oracle import graded_betti


class TestBinomial:
    def test_plain(self):
        assert binomial(5, 2) == 10
        assert binomial(0, 0) == 1

    def test_zero_conventions(self):
        assert binomial(3, -1) == 0
        assert binomial(2, 5) == 0
        assert binomial(-1, 2) == 0
        assert binomial(-1, 0) == 0
        assert binomial(-3, -3) == 0

    def test_exact_large(self):
        assert binomial(103, 26) == math.comb(103, 26)
        assert binomial(200, 100) == math.comb(200, 100)


class TestLongPathBetti:
    def test_triangle_values(self):
        assert long_path_betti(3, 1, 0) == 3
        assert long_path_betti(3, 1, 1) == 2

    def test_vanishing_beyond_pd(self):
        for n in range(2, 8):
            for t in range(1, 5):
                for i in range(min(n - 1, t) + 1, n + t + 2):
                    assert long_path_betti(n, t, i) == 0

    def test_matches_oracle_small(self):
        for n in (3, 4):
            for t in (1, 2):
                totals = graded_betti(long_path_ideal(n) ** t).totals()
                want = [long_path_betti(n, t, i) for i in range(len(totals))]
                assert totals == want


def literal_long_path_betti(n, t, i):
    """The m = n-1 closed form, entry by entry, as first written."""
    return binomial(n - 1, i) * binomial(n + t - i - 1, t - i)


def literal_reduced_power_betti(n, s, i):
    """The reduced-power form, with its s = 0 case, as first written."""
    if s == 0:
        return 1 if i == 0 else 0
    return binomial(n - 2, i) * binomial(n + s - i - 2, s - i)


class TestLongPowerSeq:
    def test_lookups_equal_the_literal_forms(self):
        for n in range(2, 31):
            for u in range(13):
                for i in range(-2, n + 3):
                    assert reduced_power_betti(n, u, i) == \
                        literal_reduced_power_betti(n, u, i), (n, u, i)
                    want = literal_long_path_betti(n, u, i)
                    assert formulas.seq_entry(long_power_seq(n, u), i) == want, (n, u, i)
                    if u >= 1:
                        assert long_path_betti(n, u, i) == want, (n, u, i)

    def test_stops_where_a_binomial_vanishes(self):
        for n in range(1, 12):
            for t in range(8):
                seq = long_power_seq(n, t)
                assert len(seq) == min(n - 1, t) + 1 and all(v > 0 for v in seq)
        assert long_power_seq(1, 5) == long_power_seq(6, 0) == (1,)

    def test_huge_n_costs_t_terms(self):
        n = 10**6
        assert long_power_seq(n, 2) == (
            (n + 1) * n // 2, (n - 1) * n, (n - 1) * (n - 2) // 2)

    def test_lookups_keep_their_domains(self):
        with pytest.raises(ValueError):
            long_path_betti(5, 0, 0)
        with pytest.raises(ValueError):
            reduced_power_betti(1, 0, 0)


class TestReducedPowerBetti:
    def test_square_cycle(self):
        assert [reduced_power_betti(4, 1, i) for i in range(4)] == [3, 2, 0, 0]

    def test_zeroth_power(self):
        assert reduced_power_betti(6, 0, 0) == 1
        assert reduced_power_betti(6, 0, 1) == 0

    def test_matches_oracle_small(self):
        from cyclebetti.families import reduced_short_path_ideal
        for n in (4, 5, 6):
            for s in (1, 2):
                totals = graded_betti(reduced_short_path_ideal(n) ** s).totals()
                want = [reduced_power_betti(n, s, i) for i in range(len(totals))]
                assert totals == want, (n, s)


def literal_short_path_parts(n, s, t, i, binomial=binomial):
    """The closed form's three pieces summed over every j, as first written.

    binomial may be swapped for a memoized copy where the sums get long."""
    k = n // 2
    plus = sum(
        binomial(n, i - 2 * j)
        * (binomial(n + s + t - 1 - i + j, n - 1) - binomial(n + s - 1 - i + j, n - 1))
        for j in range(i // 2 + 1))
    if n % 2:
        minus = sum(
            binomial(n, i - 1 - 2 * j)
            * (binomial(s + t + k - 1 - j, n - 1) - binomial(s + k - 1 - j, n - 1))
            for j in range((i - 1) // 2 + 1))
    else:
        minus = sum(
            binomial(n, i - 2 * j)
            * (binomial(s + t + k - 1 - j, n - 1) - binomial(s + k - 1 - j, n - 1))
            for j in range(i // 2 + 1))
    const = binomial(n - 2, i) * binomial(n + s - i - 2, n - 2)
    return plus, minus, const


class TestShortPathClosedForm:
    def test_restricted_sums_equal_literal_sums(self):
        # every parameter sign, including the negative s, t and i the
        # docstring promises to evaluate as written
        for n in range(2, 30):
            for s in range(-3, 6):
                for t in range(-3, 6):
                    for i in range(-3, n + 4):
                        assert short_path_betti_parts(n, s, t, i) == \
                            literal_short_path_parts(n, s, t, i), (n, s, t, i)
        for i in (0, 1, 2, 3, 4, 5, 204, 407, 408):
            assert short_path_betti_parts(408, 1, 1, i) == \
                literal_short_path_parts(408, 1, 1, i), i

    def test_whole_ring(self):
        for s in range(4):
            for t in range(4):
                for i in range(4):
                    want = 1 if i == 0 else 0
                    assert short_path_betti(2, s, t, i) == want

    def test_parts_exposed(self):
        plus, minus, const = short_path_betti_parts(3, 1, 1, 0)
        assert (plus, minus, const) == (3, 0, 2)
        assert short_path_betti(3, 1, 1, 0) == 5

    def test_n3_quadratic_forms(self):
        # the three homological degrees at n=3 are explicit quadratics
        for s in range(6):
            for t in range(1, 6):
                v0 = (t + 1) * (s + 1) + t * (t + 1) // 2
                v1 = t * (t + 1) + 2 * s * t + s + t
                v2 = t * (t + 1) // 2 + s * t
                assert short_path_betti(3, s, t, 0) == v0, (s, t)
                assert short_path_betti(3, s, t, 1) == v1, (s, t)
                assert short_path_betti(3, s, t, 2) == v2, (s, t)
                assert short_path_betti(3, s, t, 3) == 0, (s, t)

    def test_n3_against_oracle(self):
        for s in range(3):
            for t in range(3):
                if s == t == 0:
                    continue
                totals = graded_betti(mixed_power(3, s, t)).totals()
                want = [short_path_betti(3, s, t, i) for i in range(len(totals))]
                assert totals == want, (s, t)

    def test_example_row(self):
        got = [short_path_betti(27, 0, 4, i) for i in range(9)]
        assert got == [27405, 98658, 136332, 89181, 27405, 3654, 378, 27, 1]
        assert short_path_betti(27, 0, 4, 9) == 0

    def test_reduces_to_reduced_power_at_t0(self):
        for n in range(2, 9):
            for s in range(6):
                for i in range(n + 2):
                    assert short_path_betti(n, s, 0, i) == \
                        reduced_power_betti(n, s, i), (n, s, i)

    def test_negative_parameters_vanish(self):
        assert short_path_betti(5, 1, 2, -1) == 0
        assert short_path_betti_parts(5, 1, 2, -3) == (0, 0, 0)


def literal_short_path_betti(n, s, t, i, binomial=binomial):
    plus, minus, const = literal_short_path_parts(n, s, t, i, binomial)
    return plus - minus + const


def seq_entry(seq, i):
    return seq[i] if 0 <= i < len(seq) else 0


class TestShortPathSeq:
    """The cached head against the literal sums, entry by entry, over
    negative parameters and past n, where short_path_betti answers from a
    one-entry window."""

    @pytest.mark.parametrize("n", range(2, 30))
    def test_equals_literal_sums(self, n):
        for s in range(-3, 9):
            for t in range(-3, 9):
                seq = short_path_seq(n, s, t)
                assert isinstance(seq, tuple) and len(seq) <= n + 1, (n, s, t)
                assert not seq or seq[-1] != 0, (n, s, t)
                if s >= 0 and t >= 1:
                    assert len(seq) == short_path_pd_reg(n, s, t)[0] + 1, (n, s, t)
                for i in range(-3, 2 * (s + t) + n + 5):
                    want = literal_short_path_betti(n, s, t, i)
                    if i <= n:
                        assert seq_entry(seq, i) == want, (n, s, t, i)
                    assert short_path_betti(n, s, t, i) == want, (n, s, t, i)

    def test_routes_grid_band(self):
        binom = cache(binomial)
        for n in range(400, 411):
            seq = short_path_seq(n, 1, 1)
            for i in range(-3, 2 * 2 + n + 5):
                want = literal_short_path_betti(n, 1, 1, i, binom)
                if i <= n:
                    assert seq_entry(seq, i) == want, (n, i)
                assert short_path_betti(n, 1, 1, i) == want, (n, i)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 60), s=st.integers(-3, 10**6), t=st.integers(-3, 10**6),
           data=st.data())
    def test_large_exponents_sampled(self, n, s, t, data):
        # past the exhaustive grid: exponents up to 10**6 and n up to 60
        i = data.draw(st.integers(-3, 3 * n), label="i")
        want = literal_short_path_betti(n, s, t, i)
        if i <= n:
            assert seq_entry(short_path_seq(n, s, t), i) == want
        assert short_path_betti(n, s, t, i) == want

    def test_work_does_not_grow_with_exponents(self, monkeypatch):
        # the sequence stops at i = n: as many binomials at s = t = 200000
        # as at s = t = 3, where a sequence running to 2(s + t) needs ~10**6
        real, calls = formulas.binomial, []
        monkeypatch.setattr(formulas, "binomial",
                            lambda a, b: calls.append(1) or real(a, b))
        counts = []
        for s in (3, 200000):
            short_path_seq.cache_clear()
            calls.clear()
            short_path_seq(5, s, s)
            counts.append(len(calls))
        short_path_seq.cache_clear()
        assert counts[0] == counts[1] < 40

    def test_huge_exponents_exact(self):
        for n in (5, 6, 40):
            seq = short_path_seq(n, 2**31, 2**31)
            assert len(seq) == short_path_pd_reg(n, 2**31, 2**31)[0] + 1
            for i in range(n + 3):
                want = literal_short_path_betti(n, 2**31, 2**31, i)
                assert seq_entry(seq, i) == short_path_betti(n, 2**31, 2**31, i) == want

    def test_n_below_2_refused(self):
        with pytest.raises(ValueError):
            short_path_seq(1, 0, 1)
        with pytest.raises(ValueError):
            short_path_betti(1, 0, 1, 0)


class TestShortPathWindow:
    """The window kernel: entries lo..hi of the closed form as written."""

    @pytest.mark.parametrize("n", range(2, 30))
    def test_windows_equal_literal_sums(self, n):
        for s in range(-3, 9):
            for t in range(-3, 9):
                top = formulas._top(n, s, t)
                end = max(top, n) + 3
                want = [literal_short_path_betti(n, s, t, i) for i in range(end + 1)]
                # the whole range, the head, windows that start past n, that
                # cross n, that cross _top and that lie wholly past it, and
                # every one-entry window
                windows = [(0, end), (0, n), (n + 1, end), (n + 1, n + 1),
                           (max(n - 2, 0), n + 2), (max(top - 1, 0), top + 2),
                           (max(top + 1, 0), end), (n + 3, n + 2)]
                windows += [(i, i) for i in range(end + 1)]
                for lo, hi in windows:
                    got = short_path_window(n, s, t, lo, hi)
                    assert got == want[lo:hi + 1], (n, s, t, lo, hi)

    def test_head_is_the_window_up_to_n(self):
        for n in range(2, 12):
            for s in range(4):
                for t in range(4):
                    head = short_path_window(n, s, t, 0, n)
                    assert short_path_seq(n, s, t) == formulas.strip_zeros(head)

    def test_negative_lo_refused(self):
        with pytest.raises(ValueError):
            short_path_window(5, 1, 1, -1, 3)
        with pytest.raises(ValueError):
            short_path_window(1, 1, 1, 0, 3)

    @pytest.mark.parametrize("n, lo, hi", [(2, 3, 10), (3, 4, 9), (3, 7, 9), (4, 5, 8)])
    def test_work_past_n_does_not_grow_with_exponents(self, monkeypatch, n, lo, hi):
        # a window reads D(m) and E(j) only where C(n, r) can be nonzero, so
        # it makes as many binomial calls at s = t = 2**31 as at s = t = 3
        real, calls = formulas.binomial, []
        monkeypatch.setattr(formulas, "binomial",
                            lambda a, b: calls.append(1) or real(a, b))
        counts = []
        for s in (3, 2**31):
            calls.clear()
            short_path_window(n, s, s, lo, hi)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 4 * (hi - lo + 1 + n)

    def test_head_builds_no_binomial_past_top(self, monkeypatch):
        # mixed(400..410, 1, 1) vanishes past i = 4: the head builds C(n, r)
        # for r <= 4 only, not the whole row of n + 1
        # the differences D and E reach math.comb through binomial; only the
        # row C(n, r) calls it directly
        real, built = math.comb, []
        monkeypatch.setattr(formulas, "binomial",
                            lambda a, b: real(a, b) if 0 <= b <= a else 0)
        monkeypatch.setattr(math, "comb", lambda a, b: built.append((a, b)) or real(a, b))
        for n in range(400, 411):
            short_path_seq.cache_clear()
            built.clear()
            short_path_seq(n, 1, 1)
            rows = [b for a, b in built if a == n]
            assert rows and max(rows) <= formulas._top(n, 1, 1) == 4, n


def displayed_power_betti(n, t, i):
    """The two displayed single-power formulas (odd/even), written directly."""
    k = n // 2
    first = sum(math.comb(n, i - 2 * j) * math.comb(n + t - 1 - i + j, n - 1)
                for j in range(i // 2 + 1)
                if 0 <= i - 2 * j <= n and n + t - 1 - i + j >= n - 1)
    if n % 2:
        second = sum(math.comb(n, i - 1 - 2 * j) * math.comb(t + k - 1 - j, n - 1)
                     for j in range((i - 1) // 2 + 1)
                     if 0 <= i - 1 - 2 * j <= n and t + k - 1 - j >= n - 1)
    else:
        second = sum(math.comb(n, i - 2 * j) * math.comb(t + k - 1 - j, n - 1)
                     for j in range(i // 2 + 1)
                     if 0 <= i - 2 * j <= n and t + k - 1 - j >= n - 1)
    return first - second


class TestDisplayedSinglePowerFormulas:
    def test_closed_form_specializes(self):
        for n in range(2, 15):
            for t in range(9):
                for i in range(2 * n + 2):
                    assert short_path_betti(n, 0, t, i) == \
                        displayed_power_betti(n, t, i), (n, t, i)


class TestPdReg:
    def test_long_power(self):
        assert long_path_pd_reg(5, 2) == (2, 8)

    def test_short_power(self):
        assert short_path_pd_reg(5, 0, 2) == (4, 6)
        assert short_path_pd_reg(27, 0, 4) == (8, 100)
        assert short_path_pd_reg(6, 0, 2) == (4, 8)

    def test_reduced_power(self):
        assert reduced_power_pd_reg(4, 1) == (1, 2)
        assert reduced_power_pd_reg(6, 9) == (4, 36)

    def test_long_power_against_oracle(self):
        for n in (3, 4, 5):
            for t in (1, 2):
                table = graded_betti(long_path_ideal(n) ** t)
                assert (table.pd(), table.reg()) == long_path_pd_reg(n, t)

    def test_parity_against_oracle(self):
        for n in (4, 5):
            for s in range(2):
                for t in (1, 2):
                    table = graded_betti(mixed_power(n, s, t))
                    assert (table.pd(), table.reg()) == short_path_pd_reg(n, s, t)


# The generating-function expansion by iterated multiplication of dense
# truncated polynomials, as the series route first computed it.

def _trunc_mul(f, g, xmax, ymax):
    out: dict[tuple[int, int, int], int] = {}
    for (a1, b1, c1), v1 in f.items():
        for (a2, b2, c2), v2 in g.items():
            a, b = a1 + a2, b1 + b2
            if a <= xmax and b <= ymax:
                key = (a, b, c1 + c2)
                out[key] = out.get(key, 0) + v1 * v2
    return out


@lru_cache(maxsize=None)
def _series_table(xmax: int, ymax: int) -> dict[tuple[int, int, int], int]:
    """Coefficients of the generating function, truncated at x^xmax y^ymax.

    The z-degree needs no truncation: every z carries an x and a y, so it is
    bounded by xmax + ymax already.
    """
    core = {(1, 0, 0): 1, (0, 1, 0): 1, (1, 1, 1): 1}  # x + y + xyz
    geometric = {(0, 0, 0): 1}
    power = {(0, 0, 0): 1}
    for _ in range(xmax + ymax):
        power = _trunc_mul(power, core, xmax, ymax)
        if not power:
            break
        for key, v in power.items():
            geometric[key] = geometric.get(key, 0) + v
    series = _trunc_mul(geometric, {(0, b, 0): 1 for b in range(ymax + 1)}, xmax, ymax)
    return _trunc_mul(series, {(0, 0, 0): 1, (0, 1, 1): 1}, xmax, ymax)


def ref_series_betti(n, t, i):
    return _series_table(n - 2, t).get((n - 2, t, i), 0)


class TestSeries:
    def test_two_variable_column(self):
        for t in range(8):
            assert series_betti(2, t, 0) == t + 1
            assert series_betti(2, t, 1) == t
            assert series_betti(2, t, 2) == 0

    def test_triangle_syzygies(self):
        assert series_betti(3, 1, 1) == 2

    def test_matches_closed_form(self):
        for n in range(2, 9):
            for t in range(1, 7):
                for i in range(n + 2):
                    assert series_betti(n, t, i) == long_path_betti(n, t, i), (n, t, i)

    def test_equals_expansion_reference(self):
        # t = 0 and every i up to n + 2, past the projective dimension
        for n in range(2, 41):
            for t in range(11):
                for i in range(n + 3):
                    assert series_betti(n, t, i) == ref_series_betti(n, t, i), (n, t, i)

    def test_three_term_recurrence(self):
        def coeff(n, t, i):
            return series_betti(n, t, i) if t >= 0 and i >= 0 else 0

        for n in range(3, 9):
            for t in range(8):
                for i in range(n + 2):
                    assert coeff(n, t, i) == (coeff(n, t - 1, i)
                                              + coeff(n - 1, t, i)
                                              + coeff(n - 1, t - 1, i - 1)), (n, t, i)


class TestBinomialIdentities:
    def test_seeded_sweep(self):
        rng = random.Random(77)
        for _ in range(1000):
            n, m, s = rng.randint(2, 60), rng.randint(0, 60), rng.randint(0, 60)
            assert binomial(n + 1, s + 1) == binomial(n, s) + binomial(n, s + 1)
            assert (binomial(n - 2, m - 2) + 2 * binomial(n - 2, m - 1)
                    + binomial(n - 2, m)) == binomial(n, m)
            assert sum(binomial(n + j, m) for j in range(s + 1)) == \
                binomial(n + s + 1, m + 1) - binomial(n, m + 1)
            assert sum(j * binomial(n + j, m) for j in range(s + 1)) == \
                (s * binomial(n + s + 1, m + 1) - binomial(n + s + 1, m + 2)
                 + binomial(n + 1, m + 2))
