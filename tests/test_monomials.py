import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclebetti import monomials
from cyclebetti.cli import build_ideal
from cyclebetti.families import short_path_ideal
from cyclebetti.monomials import (AmbientMismatchError, CandidateCapError, Monomial,
                                  MonomialIdeal, one, variable)


def mono(*exps):
    return Monomial(exps)


def ideal(*gens_exps):
    return MonomialIdeal([Monomial(e) for e in gens_exps])


class TestMonomial:
    def test_divides(self):
        assert mono(1, 0).divides(mono(1, 1))
        assert not mono(2, 0).divides(mono(1, 1))
        assert mono(0, 0).divides(mono(1, 0))

    def test_divides_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            mono(1, 0).divides(mono(1, 0, 0))

    def test_mul_pow_degree(self):
        assert mono(1, 2) * mono(0, 1) == mono(1, 3)
        assert mono(1, 2) ** 3 == mono(3, 6)
        assert mono(1, 2).degree == 3

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            Monomial((-1, 0))
        with pytest.raises(ValueError):
            Monomial((2**31 + 1, 0))

    def test_text_roundtrip(self):
        for m in (mono(2, 0, 1), mono(0, 0, 0), mono(1, 1, 1), variable(2, 4)):
            assert build_ideal(f"({m})").embed(m.ambient).gens == (m,)
        assert str(mono(2, 0, 1)) == "x1^2*x3"
        assert str(one(3)) == "1"


class TestMinimalize:
    def test_drops_multiples(self):
        assert ideal((1, 0), (1, 1)) == ideal((1, 0))

    def test_keeps_incomparable(self):
        got = ideal((1, 1, 0), (0, 1, 1), (1, 1, 1))
        assert got == ideal((1, 1, 0), (0, 1, 1))

    def test_empty_is_zero(self):
        assert MonomialIdeal.zero(3).is_zero()
        assert MonomialIdeal([], 3).gens == ()

    def test_idempotent_no_divisibility_pair(self):
        rng = random.Random(7)
        for _ in range(50):
            gens = [Monomial(tuple(rng.randint(0, 3) for _ in range(4)))
                    for _ in range(rng.randint(1, 12))]
            first = MonomialIdeal(gens, 4).gens
            assert MonomialIdeal(first, 4).gens == first
            for a in first:
                for b in first:
                    assert a == b or not a.divides(b)


class TestIdealAlgebra:
    def test_product(self):
        assert ideal((1, 0)) * ideal((0, 1)) == ideal((1, 1))
        I = ideal((1, 1, 0), (0, 1, 1))
        assert I * MonomialIdeal.unit(3) == I
        sq = ideal((1, 0)) + ideal((0, 1))
        assert sq * sq == ideal((2, 0), (1, 1), (0, 2))

    def test_power(self):
        I = ideal((1, 0), (0, 1))
        assert (I ** 0).is_unit()
        assert I ** 1 == I
        assert I ** 2 == ideal((2, 0), (1, 1), (0, 2))
        assert (MonomialIdeal.zero(2) ** 0).is_unit()

    @pytest.mark.parametrize("t", [1, 2, 1000])
    def test_principal_power(self, t):
        # one generator: the power is that generator's power, with no products
        assert ideal((2, 0, 1)) ** t == ideal((2 * t, 0, t))

    def test_unit_and_zero_powers(self):
        assert (MonomialIdeal.unit(3) ** 7).is_unit()
        assert (MonomialIdeal.zero(3) ** 3000000000).is_zero()

    @pytest.mark.parametrize("gens, t, top", [
        (((1, 0), (0, 1)), 3000000000, 3000000000),
        (((2, 0), (0, 1)), 2**30 + 1, 2**31 + 2),
    ])
    def test_power_past_the_exponent_limit(self, gens, t, top):
        # t times the largest exponent is checked before the first product,
        # so the refusal comes at once, not after t - 1 products
        with pytest.raises(ValueError, match=rf"^exponent {top} exceeds 2\^31$"):
            ideal(*gens) ** t

    def test_power_at_the_exponent_limit_passes_the_check(self):
        # 2^30 * 2 = 2^31 is allowed; t = 2 keeps the products few
        I = ideal((2**30, 0), (0, 1))
        assert I ** 2 == ideal((2**31, 0), (2**30, 1), (0, 2))

    def test_sum(self):
        assert ideal((1, 0)) + ideal((1, 1)) == ideal((1, 0))
        I = ideal((1, 1, 0), (0, 1, 1))
        assert I + MonomialIdeal.zero(3) == I

    def test_sum_rebuilds_long_path_ideal(self):
        # (x1x2x3) plus x4 times the triangle ideal gives all four 3-paths
        f1 = mono(1, 1, 1, 0)
        triangle = ideal((1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0))
        got = MonomialIdeal([f1], 4) + variable(4, 4) * triangle
        assert got == ideal((1, 1, 1, 0), (1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1))
        assert len(got) == 4

    def test_intersection(self):
        assert (ideal((1, 0)) & ideal((0, 1))) == ideal((1, 1))
        I = ideal((1, 1, 0), (0, 1, 1))
        assert (I & I) == I

    def test_intersection_scaled_instance(self):
        # (x1) meet x3*(x1,x2) is x3*(x1), in three variables
        J = ideal((1, 0, 0))
        x3K = ideal((1, 0, 1), (0, 1, 1))
        assert (J & x3K) == ideal((1, 0, 1))

    def test_equality_is_canonical(self):
        assert ideal((1, 0), (1, 1)) == ideal((1, 0))
        assert ideal((1, 0)) != ideal((0, 1))
        assert MonomialIdeal.unit(2) != MonomialIdeal.zero(2)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            ideal((1, 0)) * ideal((1, 0, 0))
        with pytest.raises(AmbientMismatchError):
            ideal((1, 0)) + ideal((1, 0, 0))

    def test_parse_text_form(self):
        got = build_ideal("(x1^2*x3, x2)")
        assert got == ideal((2, 0, 1), (0, 1, 0))
        assert build_ideal("(1)").embed(2).is_unit()
        assert build_ideal("()").embed(2).is_zero()
        assert build_ideal(str(got)).embed(3) == got


def random_ideal(rng, ambient=4, max_exp=3, max_gens=6):
    count = rng.randint(1, max_gens)
    return MonomialIdeal(
        [Monomial(tuple(rng.randint(0, max_exp) for _ in range(ambient)))
         for _ in range(count)], ambient)


class TestAlgebraProperties:
    def test_product_commutative_associative(self):
        rng = random.Random(11)
        for _ in range(30):
            a, b, c = (random_ideal(rng) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_power_additivity(self):
        rng = random.Random(13)
        for _ in range(10):
            I = random_ideal(rng, max_exp=2, max_gens=4)
            for u in range(3):
                for v in range(3):
                    assert I ** (u + v) == (I ** u) * (I ** v)

    def test_intersection_contained_in_both(self):
        rng = random.Random(17)
        for _ in range(30):
            a, b = random_ideal(rng), random_ideal(rng)
            meet = a & b
            assert a + meet == a
            assert b + meet == b


class TestScaledIntersectionIdentity:
    """(xn K)^s J^t meet (xn K)^(s+1) (J + xn K)^(t-1) equals xn (xn K)^s J^t,
    whenever J is inside K and xn avoids the common support."""

    @pytest.mark.parametrize("j_gens,k_gens,n", [
        (((1, 0, 0),), ((1, 0, 0), (0, 1, 0)), 3),             # J=(x1), K=(x1,x2)
        (((1, 1, 0, 0),), ((1, 1, 0, 0), (0, 1, 1, 0)), 4),    # edge inside path
        (((1, 0, 0),), ((1, 0, 0), (0, 0, 1)), 3),             # xn in supp(K) only
        (((2, 0, 0), (1, 1, 0)), ((1, 0, 0), (0, 1, 0)), 3),
    ])
    def test_identity(self, j_gens, k_gens, n):
        J = ideal(*j_gens)
        K = ideal(*k_gens)
        assert K + J == K
        xn = variable(n, n)
        xnK = xn * K
        I = J + xnK
        for s in (0, 1, 2):
            for t in (1, 2, 3):
                left = (xnK ** s * J ** t) & (xnK ** (s + 1) * I ** (t - 1))
                assert left == xn * (xnK ** s * J ** t), (s, t)


# ---------------------------------------------------------------------------
# The packed exponent matrix against the definition
# ---------------------------------------------------------------------------

def reference_minimal(exponents):
    """Definition: the distinct exponent vectors that no other one divides,
    sorted by (degree, vector).  Pairwise and in Python integers."""
    unique = set(exponents)
    kept = [a for a in unique
            if not any(b != a and all(x <= y for x, y in zip(b, a)) for b in unique)]
    return sorted(kept, key=lambda e: (sum(e), e))


def exps(ideal):
    return [g.exponents for g in ideal.gens]


def reference_power(gens, t, ambient):
    result = [(0,) * ambient]
    for _ in range(t):
        result = reference_minimal(
            tuple(x + y for x, y in zip(a, b)) for a, b in product(result, gens))
    return result


# exponents are packed in as many bits as the largest needs: draw both
# sides of several width boundaries, 15/16 and 255/256 among them
EXPONENT = st.one_of(st.integers(0, 3), st.sampled_from([7, 8, 15, 16, 255, 256]))


@st.composite
def generator_lists(draw, ambient):
    """Exponent vectors as drawn: empty (the zero ideal), with the unit
    vector (the unit ideal), redundant and repeated members all occur."""
    vector = st.tuples(*[EXPONENT] * ambient)
    return draw(st.one_of(
        st.just([]), st.just([(0,) * ambient]),
        st.lists(vector, max_size=6),
        st.lists(vector, min_size=1, max_size=4).map(lambda g: g + [(0,) * ambient] + g)))


@st.composite
def ideal_tuples(draw, count):
    """`count` ideals in one ambient of 1-3 variables, with their drawn lists."""
    ambient = draw(st.integers(1, 3))
    lists = [draw(generator_lists(ambient)) for _ in range(count)]
    return [(MonomialIdeal([Monomial(g) for g in gens], ambient), gens)
            for gens in lists]


class TestPackedAgainstDefinition:
    @settings(max_examples=150, deadline=None)
    @given(ideal_tuples(2))
    def test_operations_match_pairwise_reference(self, pair):
        (a, ga), (b, gb) = pair
        assert exps(a) == reference_minimal(ga)
        assert exps(b) == reference_minimal(gb)
        assert exps(a * b) == reference_minimal(
            tuple(x + y for x, y in zip(u, v)) for u, v in product(ga, gb))
        assert exps(a & b) == reference_minimal(
            tuple(map(max, u, v)) for u, v in product(ga, gb))
        assert exps(a + b) == reference_minimal(ga + gb)

    @settings(max_examples=60, deadline=None)
    @given(ideal_tuples(1), st.integers(0, 3))
    def test_power_matches_reference(self, single, t):
        [(a, gens)] = single
        assert exps(a ** t) == reference_power(reference_minimal(gens), t, a.ambient)

    @settings(max_examples=100, deadline=None)
    @given(ideal_tuples(1))
    @example([(MonomialIdeal.zero(2), [])])
    @example([(MonomialIdeal.unit(3), [(0, 0, 0)])])
    def test_minimalize_idempotent_and_text_roundtrip(self, single):
        # the text form is read back by the expression grammar, zero and unit too
        [(a, gens)] = single
        first = MonomialIdeal([Monomial(g) for g in gens], a.ambient).gens
        assert [g.exponents for g in first] == reference_minimal(gens)
        assert first == a.gens
        assert MonomialIdeal(first, a.ambient).gens == first
        assert MonomialIdeal(a.gens, a.ambient) == a
        assert build_ideal(str(a)).embed(a.ambient) == a
        assert hash(MonomialIdeal(list(reversed(a.gens)), a.ambient)) == hash(a)


class TestIdealLaws:
    @settings(max_examples=80, deadline=None)
    @given(ideal_tuples(3))
    def test_commutative_associative(self, triple):
        a, b, c = (ideal for ideal, _ in triple)
        for op in (lambda x, y: x * y, lambda x, y: x + y, lambda x, y: x & y):
            assert op(a, b) == op(b, a)
            assert op(op(a, b), c) == op(a, op(b, c))

    @settings(max_examples=80, deadline=None)
    @given(ideal_tuples(3))
    def test_distributive_over_sum(self, triple):
        a, b, c = (ideal for ideal, _ in triple)
        assert a * (b + c) == a * b + a * c
        assert a & (b + c) == (a & b) + (a & c)


class TestExponentWidths:
    def test_product_overflowing_uint8(self):
        got = build_ideal("(x1^200)") * build_ideal("(x1^100)")
        assert exps(got) == [(300,)]
        assert got == build_ideal("(x1^300)")

    @pytest.mark.parametrize("top", [15, 16, 255, 256, 65535, 65536, 2**31])
    def test_width_boundaries_roundtrip(self, top):
        I = MonomialIdeal([Monomial((top, 0, 1)), Monomial((0, 1, 0))])
        assert exps(I) == [(0, 1, 0), (top, 0, 1)]
        assert I.matrix().tolist() == [[0, 1, 0], [top, 0, 1]]
        if 2 * top <= 2**31:
            assert (I * I).gens[-1] == Monomial((2 * top, 0, 2))

    def test_equal_ideals_have_equal_bytes(self):
        a = build_ideal("(x1^16, x2)") & build_ideal("(x1^2, x2)")
        assert a == build_ideal("(x1^16, x2)")
        assert hash(a) == hash(build_ideal("(x2, x1^16)"))

    def test_same_words_at_different_widths_differ(self):
        # x1*x2 at 1 bit and x1^3 at 2 bits pack into the same word, 3
        a, b = build_ideal("(x1*x2)"), build_ideal("(x1^3)").embed(2)
        assert a != b
        assert a.matrix().tolist() == [[1, 1]] and b.matrix().tolist() == [[3, 0]]

    def test_candidate_past_exponent_limit(self):
        half = MonomialIdeal([Monomial((2**30,))])
        assert exps(half * half) == [(2**31,)]
        with pytest.raises(ValueError, match="exceeds 2"):
            half * MonomialIdeal([Monomial((2**30 + 1,))])

    def test_non_minimal_candidate_past_exponent_limit(self):
        # x1*x2*x3 divides the candidate x1^(2^31+1)*x2*x3, which still refuses
        a = MonomialIdeal([Monomial((0, 1, 0)), Monomial((2**31, 0, 1))])
        b = MonomialIdeal([Monomial((1, 1, 0)), Monomial((1, 0, 1))])
        with pytest.raises(ValueError, match="exceeds 2"):
            a * b
        with pytest.raises(ValueError, match="exceeds 2"):
            a * Monomial((1, 0, 0))

    def test_matrix_is_read_only(self):
        for text in ("(x1*x2, x3)", "(x1^300, x2)"):
            with pytest.raises(ValueError):
                build_ideal(text).matrix()[0, 0] = 7


class TestCandidateCap:
    def test_large_power_still_builds(self):
        assert len(short_path_ideal(10) ** 8) == 24090

    def test_refused_before_building(self, monkeypatch):
        monkeypatch.setattr(monomials, "MAX_CANDIDATES", 11)
        a = build_ideal("(x1, x2, x3)")
        b = build_ideal("(x1^2, x2^2, x3^2, x1*x2)")
        with pytest.raises(CandidateCapError, match="12 candidate generators.*cap of 11"):
            a * b
        with pytest.raises(CandidateCapError):
            a & b
        assert len(a + b) == 3
        assert len(a * build_ideal("(x1^2, x2^2, x3^2)")) == 9
