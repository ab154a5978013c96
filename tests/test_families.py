from collections import Counter

import pytest

from cyclebetti import families
from cyclebetti.families import (chain_pair, chain_piece, chain_steps, chain_tail,
                                 corner_chain_pairs,
                                 corner_ideal, corner_power, cycle_path_ideal,
                                 graded_component, long_path_ideal,
                                 mixed_chain_pairs, mixed_power, path_generator,
                                 reduced_short_path_ideal, short_path_ideal,
                                 support_envelope)
from cyclebetti.monomials import Monomial, MonomialIdeal, variable


class TestCyclePathIdeal:
    def test_five_cycle_three_paths(self):
        got = cycle_path_ideal(5, 3)
        want = MonomialIdeal([
            Monomial((1, 1, 1, 0, 0)), Monomial((0, 1, 1, 1, 0)),
            Monomial((0, 0, 1, 1, 1)), Monomial((1, 0, 0, 1, 1)),
            Monomial((1, 1, 0, 0, 1))])
        assert got == want

    def test_full_length_collapses(self):
        for n in (2, 3, 5):
            got = cycle_path_ideal(n, n)
            assert len(got) == 1
            assert got.gens[0] == Monomial((1,) * n)

    def test_triangle(self):
        assert cycle_path_ideal(3, 2) == MonomialIdeal(
            [Monomial((1, 1, 0)), Monomial((0, 1, 1)), Monomial((1, 0, 1))])

    def test_range_errors(self):
        with pytest.raises(ValueError):
            cycle_path_ideal(5, 1)
        with pytest.raises(ValueError):
            cycle_path_ideal(5, 6)
        with pytest.raises(ValueError):
            cycle_path_ideal(1, 1)


class TestShortPathPair:
    def test_n4(self):
        full, reduced = short_path_ideal(4), reduced_short_path_ideal(4)
        assert full == cycle_path_ideal(4, 2)
        assert len(full) == 4 and len(reduced) == 3
        assert reduced == MonomialIdeal(
            [Monomial((1, 1, 0, 0)), Monomial((0, 0, 1, 1)), Monomial((1, 0, 0, 1))])

    def test_n2_is_whole_ring(self):
        full, reduced = short_path_ideal(2), reduced_short_path_ideal(2)
        assert full.is_unit() and reduced.is_unit()

    def test_n3_is_variables(self):
        full, reduced = short_path_ideal(3), reduced_short_path_ideal(3)
        assert full == MonomialIdeal([variable(i, 3) for i in (1, 2, 3)])
        assert reduced == MonomialIdeal([variable(1, 3), variable(3, 3)])

    def test_n5_counts(self):
        full, reduced = short_path_ideal(5), reduced_short_path_ideal(5)
        assert len(full) == 5 and len(reduced) == 4
        assert all(g.degree == 3 for g in full.gens)

    def test_long_n2(self):
        assert long_path_ideal(2) == MonomialIdeal([variable(1, 2), variable(2, 2)])

    def test_coupling_identity(self):
        # reduced(n) = (f1) + xn * reduced(n-1), the relation the chains use
        for n in range(3, 8):
            f1 = path_generator(n, 1, n - 2)
            rebuilt = (MonomialIdeal([f1], n)
                       + variable(n, n) * reduced_short_path_ideal(n - 1).embed(n))
            assert rebuilt == reduced_short_path_ideal(n), n

    def test_scaled_full_identity(self):
        # (f1) + x1 * reduced(n-1) = x1 * full(n-1); maps corner components
        # onto mixed families one size down
        for n in range(4, 9):
            f1 = path_generator(n, 1, n - 2)
            lhs = (MonomialIdeal([f1], n)
                   + variable(1, n) * reduced_short_path_ideal(n - 1).embed(n))
            assert lhs == variable(1, n) * short_path_ideal(n - 1).embed(n), n


class TestProductFamilies:
    def test_mixed_degenerate(self):
        assert mixed_power(4, 0, 1) == short_path_ideal(4)
        assert mixed_power(5, 2, 0) == reduced_short_path_ideal(5) ** 2

    def test_corner_pure_power(self):
        for n in (3, 5):
            for t in (1, 2, 3):
                got = corner_power(n, 0, t)
                assert got == corner_ideal(n) ** t
                assert len(got) == t + 1


class TestGradedComponents:
    def test_mixed_component_inside(self):
        # n=4, s=1, t=1, d=1: the head pair (x1x2, x2x3)
        got = graded_component(4, 1, 1, 1, "mixed")
        assert got == MonomialIdeal([Monomial((1, 1, 0, 0)), Monomial((0, 1, 1, 0))])

    def test_corner_component(self):
        assert graded_component(4, 0, 2, 1, "corner") == MonomialIdeal(
            [variable(1, 4)], 4)

    def test_top_component_is_unit(self):
        assert graded_component(4, 1, 2, 3, "mixed").is_unit()

    def test_component_range(self):
        with pytest.raises(ValueError):
            graded_component(4, 1, 1, 3, "mixed")
        with pytest.raises(ValueError):
            graded_component(4, 1, 1, -1, "corner")

    def test_components_sum_to_family(self):
        # the xn-graded pieces reassemble the family
        for n in (4, 5):
            for s in range(3):
                for t in range(3):
                    xn = variable(n, n)
                    total = MonomialIdeal.zero(n)
                    for d in range(s + t + 1):
                        total = total + xn ** d * chain_piece(n, s, t, d, "mixed")
                    assert total == mixed_power(n, s, t), ("mixed", n, s, t)
                    total = MonomialIdeal.zero(n)
                    for d in range(s + t + 1):
                        total = total + xn ** d * chain_piece(n, s, t, d, "corner")
                    assert total == corner_power(n, s, t), ("corner", n, s, t)


class TestChainTails:
    def test_top_is_reduced_power_below(self):
        assert chain_tail(4, 1, 1, 2, "mixed") == \
            reduced_short_path_ideal(3).embed(4) ** 2

    def test_bottom_is_family(self):
        for n in (4, 5):
            for s in range(3):
                for t in range(3):
                    assert chain_tail(n, s, t, 0, "mixed") == mixed_power(n, s, t)
                    assert chain_tail(n, s, t, 0, "corner") == corner_power(n, s, t)

    def test_chain_range(self):
        with pytest.raises(ValueError):
            chain_tail(4, 1, 1, 3, "mixed")

    def test_steps_match_tails(self):
        for n in (4, 5):
            for s in range(3):
                for t in range(3):
                    xn = variable(n, n)
                    for family, power in (("mixed", mixed_power), ("corner", corner_power)):
                        steps = chain_steps(n, s, t, family)
                        assert len(steps) == s + t
                        for j, (tail, piece, rest) in enumerate(steps):
                            assert tail == chain_tail(n, s, t, j, family)
                            assert piece == chain_piece(n, s, t, j, family)
                            assert rest == xn * chain_tail(n, s, t, j + 1, family)
                            assert tail == piece + rest
                        if steps:
                            assert steps[0][0] == power(n, s, t), (family, n, s, t)

    def test_steps_build_each_piece_once(self, monkeypatch):
        built = []
        piece = families.chain_piece

        def counted(n, s, t, d, family):
            built.append(d)
            return piece(n, s, t, d, family)

        monkeypatch.setattr(families, "chain_piece", counted)
        chain_steps(5, 2, 2, "corner")
        assert sorted(built) == [0, 1, 2, 3, 4]

    def test_intersection_identities(self):
        # piece(j) meet xn*tail(j+1) equals xn*piece(j), every step, desk scale
        for n in (4, 5, 6):
            for s in range(3):
                for t in range(4 - s):
                    xn = variable(n, n)
                    for family in ("mixed", "corner"):
                        for j in range(s + t):
                            piece = chain_piece(n, s, t, j, family)
                            rest = xn * chain_tail(n, s, t, j + 1, family)
                            assert (piece & rest) == xn * piece, (family, n, s, t, j)


class TestIndexPairs:
    def test_mixed_pairs_example(self):
        assert set(mixed_chain_pairs(2, 2)) == {(0, 2), (1, 2), (2, 2), (3, 1)}

    def test_corner_pairs_edge_case(self):
        assert Counter(corner_chain_pairs(0, 2)) == Counter({(0, 0): 2})
        assert Counter(corner_chain_pairs(0, 2, strict=True)) == Counter({(0, 0): 3})

    def test_chain_and_strict_agree_off_the_edge(self):
        for s in range(1, 7):
            for t in range(1, 7):
                assert Counter(corner_chain_pairs(s, t)) == \
                    Counter(corner_chain_pairs(s, t, strict=True)), (s, t)

    def test_lengths(self):
        for s in range(7):
            for t in range(1, 7):
                assert len(mixed_chain_pairs(s, t)) == s + t
                assert len(corner_chain_pairs(s, t)) == s + t

    def test_require_positive_t(self):
        with pytest.raises(ValueError):
            mixed_chain_pairs(2, 0)
        with pytest.raises(ValueError):
            corner_chain_pairs(2, 0)

    def test_envelope_example(self):
        assert support_envelope(2, 1) == {(0, 0), (0, 1), (1, 1)}

    def test_corner_pairs_inside_envelope(self):
        for s in range(7):
            for t in range(1, 7):
                envelope = support_envelope(s, t)
                for a, b in mixed_chain_pairs(s, t):
                    assert set(corner_chain_pairs(a, b)) <= envelope, (s, t, a, b)

    def test_pairs_match_chain_pieces(self):
        # each mixed chain step is a monomial times the corner family its
        # pair names (one cycle size down); same for corner steps and mixed
        # families, using the scaled-full identity
        for n in (4, 5):
            for s in range(3):
                for t in range(1, 3):
                    mixed_pairs = mixed_chain_pairs(s, t)
                    for j, (a, b) in enumerate(mixed_pairs):
                        piece = chain_piece(n, s, t, j, "mixed")
                        model = (reduced_short_path_ideal(n - 1).embed(n) ** a
                                 * (MonomialIdeal([variable(1, n), variable(n - 1, n)], n)) ** b)
                        quotient = _common_factor(piece, model)
                        assert quotient is not None, (n, s, t, j)
                    corner_pairs = corner_chain_pairs(s, t)
                    for j, (a, b) in enumerate(corner_pairs):
                        piece = chain_piece(n, s, t, j, "corner")
                        model = (reduced_short_path_ideal(n - 1).embed(n) ** a
                                 * short_path_ideal(n - 1).embed(n) ** b)
                        quotient = _common_factor(piece, model)
                        assert quotient is not None, (n, s, t, j)


def _common_factor(piece, model):
    """If piece == m * model for a single monomial m, return m."""
    if len(piece) != len(model):
        return None
    pairs = list(zip(piece.gens, model.gens))
    deltas = set()
    for a, b in pairs:
        if not b.divides(a):
            return None
        deltas.add(tuple(x - y for x, y in zip(a.exponents, b.exponents)))
    return deltas.pop() if len(deltas) == 1 else None


# The case analysis the index map replaced, kept as references: the component
# ladders of each family and the four-case loop of the corner chain pairs.

def ref_graded_component(n, s, t, d, family):
    f1 = path_generator(n, 1, n - 2)
    if family == "mixed":
        head = MonomialIdeal([f1, path_generator(n, 2, n - 2)], n)
        if d <= s:
            return f1 ** (s - d) * head ** t
        return head ** (s + t - d)
    x1 = variable(1, n)
    reduced_below = reduced_short_path_ideal(n - 1).embed(n)
    scaled_full = MonomialIdeal([f1], n) + x1 * reduced_below
    if d < min(s, t):
        return (f1 ** (s - d) * x1 ** (t - d)) * scaled_full ** d
    if s <= d < t:
        return x1 ** (t - d) * scaled_full ** s
    if t <= d < s:
        return f1 ** (s - d) * (reduced_below ** (d - t) * scaled_full ** t)
    return reduced_below ** (d - t) * scaled_full ** (s + t - d)


def ref_mixed_chain_pairs(s, t):
    return [(j, t) for j in range(s + 1)] + [(s + j, t - j) for j in range(1, t)]


def ref_corner_chain_pairs(s, t):
    pairs = []
    for d in range(s + t):
        if d < min(s, t):
            pairs.append((0, d))
        elif s <= d < t:
            pairs.append((0, s))
        elif t <= d < s:
            pairs.append((d - t, t))
        else:
            pairs.append((d - t, s + t - d))
    return pairs


class TestChainPair:
    def test_pairs_equal_the_case_analysis(self):
        for s in range(15):
            for t in range(1, 15):
                assert mixed_chain_pairs(s, t) == ref_mixed_chain_pairs(s, t), (s, t)
                assert corner_chain_pairs(s, t) == ref_corner_chain_pairs(s, t), (s, t)

    def test_components_equal_the_ladders(self):
        checked = 0
        for n in range(3, 7):
            for s in range(4):
                for t in range(4):
                    for d in range(s + t + 1):
                        for family in ("mixed", "corner"):
                            assert graded_component(n, s, t, d, family) == \
                                ref_graded_component(n, s, t, d, family), (family, n, s, t, d)
                        checked += 1
        assert checked == 256

    def test_top_piece_is_the_recursion_head(self):
        # the t = 0 member each chain step adds once, outside the (1+z) sum
        for s in range(8):
            for t in range(8):
                assert chain_pair(s, t, s + t, "mixed") == (s + t, 0)
                assert chain_pair(s, t, s + t, "corner") == (s, 0)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            chain_pair(1, 1, 0, "long")
        with pytest.raises(ValueError, match="unknown family"):
            graded_component(4, 1, 1, 0, "long")
