import random
import re
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclebetti.families import (corner_power, cycle_path_ideal, long_path_ideal,
                                 mixed_power, short_path_ideal)
from cyclebetti import oracle
from cyclebetti.cli import build_ideal
from cyclebetti.monomials import MAX_EXPONENT, Monomial, MonomialIdeal, variable
from cyclebetti.oracle import (DEFAULT_LATTICE_CAP, DEFAULT_PRIME, PRIME_CHECK_BOUND,
                               BettiTable, LatticeCapError, SimplicialComplex, _faces, _is_prime,
                               _koszul_complex, _mask_homology, _rank_mod_p,
                               _strong_core, check_prime, graded_betti,
                               homology_dims, lcm_lattice, upper_koszul)
from cyclebetti.verify import FamilyCase, route_totals


def ideal(*gens_exps):
    return MonomialIdeal([Monomial(e) for e in gens_exps])


TRIANGLE = ideal((1, 1, 0), (0, 1, 1), (1, 0, 1))
# exponents up to 7 in 17 variables: 16 four-bit fields fill a lattice word,
# so each row takes two
TWO_WORDS = MonomialIdeal([Monomial(tuple((3 * i + 5 * v) % 8 for v in range(17)))
                           for i in range(6)])
# members fixed by the dihedral group of their cycle; the last has two
# lattice words per row (24 variables, exponents up to 2) and a group of 48
SYMMETRIC = [short_path_ideal(6) ** 2, cycle_path_ideal(8, 2) ** 2,
             cycle_path_ideal(24, 23) ** 2]


class TestLcmLattice:
    def test_triangle(self):
        assert lcm_lattice(TRIANGLE) == [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]

    def test_principal(self):
        assert lcm_lattice(ideal((2, 1))) == [(2, 1)]

    def test_two_variables(self):
        assert lcm_lattice(ideal((1, 0), (0, 1))) == [(0, 1), (1, 0), (1, 1)]

    def test_rejects_trivial_ideals(self):
        with pytest.raises(ValueError):
            lcm_lattice(MonomialIdeal.unit(2))
        with pytest.raises(ValueError):
            lcm_lattice(MonomialIdeal.zero(2))

    def test_cap(self):
        with pytest.raises(LatticeCapError):
            lcm_lattice(long_path_ideal(6) ** 2, cap=10)

    def test_cap_message_names_cap_and_size_reached(self):
        with pytest.raises(LatticeCapError) as caught:
            lcm_lattice(mixed_power(8, 1, 2), cap=100)
        reached = int(re.search(r"reached (\d+) elements", str(caught.value))[1])
        assert reached > 100 and "cap of 100" in str(caught.value)

    @pytest.mark.parametrize("I", [TRIANGLE, ideal((2, 1)), long_path_ideal(6) ** 2,
                                   mixed_power(5, 1, 1), TWO_WORDS] + SYMMETRIC)
    def test_cap_is_inclusive(self, I):
        size = len(lcm_lattice(I))
        assert len(lcm_lattice(I, cap=size)) == size
        with pytest.raises(LatticeCapError) as caught:
            lcm_lattice(I, cap=size - 1)
        assert_reached_past(caught.value, size - 1)

    @pytest.mark.parametrize("I", SYMMETRIC, ids=["I(6)^2", "Jc(8,2)^2", "Jc(24,23)^2"])
    def test_table_cap_is_inclusive_under_symmetry(self, I):
        # orbits join the lattice whole, and the cap still counts its points
        size = len(lcm_lattice(I))
        assert len(oracle._symmetries(I.matrix())) == 2 * I.ambient
        assert graded_betti(I, cap=size) == graded_betti(I)
        with pytest.raises(LatticeCapError) as caught:
            graded_betti(I, cap=size - 1)
        assert_reached_past(caught.value, size - 1)

    @pytest.mark.parametrize("I", SYMMETRIC[:1] + [cycle_path_ideal(6, 2) ** 2],
                             ids=["I(6)^2", "Jc(6,2)^2"])
    def test_orbit_slices_are_capped_before_they_join(self, I, monkeypatch):
        # the new rows a frontier finds are checked against the cap, then
        # expanded to whole orbits and checked again, slice by slice, before
        # they join the lattice: at every check, the lattice held so far is
        # within its cap, so a cap crossed by the orbits of a frontier's new
        # rows fires before any join batch of that frontier
        size = len(lcm_lattice(I))
        held = []
        real = oracle._check_growth

        def spy(parts, lattice_size, cap):
            held.append(lattice_size)
            real(parts, lattice_size, cap)
        monkeypatch.setattr(oracle, "_check_growth", spy)
        for cap in range(1, size):
            held.clear()
            with pytest.raises(LatticeCapError) as caught:
                lcm_lattice(I, cap=cap)
            assert_reached_past(caught.value, cap)
            assert max(held) <= cap

    @pytest.mark.parametrize("I", [TRIANGLE, ideal((2, 1)), long_path_ideal(6) ** 2,
                                   mixed_power(6, 1, 2), cycle_path_ideal(9, 2),
                                   cycle_path_ideal(5, 2) * Monomial((255, 0, 255, 1, 254)),
                                   TWO_WORDS])
    def test_matches_frontier_loop(self, I):
        # the shifted cycle ideal has two-byte exponents across 255 -> 256,
        # where byte order and numeric order differ
        assert lcm_lattice(I) == frontier_lattice(I)

    @pytest.mark.parametrize("past", [0, 1], ids=["fills-word", "one-past"])
    @pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 15, 16, 31, 32])
    def test_matches_frontier_loop_at_word_boundary(self, width, past):
        # exponents of bit length `width` take width + 1 bits with the guard,
        # 64 // (width + 1) to a word; the ambient fills one word exactly, or
        # spills one column into a second
        top = min((1 << width) - 1, MAX_EXPONENT)
        ambient = 64 // (width + 1) + past
        edges = [0, 1, top >> 1, (top >> 1) + 1, top - 1, top]
        rng = random.Random(width * 2 + past)
        gens = [Monomial((top,) + (0,) * (ambient - 1))]
        while ambient > 1 and len(gens) < 6:
            exps = tuple(rng.choice(edges) if rng.random() < 0.7 else rng.randint(0, top)
                         for _ in range(ambient))
            # an exponent past column 0 keeps the first generator minimal
            if any(exps[1:]):
                gens.append(Monomial(exps))
        I = MonomialIdeal(gens, ambient)
        assert I._width == width
        assert lcm_lattice(I) == frontier_lattice(I)

    def test_join_closed(self):
        rng = random.Random(3)
        for _ in range(20):
            I = MonomialIdeal(
                [Monomial(tuple(rng.randint(0, 2) for _ in range(4)))
                 for _ in range(rng.randint(1, 5))], 4)
            if I.is_zero() or I.is_unit():
                continue
            lattice = set(lcm_lattice(I))
            for a in lattice:
                for b in lattice:
                    assert tuple(map(max, a, b)) in lattice


def assert_reached_past(error, cap):
    """The cap error names its cap and a lattice size reached past it."""
    reached = int(re.search(r"reached (\d+) elements", str(error))[1])
    assert reached > cap and f"cap of {cap}" in str(error)


def frontier_lattice(ideal):
    """Reference lattice: join every frontier element with every generator
    in pure Python until no new join appears."""
    gens = [g.exponents for g in ideal.gens]
    lattice = set(gens)
    frontier = set(gens)
    while frontier:
        fresh = set()
        for b in frontier:
            for g in gens:
                join = tuple(map(max, b, g))
                if join not in lattice:
                    lattice.add(join)
                    fresh.add(join)
        frontier = fresh
    return sorted(lattice)


class TestUpperKoszul:
    def test_triangle_at_top(self):
        cx = upper_koszul(TRIANGLE, Monomial((1, 1, 1)))
        assert cx.faces[-1] == [()]
        assert cx.faces[0] == [(0,), (1,), (2,)]
        assert 1 not in cx.faces  # no edges: dropping two variables exits the ideal

    def test_generator_degree_gives_point(self):
        for g in TRIANGLE.gens:
            cx = upper_koszul(TRIANGLE, g)
            assert cx.faces == {-1: [()]}

    def test_void_outside_ideal(self):
        cx = upper_koszul(TRIANGLE, Monomial((1, 0, 0)))
        assert cx.is_void()

    @pytest.mark.parametrize("expr", ["Jc(9,2)", "I(8)^2"])
    def test_wide_ideals_match_definition(self, expr):
        I = build_ideal(expr)
        for b in lcm_lattice(I):
            cx = upper_koszul(I, Monomial(b))
            assert cx.vertices == tuple(v for v, e in enumerate(b) if e > 0)
            assert cx.faces == definition_faces(I, b)
            assert list(cx.faces) == sorted(cx.faces)

    def test_support_past_limit_refused(self):
        I = cycle_path_ideal(64, 63)
        with pytest.raises(LatticeCapError, match="support of 64 variables"):
            upper_koszul(I, Monomial((1,) * 64))
        assert upper_koszul(I, I.gens[0]).faces == {-1: [()]}

    @pytest.mark.parametrize("expr", ["Jc(64,63)", "J(64)^2"])
    def test_support_refused_before_the_lattice(self, monkeypatch, expr):
        called = []
        for name in ("_lattice_orbits", "_symmetries"):
            monkeypatch.setattr(oracle, name, lambda *args, name=name: called.append(name))
        with pytest.raises(LatticeCapError, match="support of 64 variables"):
            graded_betti(build_ideal(expr))
        assert called == []

    def test_downward_closed(self):
        cx = upper_koszul(long_path_ideal(4) ** 2, Monomial((2, 2, 1, 1)))
        all_faces = {f for fs in cx.faces.values() for f in fs}
        for face in all_faces:
            for k in range(len(face)):
                assert face[:k] + face[k + 1:] in all_faces


class TestHomology:
    def test_isolated_vertices(self):
        cx = SimplicialComplex((0, 1, 2), {-1: [()], 0: [(0,), (1,), (2,)]})
        assert homology_dims(cx, 2) == [0, 2]

    def test_empty_face_only(self):
        assert homology_dims(SimplicialComplex((), {-1: [()]}), 32003) == [1]

    def test_void(self):
        assert homology_dims(SimplicialComplex((), {}), 2) == []

    def test_full_simplex_contractible(self):
        faces = {-1: [()], 0: [(0,), (1,), (2,)],
                 1: [(0, 1), (0, 2), (1, 2)], 2: [(0, 1, 2)]}
        assert homology_dims(SimplicialComplex((0, 1, 2), faces), 32003) == [0, 0, 0, 0]

    def test_circle(self):
        faces = {-1: [()], 0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 2), (1, 2)]}
        assert homology_dims(SimplicialComplex((0, 1, 2), faces), 7) == [0, 0, 1]

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            homology_dims(SimplicialComplex((), {-1: [()]}), 6)

    def test_euler_characteristic(self):
        rng = random.Random(5)
        for _ in range(15):
            I = MonomialIdeal(
                [Monomial(tuple(rng.randint(0, 2) for _ in range(4)))
                 for _ in range(rng.randint(2, 5))], 4)
            if I.is_zero() or I.is_unit():
                continue
            for b in lcm_lattice(I)[:6]:
                cx = upper_koszul(I, Monomial(b))
                if cx.is_void():
                    continue
                dims = homology_dims(cx, 32003)
                chi_faces = sum((-1) ** d * len(fs) for d, fs in cx.faces.items())
                chi_hom = sum((-1) ** (k - 1) * h for k, h in enumerate(dims))
                assert chi_faces == chi_hom


class TestGradedBetti:
    def test_two_variables(self):
        table = graded_betti(ideal((1, 0), (0, 1)))
        assert table.entries == {(0, 1): 2, (1, 2): 1}

    def test_support_at_limit(self):
        # 63 variables: the top lattice point's facets use bits 0..62
        table = graded_betti(cycle_path_ideal(63, 62))
        closed = route_totals(FamilyCase("long-power", 63, 0, 1), "closed")
        assert table.totals() == closed == [63, 62]

    def test_triangle(self):
        table = graded_betti(TRIANGLE)
        assert table.entries == {(0, 2): 3, (1, 3): 2}
        assert table.pd() == 1 and table.reg() == 2

    def test_four_cycle_long_paths(self):
        table = graded_betti(cycle_path_ideal(4, 3))
        assert table.totals() == [4, 3]
        assert table.entries == {(0, 3): 4, (1, 4): 3}

    def test_generator_row(self):
        rng = random.Random(9)
        for _ in range(15):
            I = MonomialIdeal(
                [Monomial(tuple(rng.randint(0, 2) for _ in range(4)))
                 for _ in range(rng.randint(1, 6))], 4)
            if I.is_zero() or I.is_unit():
                continue
            table = graded_betti(I)
            by_degree = {}
            for g in I.gens:
                by_degree[g.degree] = by_degree.get(g.degree, 0) + 1
            got = {j: v for (i, j), v in table.entries.items() if i == 0}
            assert got == by_degree

    def test_variable_relabeling_invariance(self):
        rng = random.Random(21)
        for _ in range(8):
            I = MonomialIdeal(
                [Monomial(tuple(rng.randint(0, 2) for _ in range(4)))
                 for _ in range(rng.randint(2, 5))], 4)
            if I.is_zero() or I.is_unit():
                continue
            perm = list(range(4))
            rng.shuffle(perm)
            J = MonomialIdeal(
                [Monomial(tuple(g.exponents[perm[k]] for k in range(4)))
                 for g in I.gens], 4)
            assert graded_betti(I).entries == graded_betti(J).entries

    def test_monomial_multiple_invariance(self):
        rng = random.Random(23)
        for _ in range(8):
            I = MonomialIdeal(
                [Monomial(tuple(rng.randint(0, 2) for _ in range(3)))
                 for _ in range(rng.randint(2, 5))], 3)
            if I.is_zero() or I.is_unit():
                continue
            base = graded_betti(I)
            for j in range(1, 4):
                scaled = graded_betti(variable(j, 3) * I)
                assert scaled.totals() == base.totals()
                assert scaled.entries == {(i, d + 1): v for (i, d), v in base.entries.items()}

    def test_single_row_on_families(self):
        for I, degree in [
            (long_path_ideal(4) ** 2, 6),
            (short_path_ideal(5) ** 2, 6),
            (mixed_power(4, 1, 1), 4),
        ]:
            table = graded_betti(I)
            assert table.rows() == [degree]

    def test_characteristic_independence(self):
        for I in (long_path_ideal(4) ** 2, short_path_ideal(5), mixed_power(4, 1, 1)):
            assert graded_betti(I, 2).entries == graded_betti(I, 32003).entries


def count_calls(monkeypatch, name):
    """Route oracle.<name> through a counter; returns the count list."""
    calls = [0]
    real = getattr(oracle, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(oracle, name, counted)
    return calls


def facet_patterns(I, points=None):
    """Distinct sets of maximal faces, as masks with bit j for the j-th
    column some generator uses, over the points (by default the whole
    lattice), read off the upper Koszul complexes themselves."""
    used = [v for v in range(I.ambient) if any(g.exponents[v] for g in I.gens)]
    column = {v: j for j, v in enumerate(used)}
    patterns = set()
    for b in lcm_lattice(I) if points is None else points:
        cx = upper_koszul(I, Monomial(b))
        faces = [set(f) for level in cx.faces.values() for f in level]
        patterns.add(frozenset(
            sum(1 << column[v] for v in f)
            for f in faces if not any(f < other for other in faces)))
    return patterns


def orbit_points(I):
    """The lattice points `graded_betti` ranks: one per orbit of the
    detected symmetry group."""
    gens = I.matrix()
    _, points, _ = oracle._lattice_orbits(gens, oracle._symmetries(gens), DEFAULT_LATTICE_CAP)
    return [tuple(b) for b in points.tolist()]


def non_cone_patterns(patterns):
    """The patterns whose strong-collapse core is not a single nonempty facet."""
    cores = [_strong_core(tuple(sorted(facets, reverse=True))) for facets in patterns]
    return sum(1 for core in cores if not (len(core) == 1 and core[0]))


class TestPatternMemo:
    MAXIMAL_POWER = "m(x1,x2,x3,x4)^6"

    def test_one_homology_per_pattern(self, monkeypatch):
        I = build_ideal(self.MAXIMAL_POWER)
        collapses = count_calls(monkeypatch, "_strong_core")
        kernels = count_calls(monkeypatch, "_mask_homology")
        graded_betti(I, 32003)
        # symmetric points differ by a column permutation, so their masks differ
        patterns = facet_patterns(I, orbit_points(I))
        assert len(lcm_lattice(I)) == 2275
        assert collapses[0] <= 200
        assert collapses[0] == len(patterns)
        assert kernels[0] == non_cone_patterns(patterns)
        assert kernels[0] < len(patterns)

    def test_no_state_survives_a_call(self, monkeypatch):
        I = build_ideal(self.MAXIMAL_POWER)
        calls = count_calls(monkeypatch, "_mask_homology")
        counts, tables = [], []
        for _ in range(2):
            calls[0] = 0
            tables.append(graded_betti(I, 32003))
            counts.append(calls[0])
        assert tables[0] == tables[1]
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("I", [cycle_path_ideal(9, 2), mixed_power(6, 1, 2),
                                   build_ideal("J(7)^2 * m(x1,x7)^3")])
    def test_family_patterns(self, I, monkeypatch):
        collapses = count_calls(monkeypatch, "_strong_core")
        kernels = count_calls(monkeypatch, "_mask_homology")
        graded_betti(I, 2)
        patterns = facet_patterns(I, orbit_points(I))
        assert collapses[0] == len(patterns)
        assert kernels[0] == non_cone_patterns(patterns)
        # each family is fixed by a reflection at least, so orbits save patterns
        assert collapses[0] < len(facet_patterns(I))


def mask_complex(facets, k):
    """The downward closure of facet bitmasks over vertices 0..k-1, built
    from the definition as a SimplicialComplex of sorted tuples."""
    faces = {}
    for size in range(k + 1):
        level = [F for F in combinations(range(k), size)
                 if any(all(facet >> v & 1 for v in F) for facet in facets)]
        if level:
            faces[size - 1] = level
    return SimplicialComplex(tuple(range(k)), faces)


def boundary_ranks(cx, p):
    """Reference ranks: entry d is the rank over GF(p) of the dense boundary
    matrix from the faces of dimension d, each face dropping its vertices in
    increasing position with alternating signs."""
    ranks = {}
    for d in range(max(cx.faces) + 1):
        upper, lower = cx.faces.get(d, []), cx.faces.get(d - 1, [])
        index = {f: j for j, f in enumerate(lower)}
        rows = [[0] * len(upper) for _ in lower]
        for c, face in enumerate(upper):
            for k in range(len(face)):
                rows[index[face[:k] + face[k + 1:]]][c] = (-1) ** k
        ranks[d] = dense_rank_mod_p(rows, p)
    return ranks


def tuple_homology(cx, p):
    """Reference homology from the dense boundary ranks over tuple faces."""
    if cx.is_void():
        return []
    ranks = boundary_ranks(cx, p)
    return [len(cx.faces.get(d, [])) - ranks.get(d, 0) - ranks.get(d + 1, 0)
            for d in range(-1, max(cx.faces) + 1)]


def core_homology(facets, p):
    return _mask_homology(_faces(_strong_core(facets)), p)


class TestStrongCore:
    def test_empty_face_only(self):
        assert _strong_core((0,)) == (0,)
        assert core_homology((0,), 2) == [1]

    def test_simplex_is_a_cone(self):
        core = _strong_core((0b1011,))
        assert len(core) == 1 and core[0].bit_count() == 1

    def test_two_points(self):
        assert _strong_core((0b10, 0b01)) == (0b10, 0b01)
        assert core_homology((0b10, 0b01), 32003) == [0, 1]

    def test_triangle_boundary_is_its_own_core(self):
        edges = (0b110, 0b101, 0b011)
        assert set(_strong_core(edges)) == set(edges)
        assert core_homology(edges, 3) == [0, 0, 1]

    def test_dominated_vertex_is_deleted(self):
        # the path 0 - 1 - 2 collapses to a point
        core = _strong_core((0b110, 0b011))
        assert len(core) == 1 and core[0].bit_count() == 1


def facets_of(masks):
    return oracle._maximal(sorted(set(masks), reverse=True))


def cycle_complements(n):
    """(n, facets): the complements of the n edges {i, i+1} of the n-cycle."""
    full = (1 << n) - 1
    return n, facets_of(full ^ (1 << i | 1 << (i + 1) % n) for i in range(n))


def simplex_boundary(k):
    """(k, facets): the boundary of the simplex on k vertices."""
    full = (1 << k) - 1
    return k, facets_of(full ^ 1 << v for v in range(k))


def cross_polytope(k):
    """(k, facets): the boundary of the cross-polytope on k vertices, whose
    antipodal pairs are {2i, 2i + 1}; a facet picks one vertex of each."""
    pairs = k // 2
    return k, facets_of(sum(1 << 2 * i + (pick >> i & 1) for i in range(pairs))
                        for pick in range(1 << pairs))


def random_facet_sets(count, seed):
    """(k, facets): 3 to 12 facets of 2 to 5 vertices each on k in {7, 8}
    vertices, drawn by a seeded generator."""
    rng = random.Random(seed)
    drawn = []
    for _ in range(count):
        k = rng.choice((7, 8))
        masks = [sum(1 << v for v in rng.sample(range(k), rng.randint(2, 5)))
                 for _ in range(rng.randint(3, 12))]
        drawn.append((k, facets_of(masks)))
    return drawn


def rank_calls(monkeypatch):
    """Spy on oracle._rank_mod_p: (columns received, pivot rows returned) per call."""
    calls = []
    real = oracle._rank_mod_p

    def spy(columns, p):
        pivots = real(columns, p)
        calls.append((len(columns), len(pivots)))
        return pivots
    monkeypatch.setattr(oracle, "_rank_mod_p", spy)
    return calls


RANDOM_COMPLEXES = random_facet_sets(30, seed=19)
LARGE_COMPLEXES = ([cycle_complements(10)] + [cross_polytope(k) for k in (4, 6, 8)]
                   + RANDOM_COMPLEXES)


class TestClearing:
    def test_cycle_complements(self):
        k, facets = cycle_complements(10)
        levels = _faces(facets)
        assert sum(map(len, levels)) == 901
        assert set(_strong_core(facets)) == set(facets)
        assert _mask_homology(levels, 2) == [0] * 6 + [1, 0, 0]

    @pytest.mark.parametrize("p", [2, 32003])
    @pytest.mark.parametrize("complex_", [cycle_complements(10)]
                             + [simplex_boundary(k) for k in range(4, 8)])
    def test_reduction_skips_the_cleared_columns(self, complex_, p, monkeypatch):
        k, facets = complex_
        levels = _faces(facets)
        # ranks[d]: the boundary from the faces of d + 1 vertices
        ranks = boundary_ranks(mask_complex(facets, k), p)
        calls = rank_calls(monkeypatch)
        _mask_homology(levels, p)
        # the size-s reduction, s from the top down, gets every face of size
        # s but the rank(level s + 1) pivot rows one size up, and returns
        # rank(level s) pivot rows
        assert calls == [(len(levels[s]) - ranks.get(s, 0), ranks[s - 1])
                         for s in range(len(levels) - 1, 0, -1)]
        assert sum(ranks.values()) > 0

    @pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
    def test_kernel_matches_dense_reference(self, p):
        for k, facets in LARGE_COMPLEXES:
            expected = tuple_homology(mask_complex(facets, k), p)
            assert _mask_homology(_faces(facets), p) == expected

    def test_random_complexes_have_homology_in_several_degrees(self):
        degrees = {i for k, facets in RANDOM_COMPLEXES
                   for i, h in enumerate(_mask_homology(_faces(facets), 2)) if h}
        assert len(degrees) >= 3


@st.composite
def facet_sets(draw):
    """Maximal facet bitmasks over k <= 6 vertices, largest mask first."""
    k = draw(st.integers(0, 6))
    masks = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=8))
    return k, facets_of(masks)


def relabelled(I, perm):
    """I with its variables permuted: column j of each generator is column
    perm[j] of the old one."""
    return MonomialIdeal(np.ascontiguousarray(I.matrix()[:, list(perm)]))


def unreduced_betti(I, p):
    """graded_betti with the symmetry group cut to the identity, so every
    lattice point is ranked on its own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_symmetries", lambda gens: np.arange(gens.shape[1])[None])
        return graded_betti(I, p)


def dihedral_closure(rows, n):
    """Every rotation and reflection of every row, so the ideal they
    generate is fixed by the whole dihedral group."""
    return {tuple(row[(k + d * j) % n] for j in range(n))
            for row in rows for k in range(n) for d in (1, -1)}


@st.composite
def dihedral_ideals(draw):
    """Random generators over 2..5 variables, either as drawn or closed
    under the dihedral group."""
    n = draw(st.integers(2, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=4))
    if draw(st.booleans()):
        rows = dihedral_closure(rows, n)
    return MonomialIdeal([Monomial(r) for r in rows], n)


def assert_orbits_partition(I):
    """`_lattice_orbits` returns the lex-least point of each orbit of the
    detected group on the lattice, in lattice order, and the orbit sizes."""
    lattice = lcm_lattice(I)
    group = oracle._symmetries(I.matrix()).tolist()
    orbits = {b: {tuple(b[j] for j in perm) for perm in group} for b in lattice}
    _, points, sizes = oracle._lattice_orbits(I.matrix(), np.array(group), DEFAULT_LATTICE_CAP)
    assert [tuple(b) for b in points.tolist()] == [b for b in lattice if b == min(orbits[b])]
    assert sizes.tolist() == [len(orbits[tuple(b)]) for b in points.tolist()]
    assert sizes.sum() == len(lattice)


SMALL_MEMBERS = [cycle_path_ideal(6, 2) ** 2, cycle_path_ideal(7, 3), long_path_ideal(5) ** 2,
                 short_path_ideal(6) ** 2, mixed_power(6, 1, 1), corner_power(6, 1, 2)]


class TestSymmetry:
    @pytest.mark.parametrize("I", [cycle_path_ideal(8, 2) ** 3, cycle_path_ideal(9, 4) ** 2,
                                   long_path_ideal(7) ** 2, short_path_ideal(7) ** 3],
                             ids=["Jc(8,2)^3", "Jc(9,4)^2", "Jc(7,6)^2", "I(7)^3"])
    def test_family_powers_keep_the_dihedral_group(self, I):
        assert len(oracle._symmetries(I.matrix())) == 2 * I.ambient

    @pytest.mark.parametrize("I", [mixed_power(6, 1, 1), mixed_power(7, 2, 1),
                                   corner_power(6, 1, 2), corner_power(7, 2, 1)],
                             ids=["mixed(6,1,1)", "mixed(7,2,1)", "corner(6,1,2)",
                                  "corner(7,2,1)"])
    def test_reduced_members_keep_one_reflection(self, I):
        assert len(oracle._symmetries(I.matrix())) == 2

    @pytest.mark.parametrize("I", SMALL_MEMBERS + [TRIANGLE, TWO_WORDS, ideal((2, 1))])
    def test_group_maps_generators_onto_themselves(self, I):
        gens = I.matrix()
        group = oracle._symmetries(gens)
        assert group[0].tolist() == list(range(I.ambient))
        rows = set(map(tuple, gens.tolist()))
        for perm in group:
            assert set(map(tuple, gens[:, perm].tolist())) == rows

    @pytest.mark.parametrize("I", SMALL_MEMBERS + [TRIANGLE, build_ideal("m(x1,x2,x3,x4)^3"),
                                   TWO_WORDS, SYMMETRIC[-1]])
    def test_orbits_partition_the_lattice(self, I):
        assert_orbits_partition(I)

    @settings(max_examples=60, deadline=None)
    @given(dihedral_ideals())
    def test_orbits_partition_random_lattices(self, I):
        if I.is_unit():
            return
        assert lcm_lattice(I) == frontier_lattice(I)
        assert_orbits_partition(I)

    @settings(max_examples=40, deadline=None)
    @given(dihedral_ideals(), st.sampled_from([2, 32003]))
    def test_reduced_table_equals_unreduced(self, I, p):
        if I.is_unit():
            return
        assert graded_betti(I, p) == unreduced_betti(I, p)

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(SMALL_MEMBERS).flatmap(
        lambda I: st.tuples(st.just(I), st.permutations(range(I.ambient)))))
    def test_relabelled_members_equal_unreduced(self, member):
        I, perm = member
        J = relabelled(I, perm)
        assert graded_betti(J) == unreduced_betti(J, DEFAULT_PRIME) == graded_betti(I)


# graded tables with more than one row, (i, j, value) as in
# bench/pins.json["oracle"]; they hold the largest cores the oracle ranks
NON_LINEAR_TABLES = {
    "Jc(10,2)": [(0, 2, 10), (1, 3, 10), (1, 4, 25), (2, 5, 50), (2, 6, 10), (3, 6, 25),
                 (3, 7, 30), (4, 8, 30), (5, 9, 10), (6, 10, 1)],
    "Jc(9,2)": [(0, 2, 9), (1, 3, 9), (1, 4, 18), (2, 5, 36), (2, 6, 3), (3, 6, 18),
                (3, 7, 9), (4, 8, 9), (5, 9, 2)],
    "Jc(7,2)^2": [(0, 4, 28), (1, 5, 49), (1, 6, 21), (2, 6, 21), (2, 7, 50), (3, 8, 35),
                  (4, 9, 7)],
}


class TestPinnedTables:
    @pytest.mark.parametrize("p", [2, 32003, 2**31 - 1, 2**61 - 1])
    @pytest.mark.parametrize("expr", sorted(NON_LINEAR_TABLES))
    def test_non_linear_table(self, expr, p):
        table = graded_betti(build_ideal(expr), p)
        assert table.sorted_entries() == NON_LINEAR_TABLES[expr]
        assert not table.is_single_row()


class TestBettiTable:
    def test_from_totals(self):
        table = BettiTable.from_totals([3, 2], 2, 3)
        assert table.entries == {(0, 2): 3, (1, 3): 2}
        assert table.is_single_row()

    def test_accessors(self):
        table = BettiTable({(0, 2): 3, (1, 3): 2, (2, 5): 1}, 3)
        assert table.total(1) == 2
        assert table.pd() == 2
        assert table.reg() == 3
        assert table.rows() == [2, 3]
        assert not table.is_single_row()

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            BettiTable({(0, 2): 3, (1, 3): -1}, 3)


class TestPrimeCheck:
    def test_agrees_with_trial_division(self):
        def trial(p):
            return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))
        assert [p for p in range(-5, 5000) if _is_prime(p)] == [
            p for p in range(-5, 5000) if trial(p)]

    def test_large_prime_is_fast(self):
        start = time.perf_counter()
        check_prime(2**64 - 59)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("p", [561, 3215031751, 2**64 - 57])
    def test_rejects_pseudoprimes_and_composites(self, p):
        with pytest.raises(ValueError, match="not prime"):
            check_prime(p)

    def test_refuses_beyond_certified_bound(self):
        with pytest.raises(ValueError, match="too large"):
            check_prime(PRIME_CHECK_BOUND + 1)

    def test_graded_betti_checks_before_work(self):
        with pytest.raises(ValueError, match="not prime"):
            graded_betti(long_path_ideal(6) ** 2, 6, cap=10)

    def test_large_prime_table_matches_small(self):
        I = cycle_path_ideal(6, 2)
        assert graded_betti(I, 4294967311) == graded_betti(I, 2)


# ---------------------------------------------------------------------------
# Property tests against brute-force definitions
# ---------------------------------------------------------------------------

@st.composite
def small_ideals(draw):
    """Nonzero, non-unit ideals in at most 4 variables, exponents at most 2,
    with the generator list as drawn (order and redundancy kept)."""
    n = draw(st.integers(1, 4))
    exponent = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    gens = draw(st.lists(exponent, min_size=1, max_size=6))
    return MonomialIdeal([Monomial(g) for g in gens], n), gens


@st.composite
def family_members(draw):
    """Small mixed, corner and long-power members (n <= 6, s + t <= 3),
    never the unit ideal."""
    kind = draw(st.sampled_from(["mixed", "corner", "long-power"]))
    n = draw(st.integers(3, 6))
    if kind == "long-power":
        return FamilyCase(kind, n, 0, draw(st.integers(1, 3)))
    s = draw(st.integers(0, 2))
    t = draw(st.integers(1 if s == 0 else 0, 3 - s))
    return FamilyCase(kind, n, s, t)


def dense_rank_mod_p(rows, p):
    """Reference rank: row reduction of a dense list-of-lists matrix."""
    a = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [v * inv % p for v in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [(v - f * w) % p for v, w in zip(a[r], a[rank])]
        rank += 1
    return rank


@st.composite
def permuted_ideals(draw, max_ambient=5, max_exponent=3):
    """Nonzero, non-unit ideals in at most max_ambient variables, exponents
    at most max_exponent, of any generator degrees, with their variables
    permuted."""
    n = draw(st.integers(1, max_ambient))
    exponent = st.tuples(*[st.integers(0, max_exponent)] * n).filter(any)
    gens = draw(st.lists(exponent, min_size=1, max_size=7))
    perm = draw(st.permutations(range(n)))
    I = MonomialIdeal([Monomial(g) for g in gens], n)
    J = MonomialIdeal([Monomial(g[v] for v in perm) for g in gens], n)
    return I, J


@st.composite
def widened_ideals(draw):
    """(compact, wide, place): an ideal from `small_ideals` and its
    generators relabelled into a ring of 1 to 4 more variables, column j
    moved to column place[j]; no generator uses the other columns."""
    compact, gens = draw(small_ideals())
    ambient = compact.ambient + draw(st.integers(1, 4))
    place = draw(st.permutations(range(ambient)))[:compact.ambient]
    return compact, MonomialIdeal([widened(g, place, ambient) for g in gens]), place


def widened(exponents, place, ambient):
    """The monomial with exponents[j] at column place[j], zero elsewhere."""
    row = [0] * ambient
    for j, e in zip(place, exponents):
        row[j] = e
    return Monomial(row)


def definition_faces(I, b):
    """Faces of the upper Koszul complex at b straight from the definition:
    F in supp(b) is a face when b - e_F lies in I, in `combinations` order."""
    support = [v for v, e in enumerate(b) if e > 0]
    faces = {}
    for size in range(len(support) + 1):
        level = [F for F in combinations(support, size)
                 if I.contains(Monomial(e - (v in F) for v, e in enumerate(b)))]
        if level:
            faces[size - 1] = level
    return faces


def pointwise_betti(I, p):
    """Reference table: homology of the upper Koszul complex at every lattice
    point, accumulated by total degree."""
    entries = {}
    for b in lcm_lattice(I):
        for i, h in enumerate(homology_dims(upper_koszul(I, Monomial(b)), p)):
            if h:
                entries[(i, sum(b))] = entries.get((i, sum(b)), 0) + h
    return entries


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(permuted_ideals())
    @example((ideal((3, 0, 0), (0, 2, 1), (1, 1, 1), (0, 0, 3)),
              ideal((0, 0, 3), (2, 1, 0), (1, 1, 1), (0, 3, 0))))
    def test_graded_betti_matches_pointwise_reference(self, drawn):
        I, J = drawn
        for p in (2, 32003):
            table = graded_betti(I, p)
            assert table.entries == pointwise_betti(I, p)
            assert graded_betti(J, p) == table
            assert pointwise_betti(J, p) == table.entries

    # up to 24 variables and exponents up to 2^k, so rows take one to 24 words
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 31).flatmap(lambda k: permuted_ideals(24, 2 ** k)))
    def test_lattice_matches_frontier_loop(self, drawn):
        for I in drawn:
            assert lcm_lattice(I) == frontier_lattice(I)

    @settings(max_examples=60, deadline=None)
    @given(small_ideals())
    def test_faces_match_definition(self, drawn):
        I, _ = drawn
        for b in lcm_lattice(I):
            assert upper_koszul(I, Monomial(b)).faces == definition_faces(I, b)

    @settings(max_examples=60, deadline=None)
    @given(widened_ideals())
    def test_unused_columns_change_nothing(self, drawn):
        compact, wide, place = drawn
        for p in (2, 32003):
            assert graded_betti(wide, p).entries == graded_betti(compact, p).entries
        lattice = lcm_lattice(wide)
        assert lattice == sorted(widened(b, place, wide.ambient).exponents
                                 for b in lcm_lattice(compact))
        for b in lattice:
            assert upper_koszul(wide, Monomial(b)).faces == definition_faces(wide, b)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 3, 32003]), st.integers(1, 6), st.integers(1, 6),
           st.data())
    def test_rank_matches_dense_reference(self, p, nrows, ncols, data):
        entry = st.sampled_from([-1, 0, 1])
        rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                                  min_size=nrows, max_size=nrows))
        # `_rank_mod_p` takes nonzero residues: -1 is written p - 1
        columns = [{r: rows[r][c] % p for r in range(nrows) if rows[r][c]}
                   for c in range(ncols)]
        pivots = _rank_mod_p(columns, p)
        assert len(pivots) == dense_rank_mod_p(rows, p)
        assert len(set(pivots)) == len(pivots)
        assert set(pivots) <= set(range(nrows))

    @settings(max_examples=40, deadline=None)
    @given(small_ideals(), st.randoms(use_true_random=False))
    def test_generator_order_is_irrelevant(self, drawn, rng):
        I, gens = drawn
        shuffled = gens[:]
        rng.shuffle(shuffled)
        J = MonomialIdeal([Monomial(g) for g in shuffled], I.ambient)
        assert graded_betti(J, 2) == graded_betti(I, 2)
        # faces depend on the generators only as a set of facets, so the
        # shuffled generating set, redundant members included, gives the
        # same complexes as the minimal one
        minimal = I.matrix()
        drawn_rows = np.array(shuffled, dtype=np.int64)
        for b in lcm_lattice(I):
            assert _koszul_complex(drawn_rows, b) == _koszul_complex(minimal, b)

    @settings(max_examples=200, deadline=None)
    @given(facet_sets())
    def test_core_keeps_homology(self, drawn):
        k, facets = drawn
        full = mask_complex(facets, k)
        for p in (2, 32003):
            expected = tuple_homology(full, p)
            assert homology_dims(full, p) == expected
            assert _mask_homology(_faces(facets), p) == expected
            core = [(i, h) for i, h in enumerate(core_homology(facets, p)) if h]
            assert core == [(i, h) for i, h in enumerate(expected) if h]

    @settings(max_examples=25, deadline=None)
    @given(family_members())
    def test_family_tables_do_not_depend_on_characteristic(self, case):
        ideal = case.ideal()
        assert graded_betti(ideal, 2).entries == graded_betti(ideal, 32003).entries
