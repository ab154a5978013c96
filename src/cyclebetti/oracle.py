"""Ground-truth graded Betti numbers of arbitrary monomial ideals.

The multigraded Betti number at a multidegree b equals the dimension of a
reduced homology group of the upper Koszul complex at b, and nonzero values
only occur at joins of generator multidegrees.  So: enumerate the lcm
lattice, build each upper Koszul complex, take ranks of boundary matrices
over a prime field, and accumulate into a graded table.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .monomials import Monomial, MonomialIdeal

DEFAULT_PRIME = 32003
DEFAULT_LATTICE_CAP = 200_000
# Miller-Rabin with the prime bases 2..41 is exact below this bound
# (Sorenson and Webster 2015); larger characteristics are refused.
PRIME_CHECK_BOUND = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class LatticeCapError(RuntimeError):
    """lcm lattice grew past the configured cap; fail loudly, never degrade."""


@lru_cache(maxsize=64)
def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above PRIME_CHECK_BOUND."""
    if p >= PRIME_CHECK_BOUND:
        raise ValueError(f"characteristic {p} is too large to certify as prime "
                         f"(limit {PRIME_CHECK_BOUND})")
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime the oracle can use as characteristic."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")


def lcm_lattice(ideal: MonomialIdeal, cap: int = DEFAULT_LATTICE_CAP) -> list[tuple[int, ...]]:
    """All joins (componentwise maxima) of nonempty sets of generator degrees.

    Returned sorted, so iteration order is deterministic.  Raises
    LatticeCapError beyond `cap` elements.
    """
    if ideal.is_zero() or ideal.is_unit():
        raise ValueError("lcm lattice needs a nonzero, non-unit ideal")
    gens = [tuple(row) for row in ideal.matrix().tolist()]
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
                    if len(lattice) > cap:
                        raise LatticeCapError(
                            f"lcm lattice exceeds cap of {cap} elements")
        frontier = fresh
    return sorted(lattice)


@dataclass
class SimplicialComplex:
    """Faces grouped by dimension; each face a sorted tuple of vertex indices.

    The empty face lives in dimension -1.  A void complex has no faces at
    all (not even the empty one).
    """
    vertices: tuple[int, ...]
    faces: dict[int, list[tuple[int, ...]]]

    def is_void(self) -> bool:
        return not self.faces

    def face_counts(self) -> dict[int, int]:
        return {d: len(fs) for d, fs in self.faces.items()}


@lru_cache(maxsize=64)
def _face_layout(support: tuple[int, ...]):
    """Every subset of `support` as a bitmask over its positions, ordered by
    size and then as `combinations` yields them, with the size boundaries and
    the subsets themselves as vertex tuples in the same order."""
    masks, bounds, subsets = [], [0], []
    for size in range(len(support) + 1):
        for positions in combinations(range(len(support)), size):
            masks.append(sum(1 << i for i in positions))
            subsets.append(tuple(support[i] for i in positions))
        bounds.append(len(masks))
    return np.array(masks, dtype=np.int64), bounds, subsets


def _koszul_complex(gen_rows: np.ndarray, bexp: tuple[int, ...]) -> SimplicialComplex:
    """Upper Koszul complex at bexp of the ideal generated by gen_rows.

    A subset F of supp(b) is a face when b - e_F is divisible by some
    generator g, that is when g | b and F lies in the facet
    {v in supp(b) : g_v < b_v}.  The facets are scattered into a table
    indexed by bitmask and closed downward one vertex at a time.
    """
    b_arr = np.asarray(bexp, dtype=np.int64)
    support = tuple(v for v, e in enumerate(bexp) if e > 0)
    k = len(support)
    rows = gen_rows[(gen_rows <= b_arr).all(axis=1)]
    if not len(rows):
        return SimplicialComplex(support, {})
    columns = list(support)
    strict = rows[:, columns] < b_arr[columns]
    is_face = np.zeros(1 << k, dtype=bool)
    is_face[strict @ (1 << np.arange(k, dtype=np.int64))] = True
    cube = is_face.reshape((2,) * k)
    for axis in range(k):
        lower = (slice(None),) * axis + (0,)
        upper = (slice(None),) * axis + (1,)
        cube[lower] |= cube[upper]
    masks, bounds, subsets = _face_layout(support)
    hits = np.flatnonzero(is_face[masks])
    cuts = np.searchsorted(hits, bounds).tolist()
    hits = hits.tolist()
    faces: dict[int, list[tuple[int, ...]]] = {}
    for size in range(k + 1):
        level = hits[cuts[size]:cuts[size + 1]]
        if level:
            faces[size - 1] = [subsets[j] for j in level]
    return SimplicialComplex(support, faces)


def upper_koszul(ideal: MonomialIdeal, b: Monomial) -> SimplicialComplex:
    """Upper Koszul complex of the ideal at multidegree b.

    Vertices are the support of b; a squarefree subset is a face when the
    quotient monomial still lies in the ideal.  Void when b itself does not.
    """
    if ideal.ambient != b.ambient:
        raise ValueError("ambient mismatch between ideal and multidegree")
    return _koszul_complex(ideal.matrix(), b.exponents)


def _rank_mod_p(columns: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p) of the matrix with these sparse columns {row: entry}.

    Column reduction in Python integers, so exact for every p: each column
    is reduced against the stored pivot columns, keyed by their largest
    row, until it vanishes or brings a new pivot row.
    """
    pivots: dict[int, dict[int, int]] = {}
    for column in columns:
        col = {r: v % p for r, v in column.items() if v % p}
        while col:
            row = max(col)
            pivot = pivots.get(row)
            if pivot is None:
                inv = pow(col[row], -1, p)
                pivots[row] = {r: v * inv % p for r, v in col.items()}
                break
            factor = col[row]
            for r, v in pivot.items():
                value = (col.get(r, 0) - factor * v) % p
                if value:
                    col[r] = value
                else:
                    col.pop(r, None)
    return len(pivots)


def homology_dims(cx: SimplicialComplex, p: int = DEFAULT_PRIME) -> list[int]:
    """Dimensions of reduced homology over GF(p), starting at degree -1.

    Entry k of the result is dim of reduced H_(k-1).  Conventions: the void
    complex gives [], and the complex whose only face is the empty face has
    reduced H_(-1) of dimension 1.
    """
    check_prime(p)
    if cx.is_void():
        return []
    top = max(cx.faces)
    ranks: dict[int, int] = {}
    for d in range(0, top + 1):
        upper = cx.faces.get(d, [])
        lower = cx.faces.get(d - 1, [])
        if not upper or not lower:
            continue
        index = {f: j for j, f in enumerate(lower)}
        # boundary drops vertices in increasing position with alternating signs
        columns = [{index[face[:k] + face[k + 1:]]: 1 if k % 2 == 0 else -1
                    for k in range(len(face))} for face in upper]
        ranks[d] = _rank_mod_p(columns, p)
    dims = []
    for d in range(-1, top + 1):
        n_faces = len(cx.faces.get(d, []))
        dims.append(n_faces - ranks.get(d, 0) - ranks.get(d + 1, 0))
    return dims


@dataclass
class BettiTable:
    """Finite map (homological index i, total degree j) -> count."""
    entries: dict[tuple[int, int], int]
    ambient: int
    char: int | None = None

    def __post_init__(self):
        negative = sorted(k for k, v in self.entries.items() if v < 0)
        if negative:
            raise ValueError(f"negative Betti numbers at (i, j) = {negative}")
        self.entries = {k: v for k, v in self.entries.items() if v}

    @classmethod
    def from_totals(cls, totals, initial_degree: int, ambient: int,
                    char: int | None = None) -> "BettiTable":
        """Table of a linear resolution: row j - i = initial_degree."""
        return cls({(i, i + initial_degree): v for i, v in enumerate(totals) if v},
                   ambient, char)

    def total(self, i: int) -> int:
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    def totals(self) -> list[int]:
        return [self.total(i) for i in range(self.pd() + 1)]

    def pd(self) -> int:
        if not self.entries:
            raise ValueError("empty Betti table")
        return max(i for i, _ in self.entries)

    def reg(self) -> int:
        if not self.entries:
            raise ValueError("empty Betti table")
        return max(j - i for i, j in self.entries)

    def rows(self) -> list[int]:
        """Degree rows j - i carrying a nonzero entry."""
        return sorted({j - i for i, j in self.entries})

    def is_single_row(self) -> bool:
        return len(self.rows()) == 1

    def graded(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def sorted_entries(self) -> list[tuple[int, int, int]]:
        return [(i, j, self.entries[(i, j)]) for i, j in sorted(self.entries)]

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def shifted(self, by: int) -> "BettiTable":
        return BettiTable({(i, j + by): v for (i, j), v in self.entries.items()},
                          self.ambient, self.char)


def graded_betti(ideal: MonomialIdeal, p: int = DEFAULT_PRIME,
                 cap: int = DEFAULT_LATTICE_CAP) -> BettiTable:
    """Full graded Betti table of a nonzero, non-unit monomial ideal over GF(p)."""
    check_prime(p)
    lattice = lcm_lattice(ideal, cap)
    gen_rows = ideal.matrix()
    entries: dict[tuple[int, int], int] = {}
    for bexp in lattice:
        dims = homology_dims(_koszul_complex(gen_rows, bexp), p)
        degree = sum(bexp)
        for i, h in enumerate(dims):
            if h:
                entries[(i, degree)] = entries.get((i, degree), 0) + h
    return BettiTable(entries, ideal.ambient, p)
