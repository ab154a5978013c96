"""Ground-truth graded Betti numbers of arbitrary monomial ideals.

The multigraded Betti number at a multidegree b equals the dimension of a
reduced homology group of the upper Koszul complex at b, and nonzero values
only occur at joins of generator multidegrees.  So: find the dihedral
symmetries of the generators, enumerate the lcm lattice by joining one
point per orbit, build the upper Koszul complex at each orbit's point, take
ranks of boundary matrices over a prime field, and accumulate into a graded
table, each point weighted by its orbit's size.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .monomials import _CHUNK, Monomial, MonomialIdeal

DEFAULT_PRIME = 32003
DEFAULT_LATTICE_CAP = 200_000
# a facet is an int64 bitmask, bit v for column v of its input; bit 63 is the sign
MAX_SUPPORT = 63
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


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, sorted, sorting `keys` in place.
    (np.unique would import numpy.ma, a megabyte of modules, on first use.)"""
    keys.sort()
    fresh = np.empty(len(keys), dtype=bool)
    fresh[:1] = True
    fresh[1:] = keys[1:] != keys[:-1]
    return keys[fresh]


def _check_growth(parts: list[np.ndarray], size: int, cap: int) -> None:
    """Raise LatticeCapError when a lattice of `size` rows plus the rows in
    `parts`, each part distinct and new to the lattice, is past `cap`.

    Parts may share rows, so past the cap they are merged into parts[0]
    and counted exactly."""
    if size + sum(map(len, parts)) > cap:
        parts[:] = [_sorted_distinct(np.concatenate(parts))]
        if size + len(parts[0]) > cap:
            raise LatticeCapError(f"lcm lattice reached {size + len(parts[0])} elements, "
                                  f"past its cap of {cap}")


def _lattice_orbits(gens: np.ndarray, group: np.ndarray,
                    cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lcm lattice of the rows of `gens`, sorted lexicographically; the
    lex-least point of each orbit of `group` on it, in lattice order; and
    each orbit's size.

    `group` holds column permutations mapping the rows of `gens` onto
    themselves, the identity among them.  Rows live as packed words.  With
    w the bit length of the largest exponent, each field is w + 1 bits, the
    top one a guard kept clear, so 64 // (w + 1) fields fill a uint64 from
    the top: column 0 is the highest field of word 0, and the words of a
    row compare as integers in the row's lex order.  Each row is one key, a
    uint64 or a void of its words.

    Only orbit representatives are joined (McKay, "Isomorph-free exhaustive
    generation", 1998): a permutation s maps the join of r and g to the join
    of s(r) and s(g), and permutes the generators, so the joins of the
    representatives with every generator reach every orbit.  A frontier
    batch is joined with every generator by a field-wise SWAR maximum
    (Lamport, CACM 1975; Warren, Hacker's Delight, ch. 2): subtracting b
    from a with the guards set leaves a field's guard set exactly where
    a >= b, and no borrow crosses a field.  The join runs in place in two
    buffers of at most `_CHUNK` candidate rows; each batch is deduped and
    looked up in the sorted lattice.  The lattice so far is a union of
    orbits, so the orbit of a row new to it is new as a whole: the
    frontier's new rows are unpacked, permuted by the group, repacked and
    merged into the lattice in slices of at most `_CHUNK` entries, and
    their distinct lex-least images are the next frontier.  The cap is
    checked on the lattice so far after every batch and every slice.  Rows
    are lexsorted by their words and unpacked at the end, and each orbit
    has |group| / |stabilizer| points.
    """
    count, ambient = gens.shape
    width = max(int(gens.max(initial=0)).bit_length(), 1)
    per_word = 64 // (width + 1)
    words = -(-ambient // per_word)
    shifts = np.arange(per_word - 1, -1, -1, dtype=np.uint64) * np.uint64(width + 1)
    # numpy 1.x and 2.x promote uint64 with a Python int differently: every
    # constant below is a np.uint64
    guards = np.uint64(sum(1 << int(s) + width for s in shifts))
    low = np.uint64((1 << width) - 1)
    key = np.dtype(np.uint64) if words == 1 else np.dtype((np.void, 8 * words))

    # rows pack as a product with `places`, which holds 1 << shift in the
    # word of each column; fields are disjoint, so the sums are exact.  The
    # image of a row under P has column P[j] in place j, so the rows of
    # `moves` put each column in its place under every permutation at once.
    index = np.arange(ambient)
    places = np.zeros((ambient, words), dtype=np.uint64)
    places[index, index // per_word] = np.uint64(1) << shifts[index % per_word]
    moves = np.zeros((ambient, len(group), words), dtype=np.uint64)
    moves[group, np.arange(len(group))[:, None]] = places
    moves = moves.reshape(ambient, -1)

    def unpack(packed: np.ndarray) -> np.ndarray:
        fields = (packed.reshape(-1, words, 1) >> shifts) & low
        return fields.reshape(len(fields), -1)[:, :ambient]

    def images(rows: np.ndarray) -> np.ndarray:
        """(rows, permutations, words): each packed row's image under each
        permutation of the group."""
        return (unpack(rows) @ moves).reshape(len(rows), len(group), words)

    def least(found: np.ndarray) -> np.ndarray:
        """Each row's lex-least image, from its `images`: the least first
        word, then among the images sharing it the least second word, and
        so on."""
        column = found[:, :, 0]
        rep = column.min(axis=1, keepdims=True)
        for w in range(1, words):
            # `guards` is past every packed word, so it masks the images
            # whose earlier words are not the least
            column = np.where(column == rep[:, -1:], found[:, :, w], guards)
            rep = np.hstack([rep, column.min(axis=1, keepdims=True)])
        return rep

    packed = gens.astype(np.uint64) @ places
    step = max(1, _CHUNK // count)
    # rows per slice: each unpacks to words * per_word fields and has
    # len(group) images of `words` words
    spread = max(1, _CHUNK // (words * max(len(group), per_word)))
    picks = np.empty((step, count, words), dtype=np.uint64)
    joins = np.empty_like(picks)
    lattice = np.empty(0, dtype=key)
    # the generators are a union of orbits, so they come first as new rows
    new, frontiers = packed, []
    while len(new):
        orbits, reps = [], []
        for lo in range(0, len(new), spread):
            found = images(new[lo:lo + spread])
            reps.append(least(found))
            # sorts `found` in place
            orbits.append(_sorted_distinct(found.reshape(-1, words).view(key).ravel()))
            _check_growth(orbits, len(lattice), cap)
        lattice = _sorted_distinct(np.concatenate([lattice] + orbits))
        frontier = _sorted_distinct(np.concatenate(reps).view(key).ravel())
        frontiers.append(frontier)
        frontier = frontier.view(np.uint64).reshape(-1, words)
        fresh = []
        for lo in range(0, len(frontier), step):
            a = frontier[lo:lo + step, None, :]
            pick, join = picks[:len(a)], joins[:len(a)]
            np.subtract(a | guards, packed, out=pick)
            pick &= guards
            pick -= np.right_shift(pick, np.uint64(width), out=join)
            np.bitwise_xor(a, packed, out=join)
            join &= pick
            join ^= packed
            batch = _sorted_distinct(join.reshape(-1, words).view(key).ravel())
            at = np.searchsorted(lattice, batch).clip(max=len(lattice) - 1)
            fresh.append(batch[lattice[at] != batch])
            _check_growth(fresh, len(lattice), cap)
        # batches of one frontier may share rows
        new = fresh[0] if len(fresh) == 1 else _sorted_distinct(np.concatenate(fresh))
        new = new.view(np.uint64).reshape(-1, words)
    # a row's words, first to last, compare in its lex order
    rows = lattice.view(np.uint64).reshape(-1, words)
    reps = np.concatenate(frontiers).view(np.uint64).reshape(-1, words)
    rows, reps = rows[np.lexsort(rows.T[::-1])], reps[np.lexsort(reps.T[::-1])]
    sizes = np.empty(len(reps), dtype=np.int64)
    for lo in range(0, len(reps), spread):
        chunk = reps[lo:lo + spread]
        fixed = (images(chunk) == chunk[:, None]).all(axis=2).sum(axis=1)
        sizes[lo:lo + spread] = len(group) // fixed
    return unpack(rows).astype(gens.dtype), unpack(reps).astype(gens.dtype), sizes


def lcm_lattice(ideal: MonomialIdeal, cap: int = DEFAULT_LATTICE_CAP) -> list[tuple[int, ...]]:
    """All joins (componentwise maxima) of nonempty sets of generator degrees.

    Returned sorted, so iteration order is deterministic.  Raises
    LatticeCapError beyond `cap` elements.  Built by `_lattice_orbits` on
    the columns some generator uses, joining one point per orbit of the
    `_symmetries` group; joins keep the other columns zero.
    """
    _check_nontrivial(ideal)
    gens = ideal.matrix()
    used = gens.any(axis=0)
    lattice, _, _ = _lattice_orbits(gens[:, used], _symmetries(gens[:, used]), cap)
    rows = np.zeros((len(lattice), ideal.ambient), dtype=gens.dtype)
    rows[:, used] = lattice
    return [tuple(row) for row in rows.tolist()]


def _check_nontrivial(ideal: MonomialIdeal) -> None:
    if ideal.is_zero() or ideal.is_unit():
        raise ValueError("lcm lattice needs a nonzero, non-unit ideal")


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


def _koszul_complex(gen_rows: np.ndarray, bexp: tuple[int, ...]) -> SimplicialComplex:
    """Upper Koszul complex at bexp of the ideal generated by gen_rows.

    A subset F of supp(b) is a face when b - e_F is divisible by some
    generator g, that is when F lies in g's facet: `_facet_masks` of the
    generators dividing b, on the columns of supp(b).  The faces are
    `_faces` of the maximal facets, as tuples of the support's vertices,
    sorted within each size, which is `combinations` order.
    """
    support = [v for v, e in enumerate(bexp) if e > 0]
    # one dtype on both sides keeps numpy's comparisons off the mixed-type loops
    b, gens = np.array(bexp, dtype=np.int64), np.asarray(gen_rows, dtype=np.int64)
    masks = _facet_masks(gens[(gens <= b).all(axis=1)][:, support], b[None, support])
    facets = _maximal(sorted(set(masks[0].tolist()), reverse=True))
    levels = _faces(facets) if facets else []
    return SimplicialComplex(tuple(support), {
        size - 1: sorted(tuple(v for j, v in enumerate(support) if face >> j & 1)
                         for face in level)
        for size, level in enumerate(levels)})


def upper_koszul(ideal: MonomialIdeal, b: Monomial) -> SimplicialComplex:
    """Upper Koszul complex of the ideal at multidegree b.

    Vertices are the support of b; a squarefree subset is a face when the
    quotient monomial still lies in the ideal.  Void when b itself does not.
    """
    if ideal.ambient != b.ambient:
        raise ValueError("ambient mismatch between ideal and multidegree")
    return _koszul_complex(ideal.matrix(), b.exponents)


def _rank_mod_p(columns: list[dict[int, int]], p: int) -> list[int]:
    """Pivot rows of the matrix with these sparse columns {row: entry},
    reduced over GF(p); their number is its rank.

    Entries must be nonzero residues, in 1..p - 1.  The columns are
    consumed: each is reduced in place.  Column reduction in Python
    integers, so exact for every p: each column is reduced against the
    stored pivot columns, keyed by their largest row, until it vanishes or
    brings a new pivot row.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            row = max(col)
            pivot = pivots.get(row)
            if pivot is None:
                # stored monic; over `_faces` levels an unreduced column leads with +1
                if col[row] != 1:
                    inv = pow(col[row], -1, p)
                    col = {r: v * inv % p for r, v in col.items()}
                pivots[row] = col
                break
            factor = col[row]
            for r, v in pivot.items():
                value = (col.get(r, 0) - factor * v) % p
                if value:
                    col[r] = value
                else:
                    col.pop(r, None)
    return list(pivots)


def _mask_homology(levels: list[list[int]], p: int) -> list[int]:
    """Dimensions of reduced homology over GF(p) of the complex whose faces
    with s vertices are the bitmasks levels[s]; entry s of the result is dim
    of reduced H_(s-1).

    The boundary of a face f drops each set bit, with sign (-1) to the
    number of set bits below it, written as its residue 1 or p - 1, so
    faces stay bitmasks throughout.  The boundary maps are ranked from the
    largest faces down, with clearing (Chen and Kerber, "Persistent
    homology computation with a twist", 2011; Bauer, Kerber and
    Reininghaus, "Clear and compress", 2014): a face that is a pivot row of
    the reduction one size up is not a column of its own size's map.  A
    pivot row r is the largest row of a reduced column R, a chain whose
    boundary is zero, so the boundary of face r is a combination of the
    boundaries of faces before it; by induction every skipped column lies
    in the span of the kept ones, and each rank is unchanged over every
    field.
    """
    ranks = [0] * (len(levels) + 1)
    cleared: set[int] = set()
    for size in range(len(levels) - 1, 0, -1):
        index = {f: j for j, f in enumerate(levels[size - 1])}
        if not index:
            continue
        columns = []
        for j, face in enumerate(levels[size]):
            if j in cleared:
                continue
            column, rest, sign = {}, face, 1
            while rest:
                bit = rest & -rest
                column[index[face ^ bit]] = sign
                rest ^= bit
                sign = p - sign
            columns.append(column)
        cleared = set(_rank_mod_p(columns, p))
        ranks[size] = len(cleared)
    return [len(level) - ranks[s] - ranks[s + 1] for s, level in enumerate(levels)]


def homology_dims(cx: SimplicialComplex, p: int = DEFAULT_PRIME) -> list[int]:
    """Dimensions of reduced homology over GF(p), starting at degree -1.

    Entry k of the result is dim of reduced H_(k-1).  Conventions: the void
    complex gives [], and the complex whose only face is the empty face has
    reduced H_(-1) of dimension 1.  Faces are ranked as bitmasks over the
    positions of cx.vertices, by the kernel `graded_betti` uses.
    """
    check_prime(p)
    if cx.is_void():
        return []
    bit = {v: 1 << j for j, v in enumerate(cx.vertices)}
    return _mask_homology([[sum(bit[v] for v in face) for face in cx.faces.get(d, [])]
                           for d in range(-1, max(cx.faces) + 1)], p)


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


def _check_support(columns: int) -> None:
    """LatticeCapError past MAX_SUPPORT columns, whose bits overflow an int64."""
    if columns > MAX_SUPPORT:
        raise LatticeCapError(f"lcm lattice point has a support of {columns} variables, "
                              f"past the oracle's limit of {MAX_SUPPORT}")


def _facet_masks(gens: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(points, generators) int64 array: the facet {v : g_v < b_v}, bit v
    for column v, where g divides b, else -1.

    Built one column at a time, so no (points, generators, columns) array
    is ever allocated.  Callers pass only the columns facets are built on,
    at most MAX_SUPPORT of them (`_check_support`).
    """
    _check_support(gens.shape[1])
    masks = np.zeros((len(points), len(gens)), dtype=np.int64)
    divides = np.ones(masks.shape, dtype=bool)
    strict = np.empty(masks.shape, dtype=bool)
    for v, (g_col, b_col) in enumerate(zip(gens.T, points.T[:, :, None])):
        divides &= g_col <= b_col
        np.bitwise_or(masks, 1 << v, out=masks, where=np.less(g_col, b_col, out=strict))
    masks[~divides] = -1
    return masks


def _maximal(masks) -> tuple[int, ...]:
    """The inclusion-maximal bitmasks among masks sorted in decreasing order.

    A proper superset of a mask is numerically larger, so it comes first and
    each mask need only be tested against the maximal ones kept so far."""
    kept: list[int] = []
    for mask in masks:
        for other in kept:
            if mask & other == mask:
                break
        else:
            kept.append(mask)
    return tuple(kept)


def _strong_core(facets: tuple[int, ...]) -> tuple[int, ...]:
    """Maximal facets of the strong-collapse core of the complex generated
    by these maximal facet bitmasks.

    A vertex v is dominated when the facets containing v share another
    vertex.  Deleting it keeps the homotopy type (Barmak and Minian, "Strong
    homotopy types, nerves and collapses", 2012), so reduced homology over
    every field is unchanged; dominated vertices are deleted until none is
    left.  The core of a cone is a single vertex.
    """
    vertices = 0
    for facet in facets:
        vertices |= facet
    collapsed = True
    while collapsed:
        collapsed = False
        rest = vertices
        while rest:
            bit = rest & -rest
            rest ^= bit
            shared = vertices
            for facet in facets:
                if facet & bit:
                    shared &= facet
            if shared != bit:
                vertices ^= bit
                facets = _maximal(sorted({f & ~bit for f in facets}, reverse=True))
                collapsed = True
    return facets


def _faces(facets: tuple[int, ...]) -> list[list[int]]:
    """Every submask of the facet bitmasks, grouped by popcount, ascending."""
    faces = {0}
    for facet in facets:
        face = facet
        while face:
            faces.add(face)
            face = (face - 1) & facet
    levels: list[list[int]] = [[] for _ in range(max(f.bit_count() for f in facets) + 1)]
    for face in sorted(faces):
        levels[face.bit_count()].append(face)
    return levels


def _symmetries(gens: np.ndarray) -> np.ndarray:
    """The dihedral permutations of the columns that map the generator set
    onto itself, one row of column indices each, the identity first.

    Of the 2n rotations and reflections of the n columns, those that
    keep the column sums are tested exactly: P is kept when the rows of
    gens[:, P] are the rows of gens.  Rows compare as voids of their bytes,
    sorted per candidate, in slices of at most max(`_CHUNK`, gens.size)
    entries.  The kept permutations form a group, the dihedral group's
    intersection with the generators' symmetries.
    """
    ambient = gens.shape[1]
    turns = np.arange(ambient)
    rotations = (turns[:, None] + turns) % ambient
    # below three variables every reflection is a rotation
    perms = np.concatenate([rotations, rotations[:, ::-1]]) if ambient > 2 else rotations
    sums = gens.sum(axis=0)
    perms = perms[(sums[perms] == sums).all(axis=1)]
    row = np.dtype((np.void, gens.itemsize * ambient))
    rows = np.sort(np.ascontiguousarray(gens).view(row)[:, 0])
    kept = np.empty(len(perms), dtype=bool)
    step = max(1, _CHUNK // gens.size)
    for lo in range(0, len(perms), step):
        images = gens[:, perms[lo:lo + step]].transpose(1, 0, 2)
        images = np.ascontiguousarray(images).view(row)[..., 0]
        images.sort(axis=1)
        kept[lo:lo + step] = (images == rows).all(axis=1)
    return perms[kept]


def graded_betti(ideal: MonomialIdeal, p: int = DEFAULT_PRIME,
                 cap: int = DEFAULT_LATTICE_CAP) -> BettiTable:
    """Full graded Betti table of a nonzero, non-unit monomial ideal over GF(p).

    It keeps the columns some generator uses, the support of the top
    lattice point.  The upper Koszul complex at a lattice point b is the
    downward closure of its facets, one bitmask over those columns per
    generator dividing b.  A permutation P of the columns that maps the
    generators onto themselves maps the complex at b onto the one at b[P], so
    beta_(i, b[P]) = beta_(i, b): the `_symmetries` group is found first,
    `_lattice_orbits` joins and returns one point per orbit with the orbit's
    size, and the table is summed over those points, weighted by size.  Many
    points share a facet pattern, so homology is computed once per tuple of
    maximal facets within this call, on the pattern's strong-collapse core;
    a core that is a cone adds nothing.
    """
    check_prime(p)
    _check_nontrivial(ideal)
    gens = ideal.matrix()
    gens = gens[:, gens.any(axis=0)]
    _check_support(gens.shape[1])  # the top lattice point's, before the lattice is built
    _, points, orbit_sizes = _lattice_orbits(gens, _symmetries(gens), cap)
    dims_by_pattern: dict[tuple[int, ...], list[int]] = {}
    entries: dict[tuple[int, int], int] = {}
    step = max(1, _CHUNK // len(gens))
    for lo in range(0, len(points), step):
        chunk = points[lo:lo + step]
        masks = _facet_masks(gens, chunk)
        counts = (masks >= 0).sum(axis=1).tolist()
        masks.sort(axis=1)
        degrees = chunk.sum(axis=1, dtype=np.int64).tolist()
        weights = orbit_sizes[lo:lo + step].tolist()
        for row, count, degree, weight in zip(masks, counts, degrees, weights):
            # the maximal facets of the generators dividing b, largest mask first
            facets = _maximal(dict.fromkeys(row[::-1][:count].tolist()))
            dims = dims_by_pattern.get(facets)
            if dims is None:
                core = _strong_core(facets)
                is_cone = len(core) == 1 and core[0]
                dims = [] if is_cone else _mask_homology(_faces(core), p)
                dims_by_pattern[facets] = dims
            for i, h in enumerate(dims):
                if h:
                    entries[(i, degree)] = entries.get((i, degree), 0) + h * weight
    return BettiTable(entries, ideal.ambient, p)
