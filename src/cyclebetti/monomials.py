"""Exact monomial and monomial-ideal arithmetic.

Monomials are exponent vectors over a fixed ambient variable count n,
printed as ``x1^2*x3`` (unit is ``1``); ideals print as ``(x1*x2, x3)``,
the zero ideal as ``()``.  The expression grammar of `cyclebetti.cli`
(`build_ideal`) reads these forms back; this module reads no text.  Ideals
always carry their canonical minimal generating set: no generator divides
another, and generators are sorted by (total degree, exponent vector), so
structural equality is ideal equality.

An ideal stores that set as one packed exponent matrix, a row per
generator, with every exponent in as many bits as the ideal's largest
exponent needs, several to a 64-bit word (packed exponent vectors, as in
Bachmann and Schoenemann, ISSAC 1998).  Products and intersections are
broadcast sums and maxima over the operands' rows; `_minimal_rows` turns
any candidate rows into the canonical set.  It sorts the candidates by one
packed key per row: the degree in the top field of the key's first 64-bit
word and the exponents x1..xn in fields below it, as many to a word as
fit, so one word comparison (or one lexsort over a few words) is the
graded order (Monagan and Pearce, CASC 2007).
"""
from __future__ import annotations

from functools import cache
from typing import Iterable

import numpy as np

# Anything past this exponent bound is a bug upstream, not a value we
# silently carry; ideal operations check it before building candidates.
MAX_EXPONENT = 2**31
# A product or intersection of ideals with a and b generators makes a * b
# candidate rows; more than this many is refused before any is built.
MAX_CANDIDATES = 1_000_000
# (row, divisor) pairs the divisibility test compares at once.
_CHUNK = 1 << 16
# Bit offsets of the exponents in a packed 64-bit word, by exponent width.
_SHIFTS = {width: np.arange(64 // width, dtype=np.uint64) * np.uint64(width)
           for width in range(1, 33)}


class AmbientMismatchError(ValueError):
    """Raised when two operands live in different polynomial rings."""


class CandidateCapError(RuntimeError):
    """An ideal product or intersection would make more than MAX_CANDIDATES rows."""


class Monomial:
    """An exponent vector; immutable, hashable, ambient = len(exponents)."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: Iterable[int]):
        exps = tuple(int(e) for e in exponents)
        for e in exps:
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            if e > MAX_EXPONENT:
                raise ValueError(f"exponent {e} exceeds 2^31")
        object.__setattr__(self, "exponents", exps)

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @property
    def ambient(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def support(self) -> tuple[int, ...]:
        """0-based indices of variables dividing the monomial."""
        return tuple(i for i, e in enumerate(self.exponents) if e > 0)

    def _check(self, other: "Monomial"):
        if self.ambient != other.ambient:
            raise AmbientMismatchError(
                f"ambient mismatch: {self.ambient} vs {other.ambient}")

    def divides(self, other: "Monomial") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other):
        if isinstance(other, Monomial):
            self._check(other)
            return Monomial(a + b for a, b in zip(self.exponents, other.exponents))
        if isinstance(other, MonomialIdeal):
            return other * self
        return NotImplemented

    def __pow__(self, e: int) -> "Monomial":
        if e < 0:
            raise ValueError("negative power of a monomial")
        return Monomial(a * e for a in self.exponents)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __str__(self):
        parts = [
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
            for i, e in enumerate(self.exponents) if e > 0
        ]
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        return f"Monomial({self.exponents!r})"


def variable(i: int, ambient: int) -> Monomial:
    """The monomial x_i (1-based) in the given ambient."""
    if not 1 <= i <= ambient:
        raise ValueError(f"variable index {i} outside 1..{ambient}")
    return Monomial(1 if j == i - 1 else 0 for j in range(ambient))


def one(ambient: int) -> Monomial:
    return Monomial((0,) * ambient)


# ---------------------------------------------------------------------------
# Exponent matrices
# ---------------------------------------------------------------------------

def _divisible(rows: np.ndarray, divisors: np.ndarray) -> np.ndarray:
    """Mask of the rows that some divisor row divides, compared one column
    at a time over fixed-size chunks of rows."""
    columns = np.ascontiguousarray(divisors.T)
    step = max(1, _CHUNK // max(len(divisors), 1))
    mask = np.empty(len(rows), dtype=bool)
    for lo in range(0, len(rows), step):
        chunk = rows[lo:lo + step].T[:, :, None]
        hit = np.ones((chunk.shape[1], len(divisors)), dtype=bool)
        scratch = np.empty_like(hit)
        for divisor_column, row_column in zip(columns, chunk):
            hit &= np.less_equal(divisor_column, row_column, out=scratch)
        mask[lo:lo + step] = hit.any(axis=1)
    return mask


@cache
def _key_layout(columns: int, width: int, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights that pack a row of `columns` exponents, each below 2^width,
    into its sort key, with the degree at bit `shift` of the first word.

    `head` (one weight per column) makes the first word: every column adds
    2^shift, and the first shift // width columns add their own fields
    below it too.  `tail` (one weight per field, first column highest)
    makes each later word from its own slice of columns.
    """
    tail = np.uint64(1) << _SHIFTS[width][::-1]
    head = np.full(columns, 1 << shift, dtype=np.uint64)
    lead = shift // width
    head[:lead] += tail[len(tail) - lead:]
    return head, tail


def _sort_keys(rows: np.ndarray, top: int) -> tuple[np.ndarray, int]:
    """(keys, shift): a (words, rows) uint64 array whose columns compare in
    lexicographic order as the rows do by (degree, x1..xn), and the bit at
    which the first word holds the degree.

    Each field is as wide as `top`, the largest exponent, needs; the degree
    field as wide as top * columns needs, which fits 64 bits for fewer than
    2^33 columns.  No field crosses a word, so the fields are disjoint and
    the uint64 products carry nothing from one field into the next.
    """
    count, columns = rows.shape
    width = max(top.bit_length(), 1)
    per_word = 64 // width
    lead = min((64 - max((top * columns).bit_length(), 1)) // width, columns)
    head, tail = _key_layout(columns, width, lead * width)
    wide = rows.astype(np.uint64)
    full, part = divmod(columns - lead, per_word)
    keys = np.empty((1 + full + (part > 0), count), dtype=np.uint64)
    keys[0] = wide @ head
    if full:
        body = wide[:, lead:lead + full * per_word].reshape(count, full, per_word)
        keys[1:1 + full] = (body @ tail).T
    if part:
        keys[-1] = wide[:, columns - part:] @ tail[:part]
    return keys, lead * width


def _minimal_rows(rows: np.ndarray) -> np.ndarray:
    """The canonical minimal generators among candidate exponent rows.

    One sort by packed key (`_sort_keys`): an argsort of one word, or a
    lexsort of the words when the key needs several.  Then each row with
    the key of the row before it goes.  A divisor has lower degree than its
    proper multiples, so each degree group is tested only against the rows
    already kept below it; a single degree needs no test at all.  Raises
    ValueError for an exponent past 2^31, minimal or not.
    """
    top = int(rows.max(initial=0))
    if top > MAX_EXPONENT:
        raise ValueError(f"exponent {top} exceeds 2^31")
    if len(rows) < 2:
        return rows
    keys, shift = _sort_keys(rows, top)
    order = keys[0].argsort() if len(keys) == 1 else np.lexsort(keys[::-1])
    keys = keys.take(order, axis=1)
    fresh = np.empty(len(rows), dtype=bool)
    fresh[0] = True
    np.not_equal(keys[0, 1:], keys[0, :-1], out=fresh[1:])
    if len(keys) > 1:
        fresh[1:] |= (keys[1:, 1:] != keys[1:, :-1]).any(axis=0)
    rows = rows[order[fresh]]
    if int(keys[0, 0]) >> shift == int(keys[0, -1]) >> shift:
        return rows
    degrees = keys[0, fresh] >> np.uint64(shift)
    cuts = (np.flatnonzero(degrees[1:] != degrees[:-1]) + 1).tolist()
    kept = rows[:cuts[0]]
    for lo, hi in zip(cuts, cuts[1:] + [len(rows)]):
        group = rows[lo:hi]
        kept = np.concatenate((kept, group[~_divisible(group, kept)]))
    return kept


def _narrowest(bound: int):
    """The smallest unsigned dtype holding values up to bound."""
    return np.uint8 if bound < 1 << 8 else np.uint16 if bound < 1 << 16 else np.uint32


def _candidates(a: np.ndarray, b: np.ndarray, combine) -> np.ndarray:
    """combine (np.add or np.maximum) of every row of a with every row of b.

    The largest candidate in a column is combine of the two column maxima,
    so the exponent limit is checked, and the dtype chosen, before the
    candidates are built.
    """
    count = len(a) * len(b)
    if count > MAX_CANDIDATES:
        raise CandidateCapError(
            f"ideal operation would make {count} candidate generators, "
            f"over the cap of {MAX_CANDIDATES}")
    if not count:
        return np.zeros((0, a.shape[1]), dtype=np.uint8)
    bound = int(combine(a.max(axis=0).astype(np.int64), b.max(axis=0)).max(initial=0))
    if bound > MAX_EXPONENT:
        raise ValueError(f"exponent {bound} exceeds 2^31")
    return combine(a[:, None, :], b[None, :, :],
                   dtype=_narrowest(bound)).reshape(count, a.shape[1])


def _pack(rows: np.ndarray) -> tuple[int, bytes]:
    """(width, bytes): every exponent in `width` bits, the bit length of the
    largest one, packed 64 // width to a 64-bit word, row after row."""
    width = max(int(rows.max(initial=0)).bit_length(), 1)
    shifts = _SHIFTS[width]
    flat = np.zeros(-(-rows.size // len(shifts)) * len(shifts), dtype=np.uint64)
    flat[:rows.size] = rows.ravel()
    words = (flat.reshape(-1, len(shifts)) << shifts).sum(axis=1, dtype=np.uint64)
    return width, words.tobytes()


class MonomialIdeal:
    """A monomial ideal in canonical form.

    The zero ideal has no generators; the unit ideal has the single
    generator 1.  Operators: ``*`` product, ``**`` power, ``+`` sum,
    ``&`` intersection.  A product or intersection with more than
    MAX_CANDIDATES candidate generators raises CandidateCapError.
    """

    __slots__ = ("ambient", "_count", "_width", "_data", "_gens")

    def __init__(self, gens: Iterable[Monomial] | np.ndarray, ambient: int | None = None):
        """Minimal generators of the given monomials, or of the rows of an
        unsigned integer array of exponent vectors (one row per candidate)."""
        if isinstance(gens, np.ndarray):
            rows = gens
            if ambient is None:
                ambient = rows.shape[-1]
            if rows.ndim != 2 or rows.shape[1] != ambient or rows.dtype.kind != "u":
                raise ValueError(f"candidate rows must be an unsigned (k, {ambient}) "
                                 f"array, not {rows.dtype} {rows.shape}")
        else:
            gens = tuple(gens)
            if ambient is None:
                if not gens:
                    raise ValueError("ambient required for the zero ideal")
                ambient = gens[0].ambient
            for g in gens:
                if g.ambient != ambient:
                    raise AmbientMismatchError(
                        f"generator {g} has ambient {g.ambient}, expected {ambient}")
            rows = np.array([g.exponents for g in gens],
                            dtype=np.uint32).reshape(len(gens), ambient)
        rows = _minimal_rows(rows)
        width, data = _pack(rows)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "_count", len(rows))
        object.__setattr__(self, "_width", width)
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "_gens", None)

    def __setattr__(self, name, value):
        raise AttributeError("MonomialIdeal is immutable")

    @classmethod
    def zero(cls, ambient: int) -> "MonomialIdeal":
        return cls((), ambient)

    @classmethod
    def unit(cls, ambient: int) -> "MonomialIdeal":
        return cls((one(ambient),), ambient)

    def matrix(self) -> np.ndarray:
        """The minimal generators as a read-only (len, ambient) unsigned
        exponent array, one row per generator in canonical order."""
        words = np.frombuffer(self._data, dtype=np.uint64)
        fields = (words[:, None] >> _SHIFTS[self._width]) & np.uint64((1 << self._width) - 1)
        rows = fields.ravel()[:self._count * self.ambient].astype(
            _narrowest((1 << self._width) - 1)).reshape(self._count, self.ambient)
        rows.flags.writeable = False
        return rows

    @property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators, sorted by (degree, exponent vector)."""
        if self._gens is None:
            object.__setattr__(self, "_gens", tuple(map(Monomial, self.matrix().tolist())))
        return self._gens

    def is_zero(self) -> bool:
        return not self._count

    def is_unit(self) -> bool:
        return self._count == 1 and not any(self._data)

    def contains(self, m: Monomial) -> bool:
        """Membership: some minimal generator divides m."""
        self._check(m)
        return bool((self.matrix() <= np.array(m.exponents)).all(axis=1).any())

    def _check(self, other: "MonomialIdeal | Monomial"):
        if self.ambient != other.ambient:
            raise AmbientMismatchError(
                f"ambient mismatch: {self.ambient} vs {other.ambient}")

    def __mul__(self, other):
        if isinstance(other, MonomialIdeal):
            factor = other.matrix()
        elif isinstance(other, Monomial):
            factor = np.array([other.exponents], dtype=np.uint32)
        else:
            return NotImplemented
        self._check(other)
        return MonomialIdeal(_candidates(self.matrix(), factor, np.add), self.ambient)

    __rmul__ = __mul__

    def __pow__(self, t: int) -> "MonomialIdeal":
        if t < 0:
            raise ValueError("negative ideal power")
        if t == 0:
            return MonomialIdeal.unit(self.ambient)
        if len(self) <= 1:
            return MonomialIdeal([g ** t for g in self.gens], self.ambient)
        # the last product's candidates reach t times the largest exponent,
        # past which it would refuse; refuse before the first product instead
        top = t * int(self.matrix().max())
        if top > MAX_EXPONENT:
            raise ValueError(f"exponent {top} exceeds 2^31")
        result = self
        for _ in range(t - 1):
            result = result * self
        return result

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal(np.concatenate((self.matrix(), other.matrix())), self.ambient)

    def __and__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Intersection via pairwise lcms of the generators."""
        self._check(other)
        rows = _candidates(self.matrix(), other.matrix(), np.maximum)
        return MonomialIdeal(rows, self.ambient)

    def embed(self, ambient: int) -> "MonomialIdeal":
        """Flat extension of the ideal into a larger ring."""
        if ambient < self.ambient:
            raise ValueError("cannot shrink ambient")
        rows = self.matrix()
        padding = np.zeros((len(rows), ambient - self.ambient), dtype=rows.dtype)
        return MonomialIdeal(np.hstack((rows, padding)), ambient)

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal) and self.ambient == other.ambient
                and self._count == other._count and self._width == other._width
                and self._data == other._data)

    def __hash__(self):
        return hash((self.ambient, self._count, self._width, self._data))

    def __len__(self):
        return self._count

    def __iter__(self):
        return iter(self.gens)

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.gens) + ")"

    def __repr__(self):
        return f"MonomialIdeal({str(self)}, ambient={self.ambient})"
