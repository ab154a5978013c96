"""Recursive Betti-number routes and their internal consistency checks.

Every term of the splitting recursions is beta_i or beta_{i-1} of a smaller
family, so on the whole sequence beta_0..beta_pd a recursion step is a sum
of sequences, some multiplied by (1 + z).  Callers get whole Betti
sequences: tuples of ints with trailing zeros stripped, () for the zero
sequence, cached per (family, n, s, t).

Inside, a sequence is one packed integer, sum of beta_i * 2^(W*i), in
fields of W bits (Kronecker substitution), so adding sequences is one
integer addition and multiplying by (1 + z) is ``p + (p << W)``.  The top
W // 8 bits of every field are guard bits: each stored value keeps them
clear.  A step adds at most 1 + 2P stored values (P chain pairs, or three
terms of a long-path row); while 1 + 2P < 2^(W // 8) every field of the
sum stays below 2^W, so no carry crosses a field and the packed sum is the
entry-wise sum exactly.  One AND with the guard mask re-checks the
invariant after each step.  Both recursions run bottom-up over the cycle
size from W = 64, and both widen by one carry rule: when a step at size k
fails the check, has too many terms for the guards, or packs a leaf entry
that does not fit, the values of size k - 1 are moved exactly into fields
of 2W bits (_repack) and evaluation goes on from size k at 2W.  No size
below k is evaluated again, because a step at size k reads size k - 1
only.  Nothing is subtracted, so a negative entry can enter only through
a leaf, and packing refuses it there.

Two recursions live here.  The long-path recursion computes the sequence of
long(n-1)^s * long(n)^t from the splitting off the first generator; it runs
bottom-up over n in a plain loop.  The mixed/corner recursion is mutual:
each mixed-chain step contributes corner families one cycle size down, and
each corner-chain step mixed families one size down, until t = 0, where
reduced(n)^s is formulas.long_power_seq(n-1, s).  A step's members are read
off the runs of families.chain_runs.  Its memo holds the packed sequence of
every member evaluated so far, one memo per field width, so a member is
evaluated once per width however many requests reach it.  A request first
lists, size by size from its own down, only the members that width's memo
lacks: the descent stops at each member the memo holds.  It then evaluates
them from the smallest size up, so neither recursion's Python stack grows
with n.  On an overflow at size k the request carries every member the
memo holds at size k - 1 into the 2W memo and lists again at 2W; that
listing stops at size k - 1, so only sizes from k up are evaluated again.

long_path_rec, mixed_rec and corner_rec are index lookups into the cached
sequences.  The recursions are pure; the caches only affect speed, never
values.
"""
from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from functools import cache
from itertools import repeat

from .families import chain_runs, corner_chain_pairs, mixed_chain_pairs
from .formulas import long_power_seq, seq_entry

Seq = tuple[int, ...]

_FIRST_WIDTH = 64  # bits per field; doubled at each overflow


class _FieldOverflow(Exception):
    """A field reached its guard bits: go on at twice the width."""


def _pack(seq: Seq, width: int, which: str, n: int, s: int, t: int) -> int:
    """A leaf sequence as one packed integer, field i holding entry i."""
    limit = 1 << (width - width // 8)
    packed = 0
    for i, value in enumerate(seq):
        if value < 0:
            raise ArithmeticError(
                f"negative value in {which} recursion at {(n, s, t, i)}: {value}")
        if value >= limit:
            raise _FieldOverflow
        packed |= value << (width * i)
    return packed


@cache
def _guards(width: int, fields: int) -> int:
    """The guard bits, the top width // 8 of each field, of fields fields."""
    guard = ((1 << width // 8) - 1) << (width - width // 8)
    return guard * (((1 << width * fields) - 1) // ((1 << width) - 1))


def _guarded(packed: int, width: int) -> int:
    """packed, once every one of its fields is checked clear of its guards.
    The mask covers a power of two of fields, at least as many as packed
    has, so one mask per width and power of two serves every length."""
    if packed & _guards(width, 1 << (packed.bit_length() // width).bit_length()):
        raise _FieldOverflow
    return packed


def _fields(packed: int, width: int) -> list[bytes]:
    """The fields of a packed integer as little-endian bytes, up to its top
    nonzero one."""
    size = width // 8
    raw = packed.to_bytes(-(-packed.bit_length() // width) * size, "little")
    return [raw[i:i + size] for i in range(0, len(raw), size)]


def _unpack(packed: int, width: int) -> Seq:
    """The stripped sequence of a packed integer: its top field is nonzero."""
    return tuple(int.from_bytes(field, "little") for field in _fields(packed, width))


def _repack(packed: int, width: int) -> int:
    """The same sequence as packed, moved from width-bit fields to fields of
    twice the width: each field's bytes followed by as many zero bytes.  A
    field that kept its guards clear at width keeps them clear at 2 * width."""
    return int.from_bytes(bytes(width // 8).join(_fields(packed, width)), "little")


def clear_caches() -> None:
    """Drop every cache of this module and of formulas, the module of the
    t = 0 leaf long_power_seq (results must be unaffected)."""
    for module in (__name__, long_power_seq.__module__):
        for value in list(vars(sys.modules[module]).values()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()


# ---------------------------------------------------------------------------
# Long-path recursion.
# ---------------------------------------------------------------------------

def long_path_seq(n: int, s: int, t: int) -> Seq:
    """Betti sequence of long(n-1)^s * long(n)^t by the splitting recursion.

    Splitting off the first generator gives L(n, s, t) = (1+z) L(n, s, 0) +
    L(n, s+1, t-1) with L(n, s, 0) = L(n-1, 0, s); at n = 2 the ideal is
    (x1,x2)^t, with sequence (t+1, t).  Negative s or t give ().
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if s < 0 or t < 0:
        return ()
    return _long_path_seq(n, s, t)


def _long_path_row(below: list[int], s: int, t: int, width: int) -> list[int]:
    """L(k, s, 0..t), packed, from below = L(k-1, 0, 0..s+t).

    Unrolling the recursion over t and differencing in t gives
    L(k, s, t) = L(k, s, t-1) + z L(k-1, 0, s+t-1) + L(k-1, 0, s+t), so a
    row is one running sum that starts at L(k, s, 0) = L(k-1, 0, s).
    """
    row = [below[s]]
    for u in range(1, t + 1):
        row.append(_guarded(row[-1] + (below[s + u - 1] << width) + below[s + u], width))
    return row


@cache
def _long_path_seq(n: int, s: int, t: int) -> Seq:
    width, row, size = _FIRST_WIDTH, [], 2
    while size <= n:
        try:
            if size == 2:  # L(2, 0, u) = (u+1, u), whatever s is
                row = [_pack((u + 1, u), width, "long-path", 2, 0, u) for u in range(s + t + 1)]
            else:  # L(size, 0, 0..s+t) below n, L(n, s, 0..t) at n
                row = _long_path_row(row, *((s, t) if size == n else (0, s + t)), width)
            size += 1
        except _FieldOverflow:  # carry the row of size - 1 to 2W and retry this size
            row = [_repack(packed, width) for packed in row]
            width *= 2
    return _unpack(row[t], width)


def long_path_rec(n: int, s: int, t: int, i: int) -> int:
    """Betti number beta_i of long(n-1)^s * long(n)^t; see long_path_seq.

    Negative s, t or i give 0.
    """
    return seq_entry(long_path_seq(n, s, t), i)


# ---------------------------------------------------------------------------
# Mutual mixed/corner recursion.
# ---------------------------------------------------------------------------

@cache
def _member(family: str, s: int, t: int) -> tuple[str, int, int]:
    """One shared (family, s, t) tuple, however many chain steps name it, so
    the pair lists _chain_terms caches hold one tuple per member, not one
    per pair (about 440,000 of them in mixed(240, 60, 60))."""
    return family, s, t


@cache
def _chain_terms(which: str, s: int, t: int):
    """Members one size down that a chain step at t >= 1 sums.

    Returns (head, pairs): the step's sequence is head + (1+z) * sum(pairs),
    each member given as (family, s, t) and interned, read off the chain's
    runs in one map.  The head, the top piece's t = 0 member, is named
    "mixed" from both families so they share cache entries.
    """
    other = "corner" if which == "mixed" else "mixed"
    *pairs, (_, a, b) = map(_member, repeat(other), *chain_runs(s, t, which))
    return _member("mixed", a, b), tuple(pairs)


@cache
def _chain_memo(width: int) -> defaultdict[int, dict]:
    """The mutual recursion's memo at one field width: cycle size n ->
    {(family, s, t): packed sequence}.  A member enters it when evaluated at
    this width, or repacked from the memo of half the width when a request
    overflowed there one size up.  A cached factory, so clear_caches drops
    every width's memo with the other caches."""
    return defaultdict(dict)


def _chain_step(below: dict, n: int, member: tuple[str, int, int], width: int) -> int:
    """One step of the mutual recursion at cycle size n, packed in fields of
    width bits.  below is the memo of size n - 1, where _chain_seq put every
    member this step sums before calling it."""
    which, s, t = member
    if s < 0 or t < 0:
        return 0
    if n == 2:  # mixed: the unit ideal; corner: (x1,x2)^t
        return _pack((1,) if which == "mixed" else (t + 1, t), width, which, n, s, t)
    if t == 0:  # reduced(n)^s: the long-path closed form one size down
        return _pack(long_power_seq(n - 1, s), width, which, n, s, t)
    head, pairs = _chain_terms(which, s, t)
    if 2 * len(pairs) + 1 >= 1 << width // 8:  # the sum could carry past the guards
        raise _FieldOverflow
    acc = sum(map(below.__getitem__, pairs))
    return _guarded(below[head] + acc + (acc << width), width)


def _missing(which: str, n: int, s: int, t: int, memo: defaultdict) -> list[set]:
    """The members that (which, n, s, t) needs and memo lacks, one set of
    (family, s, t) per size from n down.  Only a missing member's summands
    are looked up, so the descent stops at every member memo holds."""
    levels = []
    members = {_member(which, s, t)}
    for size in range(n, 1, -1):
        members = members.difference(memo[size])
        if not members:
            break
        levels.append(members)
        below = set()
        if size > 2:
            for w, a, b in members:
                if a >= 0 and b > 0:
                    head, pairs = _chain_terms(w, a, b)
                    below.add(head)
                    below.update(pairs)
        members = below
    return levels


@cache
def _chain_seq(which: str, n: int, s: int, t: int) -> Seq:
    width = _FIRST_WIDTH
    while True:
        memo = _chain_memo(width)
        levels = _missing(which, n, s, t, memo)
        try:
            for size, members in zip(range(n - len(levels) + 1, n + 1), reversed(levels)):
                here, below = memo[size], memo[size - 1]
                for member in members:
                    here[member] = _chain_step(below, size, member, width)
        except _FieldOverflow:  # carry the level of size - 1 to 2W, list again
            wider = _chain_memo(2 * width)[size - 1]
            wider.update({member: _repack(packed, width)
                          for member, packed in below.items() if member not in wider})
            width *= 2
        else:
            return _unpack(memo[n][which, s, t], width)


def mixed_seq(n: int, s: int, t: int) -> Seq:
    """Betti sequence of reduced^s * full^t via the mutual chain recursion.

    Negative s or t give the zero sequence ().
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return _chain_seq("mixed", n, s, t)


def corner_seq(n: int, s: int, t: int) -> Seq:
    """Betti sequence of reduced^s * (x1,xn)^t via the mutual chain recursion.

    Negative s or t give the zero sequence ().
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return _chain_seq("corner", n, s, t)


def mixed_rec(n: int, s: int, t: int, i: int) -> int:
    """Betti number beta_i of reduced^s * full^t; see mixed_seq."""
    return seq_entry(mixed_seq(n, s, t), i)


def corner_rec(n: int, s: int, t: int, i: int) -> int:
    """Betti number beta_i of reduced^s * (x1,xn)^t; see corner_seq."""
    return seq_entry(corner_seq(n, s, t), i)


def composed_support(s: int, t: int) -> Counter:
    """Multiplicities of the pairs reached by composing the two chain reductions.

    One corner-chain expansion per mixed-chain pair; the result is supported
    inside support_envelope(s, t).
    """
    if s < 0 or t < 1:
        raise ValueError("need s >= 0 and t >= 1")
    out: Counter = Counter()
    for a, b in mixed_chain_pairs(s, t):
        out.update(corner_chain_pairs(a, b))
    return out


@cache
def short_path_pd_rec(n: int, s: int, t: int) -> int:
    """Projective dimension of reduced^s * full^t by the support recursion.

    Bases: the n = 2 family is the whole ring (pd 0); at n = 3 every power
    with t >= 1 has pd 2.  Above that, pd is the larger of min(n-3, s+t)
    and 2 + the worst pd among the composed-support families two sizes down.
    Cached per (n, s, t), so each member expands its composed support once.
    """
    if n < 2 or s < 0 or t < 1:
        raise ValueError("need n >= 2, s >= 0, t >= 1")
    if n == 2:
        return 0
    if n == 3:
        return 2
    deepest = 0
    for u, v in composed_support(s, t):
        if v >= 1:
            deepest = max(deepest, short_path_pd_rec(n - 2, u, v))
    return max(min(n - 3, s + t), deepest + 2)


# ---------------------------------------------------------------------------
# Residuals of the self-recurrences.  Each returns (left side) - (right side)
# of the corresponding recurrence; the contract is 0.  f is the mixed-family
# entry function f(n, s, t, i) checked: mixed_rec or formulas.short_path_betti.
# ---------------------------------------------------------------------------

def _lift(f, power: int):
    """Entry i of (1+z)^power times the sequence of f, one entry at a time.

    Both routes answer an entry up to n by a lookup into their cached
    sequence, and the closed route one past n by a cached one-entry window
    of at most about n terms, so an entry of the lift is power+1 calls and
    no lifted sequence is built.
    """
    weights = [math.comb(power, k) for k in range(power + 1)]

    def lifted(n, s, t, i):
        return sum(w * f(n, s, t, i - k) for k, w in enumerate(weights))
    return lifted


def shift_residual(f, n: int, s: int, i: int) -> int:
    """Residual of the t = 1 recurrence stepping s to s+1 (hypotheses n >= 4, s >= 0)."""
    if n < 4 or s < 0:
        raise ValueError("hypotheses need n >= 4 and s >= 0")
    tilde, dbl = _lift(f, 1), _lift(f, 2)
    lhs = f(n, s + 1, 1, i)
    rhs = (f(n, s, 1, i)
           + f(n - 1, s + 2, 0, i) - f(n - 1, s + 1, 0, i)
           + tilde(n - 2, s + 1, 0, i)
           + sum(dbl(n - 2, j, 1, i) for j in range(s + 1))
           + dbl(n - 2, 0, 0, i))
    return lhs - rhs


def exchange_residual(f, n: int, s: int, t: int, i: int) -> int:
    """Residual of the recurrence exchanging (s, t) with (s+1, t-1) (needs t >= 2)."""
    if n < 4 or s < 0 or t < 2:
        raise ValueError("hypotheses need n >= 4, s >= 0 and t >= 2")
    dbl = _lift(f, 2)
    lhs = f(n, s, t, i) - f(n, s + 1, t - 1, i)
    if s <= t:
        rhs = sum(dbl(n - 2, 0, j, i) for j in range(s + 1))
    else:
        rhs = (sum(dbl(n - 2, 0, j, i) for j in range(t))
               + (s - t + 1) * dbl(n - 2, 0, t, i)
               + sum((s - t + 1 - ell) * (dbl(n - 2, ell, t, i) - dbl(n - 2, ell, t - 1, i))
                     for ell in range(1, s - t + 1)))
    return lhs - rhs
