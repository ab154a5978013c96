"""Ideal families attached to the cycle graph.

Two path-ideal families recur throughout:

* the *long-path* family: products of n-1 consecutive variables around the
  n-cycle (each generator omits exactly one variable);
* the *short-path* family: products of n-2 consecutive variables, together
  with its *reduced* variant, which drops the generator starting at x2.
  The reduced ideal satisfies reduced(n) = (f1) + xn * reduced(n-1), the
  coupling both recursions run on.

The mixed family reduced^s * full^t and the corner family
reduced^s * (x1,xn)^t decompose along the xn-grading.  chain_runs names the
smaller family behind each piece; chain_pair, the graded components, their
partial tail sums and the index-pair sets the recursions run on are built
from it.
"""
from __future__ import annotations

from itertools import islice, repeat

from .monomials import Monomial, MonomialIdeal, variable


def path_generator(n: int, start: int, length: int) -> Monomial:
    """Cyclic product of `length` consecutive variables from x_start (1-based)."""
    if not 1 <= start <= n or not 1 <= length <= n:
        raise ValueError(f"bad path generator ({n=}, {start=}, {length=})")
    exps = [0] * n
    for k in range(length):
        exps[(start - 1 + k) % n] += 1
    return Monomial(exps)


def cycle_path_ideal(n: int, m: int) -> MonomialIdeal:
    """The m-path ideal of the n-cycle: all n cyclic products of m consecutive variables."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 2 <= m <= n:
        raise ValueError(f"path length m={m} outside 2..{n}")
    return MonomialIdeal([path_generator(n, i, m) for i in range(1, n + 1)], n)


def long_path_ideal(n: int) -> MonomialIdeal:
    """(n-1)-path ideal of the n-cycle; n=2 means (x1, x2)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n == 2:
        return MonomialIdeal([variable(1, 2), variable(2, 2)])
    return cycle_path_ideal(n, n - 1)


def short_path_ideal(n: int) -> MonomialIdeal:
    """(n-2)-path ideal of the n-cycle; n=2 means the whole ring, n=3 the variables."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n == 2:
        return MonomialIdeal.unit(2)
    return MonomialIdeal([path_generator(n, i, n - 2) for i in range(1, n + 1)], n)


def reduced_short_path_ideal(n: int) -> MonomialIdeal:
    """short_path_ideal(n) with the generator starting at x2 dropped; n=2 -> unit."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n == 2:
        return MonomialIdeal.unit(2)
    return MonomialIdeal(
        [path_generator(n, i, n - 2) for i in range(1, n + 1) if i != 2], n)


def corner_ideal(n: int) -> MonomialIdeal:
    """(x1, xn): the variables not supporting the dropped generator."""
    if n < 2:
        raise ValueError("need n >= 2")
    return MonomialIdeal([variable(1, n), variable(n, n)], n)


def mixed_power(n: int, s: int, t: int) -> MonomialIdeal:
    """reduced^s * full^t for the short-path pair in ambient n."""
    _check_st(n, s, t)
    return reduced_short_path_ideal(n) ** s * short_path_ideal(n) ** t


def corner_power(n: int, s: int, t: int) -> MonomialIdeal:
    """reduced^s * (x1,xn)^t in ambient n."""
    _check_st(n, s, t)
    return reduced_short_path_ideal(n) ** s * corner_ideal(n) ** t


def _check_st(n, s, t):
    if n < 2:
        raise ValueError("need n >= 2")
    if s < 0 or t < 0:
        raise ValueError("exponents must be nonnegative")


def chain_runs(s: int, t: int, family: str):
    """The index map of the mixed or corner chain: (a_run, b_run), two
    iterables whose zip yields the pair (a, b) of piece d for d = 0..s+t.

    Piece d is f1^max(s-d, 0) * x1^max(t-d, 0) (corner only) *
    reduced(n-1)^a * B^b, with B = (f1, f2) (mixed) or (f1) + x1 * reduced(n-1)
    (corner), so its Betti numbers are those of the other family's member
    (a, b) in ambient n-1.  The top piece, d = s + t, is a t = 0 member.
    Over d the pairs are runs, so each coordinate is a map of min or max over
    ranges: mixed (d, min(t, s+t-d)), corner (max(d-t, 0), min(d, s, t, s+t-d)).
    """
    ds = range(s + t + 1)
    if family == "mixed":
        return ds, map(min, repeat(t), reversed(ds))
    if family == "corner":
        return (map(max, range(-t, s + 1), repeat(0)),
                map(min, ds, repeat(min(s, t)), reversed(ds)))
    raise ValueError(f"unknown family {family!r}")


def chain_pair(s: int, t: int, d: int, family: str) -> tuple[int, int]:
    """(a, b) of piece d of the mixed or corner chain; see chain_runs."""
    runs = chain_runs(s, t, family)
    if not 0 <= d <= s + t:
        raise ValueError(f"chain index d={d} outside 0..{s + t}")
    return next(islice(zip(*runs), d, None))


def graded_component(n: int, s: int, t: int, d: int, family: str) -> MonomialIdeal:
    """d-th xn-graded component of the mixed ("mixed") or corner ("corner") family.

    The mixed family splits as sum over d of xn^d * component_d * reduced(n-1)^d;
    the corner family as sum over d of xn^d * component_d.
    """
    _check_st(n, s, t)
    if n < 3:
        raise ValueError("graded components need n >= 3")
    if not 0 <= d <= s + t:
        raise ValueError(f"component index d={d} outside 0..{s + t}")
    a, b = chain_pair(s, t, d, family)
    f1 = path_generator(n, 1, n - 2)
    if family == "mixed":
        return f1 ** max(s - d, 0) * MonomialIdeal([f1, path_generator(n, 2, n - 2)], n) ** b
    x1 = variable(1, n)
    reduced_below = reduced_short_path_ideal(n - 1).embed(n)
    scaled_full = MonomialIdeal([f1], n) + x1 * reduced_below
    return (f1 ** max(s - d, 0) * x1 ** max(t - d, 0)) * (reduced_below ** a * scaled_full ** b)


def chain_piece(n: int, s: int, t: int, d: int, family: str) -> MonomialIdeal:
    """Summand contributed at xn-degree d: component_d * reduced(n-1)^d for
    the mixed family, component_d alone for the corner family."""
    comp = graded_component(n, s, t, d, family)
    if family == "mixed":
        return comp * reduced_short_path_ideal(n - 1).embed(n) ** d
    return comp


def chain_steps(n: int, s: int, t: int,
                family: str) -> list[tuple[MonomialIdeal, MonomialIdeal, MonomialIdeal]]:
    """The steps of the xn-graded decomposition, built once from the top
    piece down: entry j is (tail(j), piece(j), xn * tail(j+1)) for
    j = 0..s+t-1, where tail(s+t) is the top piece and
    tail(j) = piece(j) + xn * tail(j+1).  Entry 0 holds the family itself.
    """
    xn = variable(n, n)
    tail = chain_piece(n, s, t, s + t, family)
    steps = []
    for j in reversed(range(s + t)):
        piece = chain_piece(n, s, t, j, family)
        rest = xn * tail
        tail = piece + rest
        steps.append((tail, piece, rest))
    return steps[::-1]


def chain_tail(n: int, s: int, t: int, j: int, family: str) -> MonomialIdeal:
    """Partial sum of the xn-graded decomposition from component j upward:
    the top piece at j = s+t, else the tail of chain_steps' entry j."""
    if not 0 <= j <= s + t:
        raise ValueError(f"chain index j={j} outside 0..{s + t}")
    if j == s + t:
        return chain_piece(n, s, t, j, family)
    return chain_steps(n, s, t, family)[j][0]


def mixed_chain_pairs(s: int, t: int) -> list[tuple[int, int]]:
    """chain_pair of every mixed-chain step: the corner families the steps
    reduce to (ambient drops by one).  Needs t >= 1; length is s + t."""
    if t < 1:
        raise ValueError("mixed chain pairs need t >= 1")
    return list(islice(zip(*chain_runs(s, t, "mixed")), s + t))


def corner_chain_pairs(s: int, t: int, strict: bool = False) -> list[tuple[int, int]]:
    """chain_pair of every corner-chain step: the mixed families the steps
    reduce to.  Needs t >= 1.

    The default enumerates the chain steps directly (length s + t).  With
    strict=True the closed-form multiset is used instead; the two agree for
    s >= 1 but strict gives one extra (0,0) at s = 0, which the corner family
    itself refutes (it has t+1 minimal generators, not t+2): verify's
    delta-edge suite, its one reader in the package, states that over-count.
    """
    if t < 1:
        raise ValueError("corner chain pairs need t >= 1")
    if strict:
        if s <= t:
            return ([(0, j) for j in range(s)] + [(0, s)] * (t - s + 1)
                    + [(j, s - j) for j in range(1, s)])
        return ([(0, j) for j in range(t + 1)]
                + [(j, t) for j in range(1, s - t + 1)]
                + [(s - t + j, t - j) for j in range(1, t)])
    return list(islice(zip(*chain_runs(s, t, "corner")), s + t))


def support_envelope(s: int, t: int) -> set[tuple[int, int]]:
    """All pairs the two-step composition of chain reductions can reach."""
    if s < 0 or t < 0:
        raise ValueError("need s, t >= 0")
    half = (s + t) // 2
    pairs = {(0, 0)}
    for v in range(1, min(half, t) + 1):
        for u in range(s + t - 2 * v + 1):
            pairs.add((u, v))
    return pairs
