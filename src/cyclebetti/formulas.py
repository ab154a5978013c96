"""Closed-form Betti numbers for powers of the cycle path-ideal families.

Everything here is exact integer arithmetic.  Binomials follow the counting
convention: binomial(a, b) = 0 whenever b < 0, a < b, or a < 0, so the sums
below silently vanish outside their natural ranges.

Each closed form is evaluated in one place.  long_power_seq is a cached
whole sequence; the mixed closed form is summed by short_path_window, for
any window of entries lo..hi, whose cached head 0..n is short_path_seq.
The per-entry functions read these.
"""
from __future__ import annotations

import math
from functools import cache
from operator import mul


def binomial(a: int, b: int) -> int:
    """binom(a, b) with the zero convention outside 0 <= b <= a."""
    if b < 0 or a < 0 or a < b:
        return 0
    return math.comb(a, b)


def strip_zeros(values) -> tuple[int, ...]:
    """A Betti sequence as a tuple with its trailing zeros removed."""
    values = list(values)
    while values and values[-1] == 0:
        values.pop()
    return tuple(values)


def seq_entry(seq, i: int) -> int:
    """Entry i of a stripped sequence: 0 for negative i or i past its end."""
    return seq[i] if 0 <= i < len(seq) else 0


@cache
def long_power_seq(n: int, t: int) -> tuple[int, ...]:
    """Betti sequence of long(n)^t, C(n-1, i) C(n+t-i-1, t-i), for
    i = 0..min(n-1, t), past which a factor vanishes.  Each entry there is
    positive; it is (1,) at n = 1 or t = 0, as reduced(2)^t and reduced^0 are."""
    return tuple(math.comb(n - 1, i) * math.comb(n + t - i - 1, t - i)
                 for i in range(min(n - 1, t) + 1))


def long_path_betti(n: int, t: int, i: int) -> int:
    """i-th total Betti number of the t-th power of the long-path ideal."""
    if n < 2 or t < 1:
        raise ValueError("need n >= 2 and t >= 1")
    return seq_entry(long_power_seq(n, t), i)


def reduced_power_betti(n: int, s: int, i: int) -> int:
    """i-th total Betti number of the s-th power of the reduced short-path ideal."""
    if n < 2 or s < 0:
        raise ValueError("need n >= 2 and s >= 0")
    return seq_entry(long_power_seq(n - 1, s), i)


def short_path_betti_parts(n: int, s: int, t: int, i: int) -> tuple[int, int, int]:
    """(plus, minus, const) pieces of the closed form for the mixed family,
    one entry at a time: the decomposition the demos print.  The values the
    routes read are summed by short_path_window.

    The minus piece splits on the parity of n, with k = floor(n/2).  Negative
    s, t or i are evaluated as written: the sums are empty or vanish through
    the binomial convention.

    Each j loop runs only over the terms that convention leaves nonzero.
    C(n, r) needs 0 <= r <= n, so j >= (i - n)/2 in plus and
    j >= (i - odd - n)/2 in minus, which leaves each loop at most n/2 + 1
    terms whatever i, s and t are.  A binomial(a, n-1) needs a >= n-1, so
    plus needs j >= i - s - max(t, 0) and minus needs j <= s + max(t, 0) + k - n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    k = n // 2
    reach = s + max(t, 0)
    plus = sum(
        binomial(n, i - 2 * j)
        * (binomial(n + s + t - 1 - i + j, n - 1) - binomial(n + s - 1 - i + j, n - 1))
        for j in range(max(0, i - reach, (i - n + 1) // 2), i // 2 + 1))
    odd = n % 2
    minus = sum(
        binomial(n, i - odd - 2 * j)
        * (binomial(s + t + k - 1 - j, n - 1) - binomial(s + k - 1 - j, n - 1))
        for j in range(max(0, (i - odd - n + 1) // 2),
                       min((i - odd) // 2, reach + k - n) + 1))
    const = binomial(n - 2, i) * binomial(n + s - i - 2, n - 2)
    return plus, minus, const


def _top(n: int, s: int, t: int) -> int:
    """Past this i every term of the mixed closed form vanishes.

    With reach = s + max(t, 0), k = n // 2 and odd = n % 2, the binomial
    convention leaves a plus term only for i <= 2 reach, a minus term only
    for i <= n + odd + 2(reach + k - n), which is 2 reach again since
    n = 2k + odd, and const only for i <= min(n-2, s).
    """
    return max(2 * (s + max(t, 0)), min(n - 2, s))


def short_path_window(n: int, s: int, t: int, lo: int, hi: int) -> list[int]:
    """Entries lo..hi (0 <= lo) of the mixed closed form: plus - minus + const
    of short_path_betti_parts at each i, as exact integers.

    The sums are reindexed so that each term is two list reads:

        plus_i  = sum over m in [ceil(i/2), min(i, reach)] of C(n, 2m-i) D(m),
                  D(m) = C(n+s+t-1-m, n-1) - C(n+s-1-m, n-1)   (m = i - j);
        minus_i = sum over j in [max(0, ceil((i-odd-n)/2)),
                                 min((i-odd)//2, reach+k-n)] of
                  C(n, i-odd-2j) E(j),
                  E(j) = C(s+t+k-1-j, n-1) - C(s+k-1-j, n-1).

    Every entry past _top is 0 and costs nothing.  Below it, C(n, r) is built
    for r <= min(n, hi) only, and D and E only over the m and j the window
    reads, so a window costs O((hi-lo+1) n) whatever s and t are: each sum
    has at most n/2 + 1 terms, since C(n, r) vanishes for r > n.  Negative
    s, t are evaluated as written, as in short_path_betti_parts.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if lo < 0:
        raise ValueError("need lo >= 0")
    values = [0] * max(hi - lo + 1, 0)
    top = min(hi, _top(n, s, t))
    if top < lo:
        return values
    k, odd = n // 2, n % 2
    reach = s + max(t, 0)
    choose = [math.comb(n, r) for r in range(min(n, top) + 1)]
    d0, e0 = (lo + 1) // 2, max(0, (lo - odd - n + 1) // 2)
    d = [binomial(n + s + t - 1 - m, n - 1) - binomial(n + s - 1 - m, n - 1)
         for m in range(d0, min(top, reach, (top + n) // 2) + 1)]
    e = [binomial(s + t + k - 1 - j, n - 1) - binomial(s + k - 1 - j, n - 1)
         for j in range(e0, min((top - odd) // 2, reach + k - n) + 1)]
    for i in range(lo, min(top, n - 2, s) + 1):  # const
        values[i - lo] = binomial(n - 2, i) * binomial(n + s - i - 2, n - 2)
    for i in range(lo, top + 1):
        # Each map pairs a run of D or E with the C(n, r) that step r by 2
        # from its first term, and the shorter run ends it: the d slice at
        # m = min(i, reach), e at j = reach + k - n, the C(n, r) at
        # r = min(n, top) for plus and at r = 0 for minus.
        values[i - lo] += sum(map(mul, choose[i % 2::2], d[(i + 1) // 2 - d0:i - d0 + 1]))
        if e and i >= odd:  # else the minus sum is empty
            first = max(0, (i - odd - n + 1) // 2)  # the first j with r <= n
            values[i - lo] -= sum(map(mul, choose[i - odd - 2 * first::-2], e[first - e0:]))
    return values


@cache
def short_path_seq(n: int, s: int, t: int) -> tuple[int, ...]:
    """The window 0..min(_top, n) of the mixed closed form, trailing zeros
    stripped, so every index in 0..n past the tuple reads 0.

    The range stops at n, past the projective dimension of every valid
    member, so the cost is O(n^2) per triple whatever s and t are; it stops
    earlier at _top when every later term vanishes.
    """
    return strip_zeros(short_path_window(n, s, t, 0, min(_top(n, s, t), n)))


def short_path_betti(n: int, s: int, t: int, i: int) -> int:
    """i-th total Betti number of reduced^s * full^t, as a closed form.

    Entry i of short_path_seq for i <= n, 0 for negative i or i past _top,
    and the one-entry window at i in between, so every i gets the closed
    form as written.  Returned as a signed integer on purpose: the value is
    a Betti number on valid parameters, so a negative result signals a bug
    and must surface.
    """
    if i <= n:
        return seq_entry(short_path_seq(n, s, t), i)
    if n < 2:
        raise ValueError("need n >= 2")
    if i > _top(n, s, t):
        return 0
    return _tail_entry(n, s, t, i)


@cache
def _tail_entry(n: int, s: int, t: int, i: int) -> int:
    """The one-entry window at i, cached: the residual checks of the
    recurrences read the same entries past n many times over."""
    return short_path_window(n, s, t, i, i)[0]


def long_path_pd_reg(n: int, t: int) -> tuple[int, int]:
    """(projective dimension, regularity) of the t-th long-path power."""
    if n < 2 or t < 1:
        raise ValueError("need n >= 2 and t >= 1")
    return min(n - 1, t), (n - 1) * t


def short_path_pd_reg(n: int, s: int, t: int) -> tuple[int, int]:
    """(pd, reg) of reduced^s * full^t; pd caps at n-1 (n odd) or n-2 (n even)."""
    if n < 2 or t < 1 or s < 0:
        raise ValueError("need n >= 2, s >= 0, t >= 1")
    pd = min(n - 1, 2 * (s + t)) if n % 2 else min(n - 2, 2 * (s + t))
    return pd, (s + t) * (n - 2)


def reduced_power_pd_reg(n: int, s: int) -> tuple[int, int]:
    """(pd, reg) of the s-th reduced short-path power."""
    if n < 2 or s < 0:
        raise ValueError("need n >= 2 and s >= 0")
    return min(n - 2, s), (n - 2) * s


# ---------------------------------------------------------------------------
# Generating-function route for the long-path family.
#
# The Betti numbers of the long-path powers are the coefficients of
# x^(n-2) y^t z^i in (1 + yz) / ((1 - y) (1 - x - y - xyz)).  In
# 1/(1 - x - y - xyz) = sum_k (x + y + xyz)^k the monomial x^a y^b z^i comes
# only from x^(a-i) y^(b-i) (xyz)^i, so its coefficient is a multinomial.
# The factor 1/(1 - y) sums that over the y-degrees up to b, and 1 + yz adds
# the same sum shifted by yz.
# ---------------------------------------------------------------------------

def _core_coefficient(a: int, b: int, i: int) -> int:
    """Coefficient of x^a y^b z^i in 1/(1 - x - y - xyz):
    (a+b-i)! / ((a-i)! (b-i)! i!)."""
    if i < 0 or a < i or b < i:
        return 0
    return math.comb(a + b - i, i) * math.comb(a + b - 2 * i, a - i)


def series_betti(n: int, t: int, i: int) -> int:
    """Long-path Betti number read off the generating-function expansion."""
    if n < 2 or t < 0 or i < 0:
        raise ValueError("need n >= 2 and t, i >= 0")
    return sum(_core_coefficient(n - 2, b, i) + _core_coefficient(n - 2, b - 1, i - 1)
               for b in range(t + 1))
