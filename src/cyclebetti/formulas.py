"""Closed-form Betti numbers for powers of the cycle path-ideal families.

Everything here is exact integer arithmetic.  Binomials follow the counting
convention: binomial(a, b) = 0 whenever b < 0, a < b, or a < 0, so the sums
below silently vanish outside their natural ranges.
"""
from __future__ import annotations

import math
from functools import lru_cache


def binomial(a: int, b: int) -> int:
    """binom(a, b) with the zero convention outside 0 <= b <= a."""
    if b < 0 or a < 0 or a < b:
        return 0
    return math.comb(a, b)


def long_path_betti(n: int, t: int, i: int) -> int:
    """i-th total Betti number of the t-th power of the long-path ideal."""
    if n < 2 or t < 1:
        raise ValueError("need n >= 2 and t >= 1")
    return binomial(n - 1, i) * binomial(n + t - i - 1, t - i)


def reduced_power_betti(n: int, s: int, i: int) -> int:
    """i-th total Betti number of the s-th power of the reduced short-path ideal."""
    if n < 2 or s < 0:
        raise ValueError("need n >= 2 and s >= 0")
    if s == 0:
        return 1 if i == 0 else 0
    return binomial(n - 2, i) * binomial(n + s - i - 2, s - i)


def short_path_betti_parts(n: int, s: int, t: int, i: int) -> tuple[int, int, int]:
    """(plus, minus, const) pieces of the closed form for the mixed family.

    The minus piece splits on the parity of n, with k = floor(n/2).  Negative
    s, t or i are evaluated as written: the sums are empty or vanish through
    the binomial convention.

    Each j loop runs only over the terms that convention leaves nonzero: a
    binomial(a, n-1) needs a >= n-1, so plus needs j >= i - s - max(t, 0)
    and minus needs j <= s + max(t, 0) + k - n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    k = n // 2
    reach = s + max(t, 0)
    plus = sum(
        binomial(n, i - 2 * j)
        * (binomial(n + s + t - 1 - i + j, n - 1) - binomial(n + s - 1 - i + j, n - 1))
        for j in range(max(0, i - reach), i // 2 + 1))
    odd = n % 2
    minus = sum(
        binomial(n, i - odd - 2 * j)
        * (binomial(s + t + k - 1 - j, n - 1) - binomial(s + k - 1 - j, n - 1))
        for j in range(min((i - odd) // 2, reach + k - n) + 1))
    const = binomial(n - 2, i) * binomial(n + s - i - 2, n - 2)
    return plus, minus, const


def short_path_betti(n: int, s: int, t: int, i: int) -> int:
    """i-th total Betti number of reduced^s * full^t, as a closed form.

    Returned as a signed integer on purpose: the value is a Betti number on
    valid parameters, so a negative result signals a bug and must surface.
    """
    plus, minus, const = short_path_betti_parts(n, s, t, i)
    return plus - minus + const


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
# x^(n-2) y^t z^i in (1 + yz) / ((1 - y) (1 - x - y - xyz)).  The expansion
# is done by iterated multiplication of dense truncated polynomials; the
# orders are tiny, so clarity beats sparsity.
# ---------------------------------------------------------------------------

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


def series_betti(n: int, t: int, i: int) -> int:
    """Long-path Betti number read off the generating-function expansion."""
    if n < 2 or t < 0 or i < 0:
        raise ValueError("need n >= 2 and t, i >= 0")
    return _series_table(n - 2, t).get((n - 2, t, i), 0)
