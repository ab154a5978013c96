import functools
import inspect
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclebetti import formulas, recursion
from cyclebetti.families import (chain_pair, chain_runs, corner_chain_pairs,
                                 corner_power, mixed_chain_pairs, mixed_power,
                                 support_envelope)
from cyclebetti.formulas import (long_path_betti, reduced_power_betti,
                                 reduced_power_pd_reg, short_path_betti,
                                 short_path_pd_reg, short_path_seq, strip_zeros)
from cyclebetti.oracle import graded_betti
from cyclebetti.recursion import (clear_caches, composed_support, corner_rec,
                                  corner_seq, exchange_residual, long_path_rec,
                                  long_path_seq, mixed_rec, mixed_seq,
                                  shift_residual, short_path_pd_rec)


# ---------------------------------------------------------------------------
# Reference: the per-entry recursion as it was before sequences, one memo
# entry per (n, s, t, i).  Only the names carry a ref_ prefix.
# ---------------------------------------------------------------------------

_long_memo: dict[tuple[int, int, int, int], int] = {}
_bc_memo: dict[tuple, int] = {}


def ref_long_path_rec(n: int, s: int, t: int, i: int) -> int:
    if n < 2:
        raise ValueError("need n >= 2")
    if s < 0 or t < 0 or i < 0:
        return 0
    key = (n, s, t, i)
    cached = _long_memo.get(key)
    if cached is not None:
        return cached
    if n == 2:
        val = t + 1 if i == 0 else (t if i == 1 else 0)
    elif t == 0:
        val = (1 if i == 0 else 0) if s == 0 else ref_long_path_rec(n - 1, 0, s, i)
    else:
        val = (ref_long_path_rec(n, s, 0, i)
               + ref_long_path_rec(n, s + 1, t - 1, i)
               + ref_long_path_rec(n, s, 0, i - 1))
    _long_memo[key] = val
    return val


def ref_bc(which: str, n: int, s: int, t: int, i: int) -> int:
    if s < 0 or t < 0 or i < 0:
        return 0
    key = (which, n, s, t, i)
    cached = _bc_memo.get(key)
    if cached is not None:
        return cached
    if n == 2:
        if which == "mixed":
            val = 1 if i == 0 else 0
        else:  # (x1,x2)^t regardless of s
            val = t + 1 if i == 0 else (t if i == 1 else 0)
    elif t == 0:
        val = reduced_power_betti(n, s, i)
    elif which == "mixed":
        val = ref_bc("mixed", n - 1, s + t, 0, i)
        for a, b in mixed_chain_pairs(s, t):
            val += ref_bc("corner", n - 1, a, b, i) + ref_bc("corner", n - 1, a, b, i - 1)
    else:
        val = ref_bc("mixed", n - 1, s, 0, i)
        for a, b in corner_chain_pairs(s, t):
            val += ref_bc("mixed", n - 1, a, b, i) + ref_bc("mixed", n - 1, a, b, i - 1)
    if val < 0:
        raise ArithmeticError(
            f"negative value in {which} recursion at {(n, s, t, i)}: {val}")
    _bc_memo[key] = val
    return val


def ref_mixed_rec(n: int, s: int, t: int, i: int) -> int:
    if n < 2:
        raise ValueError("need n >= 2")
    return ref_bc("mixed", n, s, t, i)


def ref_corner_rec(n: int, s: int, t: int, i: int) -> int:
    if n < 2:
        raise ValueError("need n >= 2")
    return ref_bc("corner", n, s, t, i)


REFERENCE = {
    "long-power": (ref_long_path_rec, long_path_rec),
    "mixed": (ref_mixed_rec, mixed_rec),
    "corner": (ref_corner_rec, corner_rec),
}


# ---------------------------------------------------------------------------
# Reference: the sequence recursion on tuples of ints, as it was before the
# sequences were packed into integers.  A step adds whole tuples entry by
# entry; only the names carry a ref_ prefix, and each member recurses
# directly, which is deep enough for n <= 40.
# ---------------------------------------------------------------------------

def ref_add(*seqs):
    out = [0] * max(map(len, seqs), default=0)
    for seq in seqs:
        for i, value in enumerate(seq):
            out[i] += value
    return strip_zeros(out)


def ref_one_plus_z(seq):
    """(1 + z) * seq: entry i becomes seq[i] + seq[i-1]."""
    if not seq:
        return ()
    return tuple(a + b for a, b in zip(seq + (0,), (0,) + seq))


def ref_long_path_row(below, s, t):
    """L(k, s, 0..t) from below = L(k-1, 0, 0..s+t)."""
    row = [below[s]]
    for u in range(1, t + 1):
        row.append(ref_add(row[-1], (0,) + below[s + u - 1], below[s + u]))
    return row


@functools.cache
def ref_long_path_seq(n, s, t):
    if s < 0 or t < 0:
        return ()
    if n == 2:
        return strip_zeros((t + 1, t))
    row = [strip_zeros((u + 1, u)) for u in range(s + t + 1)]  # L(2, 0, u)
    for _ in range(3, n):
        row = ref_long_path_row(row, 0, s + t)
    return ref_long_path_row(row, s, t)[t]


def ref_chain_terms(which, s, t):
    """The head and the pair members, as (family, s, t), of a step at t >= 1."""
    if which == "mixed":
        return ("mixed", s + t, 0), [("corner", a, b) for a, b in mixed_chain_pairs(s, t)]
    return ("mixed", s, 0), [("mixed", a, b) for a, b in corner_chain_pairs(s, t)]


@functools.cache
def ref_chain_seq(which, n, s, t):
    if s < 0 or t < 0:
        return ()
    if n == 2:
        return (1,) if which == "mixed" else strip_zeros((t + 1, t))
    if t == 0:
        return strip_zeros(reduced_power_betti(n, s, i)
                           for i in range(reduced_power_pd_reg(n, s)[0] + 1))
    head, pairs = ref_chain_terms(which, s, t)
    return ref_add(ref_chain_seq(head[0], n - 1, *head[1:]),
                   ref_one_plus_z(ref_add(*(ref_chain_seq(w, n - 1, a, b)
                                            for w, a, b in pairs))))


def ref_chain_members(which, n, s, t):
    """Every (n, family, s, t) the chain recursion of one member reaches,
    the member itself included."""
    seen, todo = set(), [(n, which, s, t)]
    while todo:
        member = todo.pop()
        if member not in seen:
            seen.add(member)
            size, w, a, b = member
            if size > 2 and a >= 0 and b > 0:
                head, pairs = ref_chain_terms(w, a, b)
                todo.extend((size - 1, *m) for m in (head, *pairs))
    return seen


class TestLongPathRec:
    def test_two_variable_base(self):
        assert long_path_rec(2, 0, 3, 0) == 4
        assert long_path_rec(2, 0, 3, 1) == 3
        assert long_path_rec(2, 0, 3, 2) == 0

    def test_triangle_syzygies(self):
        assert long_path_rec(3, 0, 1, 1) == 2

    def test_negative_arguments_vanish(self):
        assert long_path_rec(4, -1, 2, 0) == 0
        assert long_path_rec(4, 0, 2, -1) == 0

    def test_matches_closed_form(self):
        for n in range(2, 11):
            for t in range(1, 9):
                for i in range(n + 2):
                    assert long_path_rec(n, 0, t, i) == \
                        long_path_betti(n, t, i), (n, t, i)

    def test_mixed_product_against_oracle(self):
        # long(n-1)^s * long(n)^t, directly
        from cyclebetti.families import long_path_ideal
        for n in (3, 4):
            for s in (1, 2):
                for t in (1, 2):
                    I = long_path_ideal(n - 1).embed(n) ** s * long_path_ideal(n) ** t
                    totals = graded_betti(I).totals()
                    want = [long_path_rec(n, s, t, i) for i in range(len(totals))]
                    assert totals == want, (n, s, t)


class TestMixedCornerRec:
    def test_small_value(self):
        assert mixed_rec(3, 1, 2, 0) == 9

    def test_corner_single(self):
        for n in (3, 4, 6):
            assert [corner_rec(n, 0, 1, i) for i in range(3)] == [2, 1, 0]

    def test_matches_closed_form(self):
        for n in range(2, 10):
            for t in range(6):
                for i in range(n + 1):
                    assert mixed_rec(n, 0, t, i) == short_path_betti(n, 0, t, i)

    def test_corner_against_oracle(self):
        for n in (3, 4, 5):
            for s in range(2):
                for t in range(1, 3):
                    totals = graded_betti(corner_power(n, s, t)).totals()
                    want = [corner_rec(n, s, t, i) for i in range(len(totals))]
                    assert totals == want, (n, s, t)

    def test_reduces_at_t0(self):
        for n in range(2, 8):
            for s in range(5):
                for i in range(n + 1):
                    assert mixed_rec(n, s, 0, i) == reduced_power_betti(n, s, i)

    def test_memo_transparency(self):
        values = [mixed_rec(6, 2, 2, i) for i in range(7)]
        clear_caches()
        assert [mixed_rec(6, 2, 2, i) for i in range(7)] == values
        clear_caches()
        assert [mixed_rec(6, 2, 2, i) for i in range(7)] == values

    def test_strict_delta_shifts_corner_count(self):
        # the closed-form multiset over-counts the s=0 corner families by one
        # generator; the chain multiset matches the true generator count.
        # beta_0 of one corner-chain step at n = 4 is the head's plus each
        # pair's, read off the recursion one size down
        def step(t, strict):
            pairs = [chain_pair(0, t, t, "corner"), *corner_chain_pairs(0, t, strict=strict)]
            return sum(mixed_rec(3, a, b, 0) for a, b in pairs)
        for t in (1, 2, 3):
            assert corner_rec(4, 0, t, 0) == step(t, False) == t + 1
            assert step(t, True) == t + 2


class TestComposedSupport:
    def test_base_case(self):
        assert composed_support(0, 1) == {(0, 0): 1}

    def test_marginal_multiplicity(self):
        for total in range(2, 13):
            for t in range(1, total + 1):
                s = total - t
                assert composed_support(s, t)[(total - 2, 1)] == 1, (s, t)

    def test_support_inside_envelope(self):
        for s in range(9):
            for t in range(1, 9):
                support = set(composed_support(s, t))
                assert support <= support_envelope(s, t), (s, t)

    def test_requires_positive_t(self):
        with pytest.raises(ValueError):
            composed_support(2, 0)


class TestResiduals:
    def test_examples(self):
        assert shift_residual(mixed_rec, 4, 0, 1) == 0
        assert exchange_residual(short_path_betti, 5, 3, 2, 4) == 0

    def test_hypothesis_enforced(self):
        with pytest.raises(ValueError):
            exchange_residual(mixed_rec, 5, 1, 1, 2)
        with pytest.raises(ValueError):
            shift_residual(mixed_rec, 3, 0, 1)

    def test_seeded_sweeps(self):
        rng = random.Random(101)
        for _ in range(120):
            n, s, i = rng.randint(4, 10), rng.randint(0, 5), rng.randint(0, 14)
            assert shift_residual(mixed_rec, n, s, i) == 0
            assert shift_residual(short_path_betti, n + 2, s + 3, i) == 0
        for _ in range(120):
            n, s, t, i = (rng.randint(4, 10), rng.randint(0, 5),
                          rng.randint(2, 6), rng.randint(0, 18))
            assert exchange_residual(mixed_rec, n, s, t, i) == 0
            assert exchange_residual(short_path_betti, n + 2, s + 3, t, i) == 0


class TestPdRecursion:
    def test_examples(self):
        assert short_path_pd_rec(5, 0, 2) == 4
        assert short_path_pd_rec(6, 0, 2) == 4
        assert short_path_pd_rec(3, 1, 1) == 2

    def test_matches_closed_and_support(self):
        for n in range(2, 13):
            for total in range(1, 9):
                for t in range(1, total + 1):
                    s = total - t
                    closed = short_path_pd_reg(n, s, t)[0]
                    assert short_path_pd_rec(n, s, t) == closed, (n, s, t)
                    support_pd = max(i for i in range(n + 1)
                                     if short_path_betti(n, s, t, i) != 0)
                    assert support_pd == closed, (n, s, t)


def pd_grid():
    """The (n, s, t) members whose pd verify's support-facts suite compares."""
    return [(n, total - t, t) for n in range(2, 13)
            for total in range(1, 9) for t in range(1, total + 1)]


class TestCacheHygiene:
    def test_clear_caches_empties_closed_and_pd_memos(self):
        short_path_betti(7, 2, 3, 1)
        short_path_pd_rec(9, 2, 3)
        assert short_path_seq.cache_info().currsize > 0
        assert short_path_pd_rec.cache_info().currsize > 0
        clear_caches()
        assert short_path_seq.cache_info().currsize == 0
        assert short_path_pd_rec.cache_info().currsize == 0

    def test_clear_caches_empties_every_recursion_memo(self):
        mixed_seq(12, 3, 3)
        mixed_seq(60, 12, 12)  # fills the 128-bit memo too
        corner_seq(12, 3, 3)
        long_path_seq(12, 2, 3)
        short_path_betti(9, 2, 3, 1)
        short_path_pd_rec(9, 2, 3)
        memos = {name: value for name, value in vars(recursion).items()
                 if hasattr(value, "cache_clear")}
        memos["short_path_seq"] = formulas.short_path_seq
        assert {"_chain_memo", "_chain_seq", "_long_path_seq", "short_path_seq",
                "short_path_pd_rec"} <= set(memos)
        assert all(memo.cache_info().currsize > 0 for memo in memos.values())
        widths = [64, 128]
        assert all(recursion._chain_memo(width) for width in widths)
        clear_caches()
        assert {name: memo.cache_info().currsize for name, memo in memos.items()} == \
            dict.fromkeys(memos, 0)
        assert all(not recursion._chain_memo(width) for width in widths)

    def test_clear_caches_empties_every_formulas_memo(self):
        short_path_betti(9, 2, 3, 1)
        short_path_betti(9, 2, 3, 10)  # past n: the one-entry window's memo
        long_path_betti(9, 3, 1)
        memos = {name: value for name, value in vars(formulas).items()
                 if hasattr(value, "cache_clear")}
        assert {"long_power_seq", "short_path_seq"} <= set(memos)
        assert all(memo.cache_info().currsize > 0 for memo in memos.values())
        clear_caches()
        assert {name: memo.cache_info().currsize for name, memo in memos.items()} == \
            dict.fromkeys(memos, 0)

    def test_cold_and_warm_values_agree(self):
        def values():
            return ([short_path_seq(n, s, t) for n, s, t in pd_grid()],
                    [short_path_betti(n, s, t, i) for n, s, t in pd_grid()
                     for i in range(-1, n + 1)],
                    [short_path_pd_rec(n, s, t) for n, s, t in pd_grid()])
        clear_caches()
        cold = values()
        assert values() == cold
        clear_caches()
        assert values() == cold

    def test_pd_grid_expands_each_member_once(self, monkeypatch):
        calls = []

        def counted(s, t):
            calls.append((s, t))
            return composed_support(s, t)

        clear_caches()
        monkeypatch.setattr(recursion, "composed_support", counted)
        try:
            for n, s, t in pd_grid():
                short_path_pd_rec(n, s, t)
            info = short_path_pd_rec.cache_info()
        finally:
            clear_caches()
        # one expansion per distinct member at n >= 4, none for the bases
        assert info.currsize == info.misses
        assert 0 < len(calls) <= info.misses

    def test_a_request_evaluates_only_what_the_memo_lacks(self, monkeypatch):
        listed, evaluated = [], []
        missing, step = recursion._missing, recursion._chain_step

        def listing(*args):
            listed.append(missing(*args))
            return listed[-1]

        def stepping(below, n, member, width):
            evaluated.append((n, *member))
            return step(below, n, member, width)

        clear_caches()
        try:
            mixed_seq(12, 8, 8)
            memo = recursion._chain_memo(64)
            held = {(size, *member) for size, level in memo.items() for member in level}
            monkeypatch.setattr(recursion, "_missing", listing)
            monkeypatch.setattr(recursion, "_chain_step", stepping)
            seq = mixed_seq(13, 8, 8)
            (levels,) = listed
            names = {(13 - k, *member) for k, level in enumerate(levels) for member in level}
            assert len(evaluated) == len(set(evaluated))
            assert set(evaluated) == names == ref_chain_members("mixed", 13, 8, 8) - held
            assert 0 < len(names) < len(held)
            # a repeated request, and one for a member the memo holds, evaluate none
            listed.clear()
            evaluated.clear()
            assert mixed_seq(13, 8, 8) == seq == ref_chain_seq("mixed", 13, 8, 8)
            assert listed == evaluated == []
            held_corner = next(m for m in memo[12] if m[0] == "corner" and min(m[1:]) > 0)
            assert corner_seq(12, *held_corner[1:]) == \
                ref_chain_seq("corner", 12, *held_corner[1:])
            assert listed == [[]] and evaluated == []
        finally:
            clear_caches()


class TestMainIdentity:
    def test_small_grid(self):
        for n in range(2, 10):
            for s in range(5):
                for t in range(5):
                    for i in range(2 * (s + t) + 3):
                        assert mixed_rec(n, s, t, i) == \
                            short_path_betti(n, s, t, i), (n, s, t, i)

    def test_mixed_against_oracle(self):
        for n in (4, 5):
            for s in range(2):
                for t in range(1, 3):
                    totals = graded_betti(mixed_power(n, s, t)).totals()
                    want = [mixed_rec(n, s, t, i) for i in range(len(totals))]
                    assert totals == want, (n, s, t)


class TestSequenceRecursion:
    """The sequence-valued recursions against the per-entry reference."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(REFERENCE)), n=st.integers(-1, 8),
           s=st.integers(-2, 5), t=st.integers(-2, 5))
    def test_equals_per_entry_reference(self, kind, n, s, t):
        ref, new = REFERENCE[kind]
        if n < 2:
            for fn in (ref, new):
                with pytest.raises(ValueError):
                    fn(n, s, t, 0)
            return
        for i in range(-2, n + 3):
            assert new(n, s, t, i) == ref(n, s, t, i), (kind, n, s, t, i)

    def test_chain_sequences_equal_tuple_reference(self):
        # every request order, each from cold memos, gives the same sequences
        requests = [(which, n, s, t) for n in range(2, 31) for s in range(9)
                    for t in range(9) for which in ("mixed", "corner")]
        shuffled = random.Random(2026).sample(requests, len(requests))
        sequences = {"mixed": mixed_seq, "corner": corner_seq}
        for order in (requests, requests[::-1], shuffled):
            # entries of 84 bits: this one fills part of the 64-bit memo
            # before it overflows, then goes on at 128-bit fields from the
            # level below the overflow, carried from the 64-bit memo
            order = order[:len(order) // 2] + [("mixed", 58, 12, 12)] + \
                order[len(order) // 2:]
            clear_caches()
            try:
                for which, n, s, t in order:
                    assert sequences[which](n, s, t) == ref_chain_seq(which, n, s, t), \
                        (which, n, s, t)
                assert recursion._chain_memo(128)
            finally:
                clear_caches()

    def test_long_path_sequences_equal_tuple_reference(self):
        for n in range(2, 41):
            for s in range(6):
                for t in range(9):
                    assert long_path_seq(n, s, t) == ref_long_path_seq(n, s, t), (n, s, t)

    @pytest.mark.parametrize("sequence, closed, bits", [
        # the steps' sums and the leaves both pass 56 bits
        pytest.param(lambda: mixed_seq(60, 12, 12),
                     lambda i: short_path_betti(60, 12, 12, i), 85, id="mixed"),
        # the leaves are (u+1, u): only the steps' guard check can widen
        pytest.param(lambda: long_path_seq(100, 0, 16),
                     lambda i: long_path_betti(100, 16, i), 76, id="long-path"),
        # a t = 0 member is its own leaf: only packing the leaf can widen
        pytest.param(lambda: mixed_seq(40, 30, 0),
                     lambda i: reduced_power_betti(40, 30, i), 80, id="leaf"),
    ])
    def test_entries_past_the_first_width_widen(self, monkeypatch, sequence, closed, bits):
        # a 64-bit field holds 56 bits below its guard bits, so each of
        # these sequences continues at a wider field; the widths are read
        # where leaves are packed and where steps are guarded
        widths = set()
        pack, guarded = recursion._pack, recursion._guarded

        def spy_pack(seq, width, *where):
            widths.add(width)
            return pack(seq, width, *where)

        def spy_guarded(packed, width):
            widths.add(width)
            return guarded(packed, width)

        clear_caches()
        monkeypatch.setattr(recursion, "_pack", spy_pack)
        monkeypatch.setattr(recursion, "_guarded", spy_guarded)
        try:
            seq = sequence()
        finally:
            clear_caches()
        assert max(seq).bit_length() == bits
        assert len(widths) > 1 and min(widths) == 64
        assert list(seq) == [closed(i) for i in range(len(seq))]
        assert closed(len(seq)) == 0

    def test_guard_bits_bound_every_field(self):
        for width in (64, 128):
            top = 1 << (width - width // 8)  # the least value a field may not hold
            for field in range(4):
                fits, spills = (0,) * field + (top - 1,), (0,) * field + (top,)
                packed = recursion._pack(fits, width, "mixed", 5, 1, 0)
                assert recursion._guarded(packed, width) == packed
                assert recursion._unpack(packed, width) == fits
                for guard in (top, 1 << width - 1):  # lowest and highest guard bit
                    with pytest.raises(recursion._FieldOverflow):
                        recursion._guarded(guard << width * field, width)
                with pytest.raises(recursion._FieldOverflow):
                    recursion._pack(spills, width, "mixed", 5, 1, 0)

    def test_many_chain_pairs_widen(self, monkeypatch):
        # 2 * 128 + 1 summed values of 64-bit fields could carry into the
        # next field, so a step with 128 chain pairs never runs at 64 bits,
        # although every entry here fits in 15 bits
        widths = []
        unpack = recursion._unpack

        def spy(packed, width):
            widths.append(width)
            return unpack(packed, width)

        clear_caches()
        monkeypatch.setattr(recursion, "_unpack", spy)
        try:
            seq = mixed_seq(4, 64, 64)
        finally:
            clear_caches()
        assert len(mixed_chain_pairs(64, 64)) == 128
        assert widths == [128] and max(seq).bit_length() == 15
        assert list(seq) == [short_path_betti(4, 64, 64, i) for i in range(len(seq))]

    def test_sequences_are_stripped_lookups(self):
        for n in range(2, 8):
            for s in range(4):
                for t in range(4):
                    for seq, rec in ((long_path_seq(n, s, t), long_path_rec),
                                     (mixed_seq(n, s, t), mixed_rec),
                                     (corner_seq(n, s, t), corner_rec)):
                        assert isinstance(seq, tuple) and seq and seq[-1] != 0
                        assert list(seq) == [rec(n, s, t, i) for i in range(len(seq))]
                        assert rec(n, s, t, len(seq)) == 0
        assert long_path_seq(4, -1, 2) == mixed_seq(4, 1, -1) == corner_seq(4, -1, 1) == ()

    def test_long_path_n1000_matches_closed_form(self):
        # the per-entry recursion overflowed the stack from about n = 400
        for i in range(1003):
            assert long_path_rec(1000, 0, 2, i) == long_path_betti(1000, 2, i), i

    def test_stack_does_not_grow_with_n(self):
        clear_caches()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            long_path_seq(700, 0, 3)
            mixed_seq(90, 12, 12)
            corner_seq(90, 12, 12)
        finally:
            sys.setrecursionlimit(limit)
        assert long_path_seq(700, 0, 3) == tuple(
            long_path_betti(700, 3, i) for i in range(4))
        assert list(mixed_seq(90, 12, 12)) == [
            short_path_betti(90, 12, 12, i) for i in range(len(mixed_seq(90, 12, 12)))]

    def test_negative_entry_raises(self, monkeypatch):
        clear_caches()
        monkeypatch.setattr(recursion, "long_power_seq", lambda n, t: (1, -1))
        try:
            with pytest.raises(ArithmeticError, match=re.escape(
                    "negative value in mixed recursion at (4, 1, 0, 1): -1")):
                mixed_rec(4, 1, 0, 0)
            with pytest.raises(ArithmeticError, match="negative value"):
                corner_rec(5, 1, 1, 0)
        finally:
            clear_caches()


def ref_chain_pair(s, t, d, family):
    """The chain index map as one expression per family, as it was written
    before the runs."""
    if family == "mixed":
        return d, min(t, s + t - d)
    return max(d - t, 0), min(d, s, t, s + t - d)


class TestChainRuns:
    def test_runs_are_the_index_map(self):
        for family in ("mixed", "corner"):
            for s in range(41):
                for t in range(1, 41):
                    want = [ref_chain_pair(s, t, d, family) for d in range(s + t + 1)]
                    assert list(zip(*chain_runs(s, t, family))) == want, (family, s, t)
                    assert [chain_pair(s, t, d, family) for d in range(s + t + 1)] == want

    def test_chain_pair_refuses_an_index_off_the_chain(self):
        for d in (-1, 7):
            with pytest.raises(ValueError, match=f"chain index d={d} outside 0..6"):
                chain_pair(2, 4, d, "corner")

    def test_chain_terms_are_the_runs_interned(self):
        clear_caches()
        try:
            interned = {}
            for which in ("mixed", "corner"):
                other = "corner" if which == "mixed" else "mixed"
                for s in range(41):
                    for t in range(1, 41):
                        head, pairs = recursion._chain_terms(which, s, t)
                        runs = list(zip(*chain_runs(s, t, which)))
                        assert head == ("mixed", *runs[-1])
                        assert pairs == tuple((other, a, b) for a, b in runs[:-1])
                        for member in (head, *pairs):
                            assert interned.setdefault(member, member) is member
        finally:
            clear_caches()


class TestWideningResumes:
    """An overflow at size k carries the level of size k - 1 to twice the
    width and goes on from size k; nothing below k is evaluated again."""

    def test_an_overflow_evaluates_again_only_its_own_size(self, monkeypatch):
        steps, overflows, listed = [], [], []
        step, missing = recursion._chain_step, recursion._missing

        def stepping(below, n, member, width):
            steps.append((n, member))
            try:
                return step(below, n, member, width)
            except recursion._FieldOverflow:
                overflows.append((n, width))
                raise

        def listing(*args):
            listed.append(missing(*args))
            return listed[-1]

        clear_caches()
        monkeypatch.setattr(recursion, "_chain_step", stepping)
        monkeypatch.setattr(recursion, "_missing", listing)
        try:
            seq = mixed_seq(58, 12, 12)  # entries of 84 bits
        finally:
            clear_caches()
        members = ref_chain_members("mixed", 58, 12, 12)
        assert len(members) == 1810 and len(set(steps)) == len(members)
        ((size, width),) = overflows
        assert width == 64
        at_overflow = listed[0][58 - size]
        assert len(steps) <= len(members) + len(at_overflow)
        # at 128 bits the listing stops at the overflowing size
        assert len(listed) == 2 and len(listed[1]) == 58 - size + 1
        assert seq == ref_chain_seq("mixed", 58, 12, 12)

    def test_requests_widen_from_warm_memos_in_any_order(self, monkeypatch):
        # at 16-bit fields a step may sum one pair, at 32 bits seven, so
        # nearly every request widens; the large ones widen to 128 bits
        widths = (16, 32, 64, 128, 256)
        walks, missing = [], recursion._missing

        def listing(which, n, s, t, memo):
            walks[-1].append(next(w for w in widths if recursion._chain_memo(w) is memo))
            return missing(which, n, s, t, memo)

        requests = [(which, n, s, t) for n in range(2, 19, 4) for s in range(0, 9, 2)
                    for t in range(0, 9, 3) for which in ("mixed", "corner")]
        requests += [("mixed", 58, 12, 12), ("corner", 60, 12, 12), ("mixed", 62, 12, 12),
                     ("corner", 40, 6, 9), ("mixed", 40, 30, 0)]
        sequences = {"mixed": mixed_seq, "corner": corner_seq}
        monkeypatch.setattr(recursion, "_FIRST_WIDTH", 16)
        monkeypatch.setattr(recursion, "_missing", listing)
        for seed in (1, 2, 3):
            order = random.Random(seed).sample(requests, len(requests))
            walks.clear()
            clear_caches()
            try:
                for which, n, s, t in order:
                    walks.append([])
                    assert sequences[which](n, s, t) == ref_chain_seq(which, n, s, t), \
                        (which, n, s, t)
                assert all(recursion._chain_memo(w) for w in widths[:4])
            finally:
                clear_caches()
            assert sum(walk == [16, 32, 64, 128] for walk in walks) > 1, walks
            assert all(walk == widths[:len(walk)] for walk in map(tuple, walks))

    @settings(max_examples=200, deadline=None)
    @given(width=st.sampled_from([16, 32, 64, 128, 256]), data=st.data())
    def test_repack_moves_a_sequence_to_twice_the_width(self, width, data):
        top = (1 << (width - width // 8)) - 1  # the largest value a field may hold
        entries = st.one_of(st.just(0), st.just(top), st.integers(0, top))
        seq = strip_zeros(data.draw(st.lists(entries, max_size=12)))
        packed = recursion._pack(seq, width, "mixed", 5, 1, 0)
        wider = recursion._repack(packed, width)
        assert recursion._guarded(wider, 2 * width) == wider
        assert recursion._unpack(wider, 2 * width) == seq
        assert (wider == 0) == (seq == ())

    def test_long_path_overflow_resumes_at_its_size(self, monkeypatch):
        # entries of 76 bits: one size's row overflows the 64-bit fields,
        # and the rows go on at 128 bits from that size
        builds, row, packed = [], recursion._long_path_row, []
        pack = recursion._pack

        def building(below, s, t, width):
            try:
                out = row(below, s, t, width)
            except recursion._FieldOverflow:
                builds.append((width, False))
                raise
            builds.append((width, True))
            return out

        def packing(seq, width, *where):
            packed.append(width)
            return pack(seq, width, *where)

        clear_caches()
        monkeypatch.setattr(recursion, "_long_path_row", building)
        monkeypatch.setattr(recursion, "_pack", packing)
        try:
            seq = long_path_seq(100, 0, 16)
        finally:
            clear_caches()
        # the builds, in order, are of sizes 3..100, each until one fits
        size, built = 3, []
        for width, fitted in builds:
            built.append((size, width))
            size += fitted
        assert size == 101 and len(built) == len(set(built)) == 98 + 1
        assert [width for _, width in built] == sorted(width for _, width in built)
        assert {width for _, width in built} == {64, 128}
        assert set(packed) == {64}  # the leaves of size 2 are packed once
        assert seq == ref_long_path_seq(100, 0, 16)
