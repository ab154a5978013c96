#!/usr/bin/env python3
"""The chain machinery: xn-graded decompositions, Betti splittings audited
by the oracle, the mutual recursion they induce, and the one place where
the closed-form index multiset needs a correction.
"""
from cyclebetti.families import (chain_pair, chain_steps, chain_tail,
                                 corner_chain_pairs, corner_power,
                                 mixed_chain_pairs, mixed_power)
from cyclebetti.oracle import graded_betti
from cyclebetti.recursion import corner_rec, mixed_rec, short_path_pd_rec
from cyclebetti.verify import check_splitting

n, s, t = 4, 1, 1
print("=" * 72)
print(f"CHAIN DECOMPOSITION of the mixed family at n={n}, s={s}, t={t}")
print("=" * 72)
total = mixed_power(n, s, t)
print(f"family: {total}")
for j in range(s + t + 1):
    print(f"  tail({j}) = {chain_tail(n, s, t, j, 'mixed')}")
print(f"tail(0) == family? {chain_tail(n, s, t, 0, 'mixed') == total}")

print()
print("=" * 72)
print("EACH CHAIN STEP IS A BETTI SPLITTING (oracle-audited)")
print("=" * 72)
for j, (tail, piece, rest) in enumerate(chain_steps(n, s, t, "mixed")):
    report = check_splitting(tail, piece, rest, label=f"chain step j={j}")
    print(f"  {report.to_json()}")

print()
print("=" * 72)
print("THE INDEX PAIRS DRIVING THE MUTUAL RECURSION")
print("=" * 72)
print(f"mixed chain pairs  (s,t)=(2,2): {mixed_chain_pairs(2, 2)}")
print(f"corner chain pairs (s,t)=(2,1): {corner_chain_pairs(2, 1)}")
print()
print("recursion values against the oracle:")
for (nn, ss, tt) in [(4, 1, 1), (5, 0, 2), (5, 1, 1)]:
    oracle = graded_betti(mixed_power(nn, ss, tt)).totals()
    rec = [mixed_rec(nn, ss, tt, i) for i in range(len(oracle))]
    print(f"  mixed n={nn} s={ss} t={tt}: recursion {rec} vs oracle {oracle}")
print(f"pd by support recursion at (n,s,t)=(9,2,3): {short_path_pd_rec(9, 2, 3)}")

print()
print("=" * 72)
print("THE s=0 CORNER MULTISET: closed form vs chain derivation")
print("=" * 72)
print("The closed-form multiset lists the pair (0,s) with multiplicity")
print("t-s+1; at s=0 the chain only has t steps, so one copy too many.")
print("The corner family itself settles it: (x1,xn)^t has t+1 generators.")
print()
for tt in (1, 2, 3):
    chain = corner_rec(4, 0, tt, 0)
    # beta_0 of one chain step over the closed-form multiset: the head's and
    # each pair's, read off the recursion one size down
    pairs = [chain_pair(0, tt, tt, "corner"), *corner_chain_pairs(0, tt, strict=True)]
    strict = sum(mixed_rec(3, a, b, 0) for a, b in pairs)
    oracle = graded_betti(corner_power(4, 0, tt)).total(0)
    print(f"  t={tt}: chain multiset gives {chain}, closed-form multiset "
          f"gives {strict}, oracle says {oracle}")
