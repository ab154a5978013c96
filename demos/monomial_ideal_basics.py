#!/usr/bin/env python3
"""Exact monomial-ideal arithmetic: the layer everything else stands on.

Ideals always carry their canonical minimal generating set, so printing is
deterministic and == is ideal equality.
"""
from cyclebetti import Monomial, variable
from cyclebetti.cli import build_ideal
from cyclebetti.families import (cycle_path_ideal, reduced_short_path_ideal,
                                 short_path_ideal)

print("=" * 72)
print("MONOMIALS AND CANONICAL IDEALS")
print("=" * 72)

m = Monomial((2, 0, 1))
print(f"monomial {m}: degree {m.degree}, support {m.support}")

I = build_ideal("(x1*x2, x2*x3, x1*x2*x3)")
print(f"build_ideal('(x1*x2, x2*x3, x1*x2*x3)') minimalizes to {I}")

print()
print("operators: * product, ** power, + sum, & intersection")
J = build_ideal("(x1, x3)")
print(f"J = {J}")
print(f"I * J   = {I * J}")
print(f"J ** 2  = {J ** 2}")
print(f"I + J   = {I + J}")
print(f"I & J   = {I & J}")

print()
print("=" * 72)
print("PATH IDEALS OF CYCLES")
print("=" * 72)
print(f"3-paths of the 5-cycle: {cycle_path_ideal(5, 3)}")
full, reduced = short_path_ideal(5), reduced_short_path_ideal(5)
print(f"short pair at n=5: full {full}")
print(f"                reduced {reduced}  (generator at x2 dropped)")

print()
print("=" * 72)
print("THE SCALED-INTERSECTION IDENTITY")
print("=" * 72)
print("For J inside K with xn outside the common support and I = J + xn*K:")
print("  (xn K)^s J^t  &  (xn K)^(s+1) I^(t-1)  ==  xn (xn K)^s J^t")
print()
Jsmall = build_ideal("(x1)").embed(3)
K = build_ideal("(x1, x2)").embed(3)
xn = variable(3, 3)
I3 = Jsmall + xn * K
for s in (0, 1):
    for t in (1, 2):
        left = (Jsmall ** t * (xn * K) ** s) & ((xn * K) ** (s + 1) * I3 ** (t - 1))
        right = xn * ((xn * K) ** s * Jsmall ** t)
        mark = "ok" if left == right else "MISMATCH"
        print(f"  s={s} t={t}: {left} == {right}  [{mark}]")
