#!/usr/bin/env python3
"""The brute-force Betti oracle, step by step, on the triangle edge ideal.

Multigraded Betti numbers live on the lcm lattice; at each lattice degree
they are reduced homology dimensions of the upper Koszul complex.  The
oracle works for ANY monomial ideal, which is what makes it a trustworthy
referee for the closed formulas and recursions.
"""
from cyclebetti import Monomial
from cyclebetti.cli import build_ideal, emit_betti_table
from cyclebetti.families import long_path_ideal, mixed_power
from cyclebetti.oracle import graded_betti, homology_dims, lcm_lattice, upper_koszul

triangle = build_ideal("(x1*x2, x2*x3, x1*x3)")
print("=" * 72)
print(f"STEP 1: the lcm lattice of {triangle}")
print("=" * 72)
lattice = lcm_lattice(triangle)
for b in lattice:
    print(f"  {b}  (total degree {sum(b)})")

print()
print("=" * 72)
print("STEP 2: upper Koszul complexes and their reduced homology (p = 32003)")
print("=" * 72)
for b in lattice:
    cx = upper_koszul(triangle, Monomial(b))
    dims = homology_dims(cx, 32003)
    print(f"  at {b}: faces by dim {cx.face_counts()}, "
          f"reduced homology (from dim -1): {dims}")

print()
print("=" * 72)
print("STEP 3: the assembled graded Betti table")
print("=" * 72)
table = graded_betti(triangle)
print(emit_betti_table(table, "text"))
print(f"pd = {table.pd()}, reg = {table.reg()}")

print()
print("=" * 72)
print("BIGGER INPUTS: powers of path ideals")
print("=" * 72)
for label, ideal in [
    ("square of the 4-paths of the 5-cycle", long_path_ideal(5) ** 2),
    ("reduced * full short-path product at n=5, s=t=1", mixed_power(5, 1, 1)),
]:
    table = graded_betti(ideal)
    print(f"{label}: {len(ideal)} generators")
    print(emit_betti_table(table, "text"))
    print(f"single row? {table.is_single_row()} "
          f"(linear resolution), pd={table.pd()}, reg={table.reg()}")
    print()
