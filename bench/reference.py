"""Independent reference values for the benchmark's correctness gate.

Nothing here imports cyclebetti.  Ideal expressions are small syntax trees
(tuples); this module renders them to the CLI grammar and evaluates them on
numpy exponent arrays, so a wrong answer from the program's monomial layer
cannot also be the reference.

Tree nodes:
    ("Jc", n, m)  ("I", n)  ("J", n)  ("m", (i1, i2, ...))
    ("^", base, e)  ("*", a, b)  ("+", a, b)  ("&", a, b)
"""
from __future__ import annotations

from math import comb

ATOMS = ("Jc", "I", "J", "m")


def ambient(node) -> int:
    """Ring size: declared by a Jc/I/J atom, else the largest variable index."""
    kind = node[0]
    if kind in ("Jc", "I", "J"):
        return node[1]
    if kind == "m":
        return max(node[1])
    if kind == "^":
        return ambient(node[1])
    return max(ambient(node[1]), ambient(node[2]))


def atom_rows(node, n: int) -> list[list[int]]:
    """Generators of an atom as exponent lists in n variables (not minimalized)."""
    kind = node[0]
    if kind == "m":
        return [[int(v == i) for v in range(1, n + 1)] for i in node[1]]
    size = node[1]
    if kind == "Jc":
        length, starts = node[2], range(size)
    else:  # I(n) and J(n): paths on n-2 vertices; J drops the one starting at x2
        length = size - 2
        starts = [s for s in range(size) if not (kind == "J" and s == 1)]
    if length == 0:  # I(2) and J(2) are the unit ideal
        return [[0] * n]
    rows = []
    for start in starts:
        row = [0] * n
        for k in range(length):
            row[(start + k) % size] = 1
        rows.append(row)
    return rows


def minimal(rows):
    """Minimal generators, in the canonical (degree, exponents) order."""
    import numpy as np  # deferred so that rendering inputs needs no numpy
    rows = np.unique(np.asarray(rows, dtype=np.int64), axis=0)
    order = np.lexsort(tuple(rows[:, ::-1].T) + (rows.sum(axis=1),))
    kept = np.empty_like(rows)
    count = 0
    # a divisor has degree <= its multiple, so earlier kept rows suffice
    for row in rows[order]:
        if not (kept[:count] <= row).all(axis=1).any():
            kept[count] = row
            count += 1
    return kept[:count]


def evaluate(node, n: int | None = None):
    """Minimal generators of an expression tree as an exponent array."""
    import numpy as np
    n = ambient(node) if n is None else n
    kind = node[0]
    if kind in ATOMS:
        return minimal(atom_rows(node, n))
    if kind == "^":
        base = evaluate(node[1], n)
        result = minimal([[0] * n])
        for _ in range(node[2]):
            result = minimal((result[:, None, :] + base[None, :, :]).reshape(-1, n))
        return result
    left, right = evaluate(node[1], n), evaluate(node[2], n)
    if kind == "*":
        return minimal((left[:, None, :] + right[None, :, :]).reshape(-1, n))
    if kind == "&":
        return minimal(np.maximum(left[:, None, :], right[None, :, :]).reshape(-1, n))
    return minimal(np.vstack([left, right]))


def _monomial_text(row) -> str:
    parts = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(row) if e]
    return "*".join(parts) if parts else "1"


def render(node, literal: set[int] | frozenset = frozenset(), n: int | None = None,
           _counter: list | None = None) -> str:
    """Expression text in the CLI grammar.

    Atoms are numbered left to right; an atom whose number is in `literal` is
    written as its explicit generator list instead of by name.  Both denote
    the same ideal, so the choice changes the parse path, not the answer.
    """
    n = ambient(node) if n is None else n
    counter = [0] if _counter is None else _counter
    kind = node[0]
    if kind in ATOMS:
        index = counter[0]
        counter[0] += 1
        if index in literal:
            return "(" + ", ".join(_monomial_text(r) for r in atom_rows(node, n)) + ")"
        if kind == "Jc":
            return f"Jc({node[1]},{node[2]})"
        if kind == "m":
            return "m(" + ",".join(f"x{i}" for i in node[1]) + ")"
        return f"{kind}({node[1]})"
    if kind == "^":
        base = render(node[1], literal, n, counter)
        if node[1][0] not in ATOMS:
            base = f"({base})"
        return f"{base}^{node[2]}"
    left = render(node[1], literal, n, counter)
    right = render(node[2], literal, n, counter)
    if kind == "*":
        left = left if node[1][0] in ATOMS + ("^", "*") else f"({left})"
        right = right if node[2][0] in ATOMS + ("^",) else f"({right})"
    else:
        right = right if node[2][0] in ATOMS + ("^", "*") else f"({right})"
    return f"{left} {kind} {right}"


def count_atoms(node) -> int:
    if node[0] in ATOMS:
        return 1
    if node[0] == "^":
        return count_atoms(node[1])
    return count_atoms(node[1]) + count_atoms(node[2])


def eliahou_kervaire_totals(k: int, d: int) -> list[int]:
    """Total Betti numbers of (x1..xk)^d: C(d+k-1, d+i) * C(d+i-1, i)."""
    return [comb(d + k - 1, d + i) * comb(d + i - 1, i) for i in range(k)]
