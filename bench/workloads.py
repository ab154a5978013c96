"""The benchmark's four workloads.

Each workload turns a seed into a list of ops, runs one op against the
program, and checks the op's results against a reference that does not go
through the code path being timed.  Inputs come only from the seed; the
seed changes which equivalent inputs are drawn (characteristic, atom
spelling, parameters inside a narrow band, order), not how much work a pass
holds, so runs with different seeds measure the same amount of work.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import reference as ref

PINS_PATH = Path(__file__).resolve().parent / "pins.json"
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Op:
    label: str   # names the op in failure lists
    args: tuple  # what the program receives
    spec: tuple  # what the check needs; never passed to the program


def load_pins() -> dict:
    with open(PINS_PATH) as handle:
        return json.load(handle)


def strip(seq) -> list[int]:
    seq = list(seq)
    while seq and seq[-1] == 0:
        seq.pop()
    return seq


def cold(mods) -> None:
    """Forget every memo the package keeps, as a fresh process would."""
    mods["recursion"].clear_caches()
    mods["verify"].clear_oracle_cache()
    for module in mods.values():
        for value in list(vars(module).values()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _literal_atoms(rng: random.Random, tree) -> frozenset[int]:
    """Each atom is spelled by name or as its generator list, by coin flip."""
    return frozenset(i for i in range(ref.count_atoms(tree)) if rng.random() < 0.5)


def _expression_op(rng, tree, spec, p=None) -> Op:
    literal = _literal_atoms(rng, tree)
    text = ref.render(tree, literal)
    label = ref.render(tree) + (" [literal atoms]" if literal else "")
    if p is None:
        return Op(label, (text,), spec)
    return Op(f"{label} p={p}", (text, p), spec)


class Workload:
    name = ""
    cold_per_op = False  # else once per pass

    def inputs(self, seed: int, size: str = "full", known_defects: bool = False) -> list[Op]:
        raise NotImplementedError

    def stream(self, api, op: Op):
        """Yield the op's results as they reach the consumer."""
        raise NotImplementedError

    def reference(self, mods, pins: dict, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result, expected) -> str | None:
        """None when one result is exactly right, else the reason it is not."""
        raise NotImplementedError

    def fingerprint(self, result):
        """A comparable form of one result, for traced-versus-untraced checks."""
        return result

    def verdicts(self, op: Op, results: list, expected, missing: str) -> list[str | None]:
        """One entry per expected result (one, unless overridden); `missing`
        stands for a result not received."""
        return [self.check(op, r, expected) for r in results] or [missing]


# ---------------------------------------------------------------------------
# oracle-ladder: graded_betti(build_ideal(expr), p)
# ---------------------------------------------------------------------------

def _power(atom, e):
    return ("^", atom, e)


SMALL_PRIMES = (2, 32003)


# (tree, check spec, primes the seed picks from).  Three shapes: family
# powers (Koszul-face bound), cycle edge ideals (homology bound) and
# maximal-ideal powers (lattice bound).  Maximal powers keep one prime, as
# their cost depends on it.  Nine ops, so that the median is one op.
ORACLE_LADDER = {
    "full": [
        (_power(("I", 9), 2), ("mixed", 9, 0, 2), SMALL_PRIMES),
        (("*", _power(("J", 6), 2), ("I", 6)), ("mixed", 6, 2, 1), SMALL_PRIMES),
        (_power(("Jc", 10, 9), 2), ("long-power", 10, 0, 2), SMALL_PRIMES),
        (("*", _power(("J", 7), 2), _power(("m", (1, 7)), 3)), ("corner", 7, 2, 3), SMALL_PRIMES),
        (("Jc", 10, 2), ("pinned",), SMALL_PRIMES),
        (_power(("Jc", 7, 2), 2), ("pinned",), SMALL_PRIMES),
        (_power(("m", (1, 2, 3, 4)), 6), ("maximal", 4, 6), (32003,)),
        (_power(("m", (1, 2, 3, 4, 5)), 3), ("maximal", 5, 3), (32003,)),
    ],
    "tiny": [
        (_power(("I", 5), 2), ("mixed", 5, 0, 2), SMALL_PRIMES),
        (_power(("Jc", 5, 4), 2), ("long-power", 5, 0, 2), SMALL_PRIMES),
        (("*", ("J", 5), _power(("m", (1, 5)), 2)), ("corner", 5, 1, 2), SMALL_PRIMES),
        (("Jc", 5, 2), ("pinned",), SMALL_PRIMES),
        (_power(("m", (1, 2, 3)), 2), ("maximal", 3, 2), (32003,)),
    ],
}
# One op per pass runs at the largest prime the rank code handles exactly;
# its trial-division prime check makes it several times slower per complex.
BIG_PRIME_OP = {"full": ("Jc", 9, 2), "tiny": ("Jc", 5, 2)}
BIG_PRIME = 2**31 - 1
# Known defect when the benchmark was introduced: int64 overflow in the
# rank code returns negative Betti numbers for this ideal at this prime.
DEFECT_OP = (("Jc", 6, 2), 4294967311)


class OracleLadder(Workload):
    name = "oracle-ladder"

    def inputs(self, seed, size="full", known_defects=False):
        rng = random.Random(f"{self.name}/{seed}")
        ops = [_expression_op(rng, tree, self._spec(tree, spec), rng.choice(primes))
               for tree, spec, primes in ORACLE_LADDER[size]]
        big = BIG_PRIME_OP[size]
        ops.append(_expression_op(rng, big, self._spec(big), BIG_PRIME))
        if known_defects:
            tree, p = DEFECT_OP
            ops.append(_expression_op(rng, tree, self._spec(tree), p))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _spec(tree, spec=("pinned",)):
        """Pinned ideals carry their name, the key of their pinned table."""
        return ("pinned", ref.render(tree)) if spec[0] == "pinned" else spec

    def stream(self, api, op):
        text, p = op.args
        yield api.oracle.graded_betti(api.cli.build_ideal(text), p)

    def reference(self, mods, pins, op):
        kind = op.spec[0]
        if kind == "pinned":
            return ("entries", [tuple(e) for e in pins["oracle"][op.spec[1]]])
        if kind == "maximal":
            k, d = op.spec[1:]
            return ("totals", ref.eliahou_kervaire_totals(k, d), d)
        n, s, t = op.spec[1:]
        formulas, recursion = mods["formulas"], mods["recursion"]
        if kind == "mixed":
            totals = [formulas.short_path_betti(n, s, t, i) for i in range(n + 1)]
            row = (n - 2) * (s + t)
        elif kind == "long-power":
            totals = [formulas.long_path_betti(n, t, i) for i in range(n + 1)]
            row = (n - 1) * t
        else:
            totals = [recursion.corner_rec(n, s, t, i) for i in range(n + 1)]
            row = (n - 2) * s + t
        return ("totals", strip(totals), row)

    def check(self, op, table, expected):
        if any(v < 0 for v in table.entries.values()):
            return "negative Betti number"
        if expected[0] == "entries":
            got = table.sorted_entries()
            return None if got == expected[1] else f"entries {got} != pinned {expected[1]}"
        _, totals, row = expected
        if table.rows() != [row]:
            return f"rows {table.rows()} != single linear row {row}"
        got = strip(table.totals())
        return None if got == totals else f"totals {got} != {totals}"

    def fingerprint(self, table):
        return tuple(table.sorted_entries())


# ---------------------------------------------------------------------------
# routes-grid: the whole sequence beta_0..beta_n of one family member by one route
# ---------------------------------------------------------------------------

# (kind, route, n range, s range, t range, ops per pass); ranges inclusive.
# The bins are listed from cheap to heavy and their costs do not overlap.
# Of the 107 ops, the 54th (the median) lies in the 21-op series band and
# the 96th (the 90th percentile) in the 10-op mixed-recursion band, so the
# two quantiles measure like-sized ops whatever the seed draws.
ROUTE_BINS = {
    "full": [
        ("long-power", "closed", (50, 150), (0, 0), (2, 2), 10),
        ("long-power", "closed", (10, 20), (0, 0), (3, 6), 10),
        ("mixed", "closed", (20, 30), (2, 4), (2, 4), 10),
        ("corner", "recursion", (5, 8), (1, 2), (1, 2), 13),
        ("long-power", "series", (120, 130), (0, 0), (2, 2), 21),
        ("long-power", "recursion", (18, 20), (0, 0), (5, 6), 10),
        ("long-power", "series", (250, 300), (0, 0), (2, 2), 8),
        ("corner", "recursion", (28, 32), (5, 5), (5, 5), 8),
        ("mixed", "recursion", (29, 31), (5, 5), (5, 5), 10),
        ("long-power", "recursion", (96, 104), (0, 0), (2, 2), 2),
        ("corner", "recursion", (58, 62), (12, 12), (12, 12), 1),
        ("long-power", "recursion", (196, 204), (0, 0), (2, 2), 1),
        ("mixed", "closed", (400, 410), (1, 1), (1, 1), 1),
        ("long-power", "recursion", (292, 300), (0, 0), (2, 2), 1),
        ("mixed", "recursion", (58, 62), (12, 12), (12, 12), 1),
    ],
    "tiny": [
        ("long-power", "recursion", (20, 30), (0, 0), (2, 2), 2),
        ("long-power", "series", (20, 30), (0, 0), (2, 2), 2),
        ("long-power", "closed", (5, 10), (0, 0), (2, 4), 2),
        ("mixed", "recursion", (5, 8), (1, 2), (1, 2), 2),
        ("mixed", "closed", (5, 8), (1, 2), (1, 2), 2),
        ("corner", "recursion", (5, 8), (1, 2), (1, 2), 2),
    ],
}
# Known defect when the benchmark was introduced: the long-path recursion
# overflows the interpreter stack at this size.
DEFECT_ROUTE = ("long-power", "recursion", 400, 0, 2)
SMALL_CORNER_N = 12  # beta_0 is checked against a built ideal up to this size


def corner_keys(size: str) -> list[tuple[int, int, int]]:
    """Every corner member the bins can draw, for pinning."""
    keys = []
    for kind, _, (n0, n1), (s0, s1), (t0, t1), _ in ROUTE_BINS[size]:
        if kind == "corner":
            keys += [(n, s, t) for n in range(n0, n1 + 1)
                     for s in range(s0, s1 + 1) for t in range(t0, t1 + 1)]
    return sorted(set(keys))


class RoutesGrid(Workload):
    name = "routes-grid"
    cold_per_op = True

    def inputs(self, seed, size="full", known_defects=False):
        rng = random.Random(f"{self.name}/{seed}")
        ops = []
        for kind, route, n_range, s_range, t_range, count in ROUTE_BINS[size]:
            for _ in range(count):
                n, s, t = (rng.randint(*n_range), rng.randint(*s_range),
                           rng.randint(*t_range))
                ops.append(Op(f"{kind}(n={n},s={s},t={t}) {route}",
                              (kind, n, s, t, route), (kind, n, s, t, route)))
        if known_defects:
            kind, route, n, s, t = DEFECT_ROUTE
            ops.append(Op(f"{kind}(n={n},s={s},t={t}) {route}",
                          (kind, n, s, t, route), (kind, n, s, t, route)))
        rng.shuffle(ops)
        return ops

    def stream(self, api, op):
        kind, n, s, t, route = op.args
        yield api.verify.route_totals(api.verify.FamilyCase(kind, n, s, t), route)

    def reference(self, mods, pins, op):
        """Sequences by the other routes, computed without route_totals."""
        kind, n, s, t, route = op.spec
        formulas, recursion = mods["formulas"], mods["recursion"]
        span = range(n + 1)
        try:
            if kind == "long-power":
                return {"closed": strip(formulas.long_path_betti(n, t, i) for i in span),
                        "series": strip(formulas.series_betti(n, t, i) for i in span)}
            if kind == "mixed":
                if route == "recursion":
                    return {"closed": strip(formulas.short_path_betti(n, s, t, i)
                                            for i in span)}
                return {"recursion": strip(recursion.mixed_rec(n, s, t, i) for i in span)}
            expected = {"pinned": pins["corner"][f"{n},{s},{t}"]}
            if n <= SMALL_CORNER_N and s + t <= 5:
                tree = ("*", _power(("J", n), s), _power(("m", (1, n)), t))
                expected["beta_0"] = len(ref.evaluate(tree))
            return expected
        finally:
            recursion.clear_caches()

    def check(self, op, totals, expected):
        totals = list(totals)
        for name, value in expected.items():
            if name == "beta_0":
                if not totals or totals[0] != value:
                    return f"beta_0 {totals[:1]} != {value} minimal generators"
            elif totals != value:
                return f"{totals} != {name} {value}"
        if op.spec[0] == "corner":
            euler = sum((-1) ** i * b for i, b in enumerate(totals))
            if euler != 1:
                return f"alternating sum {euler} != 1"
        return None

    def fingerprint(self, totals):
        return tuple(totals)


# ---------------------------------------------------------------------------
# verify-all: the reports of verify.run_suite("all"), consumed by iteration
# ---------------------------------------------------------------------------

TINY_SUITES = ("example-row", "delta-edge", "support-facts")


class VerifyAll(Workload):
    name = "verify-all"

    def inputs(self, seed, size="full", known_defects=False):
        suites = ("all",) if size == "full" else TINY_SUITES
        return [Op(f"verify {name} --seed {seed}", (name, seed), (name,)) for name in suites]

    def stream(self, api, op):
        name, seed = op.args
        yield from api.verify.run_suite(name, seed=seed)

    def reference(self, mods, pins, op):
        return pins["verify"][op.spec[0]]

    def verdicts(self, op, results, expected, missing):
        reasons = []
        for k, report in enumerate(results):
            if k >= len(expected):
                reasons.append(f"unexpected extra report {report.case!r}")
            elif report.case != expected[k]:
                reasons.append(f"report {k} is {report.case!r}, expected {expected[k]!r}")
            elif report.status != "match":
                reasons.append(f"{report.case}: {report.status} {report.witness}")
            else:
                reasons.append(None)
        return reasons + [missing] * max(len(expected) - len(results), 0)

    def fingerprint(self, report):
        return (report.case, report.status, json.dumps(report.witness, sort_keys=True))


# ---------------------------------------------------------------------------
# ideal-algebra: cli.build_ideal(expr) alone
# ---------------------------------------------------------------------------

def _cyc(n, m):
    return ("Jc", n, m)


IDEAL_SLOTS = {
    "full": [
        _power(("J", 9), 5),
        ("*", _power(("J", 10), 2), _power(("I", 10), 2)),
        ("&", _power(_cyc(10, 4), 2), _power(_cyc(10, 6), 3)),
        _power(_cyc(10, 2), 4),
        _power(("m", (1, 2, 3, 4, 5)), 8),
        _power(("J", 10), 4),
        ("&", _power(_cyc(8, 3), 3), _power(_cyc(8, 4), 3)),
        ("+", _power(_cyc(11, 3), 3), _power(_cyc(11, 5), 3)),
        ("+", ("&", _power(("I", 9), 2), _power(_cyc(9, 3), 3)), _power(("J", 9), 3)),
        ("+", _power(_cyc(10, 3), 3), _power(_cyc(10, 4), 3)),
        _power(("I", 10), 3),
        _power(_cyc(11, 8), 3),
        ("&", _power(_cyc(8, 2), 2), _power(_cyc(8, 3), 2)),
        ("*", _power(("J", 8), 2), _power(("m", (1, 8)), 3)),
        _power(("I", 7), 3),
        _power(("m", (1, 2, 3, 4)), 5),
        _power(_cyc(10, 4), 2),
        _power(_cyc(9, 3), 2),
    ],
    "tiny": [
        _power(("I", 6), 3),
        ("*", ("J", 6), _power(("m", (1, 6)), 2)),
        ("&", _power(_cyc(6, 2), 2), _power(_cyc(6, 3), 2)),
        ("+", _power(_cyc(7, 3), 2), _power(("J", 7), 2)),
        _power(("m", (1, 2, 3)), 4),
    ],
}


class IdealAlgebra(Workload):
    name = "ideal-algebra"

    def inputs(self, seed, size="full", known_defects=False):
        rng = random.Random(f"{self.name}/{seed}")
        ops = [_expression_op(rng, tree, tree) for tree in IDEAL_SLOTS[size]]
        rng.shuffle(ops)
        return ops

    def stream(self, api, op):
        yield api.cli.build_ideal(op.args[0])

    def reference(self, mods, pins, op):
        return ref.ambient(op.spec), tuple(map(tuple, ref.evaluate(op.spec).tolist()))

    def check(self, op, ideal, expected):
        ambient, gens = expected
        if ideal.ambient != ambient:
            return f"ambient {ideal.ambient} != {ambient}"
        got = tuple(g.exponents for g in ideal.gens)
        if got == gens:
            return None
        return f"{len(got)} generators, reference has {len(gens)} (or they differ)"

    def fingerprint(self, ideal):
        return ideal.ambient, tuple(g.exponents for g in ideal.gens)


WORKLOADS = {w.name: w for w in (OracleLadder(), VerifyAll(), RoutesGrid(), IdealAlgebra())}
