"""Cross-route validation: splitting audits and formula/recursion/oracle sweeps.

Every comparison is exact integer equality; there are no tolerances
anywhere.  Results stream as Report records, each yielded as soon as its
case finishes, that serialize to JSON lines, one per line, schema
{case, status, witness?, millis, route_millis?}.
"""
from __future__ import annotations

import functools
import json
import random
import time
from collections.abc import Iterator
from dataclasses import dataclass

from . import families, formulas, recursion
from .monomials import Monomial, MonomialIdeal, variable
from .oracle import (BettiTable, DEFAULT_LATTICE_CAP, DEFAULT_PRIME,
                     check_prime, graded_betti)


@dataclass
class Report:
    case: str
    status: str  # "match" | "mismatch" | "skipped"
    witness: dict | None = None
    millis: int = 0
    # cross-validation reports only: milliseconds per expanded route name
    route_millis: dict[str, int] | None = None

    @property
    def ok(self) -> bool:
        return self.status != "mismatch"

    def to_json(self) -> str:
        payload: dict = {"case": self.case, "status": self.status}
        if self.witness is not None:
            payload["witness"] = self.witness
        payload["millis"] = self.millis
        if self.route_millis is not None:
            payload["route_millis"] = self.route_millis
        return json.dumps(payload)


def _timed(case: str, check) -> Report:
    """Run check() -> witness-or-None and wrap the outcome."""
    start = time.perf_counter()
    witness = check()
    millis = int((time.perf_counter() - start) * 1000)
    status = "match" if witness is None else "mismatch"
    return Report(case, status, witness, millis)


# ---------------------------------------------------------------------------
# Oracle access with caching (ideals are immutable and hashable).  The cache
# keys on the call form, so every caller passes all three arguments by position.
# ---------------------------------------------------------------------------

@functools.cache
def oracle_table(ideal: MonomialIdeal, char: int, cap: int) -> BettiTable:
    return graded_betti(ideal, char, cap)


def clear_oracle_cache() -> None:
    oracle_table.cache_clear()


# ---------------------------------------------------------------------------
# Family cases and per-route total Betti sequences.
# ---------------------------------------------------------------------------

FAMILY_KINDS = ("long-power", "mixed", "corner")


@dataclass(frozen=True)
class FamilyCase:
    """A concrete family member: kind in {"long-power", "mixed", "corner"}.

    long-power is long(n)^t; mixed is reduced(n)^s * full(n)^t (t = 0 gives
    the plain reduced power); corner is reduced(n)^s * (x1,xn)^t.
    """
    kind: str
    n: int
    s: int = 0
    t: int = 0

    def label(self) -> str:
        if self.kind == "long-power":
            return f"long-power(n={self.n},t={self.t})"
        return f"{self.kind}(n={self.n},s={self.s},t={self.t})"

    def ideal(self) -> MonomialIdeal:
        if self.kind == "long-power":
            return families.long_path_ideal(self.n) ** self.t
        if self.kind == "mixed":
            return families.mixed_power(self.n, self.s, self.t)
        if self.kind == "corner":
            return families.corner_power(self.n, self.s, self.t)
        raise ValueError(f"unknown family kind {self.kind!r}")

    def initial_degree(self) -> int:
        if self.kind == "long-power":
            return (self.n - 1) * self.t
        if self.kind == "mixed":
            return (self.n - 2) * (self.s + self.t)
        return (self.n - 2) * self.s + self.t

    def closed_pd_reg(self) -> tuple[int, int] | None:
        if self.kind == "long-power":
            return formulas.long_path_pd_reg(self.n, self.t)
        if self.kind == "mixed":
            if self.t == 0:
                return formulas.reduced_power_pd_reg(self.n, self.s)
            return formulas.short_path_pd_reg(self.n, self.s, self.t)
        return None

    def is_unit(self) -> bool:
        """Whether the member is the unit ideal, read off its parameters
        without building it: reduced(2) and full(2) are the unit ideal, as is
        a product of zeroth powers."""
        if self.kind == "long-power":
            return self.t == 0
        if self.kind == "mixed":
            return self.n == 2 or self.s == self.t == 0
        return self.t == 0 and (self.s == 0 or self.n == 2)


def _strip(seq) -> list[int]:
    seq = list(seq)
    while seq and seq[-1] == 0:
        seq.pop()
    return seq


# (kind, route) -> fn(n, s, t, strict_delta) giving the total Betti sequence.
# The closed and series routes evaluate i = 0..n one entry at a time; that is
# exhaustive, since the projective dimension is below the n variables.
_ROUTE_TOTALS = {
    ("long-power", "closed"):
        lambda n, s, t, strict: [formulas.long_path_betti(n, t, i) for i in range(n + 1)],
    ("long-power", "recursion"): lambda n, s, t, strict: recursion.long_path_seq(n, 0, t),
    ("long-power", "series"):
        lambda n, s, t, strict: [formulas.series_betti(n, t, i) for i in range(n + 1)],
    ("mixed", "closed"):
        lambda n, s, t, strict: [formulas.short_path_betti(n, s, t, i) for i in range(n + 1)],
    ("mixed", "recursion"): lambda n, s, t, strict: recursion.mixed_seq(n, s, t, strict),
    ("corner", "recursion"): lambda n, s, t, strict: recursion.corner_seq(n, s, t, strict),
}


def route_totals(case: FamilyCase, route: str, char: int = DEFAULT_PRIME,
                 strict_delta: bool = False, cap: int = DEFAULT_LATTICE_CAP) -> list[int]:
    """Total Betti sequence (i = 0, 1, ...) of the case by the given route.

    Routes: "oracle", "closed", "recursion", "series".  Each is one call:
    the oracle's table, the recursion's cached sequence, or the closed and
    series forms over i = 0..n.  Trailing zeros are stripped.
    """
    if route == "oracle":
        return _strip(oracle_table(case.ideal(), char, cap).totals())
    sequence = _ROUTE_TOTALS.get((case.kind, route))
    if sequence is None:
        if case.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {case.kind!r}")
        raise ValueError(f"route {route!r} not applicable to {case.kind} families")
    return _strip(sequence(case.n, case.s, case.t, strict_delta))


def _compare_totals(pairs):
    """pairs: list of (route_name, totals). Witness on first disagreement."""
    ref_name, ref = pairs[0]
    for name, totals in pairs[1:]:
        width = max(len(ref), len(totals))
        for i in range(width):
            a = ref[i] if i < len(ref) else 0
            b = totals[i] if i < len(totals) else 0
            if a != b:
                return {"i": i, "routes": [ref_name, name],
                        "values": [str(a), str(b)]}
    return None


def cross_validate(cases, routes, chars=(DEFAULT_PRIME,),
                   cap=DEFAULT_LATTICE_CAP) -> Iterator[Report]:
    """Compare total Betti sequences across routes, case by case.

    The oracle route is expanded once per characteristic and additionally
    audited for single-row linearity and for pd/reg against the closed
    formulas (when the case has them).  Each comparison report carries the
    milliseconds of every expanded route in route_millis.
    """
    for case in cases:
        expanded = []
        for route in routes:
            if route == "oracle":
                expanded.extend(("oracle", p) for p in chars)
            else:
                expanded.append((route, None))

        route_millis = {}

        def compute():
            pairs = []
            for route, p in expanded:
                name = f"oracle(p={p})" if route == "oracle" else route
                start = time.perf_counter()
                pairs.append((name, route_totals(
                    case, route, char=p or DEFAULT_PRIME, cap=cap)))
                route_millis[name] = int((time.perf_counter() - start) * 1000)
            return _compare_totals(pairs)

        report = _timed(f"{case.label()} routes={'/'.join(r for r, _ in expanded)}",
                        compute)
        report.route_millis = route_millis
        yield report
        for route, p in expanded:
            if route == "oracle":
                yield _audit_oracle(case, p, cap)


def _audit_oracle(case: FamilyCase, char: int, cap: int) -> Report:
    """Single-row linearity plus pd/reg against the closed formulas."""
    def compute():
        table = oracle_table(case.ideal(), char, cap)
        degree = case.initial_degree()
        if table.rows() != [degree]:
            return {"aspect": "linearity", "rows": table.rows(), "expected_row": degree}
        closed = case.closed_pd_reg()
        if closed is not None and (table.pd(), table.reg()) != closed:
            return {"aspect": "pd/reg", "oracle": [table.pd(), table.reg()],
                    "closed": list(closed)}
        return None

    return _timed(f"{case.label()} oracle(p={char}) audit", compute)


# ---------------------------------------------------------------------------
# Betti-splitting audit.
# ---------------------------------------------------------------------------

def check_splitting(total: MonomialIdeal, left: MonomialIdeal, right: MonomialIdeal,
                    char: int = DEFAULT_PRIME, cap: int = DEFAULT_LATTICE_CAP,
                    label: str | None = None) -> Report:
    """Audit the splitting identity beta_i(total) = beta_i(left) + beta_i(right)
    + beta_{i-1}(left & right), plus the pd and reg max-formulas it implies.
    """
    if total != left + right:
        raise ValueError("not a decomposition: total != left + right")
    case = label or f"split {total_label(total, left, right)}"

    def compute():
        tp = oracle_table(total, char, cap)
        tl = oracle_table(left, char, cap)
        tr = oracle_table(right, char, cap)
        tm = oracle_table(left & right, char, cap)
        top = max(tp.pd(), tl.pd(), tr.pd(), tm.pd() + 1)
        for i in range(top + 1):
            want = tl.total(i) + tr.total(i) + (tm.total(i - 1) if i >= 1 else 0)
            got = tp.total(i)
            if got != want:
                return {"i": i, "values": [str(got), str(want)]}
        if tp.pd() != max(tl.pd(), tr.pd(), tm.pd() + 1):
            return {"aspect": "pd", "values":
                    [tp.pd(), max(tl.pd(), tr.pd(), tm.pd() + 1)]}
        if tp.reg() != max(tl.reg(), tr.reg(), tm.reg() - 1):
            return {"aspect": "reg", "values":
                    [tp.reg(), max(tl.reg(), tr.reg(), tm.reg() - 1)]}
        return None

    return _timed(f"{case} (p={char})", compute)


def total_label(total, left, right) -> str:
    def short(ideal):
        text = str(ideal)
        return text if len(text) <= 40 else f"<{len(ideal)} gens, deg {ideal.min_degree()}>"
    return f"{short(total)} = {short(left)} + {short(right)}"


# ---------------------------------------------------------------------------
# Named suites, each called as fn(cap, seed) and yielding its reports one
# case at a time.  Their fixed parameters encode the acceptance criteria.
# ---------------------------------------------------------------------------

DEFAULT_SEED = 20240613
RESIDUAL_SAMPLES = 1000

EXAMPLE_ROW_N = 27
EXAMPLE_ROW_T = 4
EXAMPLE_ROW_TOTALS = (27405, 98658, 136332, 89181, 27405, 3654, 378, 27, 1)
EXAMPLE_ROW_PD_REG = (8, 100)

LONG_DESK_SET = tuple((n, t) for n in (3, 4, 5) for t in (1, 2, 3)) + ((6, 1), (6, 2))
SHORT_DESK_SET = ((4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (7, 1))


def suite_example_row(cap: int, seed: int) -> Iterator[Report]:
    n, t = EXAMPLE_ROW_N, EXAMPLE_ROW_T

    def compute():
        pd, reg = formulas.short_path_pd_reg(n, 0, t)
        if (pd, reg) != EXAMPLE_ROW_PD_REG:
            return {"aspect": "pd/reg", "values": [[pd, reg], list(EXAMPLE_ROW_PD_REG)]}
        got = tuple(formulas.short_path_betti(n, 0, t, i) for i in range(pd + 1))
        if got != EXAMPLE_ROW_TOTALS:
            return {"aspect": "totals", "values": [list(map(str, got)),
                                                   list(map(str, EXAMPLE_ROW_TOTALS))]}
        if formulas.short_path_betti(n, 0, t, pd + 1) != 0:
            return {"aspect": "vanishing", "i": pd + 1}
        return None

    yield _timed(f"example row short-power(n={n},t={t})", compute)


def suite_long_path_oracle(cap: int, seed: int) -> Iterator[Report]:
    cases = [FamilyCase("long-power", n, 0, t) for n, t in LONG_DESK_SET]
    return cross_validate(cases, ["closed", "oracle"], chars=(2, DEFAULT_PRIME), cap=cap)


def suite_short_path_oracle(cap: int, seed: int) -> Iterator[Report]:
    cases = [FamilyCase("mixed", n, 0, t) for n, t in SHORT_DESK_SET]
    return cross_validate(cases, ["closed", "oracle"], cap=cap)


def suite_main_identity(cap: int, seed: int) -> Iterator[Report]:
    n_max, st_max = 12, 8
    for n in range(2, n_max + 1):
        def compute(n=n):
            for s in range(st_max + 1):
                for t in range(st_max + 1):
                    for i in range(2 * (s + t) + 3):
                        a = recursion.mixed_rec(n, s, t, i)
                        b = formulas.short_path_betti(n, s, t, i)
                        if a != b:
                            return {"s": s, "t": t, "i": i,
                                    "values": [str(a), str(b)]}
            return None
        yield _timed(f"main identity recursion==closed n={n} s,t<={st_max}", compute)


def suite_three_route(cap: int, seed: int) -> Iterator[Report]:
    n_max, t_max = 10, 8
    for n in range(2, n_max + 1):
        def compute(n=n):
            for t in range(1, t_max + 1):
                for i in range(n + 2):
                    rec = recursion.long_path_rec(n, 0, t, i)
                    gf = formulas.series_betti(n, t, i)
                    closed = formulas.long_path_betti(n, t, i)
                    if not rec == gf == closed:
                        return {"t": t, "i": i,
                                "values": [str(rec), str(gf), str(closed)]}
            return None
        yield _timed(f"three-route long-power n={n} t<={t_max}", compute)
    for n, t in LONG_DESK_SET:
        yield _audit_oracle(FamilyCase("long-power", n, 0, t), DEFAULT_PRIME, cap)


def suite_splittings(cap: int, seed: int) -> Iterator[Report]:
    # (a) splitting off the first generator of the long-path product
    for n in (4, 5):
        f1 = families.path_generator(n, 1, n - 1)
        below = families.long_path_ideal(n - 1).embed(n)
        here = families.long_path_ideal(n)
        for s in range(0, 4):
            for t in range(1, 4 - s):
                total = below ** s * here ** t
                left = below ** s * MonomialIdeal([f1 ** t], n)
                right = variable(n, n) * (below ** (s + 1) * here ** (t - 1))
                yield check_splitting(total, left, right, DEFAULT_PRIME, cap,
                                      label=f"long-power split n={n} s={s} t={t}")

    # (b) every chain step of the mixed and corner decompositions, each tail
    # built once from the top piece down: tail(j) = piece(j) + xn * tail(j+1)
    for n in (4, 5):
        for s in range(0, 3):
            for t in range(0, 3):
                for family in ("mixed", "corner"):
                    steps = []
                    tail = families.chain_piece(n, s, t, s + t, family)
                    for j in reversed(range(s + t)):
                        piece = families.chain_piece(n, s, t, j, family)
                        rest = variable(n, n) * tail
                        tail = piece + rest
                        steps.append((j, tail, piece, rest))
                    for j, total, piece, rest in reversed(steps):
                        yield check_splitting(
                            total, piece, rest, DEFAULT_PRIME, cap,
                            label=f"{family} chain split n={n} s={s} t={t} j={j}")
                        yield _timed(
                            f"{family} chain intersection n={n} s={s} t={t} j={j}",
                            lambda piece=piece, rest=rest, n=n: (
                                None if (piece & rest) == variable(n, n) * piece
                                else {"aspect": "intersection identity"}))

    # (c) splitting off the first generator of the stacked reduced product
    for n in (4, 5):
        f1 = families.path_generator(n, 1, n - 2)
        below = families.reduced_short_path_ideal(n - 1).embed(n)
        for s in range(0, 4):
            for t in range(1, 4 - s):
                total = families.stacked_reduced_power(n, s, t)
                left = below ** s * MonomialIdeal([f1 ** t], n)
                right = variable(n, n) * families.stacked_reduced_power(n, s + 1, t - 1)
                yield check_splitting(total, left, right, DEFAULT_PRIME, cap,
                                      label=f"stacked split n={n} s={s} t={t}")


def suite_residuals(cap: int, seed: int) -> Iterator[Report]:
    rng = random.Random(seed)

    def sweep(name, draw, evaluate):
        def compute():
            for _ in range(RESIDUAL_SAMPLES):
                args = draw()
                if evaluate(*args) != 0:
                    return {"args": list(args)}
            return None
        return _timed(name, compute)

    yield sweep("shift residual, recursion route",
          lambda: (rng.randint(4, 12), rng.randint(0, 8), rng.randint(0, 20)),
          lambda n, s, i: recursion.shift_residual(n, s, i, "recursion"))
    yield sweep("exchange residual, recursion route",
          lambda: (rng.randint(4, 12), rng.randint(0, 8), rng.randint(2, 8),
                   rng.randint(0, 24)),
          lambda n, s, t, i: recursion.exchange_residual(n, s, t, i, "recursion"))
    yield sweep("shift residual, closed route",
          lambda: (rng.randint(4, 16), rng.randint(0, 10), rng.randint(0, 24)),
          lambda n, s, i: recursion.shift_residual(n, s, i, "closed"))
    yield sweep("exchange residual, closed route",
          lambda: (rng.randint(4, 16), rng.randint(0, 10), rng.randint(2, 10),
                   rng.randint(0, 28)),
          lambda n, s, t, i: recursion.exchange_residual(n, s, t, i, "closed"))

    def binomial_residuals(n, m, s):
        binom = formulas.binomial
        yield binom(n + 1, s + 1) - binom(n, s) - binom(n, s + 1)
        yield (binom(n, m) - binom(n - 2, m - 2) - 2 * binom(n - 2, m - 1)
               - binom(n - 2, m))
        yield (sum(binom(n + j, m) for j in range(s + 1))
               - binom(n + s + 1, m + 1) + binom(n, m + 1))
        yield (sum(j * binom(n + j, m) for j in range(s + 1))
               - s * binom(n + s + 1, m + 1) + binom(n + s + 1, m + 2)
               - binom(n + 1, m + 2))

    yield sweep("binomial identities",
          lambda: (rng.randint(2, 60), rng.randint(0, 60), rng.randint(0, 60)),
          lambda n, m, s: sum(abs(r) for r in binomial_residuals(n, m, s)))


def suite_delta_edge(cap: int, seed: int) -> Iterator[Report]:
    """The corner-chain closed form over-counts at s = 0; the chain multiset
    is what the oracle confirms.  Both facts are asserted, so the discrepancy
    is a tested statement rather than a silent patch."""
    n, t = 4, 2
    corner = families.corner_power(n, 0, t)

    def compute_default():
        got = recursion.corner_rec(n, 0, t, 0)
        want = oracle_table(corner, DEFAULT_PRIME, cap).total(0)
        return None if got == want == t + 1 else {"values": [str(got), str(want)]}

    def compute_strict():
        got = recursion.corner_rec(n, 0, t, 0, strict_delta=True)
        want = oracle_table(corner, DEFAULT_PRIME, cap).total(0)
        # the strict (closed-form) multiset must over-count by exactly one
        return None if got == t + 2 and want == t + 1 else \
            {"values": [str(got), str(want)]}

    yield _timed(f"delta edge default corner(n={n},t={t})", compute_default)
    yield _timed(f"delta edge strict over-counts corner(n={n},t={t})", compute_strict)


def suite_support_facts(cap: int, seed: int) -> Iterator[Report]:
    def marginal_multiplicity():
        for total in range(2, 13):
            for t in range(1, total + 1):
                s = total - t
                mult = recursion.composed_support(s, t)[(total - 2, 1)]
                if mult != 1:
                    return {"s": s, "t": t, "multiplicity": mult}
        return None

    def containment():
        for s in range(9):
            for t in range(1, 9):
                envelope = families.support_envelope(s, t)
                stray = set(recursion.composed_support(s, t)) - envelope
                if stray:
                    return {"s": s, "t": t, "outside": sorted(stray)[:3]}
        return None

    def pd_agreement():
        for n in range(2, 13):
            for total in range(1, 9):
                for t in range(1, total + 1):
                    s = total - t
                    rec = recursion.short_path_pd_rec(n, s, t)
                    closed = formulas.short_path_pd_reg(n, s, t)[0]
                    support = max(
                        (i for i in range(n + 1)
                         if formulas.short_path_betti(n, s, t, i) != 0), default=0)
                    if not rec == closed == support:
                        return {"n": n, "s": s, "t": t,
                                "values": [rec, closed, support]}
        return None

    yield _timed("composed support multiplicity at (s+t-2, 1)", marginal_multiplicity)
    yield _timed("composed support inside envelope", containment)
    yield _timed("pd recursion == closed == support", pd_agreement)


SUITES = {
    "example-row": suite_example_row,
    "long-path-oracle": suite_long_path_oracle,
    "short-path-oracle": suite_short_path_oracle,
    "main-identity": suite_main_identity,
    "three-route": suite_three_route,
    "splittings": suite_splittings,
    "residuals": suite_residuals,
    "delta-edge": suite_delta_edge,
    "support-facts": suite_support_facts,
}


def run_suite(name: str, cap: int = DEFAULT_LATTICE_CAP,
              seed: int = DEFAULT_SEED) -> Iterator[Report]:
    """The reports of one named suite, or of every suite in turn for name ==
    "all", as an iterator.  An unknown name raises ValueError at the call;
    each suite starts only when its first report is asked for."""
    if name == "all":
        return (report for fn in SUITES.values() for report in fn(cap, seed))
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choices: {', '.join(SUITES)} or all")
    return SUITES[name](cap, seed)


def run_config(config: dict, cap: int = DEFAULT_LATTICE_CAP,
               seed: int = DEFAULT_SEED) -> Iterator[Report]:
    """Run a config of the shape {"suites": [...]} and/or {"sweeps": [...]}.

    Each sweep gives a family kind, inclusive [lo, hi] ranges for its
    parameters, a route list, and optionally characteristics.  The whole
    config is checked at the call, before anything runs: a malformed one,
    or a range outside its family's domain, raises ValueError.  The reports
    then come back as an iterator.
    """
    _check_config(config)

    def reports():
        for name in config.get("suites", []):
            yield from run_suite(name, cap, seed)
        for sweep in config.get("sweeps", []):
            lo_n, hi_n = sweep.get("n", _RANGE_DEFAULTS["n"])
            lo_s, hi_s = sweep.get("s", _RANGE_DEFAULTS["s"])
            lo_t, hi_t = sweep.get("t", _RANGE_DEFAULTS["t"])
            cases = [FamilyCase(sweep["kind"], n, s, t)
                     for n in range(lo_n, hi_n + 1)
                     for s in range(lo_s, hi_s + 1)
                     for t in range(lo_t, hi_t + 1)]
            yield from cross_validate(
                cases, sweep.get("routes", _DEFAULT_ROUTES),
                tuple(sweep.get("chars", [DEFAULT_PRIME])), cap)

    return reports()


_SWEEP_KEYS = ("kind", "n", "s", "t", "routes", "chars")
_RANGE_DEFAULTS = {"n": [2, 2], "s": [0, 0], "t": [0, 0]}
_DEFAULT_ROUTES = ["closed", "oracle"]
_ITEM_NOUNS = {str: "strings", dict: "objects", int: "integers"}


def _check_config(config) -> None:
    """Raise ValueError at the first part of config that run_config cannot read."""
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object with keys suites and/or sweeps")
    _check_keys(config, ("suites", "sweeps"), "config")
    for name in _listed(config, "suites", str, "config"):
        if name != "all" and name not in SUITES:
            raise ValueError(f"config: unknown suite {name!r}; "
                             f"choices: {', '.join(SUITES)} or all")
    sweeps = _listed(config, "sweeps", dict, "config")
    for number, sweep in enumerate(sweeps, 1):
        where = f"config sweep {number}"
        _check_keys(sweep, _SWEEP_KEYS, where)
        kind = sweep.get("kind")
        if kind not in FAMILY_KINDS:
            raise ValueError(f"{where}: 'kind' must be one of {', '.join(FAMILY_KINDS)}, "
                             f"not {kind!r}")
        for key in ("n", "s", "t"):
            bounds = sweep.get(key, _RANGE_DEFAULTS[key])
            if not (isinstance(bounds, list) and len(bounds) == 2
                    and all(type(b) is int for b in bounds)):
                raise ValueError(f"{where}: {key!r} must be an integer range [lo, hi], "
                                 f"not {bounds!r}")
        for p in _listed(sweep, "chars", int, where):
            try:
                check_prime(p)
            except ValueError as exc:
                raise ValueError(f"{where}: 'chars': {exc}") from None
        for key, least in (("n", 2), ("s", 0), ("t", 1 if kind == "long-power" else 0)):
            lo, hi = sweep.get(key, _RANGE_DEFAULTS[key])
            if not least <= lo <= hi:
                raise ValueError(f"{where}: {key!r} must be a range [lo, hi] with "
                                 f"{least} <= lo <= hi for {kind} families, "
                                 f"not {[lo, hi]!r}")
        for route in _listed(sweep, "routes", str, where, _DEFAULT_ROUTES):
            if route != "oracle" and (kind, route) not in _ROUTE_TOTALS:
                raise ValueError(f"{where}: route {route!r} not applicable to {kind} families")
        # long(n)^t has no s: a range would run each case once per s
        if kind == "long-power" and sweep.get("s", [0, 0]) != [0, 0]:
            raise ValueError(f"{where}: 's' must be [0, 0] for long-power families, "
                             f"not {sweep['s']!r}")
    # then the members, once every sweep reads: the unit ideal has no lcm
    # lattice, and a sweep's least member is unit if any member is
    for number, sweep in enumerate(sweeps, 1):
        least = FamilyCase(sweep["kind"], *(sweep.get(key, _RANGE_DEFAULTS[key])[0]
                                            for key in ("n", "s", "t")))
        if least.is_unit():
            raise ValueError(f"config sweep {number}: {least.label()} "
                             f"is the unit ideal; raise the range's lower bounds")


def _check_keys(mapping: dict, known: tuple, where: str) -> None:
    unknown = [key for key in mapping if key not in known]
    if unknown:
        raise ValueError(f"{where}: unknown key {unknown[0]!r}; keys: {', '.join(known)}")


def _listed(mapping: dict, key: str, item_type: type, where: str, default=()) -> list:
    """mapping[key] (or default), checked to be a list of item_type (so no bools
    pass for integers)."""
    items = mapping.get(key, list(default))
    if not (isinstance(items, list) and all(type(item) is item_type for item in items)):
        raise ValueError(f"{where}: {key!r} must be a list of {_ITEM_NOUNS[item_type]}, "
                         f"not {items!r}")
    return items
