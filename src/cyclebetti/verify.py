"""Cross-route validation: splitting audits and formula/recursion/oracle sweeps.

Every comparison is exact equality; there are no tolerances anywhere.
Results stream as Report records, each yielded as soon as its case
finishes, that serialize to JSON lines, one per line, schema
{case, status, witness?: {at, routes, values}, millis, route_millis?}.
"""
from __future__ import annotations

import functools
import json
import random
import time
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from itertools import zip_longest

from . import families, formulas, recursion
from .monomials import MonomialIdeal, variable
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
        """The fields in declaration order, leaving out the unset ones."""
        return json.dumps({name: value for name, value in asdict(self).items()
                           if value is not None})


def _timed(case: str, check) -> Report:
    """Run check() -> witness-or-None and wrap the outcome."""
    start = time.perf_counter()
    witness = check()
    millis = int((time.perf_counter() - start) * 1000)
    status = "match" if witness is None else "mismatch"
    return Report(case, status, witness, millis)


def _disagreement(points, routes: dict, sequences: bool = False) -> dict | None:
    """The witness {at, routes, values} at the first point where the routes
    (name -> function of the point's arguments) differ, or None when they
    agree at every point.  Each other route is compared with the first.

    With sequences, each route returns a sequence of entries 0, 1, ... at a
    point, and the witness is at the point followed by the first index where
    the sequences differ; an entry past the end of a sequence reads 0.
    """
    first, *others = routes.values()
    for point in points:
        want = first(*point)
        for route in others:
            if route(*point) != want:
                values = [route(*point) for route in routes.values()]
                if not sequences:
                    return {"at": list(point), "routes": list(routes),
                            "values": [str(value) for value in values]}
                for i, entries in enumerate(zip_longest(*values, fillvalue=0)):
                    if entries.count(entries[0]) < len(entries):
                        return {"at": [*point, i], "routes": list(routes),
                                "values": [str(entry) for entry in entries]}
    return None


def _agreement(case: str, points, routes: dict, sequences: bool = False) -> Report:
    """The timed report of _disagreement; points are drawn inside the timing."""
    return _timed(case, lambda: _disagreement(points, routes, sequences))


# ---------------------------------------------------------------------------
# Oracle access, memoized per ideal up to a monomial factor.  Multiplying an
# ideal by a monomial m translates its lcm lattice, and with it every upper
# Koszul complex, so beta_(i,j)(m I) = beta_(i,j-deg m)(I) over every field
# (Gasharov, Peeva and Welker, Math. Res. Lett. 6, 1999); a variable no
# generator uses adds nothing.  The chain splittings ask for many such pairs.
# ---------------------------------------------------------------------------

_oracle_memo: dict[tuple[MonomialIdeal, int, int], BettiTable] = {}


def _reduced_form(ideal: MonomialIdeal) -> tuple[MonomialIdeal, int]:
    """(reduced, deg gcd): the ideal divided by the gcd of its generators,
    in the variables the quotient's generators use.  The zero ideal and a
    one-generator ideal, whose quotient is the unit ideal, are their own."""
    if len(ideal) < 2:
        return ideal, 0
    rows = ideal.matrix()
    gcd = rows.min(axis=0)
    rows = rows - gcd
    return MonomialIdeal(rows[:, rows.any(axis=0)]), int(gcd.sum())


def oracle_table(ideal: MonomialIdeal, char: int, cap: int) -> BettiTable:
    """graded_betti(ideal, char, cap), computed once per reduced form and
    shifted back by the degree of the gcd.  The lattice of the reduced form
    is a translate of the ideal's, so the cap fires for both or for neither;
    the 63-variable support limit counts the reduced form's variables."""
    reduced, shift = _reduced_form(ideal)
    key = (reduced, char, cap)
    table = _oracle_memo.get(key)
    if table is None:
        # graded_betti is looked up here, at call time, so a stand-in put in
        # this module's namespace sees every table the memo computes
        table = _oracle_memo[key] = graded_betti(reduced, char, cap)
    return BettiTable({(i, j + shift): v for (i, j), v in table.entries.items()},
                      ideal.ambient, char)


def clear_oracle_cache() -> None:
    _oracle_memo.clear()


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
        """The member's ideal, built at the first call and kept with the case."""
        return self._ideal

    @functools.cached_property
    def _ideal(self) -> MonomialIdeal:
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


# The one table of which route answers which family kind.  A Route's totals
# maps each kind it answers to fn(case, char, cap), the total Betti sequence;
# its pd(case) reads the pd off without the sequence, or gives None where it
# cannot.  Entries reach formulas.* and recursion.* through the module at
# call time.  Both closed sequences are cached; the long-power one stops at
# i = min(n-1, t), where a binomial vanishes.  So does the series route:
# _core_coefficient(n-2, b, i) is 0 for i > b (b <= t) or i > n-2, and its
# shifted copy at (n-2, b-1, i-1) for i > t or i > n-1.
Route = namedtuple("Route", "totals pd", defaults=(lambda case: None,))
ROUTES = {
    "closed": Route({"long-power": lambda c, *_: formulas.long_power_seq(c.n, c.t),
                     "mixed": lambda c, *_: formulas.short_path_seq(c.n, c.s, c.t)},
                    pd=lambda c: c.closed_pd_reg()[0]),
    "recursion": Route(
        {"long-power": lambda c, *_: recursion.long_path_seq(c.n, 0, c.t),
         "mixed": lambda c, *_: recursion.mixed_seq(c.n, c.s, c.t),
         "corner": lambda c, *_: recursion.corner_seq(c.n, c.s, c.t)},
        pd=lambda c: (recursion.short_path_pd_rec(c.n, c.s, c.t)
                      if c.kind == "mixed" and c.t >= 1 else None)),
    "series": Route({"long-power": lambda c, *_: [formulas.series_betti(c.n, c.t, i)
                                                  for i in range(min(c.n - 1, c.t) + 1)]}),
    "oracle": Route(dict.fromkeys(FAMILY_KINDS, lambda c, char, cap:
                                  oracle_table(c.ideal(), char, cap).totals())),
}
# the other spellings of a route, read as its name where a name enters (the
# CLI's --route and a config's routes); below that only ROUTES names appear
ROUTE_ALIASES = {"formula": "closed", "recursive": "recursion"}


def check_route(kind: str, route: str) -> None:
    """Raise ValueError unless route is a name of ROUTES that answers the
    family kind; the message names the routes that do."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; routes: {', '.join(ROUTES)}")
    if kind not in ROUTES[route].totals:
        if kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {kind!r}")
        *others, last = (name for name, entry in ROUTES.items() if kind in entry.totals)
        raise ValueError(f"route {route!r} not applicable to {kind} families; "
                         f"use --route {', '.join(others)} or {last}")


def route_totals(case: FamilyCase, route: str, char: int = DEFAULT_PRIME,
                 cap: int = DEFAULT_LATTICE_CAP) -> list[int]:
    """Total Betti sequence (i = 0, 1, ...) of the case by the route's entry
    in ROUTES, trailing zeros stripped."""
    check_route(case.kind, route)
    sequence = ROUTES[route].totals[case.kind](case, char, cap)
    return list(formulas.strip_zeros(sequence))


def route_pd(case: FamilyCase, route: str) -> int:
    """Projective dimension of the case by the route: its pd function where
    that covers the case, else the last index of its totals."""
    check_route(case.kind, route)
    value = ROUTES[route].pd(case)
    return len(route_totals(case, route)) - 1 if value is None else value


def cross_validate(cases, routes, chars=(DEFAULT_PRIME,),
                   cap=DEFAULT_LATTICE_CAP) -> Iterator[Report]:
    """Compare total Betti sequences across routes, case by case.

    The oracle route is expanded once per characteristic and additionally
    audited for single-row linearity and for pd/reg against the closed
    formulas (when the case has them).  Each comparison report carries the
    milliseconds of every expanded route in route_millis.  A case's ideal is
    built once, at its first oracle use, and dropped with the case.
    """
    expanded = [(route, p) for route in routes
                for p in (chars if route == "oracle" else (DEFAULT_PRIME,))]
    joined = "/".join(route for route, _ in expanded)
    for case in cases:
        route_millis = {}

        def compute():
            totals = {}
            for route, p in expanded:
                name = f"oracle(p={p})" if route == "oracle" else route
                start = time.perf_counter()
                totals[name] = route_totals(case, route, char=p, cap=cap)
                route_millis[name] = int((time.perf_counter() - start) * 1000)
            return _disagreement(((i,) for i in range(max(map(len, totals.values())))),
                                 {name: functools.partial(formulas.seq_entry, seq)
                                  for name, seq in totals.items()})

        report = _timed(f"{case.label()} routes={joined}", compute)
        report.route_millis = route_millis
        yield report
        for p in chars if "oracle" in routes else ():
            yield _audit_oracle(case, p, cap)


def _audit_oracle(case: FamilyCase, char: int, cap: int) -> Report:
    """Single-row linearity plus pd/reg against the closed formulas; a corner
    case has no closed pd/reg, so only its rows are audited."""
    def compute():
        table = oracle_table(case.ideal(), char, cap)
        closed = {"rows": [case.initial_degree()],
                  **dict(zip(("pd", "reg"), case.closed_pd_reg() or ()))}
        oracle = {"rows": table.rows(), "pd": table.pd(), "reg": table.reg()}
        return _disagreement([(at,) for at in closed],
                             {"oracle": oracle.get, "closed": closed.get})

    return _timed(f"{case.label()} oracle(p={char}) audit", compute)


# ---------------------------------------------------------------------------
# Betti-splitting audit.
# ---------------------------------------------------------------------------

def check_splitting(total: MonomialIdeal, left: MonomialIdeal, right: MonomialIdeal,
                    char: int = DEFAULT_PRIME, cap: int = DEFAULT_LATTICE_CAP, *,
                    label: str) -> Report:
    """Audit the splitting identity beta_i(total) = beta_i(left) + beta_i(right)
    + beta_{i-1}(left & right), plus the pd and reg max-formulas it implies.
    The report's case is label followed by the characteristic.
    """
    if total != left + right:
        raise ValueError("not a decomposition: the first ideal must equal "
                         "the sum of the other two")

    def compute():
        tp, tl, tr, tm = (oracle_table(ideal, char, cap)
                          for ideal in (total, left, right, left & right))
        top = max(tp.pd(), tl.pd(), tr.pd(), tm.pd() + 1)
        split = {i: tl.total(i) + tr.total(i) + tm.total(i - 1) for i in range(top + 1)}
        split.update(pd=max(tl.pd(), tr.pd(), tm.pd() + 1),
                     reg=max(tl.reg(), tr.reg(), tm.reg() - 1))
        whole = {i: tp.total(i) for i in range(top + 1)} | {"pd": tp.pd(), "reg": tp.reg()}
        return _disagreement([(at,) for at in split], {"total": whole.get, "split": split.get})

    return _timed(f"{label} (p={char})", compute)


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
    # the pd and reg, then the totals and the entry past the pd, which vanishes
    pinned = dict(zip(["pd", "reg", *range(len(EXAMPLE_ROW_TOTALS) + 1)],
                      [*EXAMPLE_ROW_PD_REG, *EXAMPLE_ROW_TOTALS, 0]))

    def closed(at):
        if isinstance(at, int):
            return formulas.short_path_betti(n, 0, t, at)
        return formulas.short_path_pd_reg(n, 0, t)[("pd", "reg").index(at)]

    yield _agreement(f"example row short-power(n={n},t={t})", [(at,) for at in pinned],
                     {"closed": closed, "pinned": pinned.get})


def suite_long_path_oracle(cap: int, seed: int) -> Iterator[Report]:
    cases = [FamilyCase("long-power", n, 0, t) for n, t in LONG_DESK_SET]
    return cross_validate(cases, ["closed", "oracle"], chars=(2, DEFAULT_PRIME), cap=cap)


def suite_short_path_oracle(cap: int, seed: int) -> Iterator[Report]:
    cases = [FamilyCase("mixed", n, 0, t) for n, t in SHORT_DESK_SET]
    return cross_validate(cases, ["closed", "oracle"], cap=cap)


def _mixed_entries() -> dict:
    """Route name -> mixed-family entry function f(n, s, t, i), read per call."""
    return {"recursion": recursion.mixed_rec, "closed": formulas.short_path_betti}


def _padded(seq, size: int) -> list[int]:
    """The first size entries of seq, padded with zeros to size."""
    return [*seq[:size], *[0] * (size - len(seq))]


def _member_entries() -> dict:
    """Route name -> f(n, s, t), the entries 0..2(s+t)+2 of the mixed member,
    read per call.  The closed route reads its cached head for 0..n and one
    window of the closed form past n, which is 0 past formulas._top."""
    def by_recursion(n, s, t):
        return _padded(recursion.mixed_seq(n, s, t), 2 * (s + t) + 3)

    def closed(n, s, t):
        size = 2 * (s + t) + 3
        head = _padded(formulas.short_path_seq(n, s, t), n + 1)
        return _padded(head + formulas.short_path_window(n, s, t, n + 1, size - 1), size)

    return {"recursion": by_recursion, "closed": closed}


def suite_main_identity(cap: int, seed: int) -> Iterator[Report]:
    n_max, st_max = 12, 8
    routes = _member_entries()
    for n in range(2, n_max + 1):
        members = ((n, s, t) for s in range(st_max + 1) for t in range(st_max + 1))
        yield _agreement(f"main identity recursion==closed n={n} s,t<={st_max}",
                         members, routes, sequences=True)


def suite_three_route(cap: int, seed: int) -> Iterator[Report]:
    n_max, t_max = 10, 8
    routes = {"recursion": lambda n, t, i: recursion.long_path_rec(n, 0, t, i),
              "series": formulas.series_betti, "closed": formulas.long_path_betti}
    for n in range(2, n_max + 1):
        points = ((n, t, i) for t in range(1, t_max + 1) for i in range(n + 2))
        yield _agreement(f"three-route long-power n={n} t<={t_max}", points, routes)
    for n, t in LONG_DESK_SET:
        case = FamilyCase("long-power", n, 0, t)
        yield _audit_oracle(case, DEFAULT_PRIME, cap)


def suite_splittings(cap: int, seed: int) -> Iterator[Report]:
    def first_generator_splits(name, f1, below, here):
        """below^s * here^t = below^s * (f1^t) + xn * below^(s+1) * here^(t-1),
        for s + t <= 3 with t >= 1, f1 the first generator of here."""
        n = here.ambient
        for s in range(0, 4):
            for t in range(1, 4 - s):
                total = below ** s * here ** t
                left = below ** s * MonomialIdeal([f1 ** t], n)
                right = variable(n, n) * (below ** (s + 1) * here ** (t - 1))
                yield check_splitting(total, left, right, DEFAULT_PRIME, cap,
                                      label=f"{name} split n={n} s={s} t={t}")

    # (a) splitting off the first generator of the long-path product
    for n in (4, 5):
        yield from first_generator_splits("long-power", families.path_generator(n, 1, n - 1),
                                          families.long_path_ideal(n - 1).embed(n),
                                          families.long_path_ideal(n))

    # (b) every chain step of the mixed and corner decompositions
    for n in (4, 5):
        for s in range(0, 3):
            for t in range(0, 3):
                for family in ("mixed", "corner"):
                    steps = families.chain_steps(n, s, t, family)
                    for j, (total, piece, rest) in enumerate(steps):
                        yield check_splitting(
                            total, piece, rest, DEFAULT_PRIME, cap,
                            label=f"{family} chain split n={n} s={s} t={t} j={j}")
                        yield _agreement(
                            f"{family} chain intersection n={n} s={s} t={t} j={j}", [()],
                            {"meet": lambda piece=piece, rest=rest: piece & rest,
                             "xn * piece": lambda piece=piece, n=n: variable(n, n) * piece})

    # (c) splitting off the first generator of reduced(n-1)^s * reduced(n)^t
    for n in (4, 5):
        yield from first_generator_splits("stacked", families.path_generator(n, 1, n - 2),
                                          families.reduced_short_path_ideal(n - 1).embed(n),
                                          families.reduced_short_path_ideal(n))


def suite_residuals(cap: int, seed: int) -> Iterator[Report]:
    rng = random.Random(seed)

    def sweep(name, draw, evaluate):
        return _agreement(name, (draw() for _ in range(RESIDUAL_SAMPLES)),
                          {"residual": evaluate, "zero": lambda *point: 0})

    # n, s and i are the bounds of the draws; exchange draws t up to s and i up to i + 4
    for route, (n, s, i) in (("recursion", (12, 8, 20)), ("closed", (16, 10, 24))):
        entry = _mixed_entries()[route]
        yield sweep(f"shift residual, {route} route",
                    lambda n=n, s=s, i=i: (rng.randint(4, n), rng.randint(0, s),
                                           rng.randint(0, i)),
                    functools.partial(recursion.shift_residual, entry))
        yield sweep(f"exchange residual, {route} route",
                    lambda n=n, s=s, i=i: (rng.randint(4, n), rng.randint(0, s),
                                           rng.randint(2, s), rng.randint(0, i + 4)),
                    functools.partial(recursion.exchange_residual, entry))

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

    def strict_step(n, s, t, i):
        # one corner-chain step over the strict multiset, head + (1+z) *
        # sum(pairs), read off the default recursion one size down; at n = 4
        # it is the whole strict recursion: its n = 3 members read no multiset
        below = functools.partial(recursion.mixed_rec, n - 1)
        return below(*families.chain_pair(s, t, s + t, "corner"), i) + sum(
            below(a, b, i) + below(a, b, i - 1)
            for a, b in families.corner_chain_pairs(s, t, strict=True))

    # beta_0 counts the t + 1 generators; the strict multiset over-counts it by one
    for strict, name, chain in ((False, "default", recursion.corner_rec),
                                (True, "strict over-counts", strict_step)):
        yield _agreement(
            f"delta edge {name} corner(n={n},t={t})", [(n, 0, t, 0)],
            {"recursion": chain,
             "oracle": lambda n, s, t, i, strict=strict:
                 oracle_table(corner, DEFAULT_PRIME, cap).total(i) + strict,
             "generators": lambda n, s, t, i, strict=strict: t + 1 + strict})


def suite_support_facts(cap: int, seed: int) -> Iterator[Report]:
    def outside(s, t):
        return sorted(set(recursion.composed_support(s, t)) - families.support_envelope(s, t))

    def multiplicity(s, t):
        return recursion.composed_support(s, t)[(s + t - 2, 1)]

    def support_pd(n, s, t):
        return max(len(formulas.short_path_seq(n, s, t)) - 1, 0)

    yield _agreement("composed support multiplicity at (s+t-2, 1)",
                     ((total - t, t) for total in range(2, 13) for t in range(1, total + 1)),
                     {"multiplicity": multiplicity, "one": lambda s, t: 1})
    yield _agreement("composed support inside envelope",
                     ((s, t) for s in range(9) for t in range(1, 9)),
                     {"outside envelope": outside, "none": lambda s, t: []})
    yield _agreement("pd recursion == closed == support",
                     ((n, total - t, t) for n in range(2, 13) for total in range(1, 9)
                      for t in range(1, total + 1)),
                     {"recursion": recursion.short_path_pd_rec,
                      "closed": lambda n, s, t: formulas.short_path_pd_reg(n, s, t)[0],
                      "support": support_pd})


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
    return _run(_suite_names(name), (), cap, seed)


def run_config(config: dict, cap: int = DEFAULT_LATTICE_CAP,
               seed: int = DEFAULT_SEED) -> Iterator[Report]:
    """Run a config of the shape {"suites": [...]} and/or {"sweeps": [...]}.

    Each sweep gives a family kind, inclusive [lo, hi] ranges for its
    parameters, a route list, and optionally characteristics.  The whole
    config is read at the call, before anything runs: a malformed one, or a
    range outside its family's domain, raises ValueError.  The reports then
    come back as an iterator over what was read, so a later edit of config
    does not reach the run.
    """
    return _run(*_read_config(config), cap, seed)


def _run(names: tuple, sweeps: tuple, cap: int, seed: int) -> Iterator[Report]:
    """The reports of the named suites, then of the sweeps (kind, (n, s, t)
    ranges, routes, chars), each started when its first report is asked for;
    a sweep builds each case only when it reaches it."""
    for name in names:
        yield from SUITES[name](cap, seed)
    for kind, (ns, ss, ts), routes, chars in sweeps:
        cases = (FamilyCase(kind, n, s, t) for n in ns for s in ss for t in ts)
        yield from cross_validate(cases, routes, chars, cap)


def _suite_names(name: str, where: str = "") -> tuple[str, ...]:
    """The suites name stands for: every suite for "all", else name itself.
    An unknown name raises ValueError, its message prefixed by where."""
    if name == "all":
        return tuple(SUITES)
    if name not in SUITES:
        raise ValueError(f"{where}unknown suite {name!r}; choices: {', '.join(SUITES)} or all")
    return (name,)


_SWEEP_KEYS = ("kind", "n", "s", "t", "routes", "chars")
_RANGE_DEFAULTS = {"n": [2, 2], "s": [0, 0], "t": [0, 0]}
_DEFAULT_ROUTES = ["closed", "oracle"]
_ITEM_NOUNS = {str: "strings", dict: "objects", int: "integers"}


def _read_config(config) -> tuple[tuple[str, ...], tuple]:
    """The plan run_config runs: the suite names, then each sweep as (kind,
    (n, s, t) ranges, routes, chars), built from fresh values.  Raise
    ValueError at the first part of config that cannot be read."""
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object with keys suites and/or sweeps")
    _check_keys(config, ("suites", "sweeps"), "config")
    names = tuple(suite for name in _listed(config, "suites", str, "config")
                  for suite in _suite_names(name, "config: "))
    _check_members(names, "suites", "config", empty_ok=True)
    sweeps = []
    for number, sweep in enumerate(_listed(config, "sweeps", dict, "config"), 1):
        where = f"config sweep {number}"
        _check_keys(sweep, _SWEEP_KEYS, where)
        kind = sweep.get("kind")
        if kind not in FAMILY_KINDS:
            raise ValueError(f"{where}: 'kind' must be one of {', '.join(FAMILY_KINDS)}, "
                             f"not {kind!r}")
        bounds = {key: sweep.get(key, default) for key, default in _RANGE_DEFAULTS.items()}
        for key, value in bounds.items():
            if not (isinstance(value, list) and len(value) == 2
                    and all(type(b) is int for b in value)):
                raise ValueError(f"{where}: {key!r} must be an integer range [lo, hi], "
                                 f"not {value!r}")
        chars = _listed(sweep, "chars", int, where, [DEFAULT_PRIME])
        for p in chars:
            try:
                check_prime(p)
            except ValueError as exc:
                raise ValueError(f"{where}: 'chars': {exc}") from None
        _check_members(chars, "chars", where)
        for key, least in (("n", 2), ("s", 0), ("t", 1 if kind == "long-power" else 0)):
            lo, hi = bounds[key]
            if not least <= lo <= hi:
                raise ValueError(f"{where}: {key!r} must be a range [lo, hi] with "
                                 f"{least} <= lo <= hi for {kind} families, "
                                 f"not {[lo, hi]!r}")
        routes = tuple(ROUTE_ALIASES.get(name, name)
                       for name in _listed(sweep, "routes", str, where, _DEFAULT_ROUTES))
        try:
            for route in routes:
                check_route(kind, route)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        _check_members(routes, "routes", where)
        if "chars" in sweep and "oracle" not in routes:
            raise ValueError(f"{where}: 'chars' is read by the oracle route only; "
                             "list 'oracle' in 'routes' or drop 'chars'")
        # long(n)^t has no s: a range would run each case once per s
        if kind == "long-power" and bounds["s"] != [0, 0]:
            raise ValueError(f"{where}: 's' must be [0, 0] for long-power families, "
                             f"not {bounds['s']!r}")
        ranges = tuple(range(lo, hi + 1) for lo, hi in bounds.values())
        sweeps.append((kind, ranges, routes, chars))
    if not (names or sweeps):
        raise ValueError("config lists no suite and no sweep, so it verifies nothing")
    # then what each sweep would check, once every sweep reads: the unit
    # ideal has no lcm lattice, and a sweep's least member is unit if any
    # member is; the oracle alone is audited, any other route alone is not
    for number, (kind, ranges, routes, _) in enumerate(sweeps, 1):
        least = FamilyCase(kind, *(values[0] for values in ranges))
        if least.is_unit():
            raise ValueError(f"config sweep {number}: {least.label()} "
                             f"is the unit ideal; raise the range's lower bounds")
        if len(routes) == 1 and routes[0] != "oracle":
            raise ValueError(f"config sweep {number}: route {routes[0]!r} alone "
                             f"compares nothing; list a second route or 'oracle'")
    return names, tuple(sweeps)


def _check_keys(mapping: dict, known: tuple, where: str) -> None:
    unknown = [key for key in mapping if key not in known]
    if unknown:
        raise ValueError(f"{where}: unknown key {unknown[0]!r}; keys: {', '.join(known)}")


def _check_members(items: tuple, key: str, where: str, empty_ok: bool = False) -> None:
    """Empty routes leave nothing to compare and empty chars drop the oracle;
    a repeat would run its suite, route or characteristic again under one name."""
    if not (items or empty_ok):
        raise ValueError(f"{where}: {key!r} must list at least one item")
    for index, item in enumerate(items):
        if item in items[:index]:
            raise ValueError(f"{where}: {key!r} lists {item!r} twice")


def _listed(mapping: dict, key: str, item_type: type, where: str, default=()) -> tuple:
    """mapping[key] (or default), checked to be a list of item_type (so no bools
    pass for integers), as a tuple."""
    items = mapping.get(key, list(default))
    if not (isinstance(items, list) and all(type(item) is item_type for item in items)):
        raise ValueError(f"{where}: {key!r} must be a list of {_ITEM_NOUNS[item_type]}, "
                         f"not {items!r}")
    return tuple(items)
