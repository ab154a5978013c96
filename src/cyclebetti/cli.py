"""Command-line front end.

Commands:
  table <expr> --route closed|recursion|series|oracle [--char P] [--format text|json|csv]
  pd <expr> --route closed|recursion|series|oracle
  split <P-expr> <I-expr> <J-expr> [--char P]
  verify <suite-name|config.json>

Ideal expressions follow the grammar

  expr   := term (('+'|'&') term)*
  term   := factor ('*' factor)*
  factor := atom ('^' uint)?
  atom   := Jc(n,m) | I(n) | J(n) | m(x1,...,xk) | '(' [mono{,mono}] ')' | '(' expr ')'

with precedence ^ > * > + = & (left-associative).  Jc(n,m) is the m-path
ideal of the n-cycle, I(n)/J(n) the full/reduced short-path ideals, and a
parenthesized monomial list a literal generating set: ``()`` is the zero
ideal, ``(1)`` the unit ideal, and build_ideal(str(I)).embed(I.ambient) == I
for every ideal I.  m(x1,...,xk) is the literal list (x1, ..., xk).  Routes
are those of verify.ROUTES, with the aliases formula and recursive; --char
and --lattice-cap apply to the oracle route only.
Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error,
3 resource cap exceeded or out of memory.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import namedtuple
from dataclasses import dataclass

from . import families, verify
from .monomials import CandidateCapError, Monomial, MonomialIdeal
from .oracle import (BettiTable, DEFAULT_LATTICE_CAP, DEFAULT_PRIME,
                     LatticeCapError, check_prime, graded_betti)
from .verify import FamilyCase, route_totals


class ParseError(ValueError):
    """Syntax or semantic error in an ideal expression (exit code 2)."""


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NamedAtom:      # Jc(n,m), I(n), J(n)
    name: str
    args: tuple[int, ...]


@dataclass(frozen=True)
class LiteralAtom:
    # each monomial as a sorted tuple of (variable index, exponent)
    monomials: tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class Power:
    base: object
    exp: int


@dataclass(frozen=True)
class BinOp:
    op: str           # '*', '+', '&'
    left: object
    right: object


# Each named atom's parameter count, and from its parameters the ideal it
# builds (through families.* at call time) and the family factor it is.
AtomKind = namedtuple("AtomKind", "arity build factor")
NAMED_ATOMS = {
    "Jc": AtomKind(2, lambda n, m: families.cycle_path_ideal(n, m),
                   lambda n, m: {n - 1: "long", n - 2: "full"}.get(m)),
    "I": AtomKind(1, lambda n: families.short_path_ideal(n), lambda n: "full"),
    "J": AtomKind(1, lambda n: families.reduced_short_path_ideal(n), lambda n: "reduced"),
}


_TOKEN_RE = re.compile(
    r"(?P<var>x\d+)|(?P<name>[A-Za-z]+)|(?P<int>\d+)|(?P<op>[()^*+&,])"
    r"|(?P<space>\s+)|(?P<stray>.)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token; an operator is its own kind."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind, tok, at = match.lastgroup, match[0], match.start()
        if kind == "stray":
            raise ParseError(f"syntax error at position {at}: unexpected {tok!r}")
        if kind != "space":
            tokens.append((tok if kind == "op" else kind, tok, at))
    return tokens


class _Parser:
    def __init__(self, text: str):
        # the end token (kind None) stands where the input ends
        self.tokens = _tokenize(text) + [(None, None, len(text))]
        self.pos = 0

    def error(self, message: str):
        raise ParseError(f"syntax error at position {self.tokens[self.pos][2]}: {message}")

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.peek()
        if tok[0] is None:
            self.error("unexpected end of input")
        if kind is not None and tok[0] != kind:
            self.error(f"expected {kind!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek()[0] is not None:
            self.error(f"trailing input {self.peek()[1]!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "&"):
            op = self.take()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            self.take()
            node = BinOp("*", node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.take()
            node = Power(node, self.uint())
        return node

    def uint(self) -> int:
        return int(self.take("int")[1])

    def atom(self):
        kind, tok, _ = self.peek()
        if kind == "name":
            if tok not in NAMED_ATOMS and tok != "m":
                self.error(f"unknown atom {tok!r} (expected {', '.join(NAMED_ATOMS)} or m)")
            self.take()
            if tok in NAMED_ATOMS:
                args = []
                for sep in "(" + "," * (NAMED_ATOMS[tok].arity - 1):
                    self.take(sep)
                    args.append(self.uint())
                self.take(")")
                return NamedAtom(tok, tuple(args))
            self.take("(")
            return LiteralAtom(self.listed(lambda: ((self.var_index(), 1),)))
        if kind == "(":
            self.take()
            if self.peek()[0] == ")":
                self.take()
                return LiteralAtom(())
            if self.peek()[0] in ("var", "int"):
                return LiteralAtom(self.listed(self.monomial))
            node = self.expr()
            self.take(")")
            return node
        self.error(f"expected an atom, found {tok!r}" if tok else "expected an atom")

    def listed(self, item) -> tuple:
        """item() once, then once more after each ',', up to the closing ')'."""
        items = [item()]
        while self.peek()[0] == ",":
            self.take()
            items.append(item())
        self.take(")")
        return tuple(items)

    def var_index(self) -> int:
        tok = self.take("var")[1]
        return int(tok[1:])

    def monomial(self) -> tuple[tuple[int, int], ...]:
        if self.peek()[0] == "int":
            if self.peek()[1] != "1":
                self.error("a literal monomial is '1' or a product of x-powers")
            self.take()
            return ()
        powers: dict[int, int] = {}
        while True:
            idx = self.var_index()
            exp = 1
            if self.peek()[0] == "^":
                self.take()
                exp = self.uint()
            powers[idx] = powers.get(idx, 0) + exp
            if self.peek()[0] != "*":
                break
            self.take()
        return tuple(sorted(powers.items()))


def parse_ideal(text: str):
    """Parse an ideal expression into its syntax tree."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Ambient resolution and evaluation
# ---------------------------------------------------------------------------

def _walk_atoms(node):
    if isinstance(node, (NamedAtom, LiteralAtom)):
        yield node
    elif isinstance(node, Power):
        yield from _walk_atoms(node.base)
    elif isinstance(node, BinOp):
        yield from _walk_atoms(node.left)
        yield from _walk_atoms(node.right)
    else:
        raise TypeError(f"not an expression node: {node!r}")


def resolve_ambient(*nodes) -> int:
    """One shared ambient: declared by Jc/I/J atoms, else the max variable index."""
    fixed = set()
    var_max = 0
    for node in nodes:
        for atom in _walk_atoms(node):
            if isinstance(atom, NamedAtom):
                n, *rest = atom.args
                if atom.name == "Jc" and not 2 <= rest[0] <= n:
                    raise ParseError(f"Jc({n},{rest[0]}): path length must be in 2..{n}")
                if n < 2:
                    raise ParseError("I(n)/J(n) need n >= 2")
                fixed.add(n)
            else:
                indices = [idx for mono in atom.monomials for idx, _ in mono]
                if any(idx < 1 for idx in indices):
                    raise ParseError("variable indices start at x1")
                var_max = max([var_max, *indices])
    if len(fixed) > 1:
        raise ParseError(f"ambient conflict: atoms declare {sorted(fixed)} variables")
    if fixed:
        ambient = fixed.pop()
        if var_max > ambient:
            raise ParseError(
                f"ambient conflict: variable x{var_max} outside the declared "
                f"{ambient}-variable ring")
        return ambient
    return max(var_max, 1)


def evaluate(node, ambient: int) -> MonomialIdeal:
    """The ideal a syntax tree denotes.  Values the monomial layer refuses,
    such as an exponent past 2^31, raise ParseError, and so does a ring
    whose exponent vectors could not be lists, such as that of J(10^20)."""
    if ambient > sys.maxsize:
        raise ParseError(f"a ring of {ambient} variables is past the largest "
                         f"list length, {sys.maxsize}")
    try:
        return _evaluate(node, ambient)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _evaluate(node, ambient: int) -> MonomialIdeal:
    if isinstance(node, NamedAtom):
        return NAMED_ATOMS[node.name].build(*node.args)
    if isinstance(node, LiteralAtom):
        gens = [Monomial(tuple(dict(m).get(i + 1, 0) for i in range(ambient)))
                for m in node.monomials]
        return MonomialIdeal(gens, ambient)
    if isinstance(node, Power):
        return _evaluate(node.base, ambient) ** node.exp
    if isinstance(node, BinOp):
        left = _evaluate(node.left, ambient)
        right = _evaluate(node.right, ambient)
        if node.op == "*":
            return left * right
        if node.op == "+":
            return left + right
        return left & right
    raise TypeError(f"not an expression node: {node!r}")


def build_ideal(text: str) -> MonomialIdeal:
    node = parse_ideal(text)
    return evaluate(node, resolve_ambient(node))


# ---------------------------------------------------------------------------
# Family recognition for the formula/recursion routes
# ---------------------------------------------------------------------------

def _powered_factors(node, exp: int = 1):
    """(node, exponent) for each factor of a product of powers, the exponent
    multiplied through every power enclosing it: (J(5)*I(5))^2 gives J(5)
    and I(5), each to the power 2.  A sum, meet or atom is one factor."""
    if isinstance(node, Power):
        yield from _powered_factors(node.base, exp * node.exp)
    elif isinstance(node, BinOp) and node.op == "*":
        yield from _powered_factors(node.left, exp)
        yield from _powered_factors(node.right, exp)
    else:
        yield node, exp


def _family_factor(node, ambient: int) -> str | None:
    """The family factor node is: long, full, reduced or corner, else None.
    A corner factor lists x1 and xn in any order, repeats allowed."""
    if isinstance(node, NamedAtom):
        return NAMED_ATOMS[node.name].factor(*node.args)
    if isinstance(node, LiteralAtom) and \
            sorted(set(node.monomials)) == [((1, 1),), ((ambient, 1),)]:
        return "corner"
    return None


def classify_family(node, ambient: int) -> FamilyCase | None:
    """Recognize expressions the formula and recursion routes cover."""
    powers = dict.fromkeys(("long", "full", "reduced", "corner"), 0)
    for factor, exp in _powered_factors(node):
        name = _family_factor(factor, ambient)
        if name is None:
            return None
        powers[name] += exp
    long_t, short_t, reduced_s, corner_t = powers.values()
    if long_t:
        return None if short_t or reduced_s or corner_t else \
            FamilyCase("long-power", ambient, 0, long_t)
    if corner_t:
        return None if short_t else FamilyCase("corner", ambient, reduced_s, corner_t)
    return FamilyCase("mixed", ambient, reduced_s, short_t)


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

def emit_betti_table(table: BettiTable, fmt: str = "text") -> str:
    """Render a Betti table: text rows indexed by j-i, JSON, or CSV."""
    if not table.entries:
        raise ValueError("refusing to render an empty Betti table")
    if fmt == "json":
        payload: dict = {"ambient": table.ambient}
        if table.char is not None:
            payload["char"] = table.char
        payload["entries"] = [
            {"i": i, "j": j, "value": str(v)} for i, j, v in table.sorted_entries()]
        payload["pd"] = table.pd()
        payload["reg"] = table.reg()
        return json.dumps(payload)
    if fmt == "csv":
        lines = ["i,j,value"]
        lines += [f"{i},{j},{v}" for i, j, v in table.sorted_entries()]
        return "\n".join(lines)
    if fmt == "text":
        cols = list(range(table.pd() + 1))
        rows = table.rows()
        label_w = max(len(f"{r}:") for r in rows + [0]) + 1
        label_w = max(label_w, len("total:") + 1)
        cells = {r: [table.graded(i, r + i) for i in cols] for r in rows}
        totals = [table.total(i) for i in cols]
        width = max([len(str(v)) for row in cells.values() for v in row]
                    + [len(str(v)) for v in totals] + [len(str(c)) for c in cols]) + 2

        def line(label, values):
            return label.ljust(label_w) + "".join(
                str(v).rjust(width) for v in values)

        out = [line("", cols), line("total:", totals)]
        out += [line(f"{r}:", [v if v else "." for v in cells[r]]) for r in rows]
        return "\n".join(out)
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _oracle_ideal(node, ambient: int) -> MonomialIdeal:
    """The ideal the oracle ranks; the zero and unit ideals have no lcm lattice."""
    ideal = evaluate(node, ambient)
    if ideal.is_zero() or ideal.is_unit():
        raise ParseError("the zero and unit ideals have no Betti table or pd")
    return ideal


def _family_case(node, ambient: int, route: str) -> FamilyCase:
    """The family member a route other than the oracle answers for."""
    case = classify_family(node, ambient)
    if case is None:
        raise ParseError(
            f"route {route!r} only covers long-power, reduced^s*full^t "
            "and reduced^s*m(x1,xn)^t expressions; use --route oracle")
    if case.is_unit():
        raise ParseError("the unit ideal has no Betti table or pd")
    try:
        verify.check_route(case.kind, route)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return case


def _oracle_options(args) -> None:
    """Default the --char and --lattice-cap table or pd left out (None); only
    the oracle route reads them, so another route refuses a given one."""
    for name, default in (("char", DEFAULT_PRIME), ("lattice_cap", DEFAULT_LATTICE_CAP)):
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.route != "oracle":
            raise ParseError(f"--{name.replace('_', '-')} applies to --route oracle only")


def _cmd_table(args) -> int:
    _oracle_options(args)
    node = parse_ideal(args.expr)
    ambient = resolve_ambient(node)
    case = None if args.route == "oracle" else _family_case(node, ambient, args.route)
    if case is None:
        table = graded_betti(_oracle_ideal(node, ambient), args.char, args.lattice_cap)
    else:
        totals = route_totals(case, args.route)
        table = BettiTable.from_totals(totals, case.initial_degree(), ambient)
    print(emit_betti_table(table, args.format))
    return 0


def _cmd_pd(args) -> int:
    _oracle_options(args)
    node = parse_ideal(args.expr)
    ambient = resolve_ambient(node)
    if args.route == "oracle":
        pd = graded_betti(_oracle_ideal(node, ambient), args.char, args.lattice_cap).pd()
    else:
        pd = verify.route_pd(_family_case(node, ambient, args.route), args.route)
    print(pd)
    return 0


def _cmd_split(args) -> int:
    nodes = [parse_ideal(text) for text in (args.total, args.left, args.right)]
    ambient = resolve_ambient(*nodes)
    total, left, right = (_oracle_ideal(node, ambient) for node in nodes)
    try:
        report = verify.check_splitting(
            total, left, right, args.char, args.lattice_cap,
            label=f"split {args.total!r} = {args.left!r} + {args.right!r}")
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    print(report.to_json())
    return 0 if report.ok else 1


def _cmd_verify(args) -> int:
    try:
        if args.suite.endswith(".json"):
            with open(args.suite) as handle:
                config = json.load(handle)
            reports = verify.run_config(config, args.lattice_cap, args.seed)
        else:
            reports = verify.run_suite(args.suite, args.lattice_cap, args.seed)
    except (ValueError, OSError) as exc:
        raise ParseError(str(exc)) from None
    # outside the try: a fault raised while a suite runs is no usage fault;
    # each line is flushed, so a pipe reader has it as soon as its case ends
    ok = True
    for report in reports:
        print(report.to_json(), flush=True)
        ok = ok and report.ok
    return 0 if ok else 1


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _characteristic(text: str) -> int:
    """argparse type of --char: a prime the oracle can certify."""
    p = _integer(text)
    try:
        check_prime(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return p


def _positive(text: str) -> int:
    """argparse type of --lattice-cap: a positive integer."""
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, not {value}")
    return value


def _add_common(parser, char=True, route=None):
    if route:
        aliases = verify.ROUTE_ALIASES
        parser.add_argument("--route", type=lambda name: aliases.get(name, name),
                            choices=verify.ROUTES, default=route,
                            help=", ".join(f"{a} is {r}" for a, r in aliases.items()))
    parser.add_argument("--lattice-cap", type=_positive,
                        default=None if route else DEFAULT_LATTICE_CAP,
                        help="abort if the lcm lattice grows past this size")
    if char:
        parser.add_argument("--char", type=_characteristic,
                            default=None if route else DEFAULT_PRIME,
                            help=f"prime field characteristic (default {DEFAULT_PRIME})")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclebetti",
        description="Graded Betti numbers for powers of path ideals of cycles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print the Betti table of an ideal expression")
    p_table.add_argument("expr")
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    _add_common(p_table, route="oracle")
    p_table.set_defaults(fn=_cmd_table)

    p_pd = sub.add_parser("pd", help="projective dimension of an ideal expression")
    p_pd.add_argument("expr")
    _add_common(p_pd, route="closed")
    p_pd.set_defaults(fn=_cmd_pd)

    p_split = sub.add_parser("split", help="audit a Betti splitting with the oracle")
    p_split.add_argument("total")
    p_split.add_argument("left")
    p_split.add_argument("right")
    _add_common(p_split)
    p_split.set_defaults(fn=_cmd_split)

    p_verify = sub.add_parser("verify", help="run a verification suite "
                                             "(JSON-lines reports on stdout)")
    p_verify.add_argument("suite",
                          help=f"one of: {', '.join(verify.SUITES)}, all, "
                               "or a config.json path")
    p_verify.add_argument("--seed", type=int, default=verify.DEFAULT_SEED,
                          help="seed for the randomized residual sweeps")
    _add_common(p_verify, char=False)
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    # exact answers print whatever their digit count; Python 3.10.7 and
    # later refuse to convert an int past 4,300 digits to a string by default
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        code = args.fn(args)
        # a reader that went away shows up here, not in the flush at exit
        sys.stdout.flush()
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except (LatticeCapError, CandidateCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    except MemoryError:
        # numpy's allocation error is a subclass; exit 1 would read as a mismatch
        print("error: out of memory", file=sys.stderr)
        code = 3
    except BrokenPipeError:
        # the reader closed the pipe (`verify all | head -1`): send what is
        # left to devnull, so the flush at exit cannot fail again, and exit
        # 1, as the SIGPIPE note in Python's `signal` documentation does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
