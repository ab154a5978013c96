"""Command-line front end.

Commands:
  table <expr> --route oracle|formula|recursion [--char P] [--format text|json|csv]
  pd <expr> --route closed|recursive|oracle
  gf --n N --t T --imax K
  split <P-expr> <I-expr> <J-expr> [--char P]
  verify <suite-name|config.json>

Ideal expressions follow the grammar

  expr   := term (('+'|'&') term)*
  term   := factor ('*' factor)*
  factor := atom ('^' uint)?
  atom   := Jc(n,m) | I(n) | J(n) | m(x1,...,xk) | '(' mono{,mono} ')' | '(' expr ')'

with precedence ^ > * > + = & (left-associative).  Jc(n,m) is the m-path
ideal of the n-cycle, I(n)/J(n) the full/reduced short-path ideals, m(...)
the ideal generated by the listed variables, and a parenthesized monomial
list a literal generating set.  Exit codes: 0 success, 1 verification
mismatch, 2 usage or parse error, 3 resource cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

from . import families, formulas, recursion, verify
from .monomials import CandidateCapError, Monomial, MonomialIdeal, variable
from .oracle import (BettiTable, DEFAULT_LATTICE_CAP, DEFAULT_PRIME,
                     LatticeCapError, check_prime, graded_betti)
from .verify import FamilyCase, route_totals


class ParseError(ValueError):
    """Syntax or semantic error in an ideal expression (exit code 2)."""


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleAtom:
    n: int
    m: int


@dataclass(frozen=True)
class ShortAtom:      # I(n)
    n: int


@dataclass(frozen=True)
class ReducedAtom:    # J(n)
    n: int


@dataclass(frozen=True)
class VarsAtom:       # m(x1,...,xk)
    indices: tuple[int, ...]


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


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<var>x\d+)|(?P<name>[A-Za-z]+)|(?P<int>\d+)|(?P<op>[()^*+&,]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token; an operator is its own kind."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            if text[pos:].strip():
                raise ParseError(f"syntax error at position {pos}: "
                                 f"unexpected {text[pos]!r}")
            break
        kind = match.lastgroup
        tok = match[kind]
        tokens.append((tok if kind == "op" else kind, tok, match.start(kind)))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def error(self, message: str):
        at = self.tokens[self.pos][2] if self.pos < len(self.tokens) else len(self.text)
        raise ParseError(f"syntax error at position {at}: {message}")

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, None)

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
        if self.pos != len(self.tokens):
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
            node = Power(node, int(self.take("int")[1]))
        return node

    def uint(self) -> int:
        return int(self.take("int")[1])

    def atom(self):
        kind, tok, _ = self.peek()
        if kind == "name":
            self.take()
            if tok == "Jc":
                self.take("(")
                n = self.uint()
                self.take(",")
                m = self.uint()
                self.take(")")
                return CycleAtom(n, m)
            if tok in ("I", "J"):
                self.take("(")
                n = self.uint()
                self.take(")")
                return ShortAtom(n) if tok == "I" else ReducedAtom(n)
            if tok == "m":
                self.take("(")
                indices = [self.var_index()]
                while self.peek()[0] == ",":
                    self.take()
                    indices.append(self.var_index())
                self.take(")")
                return VarsAtom(tuple(indices))
            self.error(f"unknown atom {tok!r} (expected Jc, I, J or m)")
        if kind == "(":
            self.take()
            if self.peek()[0] in ("var", "int"):
                monos = [self.monomial()]
                while self.peek()[0] == ",":
                    self.take()
                    monos.append(self.monomial())
                self.take(")")
                return LiteralAtom(tuple(monos))
            node = self.expr()
            self.take(")")
            return node
        self.error(f"expected an atom, found {tok!r}" if tok else "expected an atom")

    def var_index(self) -> int:
        tok = self.take("var")[1]
        return int(tok[1:])

    def monomial(self) -> tuple[tuple[int, int], ...]:
        if self.peek()[0] == "int":
            if self.take()[1] != "1":
                self.error("a literal monomial is '1' or a product of x-powers")
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
    if isinstance(node, (CycleAtom, ShortAtom, ReducedAtom, VarsAtom, LiteralAtom)):
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
            if isinstance(atom, CycleAtom):
                if atom.n < 2 or not 2 <= atom.m <= atom.n:
                    raise ParseError(
                        f"Jc({atom.n},{atom.m}): path length must be in 2..{atom.n}")
                fixed.add(atom.n)
            elif isinstance(atom, (ShortAtom, ReducedAtom)):
                if atom.n < 2:
                    raise ParseError("I(n)/J(n) need n >= 2")
                fixed.add(atom.n)
            elif isinstance(atom, (VarsAtom, LiteralAtom)):
                indices = (atom.indices if isinstance(atom, VarsAtom)
                           else [idx for mono in atom.monomials for idx, _ in mono])
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
    such as an exponent past 2^31, raise ParseError."""
    try:
        return _evaluate(node, ambient)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _evaluate(node, ambient: int) -> MonomialIdeal:
    if isinstance(node, CycleAtom):
        return families.cycle_path_ideal(node.n, node.m)
    if isinstance(node, ShortAtom):
        return families.short_path_ideal(node.n)
    if isinstance(node, ReducedAtom):
        return families.reduced_short_path_ideal(node.n)
    if isinstance(node, VarsAtom):
        return MonomialIdeal([variable(i, ambient) for i in node.indices], ambient)
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

def _flatten_product(node, out: dict) -> bool:
    if isinstance(node, BinOp):
        if node.op != "*":
            return False
        return _flatten_product(node.left, out) and _flatten_product(node.right, out)
    if isinstance(node, Power):
        if not isinstance(node.base, (CycleAtom, ShortAtom, ReducedAtom, VarsAtom)):
            return False
        out[node.base] = out.get(node.base, 0) + node.exp
        return True
    if isinstance(node, (CycleAtom, ShortAtom, ReducedAtom, VarsAtom)):
        out[node] = out.get(node, 0) + 1
        return True
    return False


def classify_family(node, ambient: int) -> FamilyCase | None:
    """Recognize expressions the formula and recursion routes cover."""
    powers: dict = {}
    if not _flatten_product(node, powers):
        return None
    long_t = short_t = reduced_s = corner_t = 0
    for atom, exp in powers.items():
        if isinstance(atom, CycleAtom):
            if atom.m == atom.n - 1:
                long_t += exp
            elif atom.m == atom.n - 2:
                short_t += exp
            else:
                return None
        elif isinstance(atom, ShortAtom):
            short_t += exp
        elif isinstance(atom, ReducedAtom):
            reduced_s += exp
        elif isinstance(atom, VarsAtom):
            if tuple(sorted(set(atom.indices))) != (1, ambient):
                return None
            corner_t += exp
        else:
            return None
    if long_t and not (short_t or reduced_s or corner_t):
        return FamilyCase("long-power", ambient, 0, long_t)
    if long_t:
        return None
    if corner_t:
        if short_t:
            return None
        return FamilyCase("corner", ambient, reduced_s, corner_t)
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
    """The family member the closed and recursive routes answer for."""
    case = classify_family(node, ambient)
    if case is None:
        raise ParseError(
            f"--route {route} only covers long-power, reduced^s*full^t "
            "and reduced^s*m(x1,xn)^t expressions; use --route oracle")
    if case.is_unit():
        raise ParseError("the unit ideal has no Betti table or pd")
    return case


def _cmd_table(args) -> int:
    node = parse_ideal(args.expr)
    ambient = resolve_ambient(node)
    if args.route == "oracle":
        table = graded_betti(_oracle_ideal(node, ambient), args.char, args.lattice_cap)
    else:
        case = _family_case(node, ambient, args.route)
        if case.kind == "corner" and args.route == "formula":
            raise ParseError(
                "no closed formula for corner families; "
                "use --route recursion or --route oracle")
        route = "closed" if args.route == "formula" else "recursion"
        totals = route_totals(case, route, strict_delta=args.strict_delta)
        table = BettiTable.from_totals(totals, case.initial_degree(), ambient)
    print(emit_betti_table(table, args.format))
    return 0


def _cmd_pd(args) -> int:
    node = parse_ideal(args.expr)
    ambient = resolve_ambient(node)
    if args.route == "oracle":
        print(graded_betti(_oracle_ideal(node, ambient), args.char, args.lattice_cap).pd())
        return 0
    case = _family_case(node, ambient, args.route)
    if args.route == "closed":
        closed = case.closed_pd_reg()
        if closed is None:
            raise ParseError("no closed pd for corner families; "
                             "use --route recursive or oracle")
        pd = closed[0]
    elif case.kind == "mixed" and case.t >= 1:
        pd = recursion.short_path_pd_rec(case.n, case.s, case.t)
    else:
        pd = len(route_totals(case, "recursion")) - 1
    print(pd)
    return 0


def _cmd_gf(args) -> int:
    try:
        for i in range(args.imax + 1):
            print(f"{i}\t{formulas.series_betti(args.n, args.t, i)}")
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return 0


def _cmd_split(args) -> int:
    nodes = [parse_ideal(text) for text in (args.total, args.left, args.right)]
    ambient = resolve_ambient(*nodes)
    total, left, right = (_oracle_ideal(node, ambient) for node in nodes)
    if total != left + right:
        raise ParseError("not a decomposition: the first ideal must equal "
                         "the sum of the other two")
    report = verify.check_splitting(
        total, left, right, args.char, args.lattice_cap,
        label=f"split {args.total!r} = {args.left!r} + {args.right!r}")
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


def _non_negative(text: str) -> int:
    """argparse type of gf --imax: a non-negative integer."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {value}")
    return value


def _add_common(parser, char=True):
    parser.add_argument("--lattice-cap", type=_positive, default=DEFAULT_LATTICE_CAP,
                        help="abort if the lcm lattice grows past this size")
    if char:
        parser.add_argument("--char", type=_characteristic, default=DEFAULT_PRIME,
                            help=f"prime field characteristic (default {DEFAULT_PRIME})")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclebetti",
        description="Graded Betti numbers for powers of path ideals of cycles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print the Betti table of an ideal expression")
    p_table.add_argument("expr")
    p_table.add_argument("--route", choices=("oracle", "formula", "recursion"),
                         default="oracle")
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_table.add_argument("--strict-delta", action="store_true",
                         help="use the closed-form corner-chain multiset "
                              "(over-counts at s=0; for demonstration)")
    _add_common(p_table)
    p_table.set_defaults(fn=_cmd_table)

    p_pd = sub.add_parser("pd", help="projective dimension of an ideal expression")
    p_pd.add_argument("expr")
    p_pd.add_argument("--route", choices=("closed", "recursive", "oracle"),
                      default="closed")
    _add_common(p_pd)
    p_pd.set_defaults(fn=_cmd_pd)

    p_gf = sub.add_parser("gf", help="long-power Betti numbers from the "
                                     "generating-function expansion")
    p_gf.add_argument("--n", type=int, required=True)
    p_gf.add_argument("--t", type=int, required=True)
    p_gf.add_argument("--imax", type=_non_negative, required=True)
    p_gf.set_defaults(fn=_cmd_gf)

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
