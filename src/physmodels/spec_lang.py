"""Parser and evaluators for model-spec files and their expression languages.

A model file is line oriented:

    model "baryon"
    states enumerate s
    observable f(s) = 2*s + 2
    range f where n mod 2 == 0 and n >= 2
    simop f = baryon

Integer expressions work over the nonnegative integers: literals, one bound
variable, ``+``, ``-`` (truncated: ``a - b`` is 0 when ``b > a``), ``*``,
``div``, ``mod``, the pairing operators ``J``/``K``/``L`` (aliases ``pair``,
``left``, ``right``), and a bounded conditional ``if <pred> then <e> else <e>``.
Predicates (comparisons joined by ``and``/``or``/``not``) are a separate sort
and are only legal in conditional tests and ``where`` clauses.

Real expressions are polynomial: rational literals, named inputs, ``+``, ``-``,
``*`` and unary minus.  They evaluate over rational boxes by natural interval
extension, which is inclusion isotone, and the result is widened into an open
rectangle so it can serve as a basis-element code (see ``eval_interval``).

Evaluation is budgeted: every node visited costs one step and a nonpositive
remaining budget aborts with ``StepLimitExceeded``, which is how divergence of
untrusted maps is modeled.

``eval_int``/``eval_pred`` are the reference interpreters.  ``compile_expr``
turns an expression or predicate into nested closures, built once per
expression, that charge the same steps: with a node's worst-case cost left on
the counter it evaluates without per-node ticks and subtracts the steps the
interpreter would have ticked; otherwise, and whenever the closures raise, it
falls back to the interpreter, so every step-limit or evaluation error is
raised at the same node with the same message and the same steps left.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import encodings
from .encodings import Interval, Rect


class SpecError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


class SpecSyntaxError(SpecError):
    pass


class SpecSortError(SpecError):
    pass


class EvalError(ValueError):
    pass


class StepLimitExceeded(EvalError):
    pass


# ---------------------------------------------------------------------------
# Abstract syntax


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * div mod
    left: "IntExpr"
    right: "IntExpr"


@dataclass(frozen=True)
class PairOp:
    args: tuple["IntExpr", ...]


@dataclass(frozen=True)
class Proj:
    which: str  # K or L
    arg: "IntExpr"


@dataclass(frozen=True)
class Cond:
    test: "Pred"
    then: "IntExpr"
    other: "IntExpr"


IntExpr = Lit | Var | BinOp | PairOp | Proj | Cond


@dataclass(frozen=True)
class Cmp:
    op: str  # == != < <= > >=
    left: IntExpr
    right: IntExpr


@dataclass(frozen=True)
class And:
    left: "Pred"
    right: "Pred"


@dataclass(frozen=True)
class Or:
    left: "Pred"
    right: "Pred"


@dataclass(frozen=True)
class Not:
    arg: "Pred"


Pred = Cmp | And | Or | Not


@dataclass(frozen=True)
class RLit:
    value: Fraction


@dataclass(frozen=True)
class RVar:
    name: str


@dataclass(frozen=True)
class RNeg:
    arg: "RealExpr"


@dataclass(frozen=True)
class RBin:
    op: str  # + - *
    left: "RealExpr"
    right: "RealExpr"


RealExpr = RLit | RVar | RNeg | RBin


@dataclass(frozen=True)
class RealFn:
    """A polynomial map with named inputs and one or more outputs."""

    params: tuple[str, ...]
    outputs: tuple[RealExpr, ...]

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def out_dim(self) -> int:
        return len(self.outputs)


@dataclass(frozen=True)
class ModelSpec:
    name: str
    state_kind: str  # "enumerate" or "where"
    state_var: str | None
    state_expr: IntExpr | Pred
    observables: tuple[tuple[str, str, IntExpr], ...]  # (symbol, var, body)
    ranges: tuple[tuple[str, str, Pred], ...] = ()
    simops: tuple[tuple[str, str], ...] = ()


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<number>\d+)
  | (?P<string>"[^"\n]*")
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>==|!=|<=|>=|->|[-+*/=<>(),;])
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "model", "states", "enumerate", "where", "observable", "range", "simop",
    "if", "then", "else", "and", "or", "not", "div", "mod", "map",
}


@dataclass(frozen=True)
class Token:
    kind: str  # number | string | ident | keyword | op | newline | eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SpecSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        value = m.group()
        if kind == "newline":
            tokens.append(Token("newline", "\n", line, col))
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(value)
        else:
            if kind == "ident" and value in KEYWORDS:
                kind = "keyword"
            tokens.append(Token(kind, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.cur
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            want = text or kind
            raise SpecSyntaxError(
                f"expected {want!r}, found {self.cur.text or self.cur.kind!r}",
                self.cur.line,
                self.cur.col,
            )
        return tok

    def fail(self, message: str) -> SpecSyntaxError:
        return SpecSyntaxError(message, self.cur.line, self.cur.col)

    # Integer expressions ---------------------------------------------------

    def int_expr(self) -> IntExpr:
        node = self.int_term()
        while (tok := self.accept("op", "+")) or (tok := self.accept("op", "-")):
            node = BinOp(tok.text, node, self.int_term())
        return node

    def int_term(self) -> IntExpr:
        node = self.int_factor()
        while True:
            if tok := self.accept("op", "*"):
                node = BinOp("*", node, self.int_factor())
            elif tok := self.accept("keyword", "div"):
                node = BinOp("div", node, self.int_factor())
            elif tok := self.accept("keyword", "mod"):
                node = BinOp("mod", node, self.int_factor())
            else:
                return node

    def int_factor(self) -> IntExpr:
        if tok := self.accept("number"):
            return Lit(int(tok.text))
        if self.accept("op", "("):
            node = self.int_expr()
            self.expect("op", ")")
            return node
        if self.accept("keyword", "if"):
            test = self.pred()
            self.expect("keyword", "then")
            then = self.int_expr()
            self.expect("keyword", "else")
            return Cond(test, then, self.int_expr())
        if tok := self.accept("ident"):
            if self.cur.kind == "op" and self.cur.text == "(":
                return self.int_call(tok)
            return Var(tok.text)
        if self.cur.kind == "keyword" and self.cur.text in ("and", "or", "not"):
            raise SpecSortError(
                "predicate in integer position", self.cur.line, self.cur.col
            )
        raise self.fail(f"expected an integer expression, found {self.cur.text!r}")

    def int_call(self, name: Token) -> IntExpr:
        self.expect("op", "(")
        args = [self.int_expr()]
        while self.accept("op", ","):
            args.append(self.int_expr())
        self.expect("op", ")")
        fn = name.text
        if fn in ("J", "pair"):
            return PairOp(tuple(args))
        if fn in ("K", "left", "L", "right"):
            if len(args) != 1:
                raise SpecSyntaxError(
                    f"{fn} takes exactly one argument", name.line, name.col
                )
            return Proj("K" if fn in ("K", "left") else "L", args[0])
        raise SpecSyntaxError(f"unknown function {fn!r}", name.line, name.col)

    # Predicates ------------------------------------------------------------

    def pred(self) -> Pred:
        node = self.pred_and()
        while self.accept("keyword", "or"):
            node = Or(node, self.pred_and())
        return node

    def pred_and(self) -> Pred:
        node = self.pred_not()
        while self.accept("keyword", "and"):
            node = And(node, self.pred_not())
        return node

    def pred_not(self) -> Pred:
        if self.accept("keyword", "not"):
            return Not(self.pred_not())
        if self.cur.kind == "op" and self.cur.text == "(":
            # Could be a parenthesized predicate or an integer subexpression;
            # try the predicate reading first and fall back on failure.
            snapshot = self.pos
            try:
                self.advance()
                inner = self.pred()
                self.expect("op", ")")
                return inner
            except SpecError:
                self.pos = snapshot
        return self.comparison()

    def comparison(self) -> Pred:
        left = self.int_expr()
        for op in ("==", "!=", "<=", ">=", "<", ">", "="):
            if self.accept("op", op):
                return Cmp("==" if op == "=" else op, left, self.int_expr())
        raise SpecSortError(
            "integer expression in predicate position (missing comparison)",
            self.cur.line,
            self.cur.col,
        )

    # Real expressions ------------------------------------------------------

    def real_expr(self) -> RealExpr:
        node = self.real_term()
        while (tok := self.accept("op", "+")) or (tok := self.accept("op", "-")):
            node = RBin(tok.text, node, self.real_term())
        return node

    def real_term(self) -> RealExpr:
        node = self.real_factor()
        while self.accept("op", "*"):
            node = RBin("*", node, self.real_factor())
        return node

    def real_factor(self) -> RealExpr:
        if self.accept("op", "-"):
            inner = self.real_factor()
            # Fold a negated literal so negative constants have one form.
            return RLit(-inner.value) if isinstance(inner, RLit) else RNeg(inner)
        if tok := self.accept("number"):
            if self.accept("op", "/"):
                den = self.expect("number")
                if int(den.text) == 0:
                    raise SpecSyntaxError("zero denominator", den.line, den.col)
                return RLit(Fraction(int(tok.text), int(den.text)))
            return RLit(Fraction(int(tok.text)))
        if self.accept("op", "("):
            node = self.real_expr()
            self.expect("op", ")")
            return node
        if tok := self.accept("ident"):
            return RVar(tok.text)
        raise self.fail(f"expected a real expression, found {self.cur.text!r}")


# ---------------------------------------------------------------------------
# Entry points


def parse_int_expr(text: str) -> IntExpr:
    p = _Parser(tokenize(text))
    node = p.int_expr()
    p.expect("eof")
    return node


def parse_pred(text: str) -> Pred:
    p = _Parser(tokenize(text))
    node = p.pred()
    p.expect("eof")
    return node


def parse_real_fn(text: str) -> RealFn:
    """Parse ``map(x, y) = <expr>`` or ``map(x) = (<e1>, <e2>, ...)``."""
    p = _Parser(tokenize(text))
    p.expect("keyword", "map")
    p.expect("op", "(")
    params = [p.expect("ident").text]
    while p.accept("op", ","):
        params.append(p.expect("ident").text)
    p.expect("op", ")")
    p.expect("op", "=")
    outputs: list[RealExpr]
    if p.cur.kind == "op" and p.cur.text == "(":
        # Either a tuple of outputs or a parenthesized single expression.
        snapshot = p.pos
        p.advance()
        first = p.real_expr()
        if p.accept("op", ","):
            outputs = [first, p.real_expr()]
            while p.accept("op", ","):
                outputs.append(p.real_expr())
            p.expect("op", ")")
        else:
            p.pos = snapshot
            outputs = [p.real_expr()]
    else:
        outputs = [p.real_expr()]
    while p.accept("newline"):
        pass
    p.expect("eof")
    if len(set(params)) != len(params):
        raise SpecError("duplicate parameter name")
    fn = RealFn(tuple(params), tuple(outputs))
    for out in fn.outputs:
        for name in _real_vars(out):
            if name not in params:
                raise SpecError(f"unbound variable {name!r}")
    return fn


def _real_vars(e: RealExpr) -> set[str]:
    if isinstance(e, RVar):
        return {e.name}
    if isinstance(e, RNeg):
        return _real_vars(e.arg)
    if isinstance(e, RBin):
        return _real_vars(e.left) | _real_vars(e.right)
    return set()


def int_free_vars(e: IntExpr | Pred) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Lit):
        return set()
    if isinstance(e, BinOp):
        return int_free_vars(e.left) | int_free_vars(e.right)
    if isinstance(e, PairOp):
        out: set[str] = set()
        for a in e.args:
            out |= int_free_vars(a)
        return out
    if isinstance(e, Proj):
        return int_free_vars(e.arg)
    if isinstance(e, Cond):
        return int_free_vars(e.test) | int_free_vars(e.then) | int_free_vars(e.other)
    if isinstance(e, Cmp):
        return int_free_vars(e.left) | int_free_vars(e.right)
    if isinstance(e, (And, Or)):
        return int_free_vars(e.left) | int_free_vars(e.right)
    if isinstance(e, Not):
        return int_free_vars(e.arg)
    raise TypeError(type(e))


def parse_model(text: str) -> ModelSpec:
    p = _Parser(tokenize(text))
    name: str | None = None
    state: tuple[str, str | None, IntExpr | Pred] | None = None
    observables: list[tuple[str, str, IntExpr]] = []
    ranges: list[tuple[str, str, Pred]] = []
    simops: list[tuple[str, str]] = []

    def end_statement() -> None:
        if not (p.accept("newline") or p.accept("op", ";")):
            p.expect("eof")

    while p.cur.kind != "eof":
        if p.accept("newline"):
            continue
        tok = p.cur
        if p.accept("keyword", "model"):
            if name is not None:
                raise SpecSyntaxError("duplicate model header", tok.line, tok.col)
            name = p.expect("string").text[1:-1]
        elif p.accept("keyword", "states"):
            if state is not None:
                raise SpecSyntaxError("duplicate states section", tok.line, tok.col)
            if p.accept("keyword", "enumerate"):
                expr = p.int_expr()
                state = ("enumerate", _single_var(expr, tok), expr)
            elif p.accept("keyword", "where"):
                pred = p.pred()
                state = ("where", _single_var(pred, tok), pred)
            else:
                raise p.fail("expected 'enumerate' or 'where'")
        elif p.accept("keyword", "observable"):
            sym = p.expect("ident").text
            if any(s == sym for s, _, _ in observables):
                raise SpecSyntaxError(f"duplicate observable {sym!r}", tok.line, tok.col)
            p.expect("op", "(")
            var = p.expect("ident").text
            p.expect("op", ")")
            p.expect("op", "=")
            body = p.int_expr()
            stray = int_free_vars(body) - {var}
            if stray:
                raise SpecSyntaxError(
                    f"unbound variable {sorted(stray)[0]!r}", tok.line, tok.col
                )
            observables.append((sym, var, body))
        elif p.accept("keyword", "range"):
            sym = p.expect("ident").text
            p.expect("keyword", "where")
            pred = p.pred()
            ranges.append((sym, _single_var(pred, tok) or "n", pred))
        elif p.accept("keyword", "simop"):
            sym = p.expect("ident").text
            p.expect("op", "=")
            simops.append((sym, p.expect("ident").text))
        else:
            raise p.fail(f"expected a statement, found {tok.text!r}")
        end_statement()

    if not observables:
        raise SpecSyntaxError("a model needs at least one observable", 1, 1)
    declared = {s for s, _, _ in observables}
    for sym, _, _ in ranges:
        if sym not in declared:
            raise SpecSyntaxError(f"range for unknown observable {sym!r}", 1, 1)
    if len({s for s, _, _ in ranges}) != len(ranges):
        raise SpecSyntaxError("duplicate range clause", 1, 1)
    for sym, _ in simops:
        if sym not in declared:
            raise SpecSyntaxError(f"simop for unknown observable {sym!r}", 1, 1)
    if state is None:
        state = ("enumerate", "s", Var("s"))  # default: all nonnegative integers
    return ModelSpec(
        name=name or "",
        state_kind=state[0],
        state_var=state[1],
        state_expr=state[2],
        observables=tuple(observables),
        ranges=tuple(ranges),
        simops=tuple(simops),
    )


def _single_var(e: IntExpr | Pred, tok: Token) -> str | None:
    names = int_free_vars(e)
    if len(names) > 1:
        raise SpecSyntaxError(
            f"expected at most one free variable, found {sorted(names)}",
            tok.line,
            tok.col,
        )
    return next(iter(names)) if names else None


# ---------------------------------------------------------------------------
# Pretty printer (canonical form; parse(format(spec)) == spec)

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "div": 2, "mod": 2}


def format_int_expr(e: IntExpr, parent_prec: int = 0) -> str:
    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BinOp):
        prec = _PRECEDENCE[e.op]
        body = (
            f"{format_int_expr(e.left, prec)} {e.op} "
            f"{format_int_expr(e.right, prec + 1)}"
        )
        return f"({body})" if prec < parent_prec else body
    if isinstance(e, PairOp):
        return f"J({', '.join(format_int_expr(a) for a in e.args)})"
    if isinstance(e, Proj):
        return f"{e.which}({format_int_expr(e.arg)})"
    if isinstance(e, Cond):
        body = (
            f"if {format_pred(e.test)} then {format_int_expr(e.then, 3)}"
            f" else {format_int_expr(e.other, 3)}"
        )
        return f"({body})" if parent_prec > 0 else body
    raise TypeError(type(e))


def format_pred(p: Pred, parent: str = "") -> str:
    if isinstance(p, Cmp):
        return f"{format_int_expr(p.left)} {p.op} {format_int_expr(p.right)}"
    if isinstance(p, Or):
        body = f"{format_pred(p.left, 'or')} or {format_pred(p.right, 'or!')}"
        return f"({body})" if parent in ("and", "and!", "not", "or!") else body
    if isinstance(p, And):
        body = f"{format_pred(p.left, 'and')} and {format_pred(p.right, 'and!')}"
        return f"({body})" if parent in ("not", "and!") else body
    if isinstance(p, Not):
        return f"not {format_pred(p.arg, 'not')}"
    raise TypeError(type(p))


def format_model(spec: ModelSpec) -> str:
    lines = [f'model "{spec.name}"']
    if spec.state_kind == "enumerate":
        lines.append(f"states enumerate {format_int_expr(spec.state_expr)}")
    else:
        lines.append(f"states where {format_pred(spec.state_expr)}")
    for sym, var, body in spec.observables:
        lines.append(f"observable {sym}({var}) = {format_int_expr(body)}")
    for sym, _, pred in spec.ranges:
        lines.append(f"range {sym} where {format_pred(pred)}")
    for sym, op in spec.simops:
        lines.append(f"simop {sym} = {op}")
    return "\n".join(lines) + "\n"


def lint_model(text: str) -> list[str]:
    """Parse and report non-fatal observations (empty list means clean)."""
    spec = parse_model(text)
    notes = []
    ranged = {s for s, _, _ in spec.ranges}
    for sym, _, _ in spec.observables:
        if sym not in ranged:
            notes.append(f"observable {sym!r} has no range clause")
    if spec.name == "":
        notes.append("model has no name")
    return notes


# ---------------------------------------------------------------------------
# Integer evaluation


class StepCounter:
    """Mutable step budget shared across one evaluation."""

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("step limit must be positive")
        self.remaining = limit

    def tick(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise StepLimitExceeded("expression evaluation exceeded its step budget")


def eval_int(e: IntExpr, env: dict[str, int], steps: StepCounter) -> int:
    steps.tick()
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, BinOp):
        a = eval_int(e.left, env, steps)
        b = eval_int(e.right, env, steps)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b if a >= b else 0
        if e.op == "*":
            return a * b
        if b == 0:
            raise EvalError(f"{e.op} by zero")
        return a // b if e.op == "div" else a % b
    if isinstance(e, PairOp):
        return encodings.pair(*(eval_int(a, env, steps) for a in e.args))
    if isinstance(e, Proj):
        n = eval_int(e.arg, env, steps)
        return encodings.first(n) if e.which == "K" else encodings.second(n)
    if isinstance(e, Cond):
        if eval_pred(e.test, env, steps):
            return eval_int(e.then, env, steps)
        return eval_int(e.other, env, steps)
    raise TypeError(type(e))


def eval_pred(p: Pred, env: dict[str, int], steps: StepCounter) -> bool:
    steps.tick()
    if isinstance(p, Cmp):
        a = eval_int(p.left, env, steps)
        b = eval_int(p.right, env, steps)
        return {
            "==": a == b,
            "!=": a != b,
            "<": a < b,
            "<=": a <= b,
            ">": a > b,
            ">=": a >= b,
        }[p.op]
    if isinstance(p, And):
        return eval_pred(p.left, env, steps) and eval_pred(p.right, env, steps)
    if isinstance(p, Or):
        return eval_pred(p.left, env, steps) or eval_pred(p.right, env, steps)
    if isinstance(p, Not):
        return not eval_pred(p.arg, env, steps)
    raise TypeError(type(p))


# ---------------------------------------------------------------------------
# Compiled integer evaluation
#
# A compiled node is a (kind, payload, worst) triple: kind "lit" carries the
# literal, "var" the bound variable (payload unused), "fn" a branch-free
# closure x -> value, and "steps" a closure (x, steps) -> value for a subtree
# with a conditional or a connective.  ``worst`` is the most steps the
# interpreter can charge for the node.  A branch-free subtree always charges
# exactly ``worst``; a "steps" closure gives back to the counter the steps of
# the part it skips, so the charge matches the interpreter's node count.

_CMP = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_ARITH = {
    "+": operator.add,
    "-": lambda a, b: a - b if a >= b else 0,
    "*": operator.mul,
    # A zero divisor raises ZeroDivisionError; the caller then replays the
    # interpreter, which raises EvalError at the same node.
    "div": operator.floordiv,
    "mod": operator.mod,
}


def compile_expr(node: IntExpr | Pred, var: str) -> Callable[[int, StepCounter], int | bool]:
    """``node`` with its one variable ``var`` ("" when closed) as a callable
    ``(value, steps) -> int | bool`` equal to ``eval_int``/``eval_pred`` on
    ``{var: value}``: the same value or exception, and the same steps charged.

    With at least the node's worst-case cost left on ``steps`` it runs nested
    closures without per-node ticks and subtracts the steps the interpreter
    would have ticked.  With less, or when the closures raise (a zero divisor,
    an unbound variable), it replays the interpreter from the same count,
    which raises at the same node with the same message.
    """
    part = _compile(node, var)
    (fast, takes_steps), worst = _callable(part), part[2]
    reference = eval_pred if isinstance(node, (Cmp, And, Or, Not)) else eval_int

    def run(value: int, steps: StepCounter) -> int | bool:
        start = steps.remaining
        if start >= worst:
            steps.remaining = start - worst
            try:
                return fast(value, steps) if takes_steps else fast(value)
            except Exception:
                steps.remaining = start
        return reference(node, {var: value} if var else {}, steps)

    return run


def _compile(node: IntExpr | Pred, var: str) -> tuple[str, object, int]:
    if isinstance(node, Lit):
        return "lit", node.value, 1
    if isinstance(node, Var):
        if node.name == var:
            return "var", None, 1
        message = f"unbound variable {node.name!r}"

        def unbound(x):
            raise EvalError(message)

        return "fn", unbound, 1
    if isinstance(node, (BinOp, Cmp)):
        op = _ARITH[node.op] if isinstance(node, BinOp) else _CMP[node.op]
        return _combine(op, [_compile(node.left, var), _compile(node.right, var)])
    # Codec functions are looked up on the module at call time, as eval_int
    # does, so wrappers installed on ``encodings`` after compiling see them.
    if isinstance(node, PairOp):
        return _combine(lambda *parts: encodings.pair(*parts), [_compile(a, var) for a in node.args])
    if isinstance(node, Proj):
        if node.which == "K":
            return _combine(lambda n: encodings.first(n), [_compile(node.arg, var)])
        return _combine(lambda n: encodings.second(n), [_compile(node.arg, var)])
    if isinstance(node, Not):
        return _combine(operator.not_, [_compile(node.arg, var)])
    if isinstance(node, Cond):
        return _compile_cond(*(_compile(n, var) for n in (node.test, node.then, node.other)))
    if isinstance(node, (And, Or)):
        left, right = _compile(node.left, var), _compile(node.right, var)
        return _compile_connective(isinstance(node, And), left, right)
    raise TypeError(type(node))


def _combine(op: Callable, parts: list[tuple[str, object, int]]) -> tuple[str, object, int]:
    """``op`` applied to the values of ``parts``, evaluated left to right."""
    worst = 1 + sum(w for _, _, w in parts)
    if any(kind == "steps" for kind, _, _ in parts):
        fs = [_callable(p) for p in parts]
        return "steps", lambda x, s: op(*[f(x, s) if st else f(x) for f, st in fs]), worst
    if len(parts) == 1:
        if parts[0][0] == "var":
            return "fn", op, worst
        f = _callable(parts[0])[0]
        return "fn", lambda x: op(f(x)), worst
    if len(parts) == 2:
        (lk, a, _), (rk, b, _) = parts
        # Literal and variable operands are inlined: they are most operands.
        if lk == "fn" and rk == "lit":
            return "fn", lambda x: op(a(x), b), worst
        if lk == "var" and rk == "lit":
            return "fn", lambda x: op(x, b), worst
        if lk == "lit" and rk == "var":
            return "fn", lambda x: op(a, x), worst
        if lk == "lit" and rk == "fn":
            return "fn", lambda x: op(a, b(x)), worst
    fs = [_callable(p)[0] for p in parts]
    if len(fs) == 2:
        f, g = fs
        return "fn", lambda x: op(f(x), g(x)), worst
    return "fn", lambda x: op(*[f(x) for f in fs]), worst


def _compile_cond(test, then, other) -> tuple[str, object, int]:
    branch = max(then[2], other[2])
    worst = 1 + test[2] + branch
    (t, ts), (a, as_), (b, bs) = _callable(test), _callable(then), _callable(other)
    give_a, give_b = branch - then[2], branch - other[2]

    def cond(x, s):
        if t(x, s) if ts else t(x):
            s.remaining += give_a
            return a(x, s) if as_ else a(x)
        s.remaining += give_b
        return b(x, s) if bs else b(x)

    return "steps", cond, worst


def _compile_connective(is_and: bool, left, right) -> tuple[str, object, int]:
    worst = 1 + left[2] + right[2]
    (f, fs), (g, gs), skipped = _callable(left), _callable(right), right[2]
    if is_and:
        def connective(x, s):
            if f(x, s) if fs else f(x):
                return g(x, s) if gs else g(x)
            s.remaining += skipped
            return False
    else:
        def connective(x, s):
            if f(x, s) if fs else f(x):
                s.remaining += skipped
                return True
            return g(x, s) if gs else g(x)

    return "steps", connective, worst


def _callable(part: tuple[str, object, int]) -> tuple[Callable, bool]:
    """The closure of a compiled node, and whether it takes the counter."""
    kind, payload, _ = part
    if kind == "lit":
        return (lambda x: payload), False
    if kind == "var":
        return (lambda x: x), False
    return payload, kind == "steps"  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Interval evaluation of real expressions

Bounds = tuple[Fraction, Fraction]


def _iv_add(a: Bounds, b: Bounds) -> Bounds:
    return a[0] + b[0], a[1] + b[1]


def _iv_sub(a: Bounds, b: Bounds) -> Bounds:
    return a[0] - b[1], a[1] - b[0]


def _iv_mul(a: Bounds, b: Bounds) -> Bounds:
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products), max(products)


def eval_real_bounds(e: RealExpr, env: dict[str, Bounds]) -> Bounds:
    """Closed enclosure of ``e`` over the given box (natural extension)."""
    if isinstance(e, RLit):
        return e.value, e.value
    if isinstance(e, RVar):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, RNeg):
        lo, hi = eval_real_bounds(e.arg, env)
        return -hi, -lo
    if isinstance(e, RBin):
        a = eval_real_bounds(e.left, env)
        b = eval_real_bounds(e.right, env)
        if e.op == "+":
            return _iv_add(a, b)
        if e.op == "-":
            return _iv_sub(a, b)
        return _iv_mul(a, b)
    raise TypeError(type(e))


def widen_to_open(bounds: Bounds, index: int) -> Interval:
    """Open interval strictly containing the closed enclosure.

    The per-side margin is ``2**-index`` capped at half the enclosure width,
    so margins vanish as the enclosure tightens and outputs converge to a
    local basis; degenerate enclosures fall back to the uncapped margin so
    the result stays a nonempty open interval.
    """
    lo, hi = bounds
    margin = Fraction(1, 2**index) if index >= 0 else Fraction(2 ** (-index))
    width = hi - lo
    if width > 0:
        margin = min(margin, width / 2)
    return Interval(lo - margin, hi + margin)


def eval_interval(fn: RealFn, box: Sequence[Interval], index: int) -> Rect:
    """Evaluate a real map over a rational box into an open output rectangle.

    Inclusion isotone at fixed ``index``: shrinking the input box never grows
    the output rectangle.
    """
    if len(box) != fn.arity:
        raise EvalError(f"expected {fn.arity} input intervals, got {len(box)}")
    env = {name: (iv.lo, iv.hi) for name, iv in zip(fn.params, box)}
    return tuple(widen_to_open(eval_real_bounds(out, env), index) for out in fn.outputs)


def eval_closed_box(fn: RealFn, box: Sequence[Interval]) -> tuple[Bounds, ...]:
    """Closed enclosures per output component, without widening."""
    if len(box) != fn.arity:
        raise EvalError(f"expected {fn.arity} input intervals, got {len(box)}")
    env = {name: (iv.lo, iv.hi) for name, iv in zip(fn.params, box)}
    return tuple(eval_real_bounds(out, env) for out in fn.outputs)
