"""Curve expression language.

A curve is a parenthesized 2- or 4-tuple of complex expressions in the single
variable z, e.g. "(cos(z), sin(z), -i*z, 0)".  2-tuples are zero-padded; they
describe curves into the plane of the first two complex coordinates.

Grammar (left associative throughout, ^ binds tightest, then unary minus,
then * /, then + -):

    curve    := '(' expr (',' expr)* ')'
    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)*
    exponent := ['-'] integer
    atom     := number | 'i' | 'z' | func '(' expr ')' | '(' expr ')'
    func     := exp | log | sin | cos | sinh | cosh | sqrt

Every node carries its source span so evaluation failures can name the
offending subexpression.  Spans and positions are excluded from node equality;
printing then reparsing reproduces the identical tree.  Numbers are ASCII
digits and finite; the tree and the parser's nesting of parentheses, calls
and minus signs are at most MAX_DEPTH deep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, mul, sub

from .errors import DegenerateJetError, EvaluationError, ExpressionError
from .jets import PAIRED, ComplexJet, fail_rows, row_failures

FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh", "sqrt")
# evaluating, printing and comparing a tree recurse once per level, and the
# parser five times per nested parenthesis: a bound well inside Python's
# default recursion limit of 1000
MAX_DEPTH = 100
_DIGITS = frozenset("0123456789")
_ARITHMETIC = {"+": add, "-": sub, "*": mul}


@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Lit(Node):
    """Literal: a nonnegative real, or the imaginary unit (0, 1).

    Other constants are spelled with arithmetic, exactly as the parser would
    produce them, so printing stays faithful to the grammar.
    """

    re: float
    im: float = 0.0
    span: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Var(Node):
    span: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Neg(Node):
    x: Node
    span: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Bin(Node):
    op: str
    a: Node
    b: Node
    span: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int
    span: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Call(Node):
    fn: str
    arg: Node
    span: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Curve(Node):
    components: tuple
    declared_arity: int = field(default=4, compare=False)
    span: tuple | None = field(default=None, compare=False, repr=False)


_TOK_NUM = "number"
_TOK_IDENT = "identifier"
_TOK_EOF = "end of input"


class _Token:
    __slots__ = ("kind", "text", "value", "start", "line", "col")

    def __init__(self, kind, text, value, start, line, col):
        self.kind = kind
        self.text = text
        self.value = value
        self.start = start
        self.line = line
        self.col = col


def _tokenize(text):
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in _DIGITS or (ch == "." and text[i + 1:i + 2] in _DIGITS):
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in _DIGITS:
                    j = k
                    while j < n and text[j] in _DIGITS:
                        j += 1
            lex, value = text[i:j], float(text[i:j])
            if not math.isfinite(value):
                raise ExpressionError(f"number {lex} is not finite", line, col,
                                      expected=("finite number",))
            toks.append(_Token(_TOK_NUM, lex, value, i, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            lex = text[i:j]
            toks.append(_Token(_TOK_IDENT, lex, lex, i, line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^(),":
            toks.append(_Token(ch, ch, ch, i, line, col))
            i += 1
            col += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", line, col,
                              expected=("expression",))
    toks.append(_Token(_TOK_EOF, "", None, n, line, col))
    return toks


_ATOM_EXPECTED = ("number", "'i'", "'z'", "function name", "'('", "'-'")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.nesting = 0
        self.depth = {}      # id(node) -> its tree's depth, if above 1

    def build(self, tok, cls, *fields, span):
        """The inner node cls(*fields, span=span), failing at tok where
        that makes the tree more than MAX_DEPTH levels deep."""
        depth = 1 + max(self.depth.get(id(f), 1) for f in fields
                        if isinstance(f, Node))
        if depth > MAX_DEPTH:
            self.fail(f"expression nests deeper than {MAX_DEPTH} levels", tok)
        out = cls(*fields, span=span)
        self.depth[id(out)] = depth
        return out

    def enter(self, tok):
        """Go one level of nesting deeper at tok, failing past MAX_DEPTH;
        the caller steps back out when it is done."""
        if self.nesting == MAX_DEPTH:
            self.fail(f"expression nests deeper than {MAX_DEPTH} levels", tok)
        self.nesting += 1

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def end(self):
        """The offset just past the last consumed token, the end of a span."""
        t = self.toks[self.pos - 1]
        return t.start + len(t.text)

    def fail(self, message, tok=None, expected=()):
        tok = tok or self.peek()
        raise ExpressionError(message, tok.line, tok.col, expected)

    def expect(self, kind, what):
        if self.peek().kind != kind:
            self.fail(f"expected {what}", expected=(what,))
        return self.advance()

    def parse_curve(self):
        open_tok = self.expect("(", "'('")
        comps = [self.parse_expr()]
        while self.peek().kind == ",":
            self.advance()
            comps.append(self.parse_expr())
        close = self.expect(")", "')'")
        if self.peek().kind != _TOK_EOF:
            self.fail("trailing input after curve", expected=("end of input",))
        if len(comps) not in (2, 4):
            raise ExpressionError(
                f"curve must have 2 or 4 components, found {len(comps)}",
                open_tok.line, open_tok.col, expected=("2 or 4 components",))
        arity = len(comps)
        span = (open_tok.start, close.start + 1)
        while len(comps) < 4:
            comps.append(Lit(0.0, span=None))
        return Curve(tuple(comps), declared_arity=arity, span=span)

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.parse_term()
            span = (node.span[0], self.end()) if node.span and rhs.span else None
            node = self.build(op, Bin, op.kind, node, rhs, span=span)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.parse_unary()
            span = (node.span[0], self.end()) if node.span and rhs.span else None
            node = self.build(op, Bin, op.kind, node, rhs, span=span)
        return node

    def parse_unary(self):
        if self.peek().kind == "-":
            t = self.advance()
            self.enter(t)
            x = self.parse_unary()
            self.nesting -= 1
            span = (t.start, self.end()) if x.span else None
            return self.build(t, Neg, x, span=span)
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        while self.peek().kind == "^":
            caret = self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            t = self.peek()
            if t.kind != _TOK_NUM or t.value != int(t.value):
                self.fail("exponent must be an integer literal",
                          expected=("integer exponent",))
            self.advance()
            span = (node.span[0], self.end()) if node.span else None
            node = self.build(caret, Pow, node, sign * int(t.value), span=span)
        return node

    def parse_atom(self):
        t = self.peek()
        if t.kind == _TOK_NUM:
            self.advance()
            return Lit(t.value, span=(t.start, t.start + len(t.text)))
        if t.kind == _TOK_IDENT:
            if t.value == "z":
                self.advance()
                return Var(span=(t.start, t.start + 1))
            if t.value == "i":
                self.advance()
                return Lit(0.0, 1.0, span=(t.start, t.start + 1))
            if t.value in FUNCTIONS:
                self.advance()
                self.expect("(", "'('")
                self.enter(t)
                arg = self.parse_expr()
                self.nesting -= 1
                close = self.expect(")", "')'")
                return self.build(t, Call, t.value, arg,
                                 span=(t.start, close.start + 1))
            self.fail(f"unknown identifier {t.value!r}", tok=t,
                      expected=_ATOM_EXPECTED)
        if t.kind == "(":
            self.advance()
            self.enter(t)
            node = self.parse_expr()
            self.nesting -= 1
            self.expect(")", "')'")
            return node
        self.fail("expected expression", tok=t, expected=_ATOM_EXPECTED)


def _num_text(x):
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _prec(node):
    if isinstance(node, (Lit, Var, Call)):
        return 4
    if isinstance(node, Pow):
        return 3
    if isinstance(node, Neg):
        return 2
    if isinstance(node, Bin):
        return 1 if node.op in "*/" else 0
    raise TypeError(node)


def print_node(node):
    if isinstance(node, Curve):
        comps = node.components[:node.declared_arity]
        return "(" + ", ".join(print_node(c) for c in comps) + ")"
    if isinstance(node, Lit):
        if node.im == 0.0:
            return _num_text(node.re)
        if node.re == 0.0 and node.im == 1.0:
            return "i"
        raise ValueError(f"unprintable literal ({node.re}, {node.im})")
    if isinstance(node, Var):
        return "z"
    if isinstance(node, Call):
        return f"{node.fn}({print_node(node.arg)})"
    if isinstance(node, Pow):
        base = print_node(node.base)
        if _prec(node.base) < 3:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Neg):
        inner = print_node(node.x)
        if _prec(node.x) < 2:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Bin):
        mine = _prec(node)
        left = print_node(node.a)
        if _prec(node.a) < mine:
            left = f"({left})"
        right = print_node(node.b)
        if _prec(node.b) <= mine:
            right = f"({right})"
        if node.op in "*/":
            return f"{left}{node.op}{right}"
        return f"{left} {node.op} {right}"
    raise TypeError(node)


def const_node(c):
    """Canonical AST for a complex constant, shaped as the parser would
    produce it (literals stay nonnegative; signs and i enter via operators)."""
    c = complex(c)
    re, im = c.real, c.imag

    def real_node(x):
        return Lit(x) if x >= 0 else Neg(Lit(-x))

    if im == 0.0:
        return real_node(re)
    im_node = Lit(0.0, 1.0) if abs(im) == 1.0 else Bin("*", Lit(abs(im)), Lit(0.0, 1.0))
    if re == 0.0:
        return im_node if im > 0 else Neg(im_node)
    if im > 0:
        return Bin("+", real_node(re), im_node)
    return Bin("-", real_node(re), im_node)


def _guard(node, src, z, fn):
    """fn(), with the rows where its jet checks fail recorded as
    EvaluationError at this node: a pole or a branch cut at z."""
    with row_failures(z.size) as failed:
        out = fn()
    poles = failed.rows(DegenerateJetError)

    def error(k):
        reason = "pole" if poles[k] else "branch cut"
        return EvaluationError(
            _eval_msg(node, src, complex(z[k]), reason), reason=reason,
            where=_span_text(node, src), z=complex(z[k]))

    fail_rows(failed.rows(), error)
    return out


def _span_text(node, src):
    if src is not None and node.span is not None:
        return src[node.span[0]:node.span[1]]
    return "<expression>"


def _eval_msg(node, src, z, reason):
    return f"cannot evaluate '{_span_text(node, src)}' at z = {z}: {reason}"


def _plan(ast):
    """The index of every node, by id, equal for equal sub-expressions (keyed
    by type, other fields by repr, so 0.0 and -0.0 differ, and the indices
    of the parts), and the indices an evaluation asks for more than once."""
    index, uses, at = {}, [], {}

    def visit(node):
        key, kids = [type(node)], []
        for name, x in vars(node).items():
            if isinstance(x, Node):
                kids.append(visit(x))
                key.append(kids[-1])
            elif name != "span":
                key.append(repr(x))
        at[id(node)] = k = index.setdefault(tuple(key), len(index))
        if k == len(uses):      # only the first occurrence asks for its parts
            uses.append(0)
            for c in kids:
                uses[c] += 1
        return k

    for c in ast.components:
        uses[visit(c)] += 1
    return at, {k for k, n in enumerate(uses) if n > 1}


class CurveExpr:
    """A parsed (or programmatically assembled) 4-component curve."""

    __slots__ = ("ast", "source", "_plan")

    def __init__(self, ast, source=None):
        if not isinstance(ast, Curve):
            raise TypeError("CurveExpr wants a Curve node")
        self.ast = ast
        self.source = source
        self._plan = _plan(ast)

    @staticmethod
    def parse(text):
        return CurveExpr(_Parser(text).parse_curve(), source=text)

    def to_text(self):
        return print_node(self.ast)

    def eval_jets(self, z):
        """Component jets at the points z, every slot an array over them;
        one point is a batch of one.

        The points where the curve has a pole or meets a branch cut are
        recorded as failed rows of EvaluationError (see jets.fail_rows),
        named by the first occurrence of the failing sub-expression: equal
        sub-expressions are computed once, in the order of the tree."""
        zj = ComplexJet.variable(z)
        z = zj.c0.z
        src = self.source
        at, shared = self._plan
        memo = {}

        def ev(node):
            k = at[id(node)]
            if k in memo:
                return memo[k]
            if isinstance(node, Lit):
                out = ComplexJet.constant(complex(node.re, node.im))
            elif isinstance(node, Var):
                out = zj
            elif isinstance(node, Neg):
                out = -ev(node.x)
            elif isinstance(node, Bin):
                a, b = ev(node.a), ev(node.b)
                out = (_guard(node, src, z, lambda: a / b) if node.op == "/"
                       else _ARITHMETIC[node.op](a, b))
            elif isinstance(node, Pow):
                base = ev(node.base)
                out = _guard(node, src, z, lambda: base ** node.exponent)
            else:
                arg, fn = ev(node.arg), node.fn
                out = _guard(node, src, z, lambda: (
                    arg.paired(fn, memo, at[id(node.arg)]) if fn in PAIRED
                    else getattr(arg, fn)()))
            if k in shared:
                memo[k] = out
            return out

        return [ev(c).batched(z.size) for c in self.ast.components]

    def __repr__(self):
        return f"CurveExpr({self.to_text()!r})"


def parse_curve(text):
    """Parse curve expression text to its AST (a Curve node)."""
    return _Parser(text).parse_curve()
