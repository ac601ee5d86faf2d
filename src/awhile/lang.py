"""Abstract syntax, concrete grammar, and pure evaluation for the AWhile language.

AWhile is a small imperative language over natural numbers with scalar
variables and fixed-size arrays.  Scalar and array names live in disjoint
namespaces; the parser infers the role of a name from bracket syntax and
rejects programs that use one name in both roles.

Arithmetic is total: subtraction truncates at zero.  The constant-time
conditional ``(be ? e1 : e2)`` is an expression, not a command, and never
produces an observation in any of the semantics built on top of this module.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Union

# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - *
    left: "AExp"
    right: "AExp"


@dataclass(frozen=True)
class CTCond:
    """Constant-time conditional ``(cond ? then : other)``."""

    cond: "BExp"
    then: "AExp"
    other: "AExp"


AExp = Union[Num, Var, BinOp, CTCond]


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Cmp:
    op: str  # one of = <> <= <
    left: AExp
    right: AExp


@dataclass(frozen=True)
class Not:
    arg: "BExp"


@dataclass(frozen=True)
class And:
    left: "BExp"
    right: "BExp"


@dataclass(frozen=True)
class Or:
    left: "BExp"
    right: "BExp"


BExp = Union[BoolLit, Cmp, Not, And, Or]


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Asgn:
    name: str
    expr: AExp


@dataclass(frozen=True)
class Seq:
    first: "Com"
    second: "Com"


@dataclass(frozen=True)
class If:
    cond: BExp
    then: "Com"
    other: "Com"


@dataclass(frozen=True)
class While:
    cond: BExp
    body: "Com"


@dataclass(frozen=True)
class ARead:
    """``name <- array[index]``"""

    name: str
    array: str
    index: AExp


@dataclass(frozen=True)
class AWrite:
    """``array[index] <- value``"""

    array: str
    index: AExp
    value: AExp


Com = Union[Skip, Asgn, Seq, If, While, ARead, AWrite]

SKIP = Skip()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_aexp(rho, e: AExp) -> int:
    """Evaluate an arithmetic expression in scalar state ``rho``.

    Total over naturals; subtraction truncates at 0.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return rho.get(e.name)
    if isinstance(e, BinOp):
        l = eval_aexp(rho, e.left)
        r = eval_aexp(rho, e.right)
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r if l > r else 0
        if e.op == "*":
            return l * r
        raise ValueError(f"unknown arithmetic operator {e.op!r}")
    if isinstance(e, CTCond):
        return eval_aexp(rho, e.then if eval_bexp(rho, e.cond) else e.other)
    raise TypeError(f"not an arithmetic expression: {e!r}")


def eval_bexp(rho, b: BExp) -> bool:
    if isinstance(b, BoolLit):
        return b.value
    if isinstance(b, Cmp):
        l = eval_aexp(rho, b.left)
        r = eval_aexp(rho, b.right)
        if b.op == "=":
            return l == r
        if b.op == "<>":
            return l != r
        if b.op == "<=":
            return l <= r
        if b.op == "<":
            return l < r
        raise ValueError(f"unknown comparison operator {b.op!r}")
    if isinstance(b, Not):
        return not eval_bexp(rho, b.arg)
    if isinstance(b, And):
        return eval_bexp(rho, b.left) and eval_bexp(rho, b.right)
    if isinstance(b, Or):
        return eval_bexp(rho, b.left) or eval_bexp(rho, b.right)
    raise TypeError(f"not a boolean expression: {b!r}")


def vars_of_expr(e) -> frozenset:
    """Scalar names occurring in an arithmetic or boolean expression."""
    if isinstance(e, (Num, BoolLit)):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, (BinOp, Cmp, And, Or)):
        return vars_of_expr(e.left) | vars_of_expr(e.right)
    if isinstance(e, Not):
        return vars_of_expr(e.arg)
    if isinstance(e, CTCond):
        return vars_of_expr(e.cond) | vars_of_expr(e.then) | vars_of_expr(e.other)
    raise TypeError(f"not an expression: {e!r}")


def used_vars(c: Com) -> frozenset:
    """All scalar names occurring anywhere in ``c`` (reads, writes, indices,
    conditions).  Array names are not included.  An explicit stack keeps a
    long program from exhausting the recursion limit."""
    names, todo = set(), [c]
    while todo:
        c = todo.pop()
        if isinstance(c, Seq):
            todo += (c.second, c.first)
        elif isinstance(c, If):
            names |= vars_of_expr(c.cond)
            todo += (c.other, c.then)
        elif isinstance(c, While):
            names |= vars_of_expr(c.cond)
            todo.append(c.body)
        elif isinstance(c, Asgn):
            names |= {c.name} | vars_of_expr(c.expr)
        elif isinstance(c, ARead):
            names |= {c.name} | vars_of_expr(c.index)
        elif isinstance(c, AWrite):
            names |= vars_of_expr(c.index) | vars_of_expr(c.value)
        elif not isinstance(c, Skip):
            raise TypeError(f"not a command: {c!r}")
    return frozenset(names)


def arrays_of(c: Com) -> frozenset:
    """All array names occurring in ``c``, found with an explicit stack."""
    names, todo = set(), [c]
    while todo:
        c = todo.pop()
        if isinstance(c, Seq):
            todo += (c.second, c.first)
        elif isinstance(c, If):
            todo += (c.other, c.then)
        elif isinstance(c, While):
            todo.append(c.body)
        elif isinstance(c, (ARead, AWrite)):
            names.add(c.array)
        elif not isinstance(c, (Skip, Asgn)):
            raise TypeError(f"not a command: {c!r}")
    return frozenset(names)


def syntax_repr(node) -> str:
    """The dataclass ``repr`` of a syntax tree, built with an explicit stack
    so that a long sequence spine cannot exhaust the recursion limit."""
    out, todo = [], [(False, node)]
    while todo:
        is_text, x = todo.pop()
        if is_text:
            out.append(x)
        elif not hasattr(x, "__dataclass_fields__"):
            out.append(repr(x))
        else:
            names = [f.name for f in dataclasses.fields(x) if f.repr]
            parts = [(True, type(x).__qualname__ + "(")]
            for i, name in enumerate(names):
                parts += [(True, (", " if i else "") + name + "="), (False, getattr(x, name))]
            parts.append((True, ")"))
            todo.extend(reversed(parts))
    return "".join(out)


def syntax_equal(a, b) -> bool:
    """Structural equality of two syntax trees (commands, annotated commands
    or expressions).  Unlike the dataclass ``==`` it keeps an explicit
    stack, so a long sequence spine cannot exhaust the recursion limit, and
    a subtree both sides share compares in one check."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        fields = getattr(x, "__dataclass_fields__", None)
        if fields is None:
            if x != y:
                return False
        else:
            todo.extend((getattr(x, f), getattr(y, f)) for f in fields)
    return True


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = frozenset(
    ["skip", "if", "then", "else", "end", "while", "do", "true", "false"]
)

# Each match skips whitespace and comments, then takes one token; a
# character no token starts with matches ``bad``, and the end of the text
# matches ``eof``, so the scan never backtracks over the skipped text.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|\#[^\n]*)*
    (?:
      (?P<nat>\d+)
    | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>:=|<-|<=|<>|&&|\|\||[-+*<=()\[\];?:!])
    | (?P<bad>.)
    | (?P<eof>\Z)
    )
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # 'nat', 'id', 'kw', 'eof', or the operator text itself
    text: str
    offset: int  # where the token starts in the source text


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col

    @classmethod
    def at(cls, text: str, offset: int, message: str) -> "ParseError":
        """The error at ``offset`` of ``text``, with 1-based line and column."""
        line = text.count("\n", 0, offset) + 1
        return cls(message, line, offset - text.rfind("\n", 0, offset))


def tokenize(text: str) -> list:
    """One scan over ``text``; the last token has kind 'eof'."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        lexeme = m.group(kind)
        start = m.start(kind)
        if kind == "id":
            if lexeme in KEYWORDS:
                kind = "kw"
        elif kind == "op":
            kind = lexeme
        elif kind == "bad":
            raise ParseError.at(text, start, f"unexpected character {lexeme!r}")
        tokens.append(Token(kind, lexeme, start))
        if kind == "eof":
            break
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent with backtracking at parenthesized forms)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        # name -> first-use token, used to reject mixed scalar/array roles
        self.scalar_uses: dict = {}
        self.array_uses: dict = {}

    def peek(self) -> Token:
        return self.tokens[self.pos]  # next() never moves past 'eof'

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            want = what or repr(kind)
            self.error(f"expected {want}, found {tok.text or 'end of input'!r}", tok)
        return self.next()

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError.at(self.text, tok.offset, message)

    def note_scalar(self, tok: Token):
        if tok.text in self.array_uses:
            self.error(f"{tok.text!r} used as both scalar and array", tok)
        self.scalar_uses.setdefault(tok.text, tok)

    def note_array(self, tok: Token):
        if tok.text in self.scalar_uses:
            self.error(f"{tok.text!r} used as both scalar and array", tok)
        self.array_uses.setdefault(tok.text, tok)

    # --- commands ---------------------------------------------------------

    def parse_com(self) -> Com:
        stmts = [self.parse_stmt()]
        while self.peek().kind == ";":
            self.next()
            stmts.append(self.parse_stmt())
        com = stmts.pop()
        while stmts:  # ';' right-associates
            com = Seq(stmts.pop(), com)
        return com

    def parse_stmt(self) -> Com:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "skip":
            self.next()
            return SKIP
        if tok.kind == "kw" and tok.text == "if":
            self.next()
            cond = self.parse_bexp()
            self._expect_kw("then")
            then = self.parse_com()
            other: Com = SKIP
            if self._at_kw("else"):
                self.next()
                other = self.parse_com()
            self._expect_kw("end")
            return If(cond, then, other)
        if tok.kind == "kw" and tok.text == "while":
            self.next()
            cond = self.parse_bexp()
            self._expect_kw("do")
            body = self.parse_com()
            self._expect_kw("end")
            return While(cond, body)
        if tok.kind == "id":
            name = self.next()
            after = self.peek()
            if after.kind == ":=":
                self.next()
                self.note_scalar(name)
                return Asgn(name.text, self.parse_aexp())
            if after.kind == "<-":
                self.next()
                arr = self.expect("id", "array name")
                self.expect("[")
                index = self.parse_aexp()
                self.expect("]")
                self.note_scalar(name)
                self.note_array(arr)
                return ARead(name.text, arr.text, index)
            if after.kind == "[":
                self.next()
                index = self.parse_aexp()
                self.expect("]")
                self.expect("<-")
                value = self.parse_aexp()
                self.note_array(name)
                return AWrite(name.text, index, value)
            self.error(f"expected ':=', '<-' or '[' after {name.text!r}", after)
        self.error(f"expected a command, found {tok.text or 'end of input'!r}")

    def _at_kw(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text == word

    def _expect_kw(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "kw" or tok.text != word:
            self.error(f"expected {word!r}, found {tok.text or 'end of input'!r}", tok)
        return self.next()

    # --- arithmetic expressions -------------------------------------------

    def parse_aexp(self) -> AExp:
        left = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            right = self.parse_term()
            left = BinOp(op, left, right)
        return left

    def parse_term(self) -> AExp:
        left = self.parse_atom()
        while self.peek().kind == "*":
            self.next()
            right = self.parse_atom()
            left = BinOp("*", left, right)
        return left

    def parse_atom(self) -> AExp:
        tok = self.peek()
        if tok.kind == "nat":
            self.next()
            return Num(int(tok.text))
        if tok.kind == "id":
            self.next()
            self.note_scalar(tok)
            return Var(tok.text)
        if tok.kind == "(":
            self.next()
            # Either a constant-time conditional '(be ? e1 : e2)' or a
            # parenthesized aexp; decided by backtracking.
            save = self.pos
            try:
                cond = self.parse_bexp()
                if self.peek().kind == "?":
                    self.next()
                    then = self.parse_aexp()
                    self.expect(":")
                    other = self.parse_aexp()
                    self.expect(")")
                    return CTCond(cond, then, other)
            except ParseError:
                pass
            self.pos = save
            inner = self.parse_aexp()
            self.expect(")")
            return inner
        self.error(f"expected an arithmetic expression, found {tok.text or 'end of input'!r}")

    # --- boolean expressions ----------------------------------------------

    def parse_bexp(self) -> BExp:
        left = self.parse_band()
        while self.peek().kind == "||":
            self.next()
            right = self.parse_band()
            left = Or(left, right)
        return left

    def parse_band(self) -> BExp:
        left = self.parse_bunary()
        while self.peek().kind == "&&":
            self.next()
            right = self.parse_bunary()
            left = And(left, right)
        return left

    def parse_bunary(self) -> BExp:
        tok = self.peek()
        if tok.kind == "!":
            self.next()
            return Not(self.parse_bunary())
        if tok.kind == "kw" and tok.text in ("true", "false"):
            self.next()
            return BoolLit(tok.text == "true")
        if tok.kind == "(":
            # '(bexp)' or a comparison whose left operand is parenthesized.
            save = self.pos
            self.next()
            try:
                inner = self.parse_bexp()
                if self.peek().kind == ")":
                    self.next()
                    return inner
            except ParseError:
                pass
            self.pos = save
        return self.parse_cmp()

    def parse_cmp(self) -> BExp:
        left = self.parse_aexp()
        tok = self.peek()
        if tok.kind not in ("=", "<>", "<=", "<"):
            self.error(
                f"expected a comparison operator, found {tok.text or 'end of input'!r}", tok
            )
        self.next()
        right = self.parse_aexp()
        return Cmp(tok.kind, left, right)


def _parse_all(text: str, rule):
    parser = _Parser(text)
    out = rule(parser)
    tok = parser.peek()
    if tok.kind != "eof":
        parser.error(f"trailing input starting at {tok.text!r}", tok)
    return out


def parse_com(text: str) -> Com:
    """Parse program text into a command.

    ``if ... then c end`` without ``else`` desugars to ``else skip``.
    Raises ParseError (with line/column) on malformed input or when a name
    is used both as a scalar and as an array.
    """
    return _parse_all(text, _Parser.parse_com)


def parse_aexp(text: str) -> AExp:
    return _parse_all(text, _Parser.parse_aexp)


def parse_bexp(text: str) -> BExp:
    return _parse_all(text, _Parser.parse_bexp)


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

# Precedence levels for arithmetic: atoms bind tightest.
_ADD, _MUL, _ATOM = 1, 2, 3
_OR, _AND, _NOT, _BATOM = 1, 2, 3, 4


def pretty_aexp(e: AExp, level: int = _ADD) -> str:
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, CTCond):
        # always parenthesized, per the grammar
        return "({} ? {} : {})".format(
            pretty_bexp(e.cond), pretty_aexp(e.then), pretty_aexp(e.other)
        )
    if isinstance(e, BinOp):
        mine = _MUL if e.op == "*" else _ADD
        # left-associative: the right operand needs one level more
        s = "{} {} {}".format(
            pretty_aexp(e.left, mine), e.op, pretty_aexp(e.right, mine + 1)
        )
        return f"({s})" if mine < level else s
    raise TypeError(f"not an arithmetic expression: {e!r}")


def pretty_bexp(b: BExp, level: int = _OR) -> str:
    if isinstance(b, BoolLit):
        return "true" if b.value else "false"
    if isinstance(b, Cmp):
        return "{} {} {}".format(pretty_aexp(b.left), b.op, pretty_aexp(b.right))
    if isinstance(b, Not):
        return "!" + pretty_bexp(b.arg, _BATOM)
    if isinstance(b, (And, Or)):
        mine = _AND if isinstance(b, And) else _OR
        op = "&&" if isinstance(b, And) else "||"
        s = "{} {} {}".format(
            pretty_bexp(b.left, mine), op, pretty_bexp(b.right, mine + 1)
        )
        return f"({s})" if mine < level else s
    raise TypeError(f"not a boolean expression: {b!r}")


def _pretty_lines(c: Com, indent: int) -> Iterator[str]:
    pad = "  " * indent
    if isinstance(c, Seq):
        # Flatten the sequence spine; ';' terminates all but the last line.
        parts = []
        node = c
        while isinstance(node, Seq):
            parts.append(node.first)
            node = node.second
        parts.append(node)
        for i, part in enumerate(parts):
            lines = list(_pretty_lines(part, indent))
            if i < len(parts) - 1:
                lines[-1] = lines[-1] + ";"
            yield from lines
        return
    if isinstance(c, Skip):
        yield pad + "skip"
    elif isinstance(c, Asgn):
        yield pad + f"{c.name} := {pretty_aexp(c.expr)}"
    elif isinstance(c, ARead):
        yield pad + f"{c.name} <- {c.array}[{pretty_aexp(c.index)}]"
    elif isinstance(c, AWrite):
        yield pad + f"{c.array}[{pretty_aexp(c.index)}] <- {pretty_aexp(c.value)}"
    elif isinstance(c, If):
        yield pad + f"if {pretty_bexp(c.cond)} then"
        yield from _pretty_lines(c.then, indent + 1)
        if c.other != SKIP:
            yield pad + "else"
            yield from _pretty_lines(c.other, indent + 1)
        yield pad + "end"
    elif isinstance(c, While):
        yield pad + f"while {pretty_bexp(c.cond)} do"
        yield from _pretty_lines(c.body, indent + 1)
        yield pad + "end"
    else:
        raise TypeError(f"not a command: {c!r}")


def pretty_com(c: Com) -> str:
    """Render a command as concrete syntax.

    For any AST produced by parse_com the output reparses to a structurally
    equal tree.  The one normalization: the grammar has no command grouping,
    so a left-nested Seq prints flat and reparses right-nested (semantically
    identical; parse_com never produces left-nested sequences).
    """
    return "\n".join(_pretty_lines(c, 0))
