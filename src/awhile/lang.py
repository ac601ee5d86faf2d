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
from typing import Iterator, Optional, Union

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
    """One scan over ``text`` into ``(kind, text, offset)`` tuples: kind is
    'nat', 'id', 'kw', 'eof' or the operator text itself, and offset is
    where the token starts.  The last token has kind 'eof'."""
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
        tokens.append((kind, lexeme, start))
        if kind == "eof":
            break
    return tokens


# ---------------------------------------------------------------------------
# Parser: precedence climbing over one table, || < && < comparison < + - < *
# ---------------------------------------------------------------------------

# Binding powers, loosest first; the pretty printer uses the same scale.
_OR, _AND, _CMP, _ADD, _MUL = 1, 2, 3, 4, 5

# infix operator -> (binding power, whether its operands are boolean, node)
_INFIX = {
    "||": (_OR, True, Or),
    "&&": (_AND, True, And),
    **{op: (_CMP, False, Cmp) for op in ("=", "<>", "<=", "<")},
    "+": (_ADD, False, BinOp),
    "-": (_ADD, False, BinOp),
    "*": (_MUL, False, BinOp),
}

_BOOLEAN = frozenset((BoolLit, Cmp, Not, And, Or))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        # name -> first-use token, used to reject mixed scalar/array roles
        self.scalar_uses: dict = {}
        self.array_uses: dict = {}

    def peek(self) -> tuple:
        return self.tokens[self.pos]  # next() never moves past 'eof'

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: Optional[str] = None) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            self.error_expected(what or repr(kind), tok)
        self.pos += 1
        return tok

    def error(self, message: str, tok: tuple):
        raise ParseError.at(self.text, tok[2], message)

    def error_expected(self, want: str, tok: tuple):
        self.error(f"expected {want}, found {tok[1] or 'end of input'!r}", tok)

    def note_scalar(self, tok: tuple):
        if tok[1] in self.array_uses:
            self.error(f"{tok[1]!r} used as both scalar and array", tok)
        self.scalar_uses.setdefault(tok[1], tok)

    def note_array(self, tok: tuple):
        if tok[1] in self.scalar_uses:
            self.error(f"{tok[1]!r} used as both scalar and array", tok)
        self.array_uses.setdefault(tok[1], tok)

    # --- commands ---------------------------------------------------------

    def parse_com(self) -> Com:
        stmts = [self.parse_stmt()]
        while self.tokens[self.pos][0] == ";":
            self.pos += 1
            stmts.append(self.parse_stmt())
        com = stmts.pop()
        while stmts:  # ';' right-associates
            com = Seq(stmts.pop(), com)
        return com

    def parse_stmt(self) -> Com:
        tok = self.next()
        kind, word = tok[0], tok[1]
        if kind == "kw" and word == "skip":
            return SKIP
        if kind == "kw" and word == "if":
            cond = self.expr(_OR, True)
            self._expect_kw("then")
            then = self.parse_com()
            other: Com = SKIP
            if self.peek()[:2] == ("kw", "else"):
                self.next()
                other = self.parse_com()
            self._expect_kw("end")
            return If(cond, then, other)
        if kind == "kw" and word == "while":
            cond = self.expr(_OR, True)
            self._expect_kw("do")
            body = self.parse_com()
            self._expect_kw("end")
            return While(cond, body)
        if kind == "id":
            after = self.next()
            if after[0] == ":=":
                self.note_scalar(tok)
                return Asgn(word, self.expr(_ADD, False))
            if after[0] == "<-":
                arr = self.expect("id", "array name")
                self.expect("[")
                index = self.expr(_ADD, False)
                self.expect("]")
                self.note_scalar(tok)
                self.note_array(arr)
                return ARead(word, arr[1], index)
            if after[0] == "[":
                index = self.expr(_ADD, False)
                self.expect("]")
                self.expect("<-")
                value = self.expr(_ADD, False)
                self.note_array(tok)
                return AWrite(word, index, value)
            self.error(f"expected ':=', '<-' or '[' after {word!r}", after)
        self.error_expected("a command", tok)

    def _expect_kw(self, word: str) -> tuple:
        tok = self.peek()
        if tok[:2] != ("kw", word):
            self.error_expected(repr(word), tok)
        return self.next()

    # --- expressions ------------------------------------------------------

    def expr(self, min_bp: int, want_bool: Optional[bool] = None) -> Union[AExp, BExp]:
        """The longest expression at the cursor whose infix operators bind at
        least as tightly as ``min_bp``, in one pass.

        An operator is taken only if its left operand has the sort it needs,
        so the loop stops before ``+`` after a boolean and before a second
        comparison.  Where ``min_bp`` admits only arithmetic operators, so
        must the first token: ``!``, ``true`` and ``false`` are rejected.
        ``want_bool`` checks the result's sort: an arithmetic expression
        where a boolean is wanted is reported at the next token, a boolean
        where an arithmetic expression is wanted at its first token.
        """
        tokens = self.tokens
        first = tokens[self.pos]
        kind = first[0]
        self.pos += 1  # an 'eof' here is an error, raised before any read
        if kind == "nat":
            left = Num(int(first[1]))
        elif kind == "id":
            self.note_scalar(first)
            left = Var(first[1])
        elif kind == "(":
            # decided after the contents: '?' after a boolean makes a
            # constant-time conditional, anything else must be ')'
            left = self.expr(_OR)
            if tokens[self.pos][0] == "?" and left.__class__ in _BOOLEAN:
                self.pos += 1
                then = self.expr(_ADD, False)
                self.expect(":")
                left = CTCond(left, then, self.expr(_ADD, False))
            self.expect(")")
        elif min_bp <= _CMP and kind == "!":
            left = Not(self.expr(_CMP, True))
        elif min_bp <= _CMP and kind == "kw" and first[1] in ("true", "false"):
            left = BoolLit(first[1] == "true")
        else:
            self.error_expected("an arithmetic expression", first)
        while True:
            op = tokens[self.pos][0]
            if op not in _INFIX:
                break
            bp, bool_operands, node = _INFIX[op]
            if bp < min_bp or (left.__class__ in _BOOLEAN) != bool_operands:
                break
            self.pos += 1
            right = self.expr(bp + 1, bool_operands)
            left = node(left, right) if bool_operands else node(op, left, right)
        if want_bool is not None and (left.__class__ in _BOOLEAN) != want_bool:
            if want_bool:
                self.error_expected("a comparison operator", tokens[self.pos])
            self.error_expected("an arithmetic expression", first)
        return left


def _parse_all(text: str, rule, *args):
    parser = _Parser(text)
    out = rule(parser, *args)
    tok = parser.peek()
    if tok[0] != "eof":
        parser.error(f"trailing input starting at {tok[1]!r}", tok)
    return out


def parse_com(text: str) -> Com:
    """Parse program text into a command.

    ``if ... then c end`` without ``else`` desugars to ``else skip``.
    Raises ParseError (with line/column) on malformed input or when a name
    is used both as a scalar and as an array.
    """
    return _parse_all(text, _Parser.parse_com)


def parse_aexp(text: str) -> AExp:
    return _parse_all(text, _Parser.expr, _ADD, False)


def parse_bexp(text: str) -> BExp:
    return _parse_all(text, _Parser.expr, _OR, True)


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------


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
        mine = _INFIX[e.op][0]
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
        return "!" + pretty_bexp(b.arg, _CMP)
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
