"""Abstract syntax, concrete grammar, and pure evaluation for the AWhile language.

AWhile is a small imperative language over natural numbers with scalar
variables and fixed-size arrays.  Scalar and array names live in disjoint
namespaces; the parser infers the role of a name from bracket syntax and
rejects programs that use one name in both roles.

Arithmetic is total: subtraction truncates at zero.  The constant-time
conditional ``(be ? e1 : e2)`` is an expression, not a command, and never
produces an observation in any of the semantics built on top of this module.

The lexer is one ``findall`` of one pattern: a program becomes a list of
lexeme strings (keywords, names, numerals and operators as their own
text), and the parser dispatches on those strings.  No offsets are kept;
an error's line and column come from scanning the text again when it is
raised.  The pretty-printer and the name walks keep explicit stacks, so no
nesting depth or spine length exhausts the recursion limit.

Expressions evaluate two ways.  ``eval_aexp`` and ``eval_bexp`` walk the
tree; only ``seq_sem``, the independent sequential oracle, uses them.  The
speculative and ideal steppers evaluate through ``compiled``: each
expression becomes a closure on its first evaluation, cached in the
stepper's per-check table.
"""

from __future__ import annotations

import re
from operator import methodcaller
from typing import Optional, Union

from .record import Record

# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------


class Num(Record):
    value: int


class Var(Record):
    name: str


class BinOp(Record):
    op: str  # one of + - *
    left: "AExp"
    right: "AExp"


class CTCond(Record):
    """Constant-time conditional ``(cond ? then : other)``."""

    cond: "BExp"
    then: "AExp"
    other: "AExp"


AExp = Union[Num, Var, BinOp, CTCond]


class BoolLit(Record):
    value: bool


class Cmp(Record):
    op: str  # one of = <> <= <
    left: AExp
    right: AExp


class Not(Record):
    arg: "BExp"


class And(Record):
    left: "BExp"
    right: "BExp"


class Or(Record):
    left: "BExp"
    right: "BExp"


BExp = Union[BoolLit, Cmp, Not, And, Or]


class Skip(Record):
    pass


class Asgn(Record):
    name: str
    expr: AExp


class Seq(Record):
    first: "Com"
    second: "Com"


class If(Record):
    cond: BExp
    then: "Com"
    other: "Com"


class While(Record):
    cond: BExp
    body: "Com"


class ARead(Record):
    """``name <- array[index]``"""

    name: str
    array: str
    index: AExp


class AWrite(Record):
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

    Total over naturals; subtraction truncates at 0.  Both evaluators
    dispatch on the exact class, as the syntax walks do.
    """
    cls = e.__class__
    if cls is Num:
        return e.value
    if cls is Var:
        return rho.get(e.name)
    if cls is BinOp:
        l = eval_aexp(rho, e.left)
        r = eval_aexp(rho, e.right)
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r if l > r else 0
        if e.op == "*":
            return l * r
        raise ValueError(f"unknown arithmetic operator {e.op!r}")
    if cls is CTCond:
        return eval_aexp(rho, e.then if eval_bexp(rho, e.cond) else e.other)
    raise TypeError(f"not an arithmetic expression: {e!r}")


def eval_bexp(rho, b: BExp) -> bool:
    cls = b.__class__
    if cls is BoolLit:
        return b.value
    if cls is Cmp:
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
    if cls is Not:
        return not eval_bexp(rho, b.arg)
    if cls is And:
        return eval_bexp(rho, b.left) and eval_bexp(rho, b.right)
    if cls is Or:
        return eval_bexp(rho, b.left) or eval_bexp(rho, b.right)
    raise TypeError(f"not a boolean expression: {b!r}")


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------


def compiled(table: dict, e):
    """The closure that evaluates the expression ``e`` on the bindings of a
    scalar state (``ScalarState._m``, a dict without zero values), from a
    per-check ``table`` keyed by ``id(e)``.  An expression is compiled on
    its first evaluation (closure generation, Feeley & Lapalme 1987), and
    its entry holds it, so the id stays valid while the table lives.  The
    closures agree with ``eval_aexp`` and ``eval_bexp``, which ``seq_sem``
    keeps as the independent, tree-walking oracle."""
    entry = table.get(id(e))
    if entry is None:
        entry = table[id(e)] = (_compile(e), e)
    return entry[0]


def _compile(e):
    """A closure over bindings ``m`` that evaluates ``e``, built bottom-up
    with an explicit stack, so that no expression depth exhausts the
    recursion limit while compiling; evaluating nests one call per operator,
    as ``eval_aexp`` does.  A name reads as ``m.get(name, 0)``, one C-level
    call with no Python frame; a numeral on the right of an operator is
    folded into the operator's closure."""
    done, todo = [], [e]
    while todo:
        x = todo.pop()
        cls = x.__class__
        if cls is tuple:  # the operands of x[0] are compiled, in order
            done.append(_combine(x[0], done))
        elif cls is Var:
            done.append(methodcaller("get", x.name, 0))
        elif cls is Num or cls is BoolLit:
            done.append(_constant(x.value))
        else:
            if cls is BinOp or cls is Cmp:
                operands = (x.left,) if x.right.__class__ is Num else (x.left, x.right)
            elif cls is CTCond:
                operands = (x.cond, x.then, x.other)
            elif cls is Not:
                operands = (x.arg,)
            elif cls is And or cls is Or:
                operands = (x.left, x.right)
            else:
                raise TypeError(f"not an expression: {x!r}")
            todo.append((x,))
            todo.extend(reversed(operands))
    return done[0]


def _constant(value):
    return lambda m: value


def _combine(e, done):
    """The closure of ``e`` from its operands' closures, popped off
    ``done``."""
    cls = e.__class__
    if cls is CTCond:
        o, t, c = done.pop(), done.pop(), done.pop()
        return lambda m: t(m) if c(m) else o(m)
    if cls is Not:
        a = done.pop()
        return lambda m: not a(m)
    if cls is And:
        r, l = done.pop(), done.pop()
        return lambda m: l(m) and r(m)
    if cls is Or:
        r, l = done.pop(), done.pop()
        return lambda m: l(m) or r(m)
    op = e.op
    if e.right.__class__ is Num:
        l, n = done.pop(), e.right.value
        if op == "+":
            return lambda m: l(m) + n
        if op == "-":
            def minus_n(m):
                v = l(m)
                return v - n if v > n else 0
            return minus_n
        if op == "*":
            return lambda m: l(m) * n
        if op == "=":
            return lambda m: l(m) == n
        if op == "<>":
            return lambda m: l(m) != n
        if op == "<=":
            return lambda m: l(m) <= n
        if op == "<":
            return lambda m: l(m) < n
    else:
        r, l = done.pop(), done.pop()
        if op == "+":
            return lambda m: l(m) + r(m)
        if op == "-":
            def minus(m):
                v, w = l(m), r(m)
                return v - w if v > w else 0
            return minus
        if op == "*":
            return lambda m: l(m) * r(m)
        if op == "=":
            return lambda m: l(m) == r(m)
        if op == "<>":
            return lambda m: l(m) != r(m)
        if op == "<=":
            return lambda m: l(m) <= r(m)
        if op == "<":
            return lambda m: l(m) < r(m)
    kind = "arithmetic" if cls is BinOp else "comparison"
    raise ValueError(f"unknown {kind} operator {op!r}")


def _scalar_names(node) -> set:
    """Scalar names occurring in a command or an expression, collected into
    one set in one walk with an explicit stack."""
    names, todo = set(), [node]
    while todo:
        x = todo.pop()
        cls = x.__class__
        if cls is Var:
            names.add(x.name)
        elif cls is Num:
            pass
        elif cls is BinOp or cls is Cmp or cls is And or cls is Or:
            todo += (x.left, x.right)
        elif cls is Seq:
            todo += (x.first, x.second)
        elif cls is Asgn:
            names.add(x.name)
            todo.append(x.expr)
        elif cls is ARead:
            names.add(x.name)
            todo.append(x.index)
        elif cls is AWrite:
            todo += (x.index, x.value)
        elif cls is If or cls is CTCond:
            todo += (x.cond, x.then, x.other)
        elif cls is While:
            todo += (x.cond, x.body)
        elif cls is Not:
            todo.append(x.arg)
        elif not (cls is BoolLit or cls is Skip):
            raise TypeError(f"not a syntax tree: {x!r}")
    return names


def vars_of_expr(e) -> frozenset:
    """Scalar names occurring in an arithmetic or boolean expression."""
    return frozenset(_scalar_names(e))


def used_vars(c: Com) -> frozenset:
    """All scalar names occurring anywhere in ``c`` (reads, writes, indices,
    conditions).  Array names are not included.  An explicit stack keeps a
    long program from exhausting the recursion limit."""
    return frozenset(_scalar_names(c))


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
    """The record ``repr`` of a syntax tree, built with an explicit stack
    so that a long sequence spine cannot exhaust the recursion limit."""
    out, todo = [], [(False, node)]
    while todo:
        is_text, x = todo.pop()
        if is_text:
            out.append(x)
        elif not isinstance(x, Record):
            out.append(repr(x))
        else:
            parts = [(True, type(x).__qualname__ + "(")]
            for i, (name, value) in enumerate(zip(x._fields, x)):
                parts += [(True, (", " if i else "") + name + "="), (False, value)]
            parts.append((True, ")"))
            todo.extend(reversed(parts))
    return "".join(out)


def syntax_equal(a, b) -> bool:
    """Structural equality of two syntax trees (commands, annotated commands
    or expressions).  Unlike the record ``==`` it keeps an explicit stack,
    so a long sequence spine cannot exhaust the recursion limit, and a
    subtree both sides share compares in one check."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, Record):
            todo += zip(x, y)  # one class, so one field list
        elif x != y:
            return False
    return True


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = frozenset(
    ["skip", "if", "then", "else", "end", "while", "do", "true", "false"]
)

# One lexeme per match: a name or keyword, a numeral, a two-character
# operator, a comment, or any other non-blank character (a one-character
# operator or a bad character).  Whitespace is skipped between matches.
_LEXEME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|:=|<-|<=|<>|&&|\|\||#[^\n]*|\S")

_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_OPERATORS = frozenset([":=", "<-", "<=", "<>", "&&", "||", *"-+*<=()[];?:!"])


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


def numeral_too_long(digits: str) -> str:
    """The message for a numeral that ``int`` refuses for its length alone
    (Python converts at most ``sys.get_int_max_str_digits()`` digits)."""
    return f"numeral too long ({len(digits)} digits)"


def tokenize(text: str) -> list:
    """The lexemes of ``text`` as strings, comments dropped, followed by
    ``''`` for the end of input.  A keyword is its word, a numeral its
    digits, an operator its text.  Raises ParseError at the earliest
    character no lexeme starts with."""
    lexemes = _LEXEME_RE.findall(text)
    if "#" in text:
        lexemes = [lx for lx in lexemes if lx[0] != "#"]
    bad = [lx for lx in set(lexemes)
           if not (lx[0] in _NAME_START or lx in _OPERATORS or lx.isdecimal())]
    if bad:
        k = min(map(lexemes.index, bad))
        raise ParseError.at(text, _offset(text, k), f"unexpected character {lexemes[k]!r}")
    lexemes.append("")
    return lexemes


def _offset(text: str, k: int) -> int:
    """Where lexeme ``k`` of ``tokenize(text)`` starts in ``text``; the end
    of input is at ``len(text)``.  Only an error needs an offset, so the
    lexer keeps none and this scans again."""
    for m in _LEXEME_RE.finditer(text):
        if text[m.start()] != "#":
            if not k:
                return m.start()
            k -= 1
    return len(text)


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
    """Recursive descent over the lexeme strings of ``tokenize``.  No
    lexeme past the closing ``''`` is read, and an error is placed by the
    index of the lexeme it is about."""

    def __init__(self, text: str):
        self.text = text
        self.lexemes = tokenize(text)
        self.pos = 0
        # names seen in each role, used to reject mixed scalar/array roles
        self.scalar_uses: set = set()
        self.array_uses: set = set()

    def expect(self, lexeme: str):
        pos = self.pos
        if self.lexemes[pos] != lexeme:
            self.error_expected(repr(lexeme), pos)
        self.pos = pos + 1

    def error(self, message: str, k: int):
        raise ParseError.at(self.text, _offset(self.text, k), message)

    def error_expected(self, want: str, k: int):
        self.error(f"expected {want}, found {self.lexemes[k] or 'end of input'!r}", k)

    def error_role(self, k: int):
        self.error(f"{self.lexemes[k]!r} used as both scalar and array", k)

    def note_scalar(self, k: int):
        name = self.lexemes[k]
        if name in self.array_uses:
            self.error_role(k)
        self.scalar_uses.add(name)

    def note_array(self, k: int):
        name = self.lexemes[k]
        if name in self.scalar_uses:
            self.error_role(k)
        self.array_uses.add(name)

    # --- commands ---------------------------------------------------------

    def parse_com(self) -> Com:
        stmts = [self.parse_stmt()]
        while self.lexemes[self.pos] == ";":
            self.pos += 1
            stmts.append(self.parse_stmt())
        com = stmts.pop()
        while stmts:  # ';' right-associates
            com = Seq(stmts.pop(), com)
        return com

    def parse_stmt(self) -> Com:
        lexemes = self.lexemes
        start = self.pos
        word = lexemes[start]
        if not word:
            self.error_expected("a command", start)
        self.pos = start + 1
        if word == "skip":
            return SKIP
        if word == "if":
            cond = self.expr(_OR, True)
            self.expect("then")
            then = self.parse_com()
            other: Com = SKIP
            if lexemes[self.pos] == "else":
                self.pos += 1
                other = self.parse_com()
            self.expect("end")
            return If(cond, then, other)
        if word == "while":
            cond = self.expr(_OR, True)
            self.expect("do")
            body = self.parse_com()
            self.expect("end")
            return While(cond, body)
        if word[0] not in _NAME_START or word in KEYWORDS:
            self.error_expected("a command", start)
        k = self.pos
        after = lexemes[k]
        self.pos = k + 1
        if after == ":=":
            self.note_scalar(start)
            return Asgn(word, self.expr(_ADD, False))
        if after == "<-":
            arr = self.pos
            name = lexemes[arr]
            if not name or name[0] not in _NAME_START or name in KEYWORDS:
                self.error_expected("array name", arr)
            self.pos = arr + 1
            self.expect("[")
            index = self.expr(_ADD, False)
            self.expect("]")
            self.note_scalar(start)
            self.note_array(arr)
            return ARead(word, name, index)
        if after == "[":
            index = self.expr(_ADD, False)
            self.expect("]")
            self.expect("<-")
            value = self.expr(_ADD, False)
            self.note_array(start)
            return AWrite(word, index, value)
        self.error(f"expected ':=', '<-' or '[' after {word!r}", k)

    # --- expressions ------------------------------------------------------

    def expr(self, min_bp: int, want_bool: Optional[bool] = None) -> Union[AExp, BExp]:
        """The longest expression at the cursor whose infix operators bind at
        least as tightly as ``min_bp``, in one pass.

        An operator is taken only if its left operand has the sort it needs,
        so the loop stops before ``+`` after a boolean and before a second
        comparison.  Where ``min_bp`` admits only arithmetic operators, so
        must the first lexeme: ``!``, ``true`` and ``false`` are rejected.
        ``want_bool`` checks the result's sort: an arithmetic expression
        where a boolean is wanted is reported at the next lexeme, a boolean
        where an arithmetic expression is wanted at its first lexeme.
        """
        lexemes = self.lexemes
        start = self.pos
        first = lexemes[start]
        self.pos = start + 1  # the end of input here is an error, raised before any read
        if first and first[0] in _NAME_START and first not in KEYWORDS:
            if first in self.array_uses:  # note_scalar, inlined for the commonest atom
                self.error_role(start)
            self.scalar_uses.add(first)
            left = Var(first)
        elif first == "(":
            # decided after the contents: '?' after a boolean makes a
            # constant-time conditional, anything else must be ')'
            left = self.expr(_OR)
            if lexemes[self.pos] == "?" and left.__class__ in _BOOLEAN:
                self.pos += 1
                then = self.expr(_ADD, False)
                self.expect(":")
                left = CTCond(left, then, self.expr(_ADD, False))
            self.expect(")")
        elif min_bp <= _CMP and first == "!":
            left = Not(self.expr(_CMP, True))
        elif min_bp <= _CMP and (first == "true" or first == "false"):
            left = BoolLit(first == "true")
        elif first.isdecimal():
            try:
                left = Num(int(first))
            except ValueError:
                self.error(numeral_too_long(first), start)
        else:
            self.error_expected("an arithmetic expression", start)
        while True:
            op = lexemes[self.pos]
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
                self.error_expected("a comparison operator", self.pos)
            self.error_expected("an arithmetic expression", start)
        return left


def _parse_all(text: str, rule, *args):
    parser = _Parser(text)
    out = rule(parser, *args)
    pos = parser.pos
    if parser.lexemes[pos]:
        parser.error(f"trailing input starting at {parser.lexemes[pos]!r}", pos)
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


def _print_expr(out: list, e, level: int):
    """Append the concrete syntax of expression ``e`` to ``out``, in
    parentheses where its operator binds more loosely than ``level``.  An
    explicit stack holds the subexpressions and the text between them."""
    todo = [(e, level)]
    while todo:
        e, level = todo.pop()
        cls = e.__class__
        if cls is str:
            out.append(e)
        elif cls is Var:
            out.append(e.name)
        elif cls is Num:
            out.append(str(e.value))
        elif cls is BinOp or cls is And or cls is Or:
            mine = _INFIX[e.op][0] if cls is BinOp else _AND if cls is And else _OR
            op = e.op if cls is BinOp else "&&" if cls is And else "||"
            # left-associative: the right operand needs one level more
            if mine < level:
                out.append("(")
                todo.append((")", 0))
            todo += ((e.right, mine + 1), (f" {op} ", 0), (e.left, mine))
        elif cls is Cmp:
            todo += ((e.right, _ADD), (f" {e.op} ", 0), (e.left, _ADD))
        elif cls is CTCond:
            # always parenthesized, per the grammar
            out.append("(")
            todo += ((")", 0), (e.other, _ADD), (" : ", 0), (e.then, _ADD),
                     (" ? ", 0), (e.cond, _OR))
        elif cls is Not:
            out.append("!")
            todo.append((e.arg, _CMP))
        elif cls is BoolLit:
            out.append("true" if e.value else "false")
        else:
            raise TypeError(f"not an expression: {e!r}")


def pretty_aexp(e: AExp, level: int = _ADD) -> str:
    out: list = []
    _print_expr(out, e, level)
    return "".join(out)


def pretty_bexp(b: BExp, level: int = _OR) -> str:
    out: list = []
    _print_expr(out, b, level)
    return "".join(out)


def pretty_com(c: Com) -> str:
    """Render a command as concrete syntax.

    For any AST produced by parse_com the output reparses to a structurally
    equal tree.  The one normalization: the grammar has no command grouping,
    so a left-nested Seq prints flat and reparses right-nested (semantically
    identical; parse_com never produces left-nested sequences).

    Every piece of text goes into one list, in order, from an explicit
    stack of commands (each with the newline and indentation its line
    starts with) and of the text that follows their parts, so no nesting
    depth exhausts the recursion limit.
    """
    out: list = []
    todo = [(c, "\n")]
    while todo:
        c, nl = todo.pop()
        cls = c.__class__
        if cls is str:
            out.append(c)
        elif cls is Seq:
            # ';' ends the first part's last line
            todo += ((c.second, nl), (";", nl), (c.first, nl))
        elif cls is Asgn:
            out += (nl, c.name, " := ")
            _print_expr(out, c.expr, _ADD)
        elif cls is ARead:
            out += (nl, c.name, " <- ", c.array, "[")
            _print_expr(out, c.index, _ADD)
            out.append("]")
        elif cls is AWrite:
            out += (nl, c.array, "[")
            _print_expr(out, c.index, _ADD)
            out.append("] <- ")
            _print_expr(out, c.value, _ADD)
        elif cls is If:
            out += (nl, "if ")
            _print_expr(out, c.cond, _OR)
            out.append(" then")
            inner = nl + "  "
            todo.append((nl + "end", nl))
            if c.other.__class__ is not Skip:
                todo += ((c.other, inner), (nl + "else", nl))
            todo.append((c.then, inner))
        elif cls is While:
            out += (nl, "while ")
            _print_expr(out, c.cond, _OR)
            out.append(" do")
            todo += ((nl + "end", nl), (c.body, nl + "  "))
        elif cls is Skip:
            out += (nl, "skip")
        else:
            raise TypeError(f"not a command: {c!r}")
    return "".join(out)[1:]
