import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awhile.lang import (
    And,
    ARead,
    Asgn,
    AWrite,
    BinOp,
    BoolLit,
    Cmp,
    CTCond,
    If,
    Num,
    Or,
    ParseError,
    Seq,
    Skip,
    SKIP,
    Var,
    While,
    eval_aexp,
    eval_bexp,
    parse_aexp,
    parse_bexp,
    parse_com,
    pretty_aexp,
    pretty_bexp,
    pretty_com,
    compiled,
    syntax_equal,
    syntax_repr,
    program_names,
    _scalar_names,
    OPAQUE,
    UNKNOWN,
    SecretDependence,
)
from awhile.fixtures import FIXTURES
from awhile.gen import NamePools, gen_program
from awhile.record import Record
from awhile.state import ScalarState

LISTING1 = "if i < a1_size then j <- a1[i]; x <- a2[j] end"

LISTING2 = """
if i < a1_size then
  b := (i < a1_size ? b : 1);
  j <- a1[(b = 1 ? 0 : i)];
  x <- a2[(b = 1 ? 0 : j)]
else
  b := (i < a1_size ? 1 : b)
end
"""


# --- strategies -------------------------------------------------------------

scalar_names = st.sampled_from(["x", "y", "z", "i"])
array_names = st.sampled_from(["a", "c"])


def aexps(depth=3):
    base = st.one_of(
        st.integers(min_value=0, max_value=9).map(Num),
        scalar_names.map(Var),
    )
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(st.sampled_from("+-*"), inner, inner).map(
                lambda t: BinOp(*t)
            ),
            st.tuples(bexps_shallow(inner), inner, inner).map(
                lambda t: CTCond(*t)
            ),
        ),
        max_leaves=depth * 2,
    )


def bexps_shallow(inner_aexp):
    from awhile.lang import And, Not, Or

    comparisons = st.tuples(
        st.sampled_from(["=", "<>", "<=", "<"]), inner_aexp, inner_aexp
    ).map(lambda t: Cmp(*t))
    base = st.one_of(st.booleans().map(BoolLit), comparisons)
    return st.recursive(
        base,
        lambda b: st.one_of(
            b.map(Not),
            st.tuples(b, b).map(lambda t: And(*t)),
            st.tuples(b, b).map(lambda t: Or(*t)),
        ),
        max_leaves=4,
    )


def bexps():
    return bexps_shallow(aexps(2))


def _rseq(first, second):
    # the grammar right-associates ';', so generated trees must too
    if isinstance(first, Seq):
        return Seq(first.first, _rseq(first.second, second))
    return Seq(first, second)


def coms():
    leaves = st.one_of(
        st.just(SKIP),
        st.tuples(scalar_names, aexps(2)).map(lambda t: Asgn(*t)),
        st.tuples(scalar_names, array_names, aexps(2)).map(lambda t: ARead(*t)),
        st.tuples(array_names, aexps(2), aexps(2)).map(lambda t: AWrite(*t)),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: _rseq(*t)),
            st.tuples(bexps(), inner, inner).map(lambda t: If(*t)),
            st.tuples(bexps(), inner).map(lambda t: While(*t)),
        ),
        max_leaves=8,
    )


# --- parsing ----------------------------------------------------------------


def test_parse_skip():
    assert parse_com("skip") == SKIP


def test_parse_listing1():
    assert parse_com(LISTING1) == If(
        Cmp("<", Var("i"), Var("a1_size")),
        Seq(ARead("j", "a1", Var("i")), ARead("x", "a2", Var("j"))),
        SKIP,
    )


def test_a_parse_shares_one_node_per_atom():
    c = parse_com("x := y + 1; z := (y < 1 ? y : 1) * y")
    first, second = c.first.expr, c.second.expr
    assert first.left is second.left.cond.left is second.left.then is second.right
    assert first.right is second.left.cond.right is second.left.other
    # separate parses share nothing
    assert parse_aexp("y") == parse_aexp("y") and parse_aexp("y") is not parse_aexp("y")


def test_parse_incomplete_if():
    with pytest.raises(ParseError):
        parse_com("if x then")


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_com("skip;\n  ?")
    assert err.value.line == 2
    assert err.value.col == 3


def test_error_after_comment_and_newline_has_position():
    with pytest.raises(ParseError) as err:
        parse_com("x := 1; # a comment; with ';'\n\t y := @")
    assert (err.value.line, err.value.col) == (2, 8)
    assert str(err.value) == "2:8: unexpected character '@'"
    with pytest.raises(ParseError) as err:
        parse_com("x := 1 # trailing\n  # only comments\n  y")
    assert (err.value.line, err.value.col) == (3, 3)
    assert err.value.message == "trailing input starting at 'y'"
    with pytest.raises(ParseError) as err:
        parse_com("x := 1;  # nothing follows\n")
    assert (err.value.line, err.value.col) == (2, 1)
    assert err.value.message == "expected a command, found 'end of input'"


@pytest.mark.parametrize("text, message", [
    # a missing ':' or ')' is reported at the token found in its place
    ("x := (y < 1 ? 2 3)", "1:17: expected ':', found '3'"),
    ("if (x < 1 then skip end", "1:11: expected ')', found 'then'"),
    ("if x then", "1:6: expected a comparison operator, found 'then'"),
])
def test_error_at_the_faulty_token(text, message):
    with pytest.raises(ParseError) as err:
        parse_com(text)
    assert str(err.value) == message


# Exact messages for malformed input, pinned so that a change to the lexer
# or the parser keeps every position and every wording.
@pytest.mark.parametrize("text, message", [
    # two different bad characters: the earliest is reported, whatever
    # their order as characters, and a commented-out one does not count
    ("x := @; y := $", "1:6: unexpected character '@'"),
    ("x := $; y := @", "1:6: unexpected character '$'"),
    ("# $\nx := @; y := $", "2:6: unexpected character '@'"),
    # a bad character is reported before a syntax error earlier in the text
    ("x := ; y := @", "1:13: unexpected character '@'"),
    ("if x < 1 then y := 2 end end ~", "1:30: unexpected character '~'"),
    ("x := 1 # @ comment\n; y := @", "2:8: unexpected character '@'"),
    # '²' is a digit but not a decimal one; a lone '&' and a non-ASCII
    # letter start no token
    ("x := ²", "1:6: unexpected character '²'"),
    ("x := 1 & 2", "1:8: unexpected character '&'"),
    ("é := 1", "1:1: unexpected character 'é'"),
    # a keyword where a name or a command is expected
    ("x <- if[0]", "1:6: expected array name, found 'if'"),
    ("then := 1", "1:1: expected a command, found 'then'"),
    ("x := true", "1:6: expected an arithmetic expression, found 'true'"),
    # the end of the input
    ("", "1:1: expected a command, found 'end of input'"),
    ("if x < 1 then skip", "1:19: expected 'end', found 'end of input'"),
    ("x := 1;\r\n\ty :=", "2:6: expected an arithmetic expression, found 'end of input'"),
    # trailing input
    ("skip skip", "1:6: trailing input starting at 'skip'"),
    ("x := 12ab", "1:8: trailing input starting at 'ab'"),
    ("x١ := ١٢", "1:2: expected ':=', '<-' or '[' after 'x'"),
    ("if !x then skip end", "1:7: expected a comparison operator, found 'then'"),
    ("skip;\n\n  x := 1 +\n  * 2", "4:3: expected an arithmetic expression, found '*'"),
    # one name as scalar and array, in both orders, reported where the
    # second role appears
    ("a[0] <- 1; a := 2", "1:12: 'a' used as both scalar and array"),
    ("a := 2;\n  a[0] <- 1", "2:3: 'a' used as both scalar and array"),
    ("y := a; z <- a[1]", "1:14: 'a' used as both scalar and array"),
    ("x <- x[0]", "1:6: 'x' used as both scalar and array"),
    ("a[a] <- 1", "1:1: 'a' used as both scalar and array"),
    # a fault in the right operand of an infix operator
    ("x := y +", "1:9: expected an arithmetic expression, found 'end of input'"),
    ("x := y +\n  1 -", "2:6: expected an arithmetic expression, found 'end of input'"),
    ("x := y + true", "1:10: expected an arithmetic expression, found 'true'"),
    ("x := y * " + "1" * 5000, "1:10: numeral too long (5000 digits)"),
    ("a[0] <- 1; x := 1 + a", "1:21: 'a' used as both scalar and array"),
    ("x := 1 + a; y := 2 * a; a[0] <- 1", "1:25: 'a' used as both scalar and array"),
    ("x := y + z[0]", "1:11: trailing input starting at '['"),
    ("x := y + y[0]", "1:11: trailing input starting at '['"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_com(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, want", [
    ("x := 1 # @$²\n", Asgn("x", Num(1))),  # bad characters in a comment
    ("x := ٣", Asgn("x", Num(3))),  # any decimal digit is a numeral
    ("y := ١٢ + 0", Asgn("y", BinOp("+", Num(12), Num(0)))),
])
def test_parse_accepts(text, want):
    assert parse_com(text) == want


_DEEP = 200
_X_LT_1 = If(Cmp("<", Var("x"), Num(1)), SKIP, SKIP)


@pytest.mark.parametrize("text, want", [
    ("x := " + "(" * _DEEP + "1" + ")" * _DEEP, Asgn("x", Num(1))),
    ("if " + "(" * _DEEP + "x" + ")" * _DEEP + " < 1 then skip end", _X_LT_1),
    ("if " + "(" * _DEEP + "x < 1" + ")" * _DEEP + " then skip end", _X_LT_1),
], ids=["arithmetic", "comparison-operand", "condition"])
def test_deep_parentheses_parse_quickly(text, want):
    # one pass, no backtracking: each level of nesting costs the same
    start = time.perf_counter()
    assert parse_com(text) == want
    assert time.perf_counter() - start < 1.0


@settings(max_examples=200)
@given(aexps(), bexps(), st.integers(1, 5))
def test_extra_parentheses_parse_back(e, b, depth):
    assert parse_aexp("(" * depth + pretty_aexp(e) + ")" * depth) == e
    assert parse_bexp("(" * depth + pretty_bexp(b) + ")" * depth) == b


def test_syntax_equal_on_long_spines():
    def chain(n, last):
        com = Asgn("x", Num(last))
        for _ in range(n):
            com = Seq(Asgn("x", BinOp("+", Var("x"), Num(1))), com)
        return com

    assert syntax_equal(chain(5000, 0), chain(5000, 0))
    assert not syntax_equal(chain(5000, 0), chain(5000, 1))
    assert not syntax_equal(chain(5000, 0), chain(4999, 0))
    assert not syntax_equal(Num(1), Var("x"))


def test_long_spines_do_not_recurse():
    com = parse_com(";\n".join(["x := x + 1", "a[y] <- z"] * 2500))
    assert syntax_repr(com).startswith("Seq(first=Asgn(name='x', expr=BinOp(op='+'")
    arrays = set()
    assert _scalar_names(com, arrays) == {"x", "y", "z"} and arrays == {"a"}
    # a tree the parser did not build is walked
    assert program_names(Seq(Asgn("w", Num(0)), com))[0] == {"w", "x", "y", "z"}


def test_pretty_com_prints_deep_nesting():
    depth = 1500
    com = Asgn("x", Num(1))
    for k in range(depth):
        com = If(Cmp("<", Var("x"), Num(k)), com, SKIP)
    text = pretty_com(com)
    assert text == "\n".join(
        [f"{'  ' * i}if x < {depth - 1 - i} then" for i in range(depth)]
        + ["  " * depth + "x := 1"]
        + [f"{'  ' * i}end" for i in reversed(range(depth))]
    )
    # the parser still recurses once per level: give it the room it needs
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 4 * depth)
    try:
        parsed = parse_com(text)
    finally:
        sys.setrecursionlimit(limit)
    assert syntax_equal(parsed, com)


@settings(max_examples=200)
@given(coms())
def test_syntax_repr_is_the_dataclass_repr(com):
    assert syntax_repr(com) == repr(com)


def test_syntax_repr_of_expressions():
    for text in ("(x < 1 && !(y = 2) ? a * 3 : b - 0)", "((x))", "7"):
        e = parse_aexp(text)
        assert syntax_repr(e) == repr(e)
    b = parse_bexp("true || x <= y && false")
    assert syntax_repr(b) == repr(b)


def test_seq_right_associates():
    assert parse_com("skip; x := 1; skip") == Seq(
        SKIP, Seq(Asgn("x", Num(1)), SKIP)
    )


def test_if_without_else_desugars_to_skip():
    com = parse_com("if true then x := 1 end")
    assert com.other == SKIP


def test_mul_binds_tighter_than_add():
    assert parse_aexp("1 + 2 * 3") == BinOp(
        "+", Num(1), BinOp("*", Num(2), Num(3))
    )


def test_subtraction_left_associates():
    e = parse_aexp("1 - 2 - 1")
    assert e == BinOp("-", BinOp("-", Num(1), Num(2)), Num(1))


def test_parenthesized_comparison_operand():
    b = parse_bexp("(x + 1) < 2")
    assert b == Cmp("<", BinOp("+", Var("x"), Num(1)), Num(2))


def test_ctcond_as_comparison_operand():
    b = parse_bexp("(x < 1 ? 2 : 3) < 4")
    assert b == Cmp("<", CTCond(Cmp("<", Var("x"), Num(1)), Num(2), Num(3)), Num(4))


def test_whitespace_insensitive():
    one_line = "if i < a1_size then j <- a1[i]; x <- a2[j] end"
    multi = "if i < a1_size\nthen\n  j <- a1[ i ];\n  x <- a2[j]\nend"
    assert parse_com(one_line) == parse_com(multi)


def test_name_used_as_scalar_and_array_rejected():
    with pytest.raises(ParseError, match="both scalar and array"):
        parse_com("a[0] <- 1; a := 2")
    with pytest.raises(ParseError, match="both scalar and array"):
        parse_com("x := a; x <- a[0]")


def test_keywords_reserved():
    with pytest.raises(ParseError):
        parse_com("end := 1")


# --- pretty printing --------------------------------------------------------


def test_pretty_skip():
    assert pretty_com(SKIP) == "skip"


def _squash(text: str) -> str:
    return " ".join(text.split())


def test_listing2_round_trips_modulo_whitespace():
    ast = parse_com(LISTING2)
    assert _squash(pretty_com(ast)) == _squash(LISTING2)
    assert parse_com(pretty_com(ast)) == ast


def test_ctcond_in_binop_parenthesized():
    e = BinOp("+", CTCond(BoolLit(True), Num(1), Num(2)), Num(3))
    text = pretty_aexp(e)
    assert parse_aexp(text) == e


@settings(max_examples=300)
@given(coms())
def test_round_trip(com):
    assert parse_com(pretty_com(com)) == com


# --- evaluation -------------------------------------------------------------


def test_eval_addition():
    assert eval_aexp(ScalarState(), parse_aexp("3 + 4")) == 7


def test_eval_truncated_subtraction():
    rho = ScalarState({"x": 3})
    assert eval_aexp(rho, parse_aexp("x - 5")) == 0


def test_eval_ctcond():
    rho = ScalarState({"x": 1})
    assert eval_aexp(rho, parse_aexp("(x < 2 ? 8 : 9)")) == 8


def test_eval_bool_literal():
    assert eval_bexp(ScalarState(), BoolLit(True)) is True


def test_eval_branch_conditions_of_bounds_check():
    b = parse_bexp("i < a1_size")
    assert eval_bexp(ScalarState({"i": 4, "a1_size": 4}), b) is False
    assert eval_bexp(ScalarState({"i": 1, "a1_size": 4}), b) is True


@settings(max_examples=200)
@given(aexps(), st.dictionaries(scalar_names, st.integers(0, 50)))
def test_eval_total(e, env):
    assert eval_aexp(ScalarState(env), e) >= 0


@settings(max_examples=200)
@given(aexps(2), aexps(2), st.dictionaries(scalar_names, st.integers(0, 50)))
def test_truncation(e1, e2, env):
    rho = ScalarState(env)
    v1, v2 = eval_aexp(rho, e1), eval_aexp(rho, e2)
    assert eval_aexp(rho, BinOp("-", e1, e2)) == max(0, v1 - v2)


# --- compiled evaluation ----------------------------------------------------


def _assert_compiled_agrees(table, expr, rho):
    oracle = eval_aexp if isinstance(expr, (Num, Var, BinOp, CTCond)) else eval_bexp
    want, got = oracle(rho, expr), compiled(table, expr)(rho._m)
    assert got == want and type(got) is type(want), (expr, rho)
    assert table[id(expr)][1] is expr  # the entry keeps the expression alive


@settings(max_examples=300)
@given(aexps(), bexps(), st.dictionaries(st.sampled_from(["x", "y", "z"]), st.integers(0, 12)))
def test_compiled_expressions_agree_with_the_evaluators(e, b, env):
    # the steppers evaluate through compiled closures and seq_sem through
    # the tree-walking evaluators; i is never bound, and zero bindings are
    # dropped, so absent names must read as 0
    rho, table = ScalarState(env), {}
    for expr in (e, b):
        _assert_compiled_agrees(table, expr, rho)


@pytest.mark.parametrize("text", [
    "x - 5", "5 - x", "x - y", "x * 3", "x * y", "x + 0", "q + 1", "q", "7",
    "(x < 2 ? (y = 0 ? 8 : z - 1) : (q <> 0 ? 1 : 2))",
    # left-deep chains of one operator, folded in one closure
    "x + y + 1 + z", "x - 1 - y - 2", "9 - x - y", "x * 2 * y * 3", "x - y - z + 1 + 2",
    "(x + 1 + y) * 2 * (z - 1 - 1)",
    # left-deep chains that mix + and -, also around a chain of *
    "x + 1 - y + 2 - z", "9 - x + y - 1 - z + 3", "1 - x + 1 - x + 1", "x * y * 2 + 1 - z",
    "x - y * 2 * z + 4 - 1", "x - (y + 1 - z) + 1", "z + 2 - x * 3 - (x - 1 + y)",
])
def test_compiled_arithmetic_on_sample_stores(text):
    e = parse_aexp(text)
    table = {}
    for env in ({}, {"x": 3, "y": 0}, {"x": 1, "y": 7, "z": 4}, {"x": 9, "y": 2, "z": 0}):
        _assert_compiled_agrees(table, e, ScalarState(env))
    assert list(table) == [id(e)]  # one entry, compiled once


@pytest.mark.parametrize("op, want", [("+", 10999), ("-", 1001), ("*", 6000), ("+ 2 -", 10999)])
def test_long_left_deep_chains_evaluate_in_a_loop(op, want):
    # 5,000 operands (9,999 where + and - alternate): nesting one call per
    # operator would exhaust the recursion limit
    e = parse_aexp(f" {op} ".join(["x"] + ["1"] * 4999))
    rho = ScalarState({"x": 6000})
    assert eval_aexp(rho, e) == want
    assert compiled({}, e)(rho._m) == want


@pytest.mark.parametrize("op, want", [("&&", True), ("||", False)])
def test_long_boolean_chains_evaluate_in_a_loop(op, want):
    b = parse_bexp(f" {op} ".join(["x = 1"] * 5000))
    rho = ScalarState({"x": 1 if want else 0})
    assert eval_bexp(rho, b) is want
    assert compiled({}, b)(rho._m) is want


@settings(max_examples=200)
@given(st.lists(aexps(1), min_size=2, max_size=6), st.lists(st.sampled_from("+-"), min_size=5),
       st.lists(bexps(), min_size=2, max_size=5), st.sampled_from([And, Or]),
       st.dictionaries(st.sampled_from(["x", "y", "z"]), st.integers(0, 12)))
def test_chains_agree_with_the_evaluators(operands, ops, conditions, link, env):
    # a left-deep chain of + and - in any order, and of && or ||
    e, b = operands[0], conditions[0]
    for op, right in zip(ops, operands[1:]):
        e = BinOp(op, e, right)
    for right in conditions[1:]:
        b = link(b, right)
    rho, table = ScalarState(env), {}
    for expr in (e, b):
        _assert_compiled_agrees(table, expr, rho)


@pytest.mark.parametrize("text", [
    "!(x < 1) && (y = 2 || z <> 3)", "!(q = 0)", "x <= y || true", "false && x = x",
    "!(!(x < y))", "(x < 2 ? 1 : 0) = y",
    # chains of && and of ||, and the two mixed
    "x < 1 && y = 2 && z <> 3", "x = 0 || y = 0 || z = 0 || false",
    "x < 1 && y = 2 || z = 3 && x = 0 || y < z", "false || x = x && y < 9 || false",
])
def test_compiled_conditions_on_sample_stores(text):
    b = parse_bexp(text)
    table = {}
    for env in ({}, {"x": 3, "y": 2}, {"x": 0, "y": 2, "z": 3}, {"y": 5, "z": 1}):
        _assert_compiled_agrees(table, b, ScalarState(env))


def test_compiling_a_long_expression_does_not_recurse():
    # a left-deep sum parses in a loop; compiling it nests no call per
    # operator, so it evaluates as deep as the tree-walking evaluator does
    e = parse_aexp(" + ".join(["x"] * 800))
    assert compiled({}, e)({"x": 2}) == eval_aexp(ScalarState({"x": 2}), e) == 1600


@pytest.mark.parametrize("text", [
    "k - 1", "1 - k", "k - k", "5 - k - 1", "x - 1 - k", "k - 1 + 2", "(k = 1 ? 0 : 1)",
    "(x < 2 ? k : 1)", "1 - (k = 1 ? 0 : 1)", "(x = 0 ? 0 : k - 1) * 2", "(k < 1 ? 1 : 1)",
    "x + 1 - k + 2", "3 - k + 1 - x",
])
def test_an_opaque_operand_makes_an_opaque_value(text):
    # a truncated subtraction and a constant-time select that would decide
    # on the opaque value give it back, in both evaluators, so nothing is
    # decided until a branch, bounds test or index uses the result
    e = parse_aexp(text)
    rho = ScalarState.adopt({"k": OPAQUE, "x": 1})
    assert eval_aexp(rho, e) is OPAQUE
    assert compiled({}, e)(rho._m) is OPAQUE


@pytest.mark.parametrize("text, want", [
    ("x = 1 && k = 1 && k = 2", False), ("x = 0 || k = 1 || k = 2", True),
    ("x = 0 && x = 0 && k = 1", UNKNOWN), ("x = 1 || x = 1 || k = 1", UNKNOWN),
])
def test_a_boolean_chain_stops_left_to_right(text, want):
    # a chain tests its operands in order and stops at the first that
    # settles it, so an opaque comparison after it is never decided on;
    # the last operand's value is the chain's, untested
    b = parse_bexp(text)
    rho = ScalarState.adopt({"k": OPAQUE})
    assert eval_bexp(rho, b) is want
    assert compiled({}, b)(rho._m) is want


@pytest.mark.parametrize("text", [
    "k - 1 < 2", "(k = 1 ? 0 : 1) = 0", "k = k", "!(k - 1 < 2)",
    "x = 0 && k = 1 && x = 0", "x = 1 || k = 1 || x = 0",
])
def test_deciding_on_an_opaque_result_still_raises(text):
    b = parse_bexp(text)
    rho = ScalarState.adopt({"k": OPAQUE})
    for evaluate in (lambda: eval_bexp(rho, b), lambda: compiled({}, b)(rho._m)):
        with pytest.raises(SecretDependence):
            bool(evaluate())


def test_expressions_compile_on_first_evaluation():
    e = parse_aexp("x + 1")
    table = {}
    f = compiled(table, e)
    assert compiled(table, e) is f and len(table) == 1
    assert f({"x": 4}) == 5 and f({}) == 1


# --- the scalar names of a program the parser did not build ------------------


def _oracle_vars(com) -> set:
    """Independent traversal with an explicit worklist."""
    out, work = set(), [com]
    while work:
        node = work.pop()
        if isinstance(node, (Num, BoolLit, Skip)):
            continue
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, BinOp):
            work += [node.left, node.right]
        elif isinstance(node, CTCond):
            work += [node.cond, node.then, node.other]
        elif isinstance(node, Cmp):
            work += [node.left, node.right]
        elif node.__class__.__name__ == "Not":
            work.append(node.arg)
        elif node.__class__.__name__ in ("And", "Or"):
            work += [node.left, node.right]
        elif isinstance(node, Asgn):
            out.add(node.name)
            work.append(node.expr)
        elif isinstance(node, Seq):
            work += [node.first, node.second]
        elif isinstance(node, If):
            work += [node.cond, node.then, node.other]
        elif isinstance(node, While):
            work += [node.cond, node.body]
        elif isinstance(node, ARead):
            out.add(node.name)
            work.append(node.index)
        elif isinstance(node, AWrite):
            work += [node.index, node.value]
    return out


def test_used_vars_skip():
    assert program_names(SKIP)[0] == frozenset()


def test_used_vars_listing1_matches_oracle():
    com = _rebuilt(parse_com(LISTING1))
    assert program_names(com)[0] == _oracle_vars(com) == {"i", "a1_size", "j", "x"}


def test_used_vars_includes_assignment_target():
    assert program_names(Asgn("b", Num(0)))[0] == {"b"}


@settings(max_examples=200)
@given(coms())
def test_used_vars_matches_oracle(com):
    assert program_names(com)[0] == _oracle_vars(com)


# --- program_names ----------------------------------------------------------

# programs of the benchmark corpus's style: typed, with constant-time arms
CORPUS_STYLE = [
    "p1 := 3;\ns0 := (s0 < p0 ? 0 : p0 + 3)\n",
    "s0 <- A[s0 - 2];\ns1 := (s1 < 0 || p2 = 3 ? (p2 <> s0 ? 3 : p0) : p1 - p2)\n",
    "S[(p2 < 3 ? p2 : 0)] <- 3 - s1;\ns0 <- A[(p2 < 2 ? p2 : 0)];\n"
    "A[(p2 < 2 ? p2 : 1)] <- 0 - p2\n",
]


@pytest.fixture
def walks(monkeypatch):
    """The trees program_names walks, in order."""
    import awhile.lang as lang

    seen = []

    def counting(node, arrays=None, _real=lang._scalar_names):
        seen.append(node)
        return _real(node, arrays)

    monkeypatch.setattr(lang, "_scalar_names", counting)
    return seen


def _walked(com):
    arrays = set()
    return _scalar_names(com, arrays), arrays


def _rebuilt(x):
    """An equal copy of a syntax tree that shares no node with it."""
    return type(x)(*map(_rebuilt, x)) if isinstance(x, Record) else x


def test_a_parsed_program_has_the_walked_names_without_a_walk(walks):
    pools = NamePools()
    texts = [pretty_com(gen_program(seed, 2 + seed % 13, pools)) for seed in range(40)]
    texts += CORPUS_STYLE + [fx.program_text for fx in FIXTURES.values()]
    texts.append(";\n".join(["x := x + 1", "a[y] <- z", "if w < 1 then v <- c[u] end"] * 2000))
    walks.clear()  # gen_program's own
    for text in texts:
        com = parse_com(text)
        scalars, arrays = program_names(com)
        assert type(scalars) is frozenset and type(arrays) is frozenset
        assert (scalars, arrays) == _walked(com), text
    assert walks == []


@pytest.mark.parametrize("text, scalars, arrays", [
    ("if c < 1 then skip end", {"c"}, set()),
    ("while !(c = 1) && d < 2 do skip end", {"c", "d"}, set()),
    ("a[i] <- 0", {"i"}, {"a"}),
    ("x <- a[(c < 1 ? i : j)]", {"x", "c", "i", "j"}, {"a"}),
    ("x := (c < 1 ? 0 : j)", {"x", "c", "j"}, set()),
    ("x := (true ? 0 : (c = 1 ? k : 0))", {"x", "c", "k"}, set()),
], ids=["condition", "loop-condition", "index", "index-arm", "arm", "nested-arm"])
def test_names_only_in_a_condition_an_index_or_an_arm(walks, text, scalars, arrays):
    com = parse_com(text)
    assert program_names(com) == (scalars, arrays) == _walked(com)
    assert walks == []


def test_an_equal_tree_and_a_later_tree_get_their_own_walk(walks):
    com = parse_com("x <- a[i]; y := (c < 1 ? 0 : j)")
    names = program_names(com)
    copy = _rebuilt(com)
    assert copy == com and copy is not com
    assert program_names(copy) == names and walks == [copy]
    later = Seq(Asgn("z", Var("w")), AWrite("e", Num(0), Var("v")))  # built after the parse
    assert program_names(later) == ({"z", "w", "v"}, {"e"}) and walks == [copy, later]
    assert program_names(later) == ({"z", "w", "v"}, {"e"}) and len(walks) == 2
    # one slot: the parsed tree was forgotten, and is walked once more
    assert program_names(com) == names and walks[-1] is com and len(walks) == 3
