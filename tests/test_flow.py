import random

import awhile.flow_ifc as flow_ifc
from hypothesis import given, settings
from hypothesis import strategies as st

from awhile.flow_ifc import (
    AARead,
    AAsgn,
    ABranch,
    AIf,
    ASeq,
    ASKIP,
    AWhileC,
    erase_acom,
    flow_track,
    well_labeled,
)
from awhile.gen import NamePools, gen_program
from awhile.ifc_static import LabelMap, Labeling, PUBLIC, SECRET, all_secret, parse_labeling
from awhile.lang import (
    SKIP,
    Asgn,
    Cmp,
    If,
    Num,
    Seq,
    Var,
    While,
    _scalar_names,
    parse_com,
    pretty_com,
    syntax_equal,
)

pools = NamePools(("x", "y", "i", "s", "n"), ("a", "c"))

label_dicts = st.dictionaries(
    st.sampled_from(["x", "y", "i", "s", "n", "a", "c"]),
    st.sampled_from([PUBLIC, SECRET]),
)


def _labeling(m: LabelMap) -> Labeling:
    return Labeling(m, m)


def test_flow_track_skip():
    labels = parse_labeling("x: public")
    acom, out = flow_track(parse_com("skip"), labels, labels, PUBLIC)
    assert acom == ASKIP
    assert out == _labeling(labels)


def test_flow_track_assignment_updates_target_label():
    labels = parse_labeling("x: public")  # y secret by default
    _, out = flow_track(parse_com("x := y + 1"), labels, labels, PUBLIC)
    assert out.vars.get("x") is SECRET


def test_flow_track_loop_fixpoint():
    # hand-iterated: round one moves x to secret, round two is stable;
    # i and n stay public, so the condition annotation is public
    labels = parse_labeling("x: public\ni: public\nn: public")
    com = parse_com("while i < n do x := s; i := i + 1 end")
    acom, out = flow_track(com, labels, labels, PUBLIC)
    assert isinstance(acom, AWhileC)
    assert out.vars.get("x") is SECRET
    assert out.vars.get("i") is PUBLIC
    assert out.vars.get("n") is PUBLIC
    assert acom.lbl is PUBLIC
    assert acom.fix == out


def test_flow_track_if_joins_branches():
    labels = parse_labeling("x: public\ny: public\ni: public")
    com = parse_com("if i < 1 then x := s else x := 1 end")
    acom, out = flow_track(com, labels, labels, PUBLIC)
    assert out.vars.get("x") is SECRET  # join of secret and public
    assert out.vars.get("y") is PUBLIC
    assert acom.lbl is PUBLIC


def test_flow_track_read_write_annotations():
    labels = parse_labeling("i: public\nx: public\na: public")
    acom, out = flow_track(parse_com("x <- a[i]"), labels, labels, PUBLIC)
    assert acom.lbl_target is PUBLIC and acom.lbl_index is PUBLIC
    acom2, out2 = flow_track(parse_com("a[i] <- s"), labels, labels, PUBLIC)
    assert acom2.lbl_index is PUBLIC
    assert out2.arrs.get("a") is SECRET  # secret value written


def test_join_labelings():
    l1 = _labeling(parse_labeling("x: public"))
    l2 = _labeling(parse_labeling("x: secret\ny: public"))
    assert l1.join(l1) == l1
    joined = l1.join(l2)
    assert joined.vars.get("x") is SECRET
    assert joined.vars.get("y") is SECRET  # public only where both public


@given(label_dicts, label_dicts)
def test_join_labelings_commutative(d1, d2):
    l1, l2 = _labeling(LabelMap(d1)), _labeling(LabelMap(d2))
    assert l1.join(l2) == l2.join(l1)


# --- branch wrappers -------------------------------------------------------


_PUBLIC_XA = _labeling(parse_labeling("x: public\na: public"))
# a read into a public target: well-labeled only at a public pc
_READ = AARead("x", "a", Num(0), PUBLIC, PUBLIC)


def test_well_labeled_takes_a_wrapper_at_a_spine_head():
    L = _PUBLIC_XA
    assert well_labeled(ASKIP, L, SECRET, L)
    assert well_labeled(ABranch(SECRET, ASKIP), L, PUBLIC, L)
    assert well_labeled(ASeq(ABranch(PUBLIC, ASKIP), ASKIP, L), L, SECRET, L)
    # the pc a head's outermost wrapper saves holds for the rest of the
    # spine, through nested heads; with no wrapper the pc stays
    assert not well_labeled(ASeq(ASKIP, _READ, L), L, SECRET, L)
    assert well_labeled(ASeq(ASKIP, _READ, L), L, PUBLIC, L)
    for wrapped in (ABranch(PUBLIC, ASKIP), ABranch(PUBLIC, ABranch(SECRET, ASKIP))):
        for head in (wrapped, ASeq(wrapped, _READ, L), ASeq(ASeq(wrapped, ASKIP, L), _READ, L)):
            assert well_labeled(ASeq(head, _READ, L), L, SECRET, L)
        assert not well_labeled(ASeq(ABranch(SECRET, wrapped), _READ, L), L, SECRET, L)


def test_well_labeled_refuses_a_wrapper_anywhere_else():
    L, cond, wrapper = _PUBLIC_XA, Cmp("<", Var("x"), Num(1)), ABranch(PUBLIC, ASKIP)
    for plain, wrapped in (
        (ASeq(ASKIP, ASKIP, L), ASeq(ASKIP, wrapper, L)),  # a later spine part
        (ASeq(ASKIP, ASeq(ASKIP, ASKIP, L), L), ASeq(ASKIP, ASeq(wrapper, ASKIP, L), L)),
        (AIf(cond, ASKIP, ASKIP, PUBLIC), AIf(cond, ASKIP, wrapper, PUBLIC)),  # an arm
        (AWhileC(cond, ASKIP, PUBLIC, L), AWhileC(cond, wrapper, PUBLIC, L)),  # a body
    ):
        assert well_labeled(plain, L, PUBLIC, L)
        assert not well_labeled(wrapped, L, PUBLIC, L)


def _wrap_spine_part(acom, i):
    """``acom`` with its i-th spine part in a public wrapper."""
    parts, mids = [], []
    while isinstance(acom, ASeq):
        parts.append(acom.first)
        mids.append(acom.mid)
        acom = acom.second
    parts.append(acom)
    parts[i] = ABranch(PUBLIC, parts[i])
    out = parts.pop()
    for first, mid in zip(reversed(parts), reversed(mids)):
        out = ASeq(first, out, mid)
    return out


def test_well_labeled_judges_a_spine_in_one_call(monkeypatch):
    calls = [0]
    real = flow_ifc.well_labeled

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(flow_ifc, "well_labeled", counting)
    labels = parse_labeling("x: public")
    for n in (100, 400):
        com = parse_com(";\n".join(["x := x + 1"] * n))
        acom, out = flow_track(com, labels, labels, PUBLIC)
        calls[0] = 0
        assert flow_ifc.well_labeled(acom, _labeling(labels), PUBLIC, out)
        # a wrapper at the head of the spine, in its second part, in its last
        verdicts = [flow_ifc.well_labeled(_wrap_spine_part(acom, i), _labeling(labels),
                                          PUBLIC, out) for i in (0, 1, -1)]
        assert verdicts == [True, False, False]
        assert calls[0] == 4


def test_well_labeled_judges_deep_nesting():
    depth, L = 1500, _labeling(all_secret())
    for inner, holds in ((AAsgn("x", Num(1)), True), (ABranch(SECRET, ASKIP), False)):
        acom = inner
        for k in range(depth):
            acom = AIf(Cmp("<", Var("x"), Num(k)), acom, ASKIP, SECRET)
        assert well_labeled(acom, L, PUBLIC, L) is holds


def test_flow_track_analyzes_deep_nesting():
    # the analysis keeps an explicit stack: 1,500 levels, a while loop
    # alternating with an if followed by an assignment
    com = Asgn("x", Var("y"))
    for k in range(1500):
        cond = Cmp("<", Var("x"), Num(k))
        com = While(cond, com) if k % 2 else Seq(If(cond, com, SKIP), Asgn("y", Var("x")))
    labels = parse_labeling("x: public\ny: public")
    acom, out = flow_track(com, labels, labels, PUBLIC)
    assert out == _labeling(labels)
    assert well_labeled(acom, _labeling(labels), PUBLIC, out)


def test_branch_wrappers_print_on_their_own_lines():
    # a wrapper's line is followed by its body at the same indent, and a
    # ';' goes before the annotation comment of the line it ends
    labels = parse_labeling("i: public\nx: public\na: public")
    com = parse_com("if i < 1 then x <- a[i]; y := 1 end")
    acom, _ = flow_track(com, labels, labels, PUBLIC)
    seq = acom.then
    then = ASeq(ABranch(SECRET, seq.first), seq.second, seq.mid)
    wrapped = ABranch(PUBLIC, ASeq(AIf(acom.cond, then, acom.other, acom.lbl),
                                   ABranch(SECRET, ASKIP), seq.mid))
    assert pretty_com(wrapped) == """\
# branch pc=public
if i < 1 then  # cond=public
  # branch pc=secret
  x <- a[i];  # target=public index=public
  y := 1
else
  skip
end;
# branch pc=secret
skip"""


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100_000), label_dicts, st.sampled_from([PUBLIC, SECRET]))
def test_annotated_print_reparses_to_the_erased_program(seed, labels, pc):
    # the labels and the branch lines are comments
    m = LabelMap(labels)
    acom, _ = flow_track(gen_program(seed, 12, pools), m, m, pc)
    for a in (acom, ABranch(pc, acom)):
        assert pretty_com(parse_com(pretty_com(a))) == pretty_com(erase_acom(a))


def test_annotated_print_of_deep_nesting():
    depth = 1500
    acom = AAsgn("x", Num(1))
    for k in range(depth):
        acom = AIf(Cmp("<", Var("x"), Num(k)), acom, ASKIP, SECRET)
    lines = pretty_com(acom).splitlines()
    assert len(lines) == 4 * depth + 1
    assert lines[0] == f"if x < {depth - 1} then  # cond=secret"
    assert lines[depth] == "  " * depth + "x := 1"
    assert lines[-3:] == ["else", "  skip", "end"]


def test_erase_acom():
    com = parse_com("if i < 1 then x := 1 else skip end; a[0] <- x")
    labels = all_secret()
    acom, _ = flow_track(com, labels, labels, PUBLIC)
    assert erase_acom(acom) == com
    assert erase_acom(ABranch(SECRET, ASKIP)) == parse_com("skip")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100_000), label_dicts, st.sampled_from([PUBLIC, SECRET]))
def test_flow_track_total_and_erases_back(seed, labels, pc):
    com = gen_program(seed, 12, pools)
    m = LabelMap(labels)
    acom, _ = flow_track(com, m, m, pc)
    assert erase_acom(acom) == com
    # branch wrappers appear only at run time
    assert "# branch" not in pretty_com(acom)
    # the name walk reads an annotated tree as the command it annotates
    arrays, annotated_arrays = set(), set()
    assert _scalar_names(acom, annotated_arrays) == _scalar_names(com, arrays)
    assert annotated_arrays == arrays
    assert _scalar_names(ABranch(SECRET, acom)) == _scalar_names(com)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100_000), label_dicts, st.sampled_from([PUBLIC, SECRET]))
def test_flow_track_output_well_labeled(seed, labels, pc):
    com = gen_program(seed, 12, pools)
    m = LabelMap(labels)
    acom, out = flow_track(com, m, m, pc)
    assert well_labeled(acom, _labeling(m), pc, out)


def test_loop_fixpoint_property():
    """Re-analyzing the body at the loop's fixpoint labeling, joined with
    the entry labeling, reproduces the fixpoint exactly."""
    rng = random.Random(5)
    from awhile.ifc_static import join as ljoin
    from awhile.ifc_static import label_of_expr
    from awhile.lang import While

    found = 0
    for seed in range(4000):
        com = gen_program(seed, 12, pools)
        stack = [com]
        loop = None
        while stack:
            node = stack.pop()
            if isinstance(node, While):
                loop = node
                break
            for f in ("first", "second", "then", "other", "body"):
                sub = getattr(node, f, None)
                if sub is not None:
                    stack.append(sub)
        if loop is None:
            continue
        found += 1
        m = LabelMap({n: PUBLIC for n in pools.scalars if rng.random() < 0.5})
        entry = _labeling(m)
        acom, out = flow_track(loop, m, m, PUBLIC)
        fix = acom.fix
        lbl = label_of_expr(fix.vars, loop.cond)
        _, after = flow_track(
            loop.body, fix.vars, fix.arrs, ljoin(PUBLIC, lbl)
        )
        assert after.join(entry) == fix
        if found >= 40:
            break
    assert found >= 40


def test_well_labeled_rejects_bad_read_annotation():
    labels = all_secret()  # array a is secret
    acom = AARead("x", "a", Var("i"), PUBLIC, SECRET)
    # claims a public target although the array is secret
    assert not well_labeled(acom, _labeling(labels), PUBLIC, _labeling(labels))


def test_well_labeled_monotone_in_final_and_antitone_in_initial():
    m_pub = LabelMap({"x": PUBLIC, "y": PUBLIC, "i": PUBLIC})
    for seed in range(60):
        com = gen_program(seed, 10, pools)
        acom, out = flow_track(com, m_pub, all_secret(), PUBLIC)
        initial = Labeling(m_pub, all_secret())
        assert well_labeled(acom, initial, PUBLIC, out)
        # widening the final labeling preserves the judgment
        wider = Labeling(all_secret(), all_secret())
        assert out.leq(wider)
        assert well_labeled(acom, initial, PUBLIC, wider)
        # narrowing the initial labeling preserves it too
        narrower = Labeling(
            LabelMap({n: PUBLIC for n in pools.scalars}),
            LabelMap({n: PUBLIC for n in pools.arrays}),
        )
        if narrower.leq(initial):
            assert well_labeled(acom, narrower, PUBLIC, wider)


def test_long_spines_are_walked_in_a_loop():
    body = ";\n".join(["x := x + 1"] * 5000)
    labels = parse_labeling("x: public")
    # a straight line, and a loop around it
    for text in (body, f"while x < 1 do {body} end"):
        com = parse_com(text)
        acom, out = flow_track(com, labels, labels, PUBLIC)
        assert syntax_equal(erase_acom(acom), com)
        assert "# branch" not in pretty_com(acom)
        assert well_labeled(acom, _labeling(labels), PUBLIC, out)
