from hypothesis import given, settings
from hypothesis import strategies as st

from awhile.gen import NamePools, gen_program
from awhile.ifc_static import (
    LabelMap,
    Labeling,
    PUBLIC,
    SECRET,
    all_secret,
    format_labeling,
    join,
    label_leq,
    label_of_expr,
    parse_labeling,
    wt_cct,
    wt_ifc,
)
from awhile.lang import Num, parse_aexp, parse_bexp, parse_com
from awhile.seccheck import enum_states, parse_space
from awhile.seq_sem import RunKind, seq_run
from awhile.state import pub_equiv

LISTING1 = parse_com("if i < a1_size then j <- a1[i]; x <- a2[j] end")
LISTING1_LABELS = parse_labeling(
    "i: public\na1_size: public\nj: public\nx: public\na1: public\na2: public"
)
LISTING4_PUBLIC_SINK = parse_com("if false then if secret = 0 then y := 1 end end")
LISTING5 = parse_com("if false then xsecret <- a[isecret] end")


def test_lattice():
    assert join(PUBLIC, PUBLIC) is PUBLIC
    assert join(PUBLIC, SECRET) is SECRET
    assert join(SECRET, SECRET) is SECRET
    assert label_leq(PUBLIC, SECRET)
    assert not label_leq(SECRET, PUBLIC)
    assert label_leq(PUBLIC, PUBLIC) and label_leq(SECRET, SECRET)


def test_labelmap_defaults_secret():
    m = LabelMap()
    assert m.get("anything") is SECRET
    assert m.set("x", PUBLIC).get("x") is PUBLIC


def test_label_of_literal_is_public():
    assert label_of_expr(all_secret(), Num(3)) is PUBLIC


def test_label_of_public_comparison():
    P = parse_labeling("i: public\na1_size: public")
    assert label_of_expr(P, parse_bexp("i < a1_size")) is PUBLIC


def test_label_join_forced_by_secret_operand():
    P = parse_labeling("x: public")  # y defaults to secret
    assert label_of_expr(P, parse_aexp("x + y")) is SECRET


def test_label_of_ctcond_joins_all_three():
    P = parse_labeling("x: public\ny: public")
    assert label_of_expr(P, parse_aexp("(z < 1 ? x : y)")) is SECRET
    assert label_of_expr(P, parse_aexp("(x < 1 ? x : y)")) is PUBLIC


# --- wt_ifc -------------------------------------------------------------


def test_wt_ifc_skip():
    assert wt_ifc(all_secret(), all_secret(), PUBLIC, parse_com("skip"))
    assert wt_ifc(all_secret(), all_secret(), SECRET, parse_com("skip"))


def test_wt_ifc_rejects_explicit_flow():
    P = parse_labeling("pub: public")
    assert not wt_ifc(P, all_secret(), PUBLIC, parse_com("pub := secret"))


def test_wt_ifc_rejects_implicit_flow_via_pc():
    # nested branch on a secret assigning to a public variable
    P = parse_labeling("y: public")
    assert not wt_ifc(P, all_secret(), PUBLIC, LISTING4_PUBLIC_SINK)
    # with a secret sink the same program is accepted
    assert wt_ifc(all_secret(), all_secret(), PUBLIC, LISTING4_PUBLIC_SINK)


def test_wt_ifc_read_write_rules():
    labels = parse_labeling("x: public\ni: public\na: public")
    assert wt_ifc(labels, labels, PUBLIC, parse_com("x <- a[i]"))
    # secret array flowing into a public variable is rejected
    labels2 = parse_labeling("x: public\ni: public")
    assert not wt_ifc(labels2, labels2, PUBLIC, parse_com("x <- a[i]"))
    # public array written under a secret pc is rejected
    labels3 = parse_labeling("a: public\ni: public")
    assert not wt_ifc(
        labels3, labels3, PUBLIC, parse_com("if s = 0 then a[i] <- 1 end")
    )


# --- wt_cct -------------------------------------------------------------


def test_listing1_is_cct_with_public_variables():
    assert wt_cct(LISTING1_LABELS, LISTING1_LABELS, LISTING1)


def test_listing5_violates_cct():
    assert not wt_cct(all_secret(), all_secret(), LISTING5)


def test_secret_loop_condition_violates_cct():
    assert not wt_cct(all_secret(), all_secret(), parse_com("while s < 1 do skip end"))


# --- properties -----------------------------------------------------------

pools = NamePools(("x", "y", "i"), ("a", "c"))
label_choices = st.dictionaries(
    st.sampled_from(["x", "y", "i", "a", "c"]), st.sampled_from([PUBLIC, SECRET])
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), label_choices)
def test_cct_implies_ifc_at_public_pc(seed, labels):
    com = gen_program(seed, 10, pools)
    m = LabelMap(labels)
    if wt_cct(m, m, com):
        assert wt_ifc(m, m, PUBLIC, com)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), label_choices)
def test_ifc_pc_anti_monotone(seed, labels):
    com = gen_program(seed, 10, pools)
    m = LabelMap(labels)
    if wt_ifc(m, m, SECRET, com):
        assert wt_ifc(m, m, PUBLIC, com)


SOUNDNESS_SPACE = parse_space(
    "x in {0,1}\ny in {0,1}\ni in {0,1}\na : size 1 in {0,1}\nc : size 1 in {0}"
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), label_choices)
def test_ifc_bounded_soundness_for_final_states(seed, labels):
    """Well-typed at public pc: lock-step terminating sequential runs from
    public-equivalent states end in public-equivalent states."""
    com = gen_program(seed, 8, pools)
    m = LabelMap(labels)
    if not wt_ifc(m, m, PUBLIC, com):
        return
    states = list(enum_states(SOUNDNESS_SPACE))
    for idx1 in range(0, len(states), 7):
        for idx2 in range(idx1, len(states), 11):
            s1, s2 = states[idx1], states[idx2]
            if not pub_equiv(m, m, s1, s2):
                continue
            o1 = seq_run(com, s1[0], s1[1], 300)
            o2 = seq_run(com, s2[0], s2[1], 300)
            if o1.kind is RunKind.TERMINATED and o2.kind is RunKind.TERMINATED:
                assert pub_equiv(m, m, (o1.rho, o1.mu), (o2.rho, o2.mu))


def test_labeling_file_round_trip():
    text = "a1: public\ni: public"
    m = parse_labeling(text)
    assert format_labeling(m) == text
    assert m.get("i") is PUBLIC and m.get("other") is SECRET


def test_labeling_pair_ops():
    l1 = Labeling(parse_labeling("x: public"), parse_labeling("a: public"))
    l2 = Labeling(parse_labeling("x: secret"), parse_labeling("a: public"))
    joined = l1.join(l2)
    assert joined.vars.get("x") is SECRET
    assert joined.arrs.get("a") is PUBLIC
    # pointwise public-below-secret: l1 sits below l2, not conversely
    assert l1.leq(l2)
    assert not l2.leq(l1)


@given(label_choices, label_choices)
def test_join_laws(d1, d2):
    m1, m2 = LabelMap(d1), LabelMap(d2)
    assert m1.join(m1) == m1
    assert m1.join(m2) == m2.join(m1)
    assert m1.leq(m1.join(m2)) and m2.leq(m1.join(m2))
