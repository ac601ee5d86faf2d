import collections
import heapq
import itertools
import random
import tracemalloc

import pytest

from awhile.flow_ifc import Labeling, flow_track
from awhile.gen import NamePools, gen_program, random_labeling, random_state
from awhile.harden import FlagCollisionError
from awhile.ideal_sem import FsIdealConfig, IdealFS, IdealFiSLH, IdealFvSLH, _Policy
from awhile.ifc_static import PUBLIC, SECRET, all_secret, parse_labeling, wt_ifc
from awhile.lang import Seq, parse_com, pretty_com
import awhile.seccheck as seccheck
from awhile.seccheck import (
    _LEAF,
    Bounds,
    PreconditionError,
    StateSpace,
    Verdict,
    VerdictStatus,
    Witness,
    check_bcc_space,
    check_equality,
    check_relative_security,
    check_sct,
    check_seq_obs_equiv,
    check_spec_obs_equiv,
    check_ni,
    check_step_ni,
    check_unwinding,
    check_unwinding_space,
    check_wl,
    check_wl_preservation,
    enum_spec_runs,
    enum_states,
    parse_space,
    prefix_of,
    transform,
    _Tree,
)
from awhile.seq_sem import RunKind, seq_run
from awhile.spec_sem import Speculative, StepTag, feasible, run
from awhile.state import (
    ArrayState,
    DLoad,
    dir_sort_key,
    format_dirs,
    FORCE,
    OBranch,
    ORead,
    OPAQUE,
    ScalarState,
    SpecConfig,
    STEP,
    parse_dirs,
    parse_state,
    pub_equiv,
)
from awhile.fixtures import FIXTURES, LISTING1, repro_listing

pools = NamePools(("x", "y", "i", "k"), ("a", "c"))


# --- prefix_of ---------------------------------------------------------------


def test_prefix_of_empty():
    assert prefix_of([], [OBranch(True)])
    assert prefix_of([OBranch(True)], [])


def test_prefix_of_extension():
    assert prefix_of([OBranch(True)], [OBranch(True), ORead("a", 1)])


def test_prefix_of_divergent():
    assert not prefix_of([OBranch(True)], [OBranch(False)])


# --- state spaces ------------------------------------------------------------


def test_enum_states_empty_space():
    assert list(enum_states(StateSpace())) == [(ScalarState(), ArrayState())]


def test_enum_states_product_count():
    space = parse_space("i in {0,1}\na : size 1 in {0,1}")
    assert len(list(enum_states(space))) == 4
    assert space.count() == 4


def test_every_state_of_a_space_holds_the_same_arrays():
    # seccheck._abstract_state reads a group's arrays off its first state;
    # a size-0 array is dropped from every state alike
    for text, shape in (
        ("x in {0,1}\na : size 2 in {0,1}\ne : size 0 in {3}\nc : size 1 in {0,5}",
         (("a", 2), ("c", 1))),
        ("e : size 0 in {1,2}\nx in {0,1}", ()),
        ("x in {0,1}", ()),
    ):
        states = list(enum_states(parse_space(text)))
        assert len(states) > 1
        assert {tuple(sorted((n, len(v)) for n, v in mu.items())) for _, mu in states} == {shape}


def test_enum_states_covers_secret_array_pair():
    space = FIXTURES[1].space()
    vectors = {mu.vector("a3") for _, mu in enum_states(space)}
    assert (42,) in vectors and (43,) in vectors


def test_parse_space_errors():
    from awhile.seccheck import SpaceFormatError

    with pytest.raises(SpaceFormatError):
        parse_space("i in {}")
    with pytest.raises(SpaceFormatError):
        parse_space("i in {0}\ni in {1}")
    with pytest.raises(SpaceFormatError):
        parse_space("what is this")


def test_parse_space_rejects_non_integer_domains():
    from awhile.seccheck import SpaceFormatError

    with pytest.raises(SpaceFormatError, match="line 2"):
        parse_space("i in {0}\nx in {x}")
    with pytest.raises(SpaceFormatError, match="line 1"):
        parse_space("a : size 2 in {0,y}")
    # a value is a natural number, as in a state file: a negative one would
    # index an array from its end
    for text, line in (("x in {-1}\na : size 2 in {5,6}", 1),
                       ("x in {1}\na : size 2 in {5,-6}", 2),
                       ("x in {1,+2}", 1), ("x in {1_0}", 1), (f"x in {{-{'1' * 5000}}}", 1)):
        with pytest.raises(SpaceFormatError,
                           match=f"^line {line}: domain values must be natural numbers$"):
            parse_space(text)


# --- run enumeration ---------------------------------------------------------


def test_enum_runs_of_skip():
    runs = enum_spec_runs(SpecConfig(parse_com("skip"), ScalarState(), ArrayState(), False))
    assert runs == [((), (), RunKind.TERMINATED)]


def test_enum_runs_includes_documented_attack():
    s1, _ = FIXTURES[1].pair()
    runs = enum_spec_runs(SpecConfig(LISTING1.program(), s1[0], s1[1], False),
                          max_dirs=3, fuel=100)
    attack = tuple(parse_dirs("force load a3 0 step"))
    expected_trace = (OBranch(False), ORead("a1", 4), ORead("a2", 42))
    assert (attack, expected_trace, RunKind.TERMINATED) in runs


def test_forced_read_branching_factor_counts_all_cells():
    com = parse_com("x <- a[i]")
    rho = ScalarState({"i": 9})
    mu = ArrayState({"a": (0, 0), "c": (0, 0, 0)})
    runs = enum_spec_runs(SpecConfig(com, rho, mu, True), max_dirs=1, fuel=50)
    # one run per in-bounds cell of every array
    assert len(runs) == mu.size("a") + mu.size("c")


# --- sequential equivalence --------------------------------------------------


def test_seq_equiv_identical_states():
    s = parse_state("x = 1")
    assert check_seq_obs_equiv(parse_com("x := x + 1"), s, s).holds


def test_seq_equiv_listing1_public_agreement():
    com = LISTING1.program()
    s1 = parse_state("i = 1\na1_size = 4\na1 = [0,7,1,2]\na2 = [0,0,0,0,0,0,0,0]")
    s2 = parse_state(
        "i = 1\na1_size = 4\na1 = [0,7,1,2]\na2 = [0,0,0,0,0,0,0,0]\nzz = 9"
    )
    assert check_seq_obs_equiv(com, s1, s2).holds


def test_seq_equiv_detects_branch_divergence():
    com = parse_com("if secret = 0 then x := 1 else skip end")
    v = check_seq_obs_equiv(com, parse_state("secret = 0"), parse_state("secret = 1"))
    assert v.status is VerdictStatus.VIOLATED
    assert v.witness.divergence_index == 0


# --- speculative equivalence and SCT ------------------------------------------


def test_spec_equiv_same_config():
    com = LISTING1.program()
    s, _ = FIXTURES[1].pair()
    assert check_spec_obs_equiv(com, s, s).holds


def test_spec_equiv_example3_witness():
    com = LISTING1.program()
    s1, s2 = FIXTURES[1].pair()
    v = check_spec_obs_equiv(com, s1, s2)
    assert v.status is VerdictStatus.VIOLATED
    assert list(v.witness.dirs) == parse_dirs("force load a3 0 step")
    assert v.witness.divergence_index == 2
    assert v.witness.trace1[-1] == ORead("a2", 42)
    assert v.witness.trace2[-1] == ORead("a2", 43)


def test_spec_equiv_witness_replays():
    com = LISTING1.program()
    s1, s2 = FIXTURES[1].pair()
    w = check_spec_obs_equiv(com, s1, s2).witness
    r1 = run(Speculative(), SpecConfig(com, s1[0], s1[1], False), list(w.dirs), 200)
    r2 = run(Speculative(), SpecConfig(com, s2[0], s2[1], False), list(w.dirs), 200)
    assert r1.trace == w.trace1 and r2.trace == w.trace2
    assert w.trace1[w.divergence_index] != w.trace2[w.divergence_index]


def test_listing2_holds_at_depth_ten():
    com = FIXTURES[2].program()
    s1, s2 = FIXTURES[1].pair()
    assert check_spec_obs_equiv(com, s1, s2, max_dirs=10).holds


def test_sct_sislh_holds_on_listing1_space():
    # bounded instance of the selective-index theorem: hardened constant-time
    # code is speculatively constant-time
    fx = FIXTURES[1]
    lab = fx.labeling()
    hardened = transform("sislh", fx.program(), lab, lab)
    assert check_sct(hardened, lab, lab, fx.space(), Bounds(8, 200)).holds


def test_violations_persist_at_larger_bounds():
    com = LISTING1.program()
    s1, s2 = FIXTURES[1].pair()
    small = check_spec_obs_equiv(com, s1, s2, max_dirs=3)
    large = check_spec_obs_equiv(com, s1, s2, max_dirs=6)
    assert small.status is VerdictStatus.VIOLATED
    assert large.status is VerdictStatus.VIOLATED
    assert small.witness.dirs == large.witness.dirs


def test_fs_relative_security_on_all_fixtures():
    # the flow-sensitive variant accepts and protects every fixture,
    # including the already-hardened one (with a fresh flag variable)
    for n, fx in FIXTURES.items():
        lab, space = fx.labeling(), fx.space()
        flag_var = "b2" if n == 2 else "b"
        v = check_relative_security(
            "fsfvslh", fx.program(), lab, lab, space, Bounds(6, 300), flag_var
        )
        assert v.holds, (n, v.status, v.message)


def test_sct_verdicts_on_listing3():
    fx = FIXTURES[3]
    lab, space = fx.labeling(), fx.space()
    assert check_sct(
        transform("sislh-nostore", fx.program(), lab, lab), lab, lab, space,
        Bounds(6, 200),
    ).status is VerdictStatus.VIOLATED
    for kind in ("sislh", "svslh"):
        assert check_sct(
            transform(kind, fx.program(), lab, lab), lab, lab, space, Bounds(6, 200)
        ).holds


# --- relative security ---------------------------------------------------------


def test_relative_security_listing4():
    fx = FIXTURES[4]
    lab, space = fx.labeling(), fx.space()
    bad = check_relative_security("none", fx.program(), lab, lab, space, Bounds(6, 200))
    assert bad.status is VerdictStatus.VIOLATED
    assert list(bad.witness.dirs)[0] == FORCE
    good = check_relative_security("fislh", fx.program(), lab, lab, space, Bounds(6, 200))
    assert good.holds


def test_relative_security_precondition_failures():
    fx = FIXTURES[4]
    lab = fx.labeling()
    with pytest.raises(FlagCollisionError):
        check_relative_security("fislh", parse_com("b := 1"), lab, lab, fx.space(), Bounds(4, 100))
    # ill-typed program under the flexible labeling-based variants
    p = parse_labeling("y: public")
    v2 = check_relative_security(
        "fislh", parse_com("y := secret"), p, p, parse_space("secret in {0,1}"),
        Bounds(4, 100),
    )
    assert v2.status is VerdictStatus.PRECONDITION_FAILED
    # a space that declares empty, or leaves out, an array the program reads
    for space in ("a : size 0 in {0}", ""):
        with pytest.raises(PreconditionError,
                           match="^array 'a' is empty in the initial state$"):
            check_relative_security("fislh", parse_com("x <- a[0]"), lab, lab,
                                    parse_space(space), Bounds(4, 100))


def test_uslh_relative_security_ignores_labeling_for_pairing():
    # branch on a "public" variable: relative security still holds for uslh
    # because the sequential premise filters differing pairs
    com = parse_com("if s = 0 then x := 1 end")
    lab = parse_labeling("s: public\nx: public")
    space = parse_space("s in {0,1}\nx in {0}")
    v = check_relative_security("uslh", com, lab, lab, space, Bounds(5, 100))
    assert v.holds


def test_vacuous_holds_say_so():
    # every public-equivalent pair fails the sequential premise
    com = parse_com("if s = 0 then x := 1 end")
    lab = parse_labeling("x: public")
    space = parse_space("s in {0,1}")
    v = check_relative_security("none", com, lab, lab, space, Bounds(4, 100))
    assert v.holds
    assert v.message == (
        "vacuous: 0 of 1 public-equivalent pairs passed the sequential premise"
    )
    # s public: no two states are public-equivalent
    public_s = parse_labeling("s: public\nx: public")
    v = check_sct(com, public_s, public_s, space, Bounds(4, 100))
    assert v.holds
    assert v.message == "vacuous: 0 public-equivalent pairs among 2 states"
    # a walked pair leaves the message empty
    assert check_sct(com, lab, lab, space, Bounds(4, 100)).message == ""


def test_space_drivers_return_verdicts_with_what_they_covered():
    com = parse_com("if s = 0 then x := 1 end")
    lab = all_secret()
    space = parse_space("s in {0,1}")
    bounds = Bounds(4, 100)
    # (verdict, its one fact, whether it reports failure messages)
    for v, fact, reports in (
        (check_ni("fislh", com, lab, lab, space), ("checked", 18), True),
        (check_bcc_space("fvslh", com, lab, lab, space, bounds, trials=3), ("runs", 3), True),
        (check_unwinding_space("fsfvslh", com, lab, lab, space, bounds), ("pairs", 1), False),
        (check_wl(com, lab, lab, space, bounds), ("checked", 5), True),
    ):
        assert isinstance(v, Verdict) and v.holds and v.message == ""
        assert v.facts == (fact,)
        assert v.failures == (() if reports else None)


def test_bcc_random_trials_walk_from_the_flag_the_state_encodes(monkeypatch):
    # b = 1 starts every run misspeculating; a walk drawn with the flag off
    # never loads, so it missed an ideal semantics that forbids the load
    com = parse_com("x <- a[i]")
    lab = parse_labeling("i: public")
    space = parse_space("i in {2}\nb in {1}\na : size 1 in {5}")
    bounds = Bounds(4, 100)
    assert check_bcc_space("fvslh", com, lab, lab, space, bounds, trials=3).holds
    # the fvslh policy, but no misspeculated load may be redirected
    fields = dict(zip(_Policy._fields, IdealFvSLH.policy))
    fields["read_force_ok"] = lambda li, lx: False
    monkeypatch.setattr(IdealFvSLH, "policy", _Policy(**fields))
    v = check_bcc_space("fvslh", com, lab, lab, space, bounds, trials=3)
    assert not v.holds
    assert v.failures == ("consumed 0 directives ideally vs 1 speculatively",)


def test_check_equality_builds_the_uslh_program_once(monkeypatch):
    import awhile.seccheck as seccheck

    made = []
    real = seccheck.transform

    def counted(variant, *args):
        made.append(variant)
        return real(variant, *args)

    monkeypatch.setattr(seccheck, "transform", counted)
    com = parse_com("if i < n then x <- a[i] end")
    lab = parse_labeling("i: public\nn: public\nx: public\na: public")
    v = check_equality(com, lab, lab)
    assert [name for name, _ in v.facts] == [
        "fislh_eq_sislh", "fislh_eq_uslh_all_secret", "fvslh_eq_uslh_all_secret",
    ]
    assert sorted(made) == ["fislh", "fislh", "fvslh", "sislh", "uslh"]


def test_check_equality_reports_each_comparison(monkeypatch):
    import awhile.seccheck as seccheck

    com = parse_com("if i < n then x <- a[i] end")
    lab = parse_labeling("i: public\nn: public\nx: public\na: public")
    v = check_equality(com, lab, lab)
    assert v.holds and v.failures is None
    assert v.facts == (("fislh_eq_sislh", True), ("fislh_eq_uslh_all_secret", True),
                       ("fvslh_eq_uslh_all_secret", True))
    # all secret: the branch is not constant-time typed, so fiSLH and sSLH
    # are not compared
    assert [name for name, _ in check_equality(com, all_secret(), all_secret()).facts] == [
        "fislh_eq_uslh_all_secret", "fvslh_eq_uslh_all_secret",
    ]
    monkeypatch.setattr(seccheck, "syntax_equal", lambda c1, c2: False)
    v = check_equality(com, lab, lab)
    assert v.status is VerdictStatus.VIOLATED
    assert [equal for _, equal in v.facts] == [False, False, False]


# --- per-state sharing against per-pair brute force -----------------------------

# 24 states in two public classes (by i) of 12; x, a and c are secret
_SHARING_SPACE = parse_space(
    "i in {0,2}\nx in {0,3}\na : size 2 in {0,1}\nc : size 1 in {0,5}"
)
_SHARING_LABELS = parse_labeling("i: public\ny: public\nk: public")
_SHARING_BOUNDS = Bounds(4, 150)


def _brute_force(c, P, PA, space, bounds, premise_source=None):
    """Per pair, in nested-scan order: the sequential premise (when a source
    is given) and the speculative check, each run afresh."""
    states = list(enum_states(space))
    for i, s1 in enumerate(states):
        for s2 in states[i + 1:]:
            if not pub_equiv(P, PA, s1, s2):
                continue
            if premise_source is not None and not check_seq_obs_equiv(
                premise_source, s1, s2, bounds.fuel
            ).holds:
                continue
            v = check_spec_obs_equiv(c, s1, s2, False, bounds.max_dirs, bounds.fuel)
            if not v.holds:
                return v.status, v.witness
    return VerdictStatus.HOLDS, None


def test_shared_trees_match_brute_force():
    P = PA = _SHARING_LABELS
    bounds = _SHARING_BOUNDS
    space = _SHARING_SPACE
    seen = set()
    for seed in range(8):
        com = gen_program(1000 + seed, 12)
        v = check_sct(com, P, PA, space, bounds)
        assert (v.status, v.witness) == _brute_force(com, P, PA, space, bounds), seed
        assert v.bounds == bounds.over(space)
        seen.add(v.status)
        for variant in ("none", "islh", "uslh", "svslh"):
            v = check_relative_security(variant, com, P, PA, space, bounds)
            pair_P = all_secret() if variant == "uslh" else P
            want = _brute_force(
                transform(variant, com, P, PA), pair_P, pair_P, space, bounds, com
            )
            assert (v.status, v.witness) == want, (seed, variant)
            assert v.bounds == bounds.over(space)
            seen.add(v.status)
    # both outcomes occur, so the comparison covers witnesses
    assert seen == {VerdictStatus.HOLDS, VerdictStatus.VIOLATED}


def _leaf_reference(c1, s1, c2, s2, flag, max_dirs, fuel):
    """Divergent directive sequences read off the two sides' leaves alone:
    within the common directive prefix of two leaves, the first position
    where their traces differ.  Returns the canonically first one, or None."""
    runs1 = enum_spec_runs(SpecConfig(c1, s1[0], s1[1], flag), max_dirs=max_dirs, fuel=fuel)
    runs2 = enum_spec_runs(SpecConfig(c2, s2[0], s2[1], flag), max_dirs=max_dirs, fuel=fuel)
    best = None
    for d1, t1, _ in runs1:
        for d2, t2, _ in runs2:
            p = 0
            while p < min(len(d1), len(d2)) and d1[p] == d2[p]:
                p += 1
            m = next((m for m in range(p) if t1[m] != t2[m]), None)
            if m is None:
                continue
            key = [dir_sort_key(d) for d in d1[: m + 1]]
            if best is None or key < best[0]:
                best = (key, d1[: m + 1])
    return None if best is None else best[1]


def test_spec_equiv_agrees_with_leaf_reference():
    rng = random.Random(73)
    violated = 0
    # the last 40 cases draw arrays of up to 4 cells in {0,1}, so the loads
    # of one node read the same value from many cells
    for n in range(120):
        com = gen_program(rng.randrange(10**9), 20, pools)
        max_value, max_size = (3, 2) if n < 80 else (1, 4)
        s1 = random_state(rng, pools, max_value, max_size)
        s2 = random_state(rng, pools, max_value, max_size)
        flag = rng.random() < 0.5
        v = check_spec_obs_equiv(com, s1, s2, flag, 5, 150)
        first = _leaf_reference(com, s1, com, s2, flag, 5, 150)
        assert v.holds == (first is None)
        if v.holds:
            continue
        violated += 1
        w = v.witness
        assert w.dirs == first
        assert w.divergence_index == len(w.dirs) - 1
        r1 = run(Speculative(), SpecConfig(com, s1[0], s1[1], flag), list(w.dirs), 150)
        r2 = run(Speculative(), SpecConfig(com, s2[0], s2[1], flag), list(w.dirs), 150)
        assert (r1.trace, r2.trace) == (w.trace1, w.trace2)
        i = w.divergence_index
        assert w.trace1[:i] == w.trace2[:i] and w.trace1[i] != w.trace2[i]
    assert violated > 0


def test_class_walk_agrees_with_leaf_reference():
    # misspeculating starts at an out-of-bounds read, over arrays of up to 8
    # cells in {0,1}, so the walk pairs few load classes for many loads; the
    # two states differ in their arrays' sizes and, in about a third of the
    # cases, in their names
    rng = random.Random(79)
    violated = renamed = later_cell = 0
    for _ in range(120):
        read = parse_com(f"x <- {rng.choice(pools.arrays)}[8]")
        com = Seq(read, gen_program(rng.randrange(10**9), 10, pools))
        s1 = random_state(rng, pools, 1, 8)
        rho, mu = random_state(rng, pools, 1, 8)
        if rng.random() < 0.35:
            dropped = rng.choice(pools.arrays)
            mu = ArrayState({n: vec for n, vec in mu.items() if n != dropped})
            renamed += 1
        s2 = (rho, mu)
        v = check_spec_obs_equiv(com, s1, s2, True, 4, 100)
        first = _leaf_reference(com, s1, com, s2, True, 4, 100)
        assert v.holds == (first is None), pretty_com(com)
        if not v.holds:
            violated += 1
            assert v.witness.dirs == first, pretty_com(com)
            later_cell += any(isinstance(d, DLoad) and d.index > 0 for d in first)
    assert violated > 30 and renamed > 30 and later_cell > 3


# --- the shared directive DAG ------------------------------------------------

# the benchmark's sct-deep gadget and space: the Listing-1 gadget run twice
# in a loop, four states
_LOOPED_GADGET = parse_com(
    "k := 0; while k < 2 do"
    " if i < a1_size then j <- a1[i]; x <- a2[j] end; i := i + 1; k := k + 1 end"
)
_LOOPED_LABELS = parse_labeling(
    "".join(f"{n}: public\n" for n in ("i", "a1_size", "j", "x", "k", "a1", "a2"))
)
_LOOPED_SPACE = parse_space(
    "i in {0,3}\na1_size in {4}\na1 : size 4 in {1}\na2 : size 4 in {0}\n"
    "a3 : size 1 in {42,43}"
)


def _cell(cfg, d):
    """The value the load ``d`` reads at ``cfg``: its load class."""
    return cfg.mu.vector(d.array)[d.index]


def _children(tree, n):
    """Every feasible child of the node n, one per directive, as
    (directive, observation, child node), in dir_sort_key order: the
    tree's children under the directives that are not loads, then, for
    each load that ``sem.candidates`` lists, its class's child."""
    kids, loads = tree.expand(n)
    out = [e[1:] for e in kids]
    for d in tree.sem.candidates(n.cfg):
        if isinstance(d, DLoad):
            e = loads[_cell(n.cfg, d)]
            if e is not None:
                out.append((d, *e[1:]))
    return out


def _dag_leaves(tree):
    """Every (directives, trace) leaf of the DAG read as a tree, in walk
    order, and the number of tree nodes that are not leaves."""
    leaves, inner = [], 0
    stack = [(tree.root, (), ())]
    while stack:
        n, dirs, trace = stack.pop()
        children = [] if n is _LEAF else _children(tree, n)
        if not children:
            leaves.append((dirs, trace))
            continue
        inner += 1
        stack.extend(reversed([(child, dirs + (d,), trace + (o,)) for d, o, child in children]))
    return leaves, inner


def _assert_dag_matches_runs(cfg, max_dirs, fuel):
    tree = _Tree(Speculative(), cfg, fuel, max_dirs)
    leaves, inner = _dag_leaves(tree)
    want = [(d, t) for d, t, _ in enum_spec_runs(cfg, Speculative(), max_dirs, fuel)]
    assert leaves == want
    return inner, len(tree.nodes)


def test_dag_leaves_match_enum_spec_runs_and_share_on_gadget():
    # per variant, summed over the four states: nodes of the directive tree
    # that are not leaves, and distinct nodes of the DAG
    counts = {}
    for variant in ("none", "islh", "sislh", "fislh", "uslh", "svslh", "fvslh", "fsfvslh"):
        c = transform(variant, _LOOPED_GADGET, _LOOPED_LABELS, _LOOPED_LABELS)
        inner = distinct = 0
        for rho, mu in enum_states(_LOOPED_SPACE):
            i, d = _assert_dag_matches_runs(SpecConfig(c, rho, mu, False), 12, 200)
            inner, distinct = inner + i, distinct + d
        counts[variant] = (inner, distinct)
    # loop heads reached by different paths share a node only through the
    # check's one unfolded command per loop: without it, 488 and 214
    assert counts["none"] == (3456, 346)
    assert counts["islh"] == (256, 170)
    assert counts["fvslh"] == (1696, 204)


def test_dag_leaves_match_enum_spec_runs_on_generated_programs():
    rng = random.Random(29)
    shared = 0
    for _ in range(150):
        com = gen_program(rng.randrange(10**9), 16, pools)
        rho, mu = random_state(rng, pools, max_array_size=2)
        cfg = SpecConfig(com, rho, mu, rng.random() < 0.5)
        for fuel in (12, 150):
            inner, distinct = _assert_dag_matches_runs(cfg, 5, fuel)
            shared += distinct < inner
    assert shared > 0


# --- load classes ----------------------------------------------------------------


def _subtree_key(sem, cfg, fuel, depth, max_dirs):
    """What the node that a step to ``cfg`` leads to stands for, found
    without the tree: None for a leaf."""
    if depth >= max_dirs:
        return None
    cfg, used, kind = sem.advance(cfg, fuel)
    return None if kind is not None else (cfg.key(), fuel - used, depth)


def _assert_kids_step_every_candidate(sem, cfg, max_dirs, fuel, counts):
    """Fully expand the tree of ``cfg`` and compare every node's children
    with those of stepping each candidate through ``sem.step``.  Counts the
    nodes where two loads share a class, where every load is rejected, and
    where a load reads 0 from a cell that holds another value."""
    tree = _Tree(sem, cfg, fuel, max_dirs)
    seen, todo = set(), [tree.root]
    while todo:
        n = todo.pop()
        if n is _LEAF or id(n) in seen:
            continue
        seen.add(id(n))
        children = _children(tree, n)
        todo.extend(child for _, _, child in children)
        want, masked = [], False
        for d in sem.candidates(n.cfg):
            r = sem.step(n.cfg, d)
            if r.tag is StepTag.STEPPED:
                child = _subtree_key(sem, r.cfg, n.fuel - 1, n.depth + 1, max_dirs)
                want.append((dir_sort_key(d), d, r.obs, child))
                if isinstance(d, DLoad):
                    masked |= r.cfg.rho.get(n.cfg.redex.name) != _cell(n.cfg, d)
        got = [(dir_sort_key(d), d, o, None if c is _LEAF else (c.cfg.key(), c.fuel, c.depth))
               for d, o, c in children]
        assert got == want
        loads = [d for d in sem.candidates(n.cfg) if isinstance(d, DLoad)]
        # one class per value, in the order of its first load
        assert list(n.loads) == list(dict.fromkeys(_cell(n.cfg, d) for d in loads))
        counts["shared"] += len(n.loads) < len(loads)
        counts["rejected"] += bool(loads) and not any(isinstance(e[0], DLoad) for e in children)
        counts["masked"] += masked


def test_tree_steps_one_load_per_class_like_every_candidate():
    rng = random.Random(41)
    semantics = {
        "spec": lambda P: Speculative(),
        "fislh": IdealFiSLH,
        "fvslh": IdealFvSLH,
        "fsfvslh": None,
    }
    for name, make in semantics.items():
        counts = {"shared": 0, "rejected": 0, "masked": 0}
        for _ in range(80):
            com = gen_program(rng.randrange(10**9), 24, pools)
            P, PA = random_labeling(rng, pools)
            # arrays of up to 4 cells in {0,1}: loads of one node repeat values
            rho, mu = random_state(rng, pools, max_value=1, max_array_size=4)
            flag = rng.random() < 0.7
            if make is None:
                sem = IdealFS()
                cfg = FsIdealConfig(flow_track(com, P, PA, PUBLIC)[0], rho, mu, flag,
                                    PUBLIC, P, PA)
            else:
                sem, cfg = make(P), SpecConfig(com, rho, mu, flag)
            _assert_kids_step_every_candidate(sem, cfg, 5, 60, counts)
        assert counts["shared"] > 0, name
        # the policies reject some loads (fiSLH into a public target, fvSLH
        # at a secret index), and fvSLH reads a public target as 0
        if name == "spec":
            assert counts["rejected"] == counts["masked"] == 0
        if name in ("fislh", "fvslh"):
            assert counts["rejected"] > 0, name
            assert (counts["masked"] > 0) == (name == "fvslh"), name


def test_flow_sensitive_loop_heads_share_a_node():
    # IdealFS unfolds each loop to one command, as the stepper's loop table
    # does: without it, the paths through the branch reach the loop head as
    # different commands, and the tree has 30 nodes
    c = parse_com("k := 0; while k < 3 do if x < 1 then y := 1 else y := 1 end; k := k + 1 end")
    P = parse_labeling("x: public\ny: public\nk: public")
    rho, mu = parse_state("")
    acom = flow_track(c, P, P, PUBLIC)[0]
    fs = _Tree(IdealFS(), FsIdealConfig(acom, rho, mu, True, PUBLIC, P, P), 200, 8)
    fv = _Tree(IdealFvSLH(P), SpecConfig(c, rho, mu, True), 200, 8)
    assert _dag_leaves(fs) == _dag_leaves(fv)
    assert len(fs.nodes) == len(fv.nodes) == 8


def test_listing1_steps_each_load_class_once(monkeypatch):
    import awhile.seccheck as seccheck
    import awhile.spec_sem as spec_sem

    calls, trees = [0], []
    real_step, real_walk = spec_sem.Speculative.step, seccheck._joint_divergence

    def counted(*args):
        calls[0] += 1
        return real_step(*args)

    def recorded(t1, t2):
        trees.extend((t1, t2))
        return real_walk(t1, t2)

    # the class holds the stepper it was defined with, so patch the class
    monkeypatch.setattr(spec_sem.Speculative, "step", counted)
    monkeypatch.setattr(seccheck, "_joint_divergence", recorded)
    code, [(_, v)] = repro_listing(1, Bounds(12, 200))
    # one step per cell of every array at the misspeculated read: 6,060
    assert 0 < calls[0] <= 100
    assert sum(len(t.nodes) for t in trees) == 14
    assert (code, v.status) == (1, VerdictStatus.VIOLATED)
    reads = [ORead("a2", 42), ORead("a2", 43)]
    assert v.witness == Witness(
        *FIXTURES[1].pair(), (FORCE, DLoad("a3", 0), STEP),
        *[(OBranch(False), ORead("a1", 4), r) for r in reads], 2,
    )


def _listing1_work(monkeypatch, cells):
    """Listing 1's pair with ``a2`` of ``cells`` zero cells: the verdict of
    its check, and the node pairs its walk entered (``_shared`` calls),
    tree nodes and steps it took."""
    pair = [(rho, ArrayState({**dict(mu.items()), "a2": (0,) * cells}))
            for rho, mu in FIXTURES[1].pair()]
    work, trees = collections.Counter(), []
    real_step, real_shared, real_joint = Speculative.step, seccheck._shared, seccheck._joint_divergence

    def step(*args):
        work["steps"] += 1
        return real_step(*args)

    def shared(*args):
        work["walks"] += 1
        return real_shared(*args)

    def joint(t1, t2):
        trees.extend((t1, t2))
        return real_joint(t1, t2)

    with monkeypatch.context() as m:
        m.setattr(Speculative, "step", step)
        m.setattr(seccheck, "_shared", shared)
        m.setattr(seccheck, "_joint_divergence", joint)
        v = check_spec_obs_equiv(LISTING1.program(), *pair, False, 12, 200)
    work["nodes"] = sum(len(t.nodes) for t in trees)
    return v, work


def test_listing1_work_does_not_grow_with_the_array(monkeypatch):
    # a misspeculated read loads from every cell of a2, all of one value:
    # one load class, whatever the array's size
    (v64, work64), (v1000, work1000) = [_listing1_work(monkeypatch, n) for n in (64, 1000)]
    for v in (v64, v1000):
        assert v.status is VerdictStatus.VIOLATED
        assert format_dirs(v.witness.dirs) == "force load a3 0 step"
    assert work64 == work1000
    assert work64["walks"] < 64


# --- one directive tree per group of states -----------------------------------

_HARDENINGS = ("none", "islh", "sislh", "fislh", "uslh", "svslh", "fvslh", "fsfvslh")


def _with_and_without_groups(monkeypatch, check):
    """A check's verdict with the group trees and with every pair walked,
    and the groups' states that the group trees settled."""
    settled, real = [], seccheck._settled

    def recorded(*args):
        out = real(*args)
        settled.append(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(seccheck, "_settled", recorded)
        grouped = check()
    with monkeypatch.context() as m:
        m.setattr(seccheck, "_settled", lambda *args: set())
        walked = check()
    return grouped, walked, set().union(*settled)


def test_group_trees_change_no_verdict(monkeypatch):
    # the whole verdict (status, witness, facts) with the group trees and
    # without them: sct of each hardening and unwind under each ideal
    # semantics, on generated programs over two spaces
    spaces = (_SHARING_SPACE, parse_space(
        "k in {0,2}\ni in {1}\nx in {0,1}\na : size 2 in {0,3}\nc : size 1 in {0}"))
    secret = all_secret()
    cases, outcomes, settled_any, walked_any = 0, set(), 0, 0
    for seed in range(36):
        com = gen_program(3000 + seed, 12, pools)
        space = spaces[seed % 2]
        P = _SHARING_LABELS if wt_ifc(_SHARING_LABELS, _SHARING_LABELS, PUBLIC, com) else secret
        checks = [
            lambda v=v: check_sct(transform(v, com, P, P), P, P, space, _SHARING_BOUNDS)
            for v in _HARDENINGS
        ] + [
            lambda v=v: check_unwinding_space(v, com, P, P, space, _SHARING_BOUNDS)
            for v in ("fislh", "fvslh", "fsfvslh")
        ]
        for check in checks:
            grouped, walked, settled = _with_and_without_groups(monkeypatch, check)
            assert grouped == walked, (seed, grouped, walked)
            cases += 1
            outcomes.add(grouped.status)
            settled_any += bool(settled)
            walked_any += not settled
    assert cases == 396
    assert outcomes == {VerdictStatus.HOLDS, VerdictStatus.VIOLATED}
    assert settled_any > 0 and walked_any > 0


_SECRET_DECISIONS = [
    # k = 0 is bound in no scalar state: the group's names are a union
    ("if k = 0 then x <- a[0] end", "k in {0,1}\na : size 1 in {0}"),
    # an opaque value is not equal to itself
    ("if k * 2 <> k + 1 then x <- a[0] end", "k in {0,1}\na : size 1 in {0}"),
    ("x <- a[k]", "k in {0,1}\na : size 2 in {0}"),
    # a subtraction and a select on the opaque value give it back, and
    # indexing with the result is still a decision on it
    ("x := k - 1; y <- a[x]", "k in {1,2}\na : size 2 in {0}"),
    ("x := (k = 1 ? 0 : 1); y <- a[x]", "k in {1,2}\na : size 2 in {0}"),
]


@pytest.mark.parametrize("c, P, space, bounds", [
    *[(parse_com(c), all_secret(), parse_space(space), Bounds(4, 100))
      for c, space in _SECRET_DECISIONS],
    # a secret read by a misspeculated load, then used as an index
    (_LOOPED_GADGET, _LOOPED_LABELS, _LOOPED_SPACE, Bounds(12, 200)),
], ids=["absent-zero", "self-comparison", "secret-index", "opaque-difference",
        "opaque-select", "loaded-index"])
def test_group_trees_walk_groups_that_decide_on_a_secret(monkeypatch, c, P, space, bounds):
    grouped, walked, settled = _with_and_without_groups(
        monkeypatch, lambda: check_sct(c, P, P, space, bounds)
    )
    assert grouped.status is VerdictStatus.VIOLATED
    assert grouped == walked and not settled


@pytest.mark.parametrize("c", [
    "x := k + 1; y <- a[0]", "x := k - 1; y <- a[0]", "x := (k = 1 ? 0 : 1); y <- a[0]",
])
def test_group_trees_settle_arithmetic_nothing_decides_on(monkeypatch, c):
    # a truncated subtraction compares its operands and a select tests its
    # condition, but neither result is decided on, so the group is settled
    grouped, walked, settled = _with_and_without_groups(
        monkeypatch,
        lambda: check_sct(parse_com(c), all_secret(), all_secret(),
                          parse_space("k in {1,2}\na : size 1 in {0}"), Bounds(4, 100)),
    )
    assert grouped.holds and grouped == walked and settled == {0, 1}


def test_sct_of_hardened_gadget_sweeps_once_per_public_group(monkeypatch):
    # the relsec-pairs space: 16 states in four public groups (by i); each
    # group is settled by one sweep from its abstract state, and no state
    # gets a directive tree
    space = parse_space(
        "i in {0,1,2,3}\na1_size in {4}\na1 : size 4 in {2}\na2 : size 4 in {0}\n"
        "a3 : size 1 in {5,17,42,77}"
    )
    swept, built, real = [], [], seccheck._expands

    def recorded(sem, cfg, bounds):
        swept.append(cfg)
        return real(sem, cfg, bounds)

    class Counted(_Tree):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args[1])
            super().__init__(*args)

    monkeypatch.setattr(seccheck, "_expands", recorded)
    monkeypatch.setattr(seccheck, "_Tree", Counted)
    c = transform("fvslh", _LOOPED_GADGET, _LOOPED_LABELS, _LOOPED_LABELS)
    v = check_sct(c, _LOOPED_LABELS, _LOOPED_LABELS, space, Bounds(8, 200))
    assert v.holds
    assert len(swept) == 4 and built == []
    assert all(cfg.mu.vector("a3") == (OPAQUE,) for cfg in swept)


def _expands_by_tree(sem, cfg, bounds):
    """The reference of the group sweep (``seccheck._expands``): the
    directive tree of ``cfg`` expanded in full through ``_Tree.expand``,
    every node once, and False when a step decides something on ``OPAQUE``."""
    try:
        tree = _Tree(sem, cfg, bounds.fuel, bounds.max_dirs)
        todo, seen = [tree.root], set()
        while todo:
            n = todo.pop()
            if n is _LEAF or n in seen:
                continue
            seen.add(n)
            todo.extend(child for _, _, child in _children(tree, n))
    except seccheck.SecretDependence:
        return False
    return True


class _RecordedSteps:
    """A semantics that records the key and directive of every step."""

    def __init__(self, sem):
        self.sem, self.steps = sem, collections.Counter()

    def advance(self, cfg, fuel):
        return self.sem.advance(cfg, fuel)

    def candidates(self, cfg):
        return self.sem.candidates(cfg)

    def classes(self, cfg):
        return self.sem.classes(cfg)

    def step(self, cfg, d):
        self.steps[cfg.key(), d] += 1
        return self.sem.step(cfg, d)


def _opaque_state(rng):
    """A random state with about a third of its scalars and array cells
    ``OPAQUE``, as a group's abstract state has where its states differ."""
    rho, mu = random_state(rng, pools, max_value=1, max_array_size=3)
    opaque = lambda v: OPAQUE if rng.random() < 0.3 else v
    return (ScalarState({n: opaque(rho.get(n)) for n in pools.scalars}),
            ArrayState({n: tuple(map(opaque, mu.vector(n))) for n in pools.arrays}))


def test_group_sweep_matches_the_tree_expansion():
    # the sweep and a full tree expansion settle alike, and where both
    # expand in full they step each (configuration, directive) pair equally
    # often (once per fuel and depth it is reached at)
    rng = random.Random(53)
    bounds = Bounds(5, 60)
    outcomes = {name: collections.Counter() for name in ("spec", "fislh", "fvslh", "fs")}
    stepped = 0
    for _ in range(150):
        com = gen_program(rng.randrange(10**9), 20, pools)
        P, PA = random_labeling(rng, pools)
        rho, mu = _opaque_state(rng)
        flag = rng.random() < 0.5
        acom = flow_track(com, P, PA, PUBLIC)[0]
        for name, sem, cfg in (
            ("spec", Speculative(), SpecConfig(com, rho, mu, flag)),
            ("fislh", IdealFiSLH(P), SpecConfig(com, rho, mu, flag)),
            ("fvslh", IdealFvSLH(P), SpecConfig(com, rho, mu, flag)),
            ("fs", IdealFS(), FsIdealConfig(acom, rho, mu, flag, PUBLIC, P, PA)),
        ):
            swept, tree = _RecordedSteps(sem), _RecordedSteps(sem)
            expands = seccheck._expands(swept, cfg, bounds)
            assert expands == _expands_by_tree(tree, cfg, bounds), (name, pretty_com(com))
            if expands:
                assert swept.steps == tree.steps
                stepped += sum(swept.steps.values())
            outcomes[name][expands] += 1
    for name, counts in outcomes.items():
        assert counts[True] > 10 and counts[False] > 10, (name, counts)
    assert stepped > 2000


def test_settled_pairs_are_counted_around_the_violating_pair():
    # states s * 3 + p: the public groups by p interleave, [0,3,6,9],
    # [1,4,7,10] and [2,5,8,11].  Only p = 1 indexes with s, so p = 0 and
    # p = 2 settle.  In p = 1, s = 0 and s = 1 read out of bounds and are
    # stuck, so the first divergent pair is (7, 10), s = 2 against s = 3:
    # three and two states of the settled groups come before it, and
    # (8, 11) after it
    c = parse_com("x := (p = 1 ? 3 - s : 0); y <- a[x]")
    P = parse_labeling("p: public")
    states = list(enum_states(parse_space("s in {0,1,2,3}\np in {0,1,2}\na : size 2 in {0}")))
    groups = seccheck._public_groups(states, P, P)
    assert groups == [[0, 3, 6, 9], [1, 4, 7, 10], [2, 5, 8, 11]]
    args = (Speculative(), lambda rho, mu: SpecConfig(c, rho, mu, False), states, groups,
            Bounds(4, 100))
    assert seccheck._settled(*args) == {0, 3, 6, 9, 2, 5, 8, 11}
    v = seccheck._pair_verdict(*args, count_pairs=True, by_group=True)
    walked = seccheck._pair_verdict(*args, count_pairs=True)
    assert v.status is VerdictStatus.VIOLATED and v == walked
    w = v.witness
    assert (w.s1, w.s2) == (states[7], states[10])
    merged = list(heapq.merge(*[itertools.combinations(g, 2) for g in groups]))
    assert dict(v.facts)["pairs"] == merged.index((7, 10)) + 1 == 17


def test_a_settled_wide_space_generates_no_pair(monkeypatch):
    # 2,560 states in five public groups (by i), all settled: 654,080 pairs
    # counted, none generated
    space = parse_space(
        "i in {0,1,2,3,4}\na1_size in {4}\na1 : size 4 in {2}\na2 : size 4 in {0}\n"
        "a3 : size 1 in {" + ",".join(map(str, range(4, 516))) + "}"
    )
    calls, real = [], itertools.combinations

    def counted(group, r):
        calls.append(len(group))
        return real(group, r)

    monkeypatch.setattr(itertools, "combinations", counted)
    c = transform("fvslh", _LOOPED_GADGET, _LOOPED_LABELS, _LOOPED_LABELS)
    assert check_sct(c, _LOOPED_LABELS, _LOOPED_LABELS, space, Bounds(8, 200)).holds
    v = check_unwinding_space("fvslh", _LOOPED_GADGET, _LOOPED_LABELS, _LOOPED_LABELS,
                              space, Bounds(8, 200))
    assert v.holds and dict(v.facts)["pairs"] == 5 * 512 * 511 // 2 == 654_080
    assert calls == []


# --- the relsec premise, one sequential run per public group -------------------


def _per_state_traces(c, states, groups, fuel):
    return {s: seccheck.seq_run(c, *states[s], fuel).trace for group in groups for s in group}


def _with_and_without_grouped_premise(monkeypatch, check):
    """A check's verdict with the premise run once per public group and
    with it run once per state, and the ``seq_run`` calls of each: the
    grouped check's, how many of those decided on the opaque value, and the
    per-state check's."""
    runs, raised = [0], [0]

    def counted(*args):
        runs[0] += 1
        try:
            return seq_run(*args)
        except seccheck.SecretDependence:
            raised[0] += 1
            raise

    with monkeypatch.context() as m:
        m.setattr(seccheck, "seq_run", counted)
        grouped = check()
        grouped_runs, runs[0] = runs[0], 0
        m.setattr(seccheck, "_seq_traces", _per_state_traces)
        per_state = check()
    return grouped, per_state, grouped_runs, raised[0], runs[0]


_PREMISE_SPACES = (
    parse_space("i in {0,1}\nk in {0,2}\nx in {0,1}\na : size 2 in {0,1}\nc : size 1 in {3}"),
    parse_space("i in {0,2}\nk in {1,3}\na : size 2 in {0,1}\nc : size 2 in {0,1}"),
)
# k, x and a are secret, so generated sources branch on and index with them
_PREMISE_LABELS = parse_labeling("i: public\ny: public\nc: public")


def test_grouped_premise_changes_no_verdict(monkeypatch):
    # the whole relsec verdict (status, witness, bounds, message) under each
    # variant, with the premise run per public group and per state
    cases, outcomes, runs, fallbacks, per_state_runs = 0, set(), 0, 0, 0
    for seed in range(12):
        com = gen_program(5000 + seed, 20, pools)
        space = _PREMISE_SPACES[seed % 2]
        for v in _HARDENINGS:
            grouped, per_state, n, raised, m = _with_and_without_grouped_premise(
                monkeypatch,
                lambda: check_relative_security(v, com, _PREMISE_LABELS, _PREMISE_LABELS,
                                                space, Bounds(4, 150)),
            )
            assert grouped == per_state, (seed, v, grouped, per_state)
            cases += 1
            outcomes.add(grouped.status)
            runs += n
            fallbacks += raised
            per_state_runs += m
    assert cases == 96
    assert VerdictStatus.HOLDS in outcomes and VerdictStatus.VIOLATED in outcomes
    # some groups decided on a secret and were run per state, others were not
    assert 0 < fallbacks < runs < per_state_runs


_PREMISE_TRAPS = [
    # k = 0 is bound in no scalar state: the group's names are a union
    ("if k = 0 then x <- a[0] end", "k in {0,1}\na : size 1 in {0}", 0, 1),
    # an opaque value is not equal to itself
    ("if k * 2 <> k + 1 then x <- a[0] end", "k in {0,1}\na : size 1 in {0}", 0, 1),
    ("x <- a[k]", "k in {0,1}\na : size 2 in {0}", 0, 1),
    # k = 5 and k = 9 run out of fuel in the loop with equal traces, so one
    # pair of three passes the premise
    ("while x < k do x := x + 1 end; y <- a[0]", "k in {1,5,9}\na : size 1 in {0}", 1, 3),
]


@pytest.mark.parametrize("c, space, passed, pairs", _PREMISE_TRAPS,
                         ids=["absent-zero", "self-comparison", "secret-index", "secret-loop-bound"])
@pytest.mark.parametrize("variant", ["none", "uslh", "fvslh"])
def test_grouped_premise_runs_groups_that_decide_on_a_secret_per_state(
        monkeypatch, c, space, passed, pairs, variant):
    secret, space = all_secret(), parse_space(space)
    grouped, per_state, runs, raised, _ = _with_and_without_grouped_premise(
        monkeypatch,
        lambda: check_relative_security(variant, parse_com(c), secret, secret, space,
                                        Bounds(4, 12)),
    )
    assert grouped == per_state
    assert grouped.holds
    vacuous = f"vacuous: 0 of {pairs} public-equivalent pairs passed the sequential premise"
    assert grouped.message == ("" if passed else vacuous)
    # the group's run raised, then each state got its own
    assert (runs, raised) == (1 + space.count(), 1)


@pytest.mark.parametrize("variant", ["fvslh", "uslh"])
def test_relsec_premise_runs_once_per_public_group(monkeypatch, variant):
    # the relsec-pairs space: 16 states in four public groups (by i); uslh
    # pairs all 16, but its premise is still grouped by the labeling
    space = parse_space(
        "i in {0,1,2,3}\na1_size in {4}\na1 : size 4 in {2}\na2 : size 4 in {0}\n"
        "a3 : size 1 in {5,17,42,77}"
    )
    grouped, per_state, runs, raised, per_state_runs = _with_and_without_grouped_premise(
        monkeypatch,
        lambda: check_relative_security(variant, _LOOPED_GADGET, _LOOPED_LABELS,
                                        _LOOPED_LABELS, space, Bounds(8, 200)),
    )
    assert grouped.holds and grouped == per_state
    assert (runs, raised, per_state_runs) == (4, 0, 16)


def _union_find_components(pairs):
    """The connected components of the graph whose edges are the pairs, as
    ascending lists of states (union-find with path halving): the reference
    for the premise components, which the check splits out of its groups."""
    up = {}

    def top(s):
        while up.setdefault(s, s) != s:
            up[s] = s = up[up[s]]
        return s

    for i, j in pairs:
        a, b = top(i), top(j)
        if a != b:
            up[b] = a
    components = {}
    for s in up:
        components.setdefault(top(s), []).append(s)
    return sorted(sorted(c) for c in components.values())


# The relsec premise over programs that branch on k, load x from a[k] and
# then loop x times.  k = 2 or 3 gets a run stuck out of bounds, with a
# trace that is a strict prefix of those of k = 1, which are not
# prefix-related to each other when they loop a different number of times;
# k = 0 branches the other way.  x = 9 gets some runs to exhaust the fuel.
# i and y are public.
_PREFIX_SOURCE = "if k < 1 then skip end; x <- a[k]; while y < x do y := y + 1 end; "
_PREFIX_SPACES = (
    parse_space("i in {0,1}\nk in {0,1,3}\ny in {0}\na : size 2 in {0,9}\nc : size 1 in {2}"),
    parse_space("i in {0,2}\nk in {1,2}\ny in {0,1}\na : size 2 in {0,9}\nc : size 1 in {0,1}"),
)
_PREFIX_LABELS = parse_labeling("i: public\ny: public")


def test_premise_components_match_the_premise_pairs(monkeypatch):
    # relsec over generated programs: the components the check hands to
    # _settled equal the connected components of the pairs that meet the
    # premise, and the verdict is the same with _settled disabled
    cases, kinds, outcomes, settled_any = 0, set(), set(), 0
    split = joined = unrelated = 0
    for seed in range(16):
        com = parse_com(_PREFIX_SOURCE + pretty_com(gen_program(7000 + seed, 10, pools)))
        space, bounds = _PREFIX_SPACES[seed % 2], Bounds(4, 30)
        states = list(enum_states(space))
        runs = [seq_run(com, *s, bounds.fuel) for s in states]
        kinds.update(r.kind for r in runs)
        for v in ("none", "uslh", "fvslh"):
            P = _PREFIX_LABELS if v == "uslh" or wt_ifc(_PREFIX_LABELS, _PREFIX_LABELS,
                                                        PUBLIC, com) else all_secret()
            recorded, real = [], seccheck._settled

            def settled(sem, start, states, groups, bounds):
                recorded.append(groups)
                out = real(sem, start, states, groups, bounds)
                recorded.append(out)
                return out

            with monkeypatch.context() as m:
                m.setattr(seccheck, "_settled", settled)
                grouped = check_relative_security(v, com, P, P, space, bounds)
            with monkeypatch.context() as m:
                m.setattr(seccheck, "_settled", lambda *args: set())
                walked = check_relative_security(v, com, P, P, space, bounds)
            assert grouped == walked, (seed, v)
            pair_P = all_secret() if v == "uslh" else P
            pairing = [(i, j) for i, j in itertools.combinations(range(len(states)), 2)
                       if pub_equiv(pair_P, pair_P, states[i], states[j])]
            premise = [(i, j) for i, j in pairing if prefix_of(runs[i].trace, runs[j].trace)]
            groups, settled_states = recorded
            assert all(g == sorted(g) for g in groups)
            assert sorted(g for g in groups if len(g) > 1) == _union_find_components(premise)
            cases += 1
            outcomes.add(grouped.status)
            settled_any += bool(settled_states)
            split += len(groups) > len(_union_find_components(pairing))
            joined += any(len({runs[s].trace for s in g}) > 1 for g in groups)
            unrelated += len(premise) < sum(len(g) * (len(g) - 1) // 2 for g in groups)
    assert cases == 48
    assert {RunKind.STUCK, RunKind.FUEL_EXHAUSTED, RunKind.TERMINATED} <= kinds
    # the premise splits some pairing groups; some components hold a trace
    # and strict extensions of it, some of which are not prefix-related
    assert outcomes == {VerdictStatus.HOLDS, VerdictStatus.VIOLATED}
    assert 0 < settled_any < cases
    assert split > 0 and joined > 0 and unrelated > 0


def test_relsec_uslh_over_a_wide_space_builds_no_pair_list():
    # 640 states, all paired by uslh: 204,480 pairs, of which 40,640 meet
    # the premise; a list of them peaked at 16 MB
    space = parse_space(
        "i in {0,1,2,3,4}\na1_size in {4}\na1 : size 4 in {2}\na2 : size 4 in {0}\n"
        "a3 : size 1 in {" + ",".join(map(str, range(4, 132))) + "}"
    )
    tracemalloc.start()
    try:
        v = check_relative_security("uslh", _LOOPED_GADGET, _LOOPED_LABELS, _LOOPED_LABELS,
                                    space, Bounds(8, 200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.holds
    assert peak < 4 * 2**20


def test_one_pair_checks_settle_no_group(monkeypatch):
    def refuse(*args):
        raise AssertionError("a one-pair check settled a group")

    monkeypatch.setattr(seccheck, "_settled", refuse)
    c, secret = parse_com("x := k"), all_secret()
    s1, s2 = parse_state("k = 0"), parse_state("k = 1")
    assert check_spec_obs_equiv(c, s1, s2).holds
    assert check_unwinding("fvslh", c, secret, secret, s1, s2).holds


def test_violated_witnesses_are_replayed_before_they_are_reported(monkeypatch):
    c = parse_com("x <- a[k]")
    s1, s2 = parse_state("k = 0\na = [0,0]"), parse_state("k = 1\na = [0,0]")
    w = check_spec_obs_equiv(c, s1, s2).witness
    start = lambda rho, mu: SpecConfig(c, rho, mu, False)
    seccheck._certify(Speculative(), start, w, 200)
    for bad in (
        Witness(w.s1, w.s2, w.dirs, w.trace2, w.trace1, w.divergence_index),
        Witness(w.s1, w.s1, w.dirs, w.trace1, w.trace1, w.divergence_index),
        Witness(w.s1, w.s2, w.dirs, w.trace1, w.trace2, w.divergence_index + 1),
        Witness(w.s1, w.s2, (), (), (), 0),
    ):
        with pytest.raises(seccheck.WitnessReplayError):
            seccheck._certify(Speculative(), start, bad, 200)
    # a tree that disagrees with ``run`` is an internal error, not a verdict
    monkeypatch.setattr(seccheck, "run", lambda sem, cfg, dirs, fuel: run(sem, cfg, (), fuel))
    with pytest.raises(seccheck.WitnessReplayError):
        check_spec_obs_equiv(c, s1, s2)


# --- noninterference, unwinding, preservation ----------------------------------


def test_step_ni_identical_states():
    lab = parse_labeling("x: public")
    s = parse_state("x = 1\na = [1]")
    ok, why = check_step_ni("fislh", parse_com("x := x + 1"), lab, lab, s, s,
                            False, None)
    assert ok, why


def test_step_ni_fvslh_read_force_example():
    # arrays differing at a secret cell: both runs mask the loaded value
    lab = parse_labeling("i: public\nx: public\na: public")
    com = parse_com("x <- a[i]")
    s1 = parse_state("i = 5\na = [0]\na3 = [42]")
    s2 = parse_state("i = 5\na = [0]\na3 = [43]")
    ok, why = check_step_ni("fvslh", com, lab, lab, s1, s2, True, DLoad("a3", 0))
    assert ok, why


def test_step_ni_precondition_rejected():
    lab = parse_labeling("x: public")
    s1 = parse_state("x = 1")
    s2 = parse_state("x = 2")  # public variable differs
    with pytest.raises(PreconditionError):
        check_step_ni("fislh", parse_com("skip"), lab, lab, s1, s2, False, None)


def test_lemma_relation_per_variant_and_flag():
    # states that differ in a public cell of a: fislh relates them at
    # neither flag, the value variants only while misspeculating
    lab, com = parse_labeling("x: public\na: public"), parse_com("skip")
    s1, s2 = parse_state("x = 1\na = [0,1]"), parse_state("x = 1\na = [0,2]")
    for flag in (False, True):
        with pytest.raises(PreconditionError, match="^arrays not public-equivalent$"):
            check_step_ni("fislh", com, lab, lab, s1, s2, flag, None)
    v = check_unwinding("fislh", com, lab, lab, s1, s2)
    assert v.status is VerdictStatus.PRECONDITION_FAILED
    assert v.message == "arrays not public-equivalent"
    for variant in ("fvslh", "fsfvslh"):
        with pytest.raises(PreconditionError,
                           match="^arrays not public-equivalent at flag=F$"):
            check_step_ni(variant, com, lab, lab, s1, s2, False, None)
        ok, why = check_step_ni(variant, com, lab, lab, s1, s2, True, None)
        assert ok, why
        assert check_unwinding(variant, com, lab, lab, s1, s2).holds
    # states that differ in a public scalar are related under no variant
    t1, t2 = parse_state("x = 1\na = [0,1]"), parse_state("x = 2\na = [0,1]")
    for variant in ("fislh", "fvslh", "fsfvslh"):
        for flag in (False, True):
            with pytest.raises(PreconditionError, match="^scalars not public-equivalent$"):
                check_step_ni(variant, com, lab, lab, t1, t2, flag, None)
        v = check_unwinding(variant, com, lab, lab, t1, t2)
        assert v.status is VerdictStatus.PRECONDITION_FAILED
        assert v.message == "scalars not public-equivalent"


def _ni_walk(variant, com, P, PA, s1, s2, rng, max_steps=30):
    """Joint random walk asserting the single-step noninterference
    conclusions at every step with equal observations."""
    from awhile.ideal_sem import IdealFiSLH, IdealFvSLH

    if variant == "fsfvslh":
        acom, _ = flow_track(com, P, PA, PUBLIC)
        iv = IdealFS()
        cfg1 = FsIdealConfig(acom, s1[0], s1[1], False, PUBLIC, P, PA)
        cfg2 = FsIdealConfig(acom, s2[0], s2[1], False, PUBLIC, P, PA)
    else:
        iv = IdealFiSLH(P) if variant == "fislh" else IdealFvSLH(P)
        cfg1 = SpecConfig(com, s1[0], s1[1], False)
        cfg2 = SpecConfig(com, s2[0], s2[1], False)
    from awhile.state import pub_equiv_arrays, pub_equiv_scalars

    for _ in range(max_steps):
        r = iv.step(cfg1, None)
        if r.tag is StepTag.NEED_DIR:
            feas = feasible(iv, cfg1)
            if not feas:
                return
            d = rng.choice(feas)
        elif r.tag is StepTag.STUCK:
            return
        else:
            d = None
        r1 = iv.step(cfg1, d)
        r2 = iv.step(cfg2, d)
        if r1.tag is not StepTag.STEPPED or r2.tag is not StepTag.STEPPED:
            return
        if r1.obs != r2.obs:
            return  # the lemma is conditional on equal observations
        n1, n2 = r1.cfg, r2.cfg
        if isinstance(n1, FsIdealConfig):
            assert n1.acom == n2.acom
            assert (n1.pc, n1.P, n1.PA) == (n2.pc, n2.P, n2.PA)
            # flow-sensitive runs relate states through the dynamic labeling
            cur_P, cur_PA = n1.P, n1.PA
        else:
            assert n1.com == n2.com
            cur_P, cur_PA = P, PA
        assert n1.flag == n2.flag
        assert pub_equiv_scalars(cur_P, n1.rho, n2.rho)
        if variant == "fislh":
            assert pub_equiv_arrays(cur_PA, n1.mu, n2.mu)
        elif not n1.flag:
            assert pub_equiv_arrays(cur_PA, n1.mu, n2.mu)
        cfg1, cfg2 = n1, n2


def _related_pair(rng, P, PA, flag, value_based):
    s1 = random_state(rng, pools)
    rho2 = s1[0]
    for n in pools.scalars:
        if not P.get(n).is_public:
            rho2 = rho2.set(n, rng.randrange(4))
    mu2 = s1[1]
    for n in pools.arrays:
        secretly_differs = not PA.get(n).is_public or (flag and value_based)
        if secretly_differs:
            mu2 = ArrayState(
                {**dict(mu2.items()),
                 n: tuple(rng.randrange(4) for _ in mu2.vector(n))}
            )
    return s1, (rho2, mu2)


def test_step_ni_randomized_walks():
    rng = random.Random(31)
    done = 0
    while done < 120:
        com = gen_program(rng.randrange(10**9), 10, pools)
        P, PA = random_labeling(rng, pools)
        variant = ("fislh", "fvslh", "fsfvslh")[done % 3]
        if variant != "fsfvslh" and not wt_ifc(P, PA, PUBLIC, com):
            continue
        s1, s2 = _related_pair(rng, P, PA, False, variant != "fislh")
        _ni_walk(variant, com, P, PA, s1, s2, rng)
        done += 1


def test_walk_pairs_a_shared_node_with_each_partner():
    # with the flag already set, both branch directives keep it: in state 1
    # the two branches leave one configuration (a shared node), in state 2
    # two, and only the second pairing diverges
    com = parse_com("if p < 1 then x := 0 else x := h end; y <- a[x]")
    mu = ArrayState({"a": (0,) * 8})
    s1, s2 = (ScalarState({"h": 0}), mu), (ScalarState({"h": 5}), mu)
    v = check_spec_obs_equiv(com, s1, s2, flag=True)
    assert v.status is VerdictStatus.VIOLATED
    assert v.witness.dirs == (FORCE, STEP)
    assert v.witness.trace1[1:] == (ORead("a", 0),) and v.witness.trace2[1:] == (ORead("a", 5),)


def _ni_nested_scan(variant, com, P, PA, space):
    """check_ni's reference: check_step_ni on every pair of states of a
    nested scan, both flags, directives none, step and force."""
    states = list(enum_states(space))
    checked, failures = 0, []
    for i, s1 in enumerate(states):
        for s2 in states[i:]:
            for flag in (False, True):
                for d in (None, STEP, FORCE):
                    try:
                        ok, why = check_step_ni(variant, com, P, PA, s1, s2, flag, d)
                    except PreconditionError:
                        break
                    checked += 1
                    if not ok:
                        failures.append(why)
    return checked, failures


def test_check_ni_pairs_match_nested_scan():
    rng = random.Random(41)
    space = parse_space("x in {0,1}\ni in {1,3}\na : size 2 in {0,1}\nc : size 1 in {0}")
    total = 0
    for _ in range(20):
        com = gen_program(rng.randrange(10**9), 10, pools)
        P, PA = random_labeling(rng, pools)
        for variant in ("fislh", "fvslh", "fsfvslh"):
            v = check_ni(variant, com, P, PA, space)
            got = (dict(v.facts)["checked"], list(v.failures))
            assert got == _ni_nested_scan(variant, com, P, PA, space)
            total += got[0]
    assert total > 0


def test_unwinding_skip():
    lab = all_secret()
    s = parse_state("a = [1]")
    assert check_unwinding("fislh", parse_com("skip"), lab, lab, s, s).holds


def test_unwinding_listing4_body():
    # the secret branch, entered while misspeculating, is observed as
    # branch false on both sides
    com = parse_com("if secret = 0 then y := 1 end")
    lab = all_secret()
    s1, s2 = parse_state("secret = 0"), parse_state("secret = 1")
    for variant in ("fislh", "fvslh", "fsfvslh"):
        v = check_unwinding(variant, com, lab, lab, s1, s2, Bounds(5, 100))
        assert v.holds, (variant, v)


def test_unwinding_space_names_its_space_on_both_paths():
    space = parse_space("s in {0,1}")
    # a typed program walks its pair; an ill-typed one walks none
    for com, lab, pairs in (("x := 1", all_secret(), 1),
                            ("if s = 0 then x := 1 end", parse_labeling("x: public"), 0)):
        v = check_unwinding_space("fvslh", parse_com(com), lab, lab, space)
        assert v.holds and v.facts == (("pairs", pairs),)
        assert v.bounds == Bounds().over(space)
        assert v.bounds.space == "s in {0,1}"


def test_space_lemmas_refuse_a_variant_with_no_ideal_semantics():
    # the vacuous verdict is for an ill-typed program only
    com, lab, space = parse_com("x := 1"), all_secret(), parse_space("s in {0,1}")
    for variant in ("uslh", "none", "bogus"):
        for check in (check_ni, check_unwinding_space):
            with pytest.raises(PreconditionError,
                               match=f"no ideal semantics for variant {variant!r}"):
                check(variant, com, lab, lab, space)


def test_unwinding_randomized():
    rng = random.Random(41)
    done = 0
    while done < 60:
        com = gen_program(rng.randrange(10**9), 8, pools)
        P, PA = random_labeling(rng, pools)
        variant = ("fislh", "fvslh", "fsfvslh")[done % 3]
        if variant != "fsfvslh" and not wt_ifc(P, PA, PUBLIC, com):
            continue
        s1, s2 = _related_pair(rng, P, PA, True, variant != "fislh")
        v = check_unwinding(variant, com, P, PA, s1, s2, Bounds(5, 400))
        assert v.status is not VerdictStatus.VIOLATED, (variant, com, v.witness)
        done += 1


def test_wl_preservation_single_steps():
    lab = parse_labeling("epublic: public")
    com = parse_com("if false then a[isecret] <- epublic end")
    acom, final = flow_track(com, lab, lab, PUBLIC)
    rho, mu = parse_state("isecret = 1\nepublic = 5\na = [0,0]")
    ok, why = check_wl_preservation(
        acom, Labeling(lab, lab), PUBLIC, final, rho, mu, False, FORCE
    )
    assert ok, why


def test_check_wl_steps_under_one_semantics(monkeypatch):
    # every step a wl check checks is taken under the check's one IdealFS,
    # so each expression is compiled once per check, not once per step
    import awhile.seccheck as seccheck

    made = []

    class CountedIdealFS(IdealFS):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(seccheck, "IdealFS", CountedIdealFS)
    com = parse_com("x := 1; while x < 3 do x := x + 1; y <- a[x] end")
    lab = parse_labeling("x: public\ny: public\na: public")
    space = parse_space("x in {0}\na : size 2 in {0,1}")
    v = check_wl(com, lab, lab, space, Bounds(4, 200), seed=1)
    assert v.holds and dict(v.facts)["checked"] > 8
    assert len(made) == 1


def test_check_wl_steps_each_configuration_once(monkeypatch):
    # one well_labeled call for the analysis output, then one per successor:
    # a step's conclusion is the next step's premise, not proved again
    import awhile.seccheck as seccheck

    calls, made = [], []
    real = seccheck.well_labeled

    def counted(*args):
        calls.append(args)
        return real(*args)

    class CountedIdealFS(IdealFS):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(seccheck, "well_labeled", counted)
    monkeypatch.setattr(seccheck, "IdealFS", CountedIdealFS)
    com = parse_com("k := 0; while k < 3 do if i < a1_size then j <- a1[i]; x <- a2[j] end;"
                    " i := i + 1; k := k + 1 end")
    lab = parse_labeling("".join(f"{n}: public\n" for n in ("i", "a1_size", "j", "x", "k",
                                                             "a1", "a2")))
    space = parse_space("i in {0,1,2,3}\na1_size in {4}\na1 : size 4 in {1}\n"
                        "a2 : size 4 in {0}\na3 : size 1 in {42,43}")
    v = check_wl(com, lab, lab, space, Bounds(8, 200), seed=3)
    checked = dict(v.facts)["checked"]
    assert v.holds and checked == 97
    assert len(calls) <= checked + 1
    assert len(made) == 1


def test_wl_preservation_requires_well_labeled_start():
    from awhile.flow_ifc import AARead
    from awhile.lang import Var

    bad = AARead("x", "a", Var("i"), PUBLIC, SECRET)  # inconsistent labels
    lab = all_secret()
    with pytest.raises(PreconditionError):
        check_wl_preservation(
            bad, Labeling(lab, lab), PUBLIC, Labeling(lab, lab),
            ScalarState(), ArrayState({"a": (0,)}), False, STEP,
        )


def test_check_wl_walks_each_state_and_rejects_ill_labeled_analysis(monkeypatch):
    import awhile.seccheck as seccheck

    com = parse_com("if s = 0 then y := 1 end; x <- a[y]")
    lab = parse_labeling("y: public\nx: public")
    space = parse_space("s in {0,1}\ny in {0}\na : size 2 in {0}")
    v = check_wl(com, lab, lab, space, Bounds(3, 200), seed=4)
    checked, why = dict(v.facts)["checked"], v.failures
    assert why == ()
    assert 2 <= checked <= 2 * 4 * 3  # each state, at most 4 * max_dirs steps
    assert check_wl(com, lab, lab, space, Bounds(3, 200), seed=4) == v
    # a final labeling that leaves x public although a secret array is read
    # into it: caught before any walk
    real = seccheck.flow_track
    monkeypatch.setattr(
        seccheck, "flow_track",
        lambda c, P, PA, pc: (real(c, P, PA, pc)[0], Labeling(lab, lab)),
    )
    v = check_wl(com, lab, lab, space)
    assert (dict(v.facts)["checked"], v.failures) == (0, ("analysis output not well-labeled",))


def test_wl_preservation_randomized_walks():
    rng = random.Random(51)
    steps = 0
    for _ in range(60):
        com = gen_program(rng.randrange(10**9), 10, pools)
        P, PA = random_labeling(rng, pools)
        acom, final = flow_track(com, P, PA, PUBLIC)
        rho, mu = random_state(rng, pools)
        cfg = FsIdealConfig(acom, rho, mu, bool(rng.getrandbits(1)), PUBLIC, P, PA)
        for _ in range(25):
            feas = feasible(IdealFS(), cfg)
            r = IdealFS().step(cfg, None)
            d = rng.choice(feas) if (r.tag is StepTag.NEED_DIR and feas) else None
            ok, why = check_wl_preservation(
                cfg.acom, Labeling(cfg.P, cfg.PA), cfg.pc, final,
                cfg.rho, cfg.mu, cfg.flag, d,
            )
            assert ok, why
            steps += 1
            r = IdealFS().step(cfg, d)
            if r.tag is not StepTag.STEPPED:
                break
            cfg = r.cfg
    assert steps >= 150


# --- generation ----------------------------------------------------------------


def test_gen_program_deterministic():
    assert gen_program(123, 12) == gen_program(123, 12)


def test_gen_program_small_budget():
    from awhile.lang import ARead, Asgn, AWrite, Skip

    for seed in range(50):
        com = gen_program(seed, 1)
        assert isinstance(com, (Skip, Asgn, ARead, AWrite))


def test_gen_program_respects_node_budget():
    from awhile.gen import count_nodes

    for seed in range(300):
        assert count_nodes(gen_program(seed, 15)) <= 15


def test_count_nodes_of_a_flat_program():
    # one Seq per statement but the last, counted without recursion
    from awhile.gen import count_nodes

    assert count_nodes(parse_com("; ".join(["x := 1"] * 1500))) == 2999


def test_gen_program_loops_terminate():
    for seed in range(200):
        com = gen_program(seed, 15)
        rho, mu = parse_state("a = [1,2]\nc = [3]")
        out = seq_run(com, rho, mu, 3000)
        assert out.kind is not RunKind.FUEL_EXHAUSTED


# --- erasure cross-check ---------------------------------------------------------


def test_step_only_spec_equiv_agrees_with_seq_equiv():
    rng = random.Random(61)
    for _ in range(60):
        com = gen_program(rng.randrange(10**9), 10, pools)
        s1 = random_state(rng, pools)
        s2 = random_state(rng, pools)
        seq_verdict = check_seq_obs_equiv(com, s1, s2, 400)
        r1 = run(Speculative(), SpecConfig(com, s1[0], s1[1], False), [STEP] * 50, 400)
        r2 = run(Speculative(), SpecConfig(com, s2[0], s2[1], False), [STEP] * 50, 400)
        assert prefix_of(r1.trace, r2.trace) == seq_verdict.holds
