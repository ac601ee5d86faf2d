import random

import pytest

from awhile.flow_ifc import Labeling, flow_track
from awhile.gen import NamePools, gen_program, random_labeling, random_state
from awhile.harden import FlagCollisionError
from awhile.ideal_sem import FsIdealConfig, IdealFS, IdealFiSLH, IdealFvSLH
from awhile.ifc_static import PUBLIC, SECRET, all_secret, parse_labeling, wt_ifc
from awhile.lang import parse_com
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
from awhile.spec_sem import Speculative, StepTag, advance, feasible, load_class, run
from awhile.state import (
    ArrayState,
    DLoad,
    dir_sort_key,
    FORCE,
    OBranch,
    ORead,
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
    assert check_spec_obs_equiv(com, s, com, s).holds


def test_spec_equiv_example3_witness():
    com = LISTING1.program()
    s1, s2 = FIXTURES[1].pair()
    v = check_spec_obs_equiv(com, s1, com, s2)
    assert v.status is VerdictStatus.VIOLATED
    assert list(v.witness.dirs) == parse_dirs("force load a3 0 step")
    assert v.witness.divergence_index == 2
    assert v.witness.trace1[-1] == ORead("a2", 42)
    assert v.witness.trace2[-1] == ORead("a2", 43)


def test_spec_equiv_witness_replays():
    com = LISTING1.program()
    s1, s2 = FIXTURES[1].pair()
    w = check_spec_obs_equiv(com, s1, com, s2).witness
    r1 = run(Speculative(), SpecConfig(com, s1[0], s1[1], False), list(w.dirs), 200)
    r2 = run(Speculative(), SpecConfig(com, s2[0], s2[1], False), list(w.dirs), 200)
    assert r1.trace == w.trace1 and r2.trace == w.trace2
    assert w.trace1[w.divergence_index] != w.trace2[w.divergence_index]


def test_listing2_holds_at_depth_ten():
    com = FIXTURES[2].program()
    s1, s2 = FIXTURES[1].pair()
    assert check_spec_obs_equiv(com, s1, com, s2, max_dirs=10).holds


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
    small = check_spec_obs_equiv(com, s1, com, s2, max_dirs=3)
    large = check_spec_obs_equiv(com, s1, com, s2, max_dirs=6)
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
    v3 = check_relative_security(
        "fislh", parse_com("skip"), lab, lab,
        parse_space("a : size 0 in {0}"), Bounds(4, 100),
    )
    assert v3.status is VerdictStatus.PRECONDITION_FAILED


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
            v = check_spec_obs_equiv(c, s1, c, s2, False, bounds.max_dirs, bounds.fuel)
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
        v = check_spec_obs_equiv(com, s1, com, s2, flag, 5, 150)
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


def _dag_leaves(tree):
    """Every (directives, trace) leaf of the DAG read as a tree, in walk
    order, and the number of tree nodes that are not leaves."""
    leaves, inner = [], 0
    stack = [(tree.root, (), ())]
    while stack:
        n, dirs, trace = stack.pop()
        if n is _LEAF or tree.kid(n, 0) is None:
            leaves.append((dirs, trace))
            continue
        inner += 1
        k, kids = 0, []
        while tree.kid(n, k) is not None:
            _, d, o, child = tree.kid(n, k)
            kids.append((child, dirs + (d,), trace + (o,)))
            k += 1
        stack.extend(reversed(kids))
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
    cfg, used, kind = advance(sem, cfg, fuel)
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
        k = 0
        while tree.kid(n, k) is not None:
            todo.append(n.kids[k][3])
            k += 1
        assert n.classes is None  # dropped once every candidate is stepped
        want, masked = [], False
        for d in sem.candidates(n.cfg):
            r = sem.step(n.cfg, d)
            if r.tag is StepTag.STEPPED:
                child = _subtree_key(sem, r.cfg, n.fuel - 1, n.depth + 1, max_dirs)
                want.append((dir_sort_key(d), d, r.obs, child))
                if isinstance(d, DLoad):
                    masked |= r.cfg.rho.get(n.cfg.redex.name) != load_class(n.cfg, d)
        got = [(key, d, o, None if c is _LEAF else (c.cfg.key(), c.fuel, c.depth))
               for key, d, o, c in n.kids]
        assert got == want
        loads = [d for d in n.cands if isinstance(d, DLoad)]
        counts["shared"] += len({load_class(n.cfg, d) for d in loads}) < len(loads)
        counts["rejected"] += bool(loads) and not any(isinstance(e[1], DLoad) for e in n.kids)
        counts["masked"] += masked


def test_tree_steps_one_load_per_class_like_every_candidate():
    rng = random.Random(41)
    semantics = {
        "spec": lambda P, PA: Speculative(),
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
                sem, cfg = make(P, PA), SpecConfig(com, rho, mu, flag)
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
    fv = _Tree(IdealFvSLH(P, P), SpecConfig(c, rho, mu, True), 200, 8)
    assert _dag_leaves(fs) == _dag_leaves(fv)
    assert len(fs.nodes) == len(fv.nodes) == 8


def test_listing1_steps_each_load_class_once(monkeypatch):
    import awhile.seccheck as seccheck
    import awhile.spec_sem as spec_sem

    calls, trees = [0], []
    real_step, real_walk = spec_sem.step_ex, seccheck._joint_divergence

    def counted(*args):
        calls[0] += 1
        return real_step(*args)

    def recorded(t1, t2):
        trees.extend((t1, t2))
        return real_walk(t1, t2)

    monkeypatch.setattr(spec_sem, "step_ex", counted)
    monkeypatch.setattr(seccheck, "_joint_divergence", recorded)
    code, [(_, v)] = repro_listing(1, Bounds(12, 200))
    # one step per cell of every array at the misspeculated read: 6,060
    assert calls[0] <= 100
    assert sum(len(t.nodes) for t in trees) == 14
    assert (code, v.status) == (1, VerdictStatus.VIOLATED)
    reads = [ORead("a2", 42), ORead("a2", 43)]
    assert v.witness == Witness(
        *FIXTURES[1].pair(), (FORCE, DLoad("a3", 0), STEP),
        *[(OBranch(False), ORead("a1", 4), r) for r in reads], 2,
    )


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
        iv = IdealFiSLH(P, PA) if variant == "fislh" else IdealFvSLH(P, PA)
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
    v = check_spec_obs_equiv(com, s1, com, s2, flag=True)
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
    space = parse_space("x in {0,1}\ni in {1,3}\na : size 2 in {0,1}")
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
