import random

from hypothesis import given, settings
from hypothesis import strategies as st

from awhile.flow_ifc import erase_acom, flow_track
from awhile.gen import NamePools, gen_program, random_labeling, random_state
from awhile.ideal_sem import FsIdealConfig, IdealFS, IdealFiSLH, IdealFvSLH
from awhile.ifc_static import PUBLIC, LabelMap
from awhile.lang import ARead, If, Num, parse_com, syntax_equal
from awhile.seq_sem import RunKind, seq_run
from awhile.spec_sem import Speculative, StepTag, feasible, run
from awhile.state import (
    ArrayState,
    DLoad,
    DStore,
    FORCE,
    OBranch,
    ORead,
    ScalarState,
    SpecConfig,
    STEP,
    dir_sort_key,
    parse_dirs,
    parse_state,
)

LISTING1 = parse_com("if i < a1_size then j <- a1[i]; x <- a2[j] end")

EX3_BASE = "i = 4\na1_size = 4\na1 = [0,7,1,2]\na2 = [%s]" % ",".join(["0"] * 1000)


def _ex3(a3_value):
    rho, mu = parse_state(EX3_BASE + f"\na3 = [{a3_value}]")
    return SpecConfig(LISTING1, rho, mu, False)


def test_force_takes_untaken_branch_and_sets_flag():
    cfg = _ex3(42)
    res = Speculative().step(cfg, FORCE)
    assert res.tag is StepTag.STEPPED
    cfg2, obs, consumed = res.cfg, res.obs, res.consumed
    assert obs == OBranch(False)  # the observation reports the real outcome
    assert consumed == 1
    assert cfg2.flag is True
    assert cfg2.com == LISTING1.then  # condition false, but then-branch entered


def test_forced_oob_read_loads_attacker_choice():
    cfg = _ex3(42)
    cfg = Speculative().step(cfg, FORCE).cfg
    # the forced branch's first read is now the redex; redirect it
    res = Speculative().step(cfg, DLoad("a3", 0))
    assert res.tag is StepTag.STEPPED
    cfg2, obs, consumed = res.cfg, res.obs, res.consumed
    assert obs == ORead("a1", 4)  # original array and index observed
    assert cfg2.rho.get("j") == 42  # value from the redirected load
    assert consumed == 1


def test_inbounds_read_rejects_force_style_directives():
    com = ARead("x", "a1", Num(0))
    cfg = SpecConfig(com, ScalarState(), ArrayState({"a1": (5,)}), True)
    assert Speculative().step(cfg, FORCE).tag is StepTag.STUCK
    assert Speculative().step(cfg, DLoad("a1", 0)).tag is StepTag.STUCK  # in-bounds: only step fits
    assert Speculative().step(cfg, STEP).tag is StepTag.STEPPED


def test_load_gated_on_misspeculation_flag():
    com = ARead("x", "a1", Num(9))
    cfg = SpecConfig(com, ScalarState(), ArrayState({"a1": (5,)}), False)
    assert Speculative().step(cfg, DLoad("a1", 0)).tag is StepTag.STUCK
    cfg_t = SpecConfig(com, ScalarState(), ArrayState({"a1": (5,)}), True)
    assert Speculative().step(cfg_t, DLoad("a1", 0)).tag is StepTag.STEPPED


def test_example3_attack_traces():
    dirs = parse_dirs("force load a3 0 step")
    out1 = run(Speculative(), _ex3(42), dirs, 100)
    out2 = run(Speculative(), _ex3(43), dirs, 100)
    assert out1.kind is RunKind.TERMINATED and out2.kind is RunKind.TERMINATED
    assert out1.trace == (OBranch(False), ORead("a1", 4), ORead("a2", 42))
    assert out2.trace == (OBranch(False), ORead("a1", 4), ORead("a2", 43))
    assert out1.consumed == len(out1.trace) == 3


def test_flag_monotone_and_consumed_equals_trace():
    cfg = _ex3(42)
    seen_flag = False
    dirs = parse_dirs("force load a1 2 step")
    consumed = 0
    trace = []
    while True:
        nxt = dirs[consumed] if consumed < len(dirs) else None
        r = Speculative().step(cfg, nxt)
        if r.tag is not StepTag.STEPPED:
            break
        if cfg.flag:
            seen_flag = True
            assert r.cfg.flag  # once set, never cleared
        cfg = r.cfg
        consumed += r.consumed
        if r.obs is not None:
            trace.append(r.obs)
    assert seen_flag
    assert len(trace) == consumed


def test_feasible_dirs_at_branch_and_at_oob_read():
    cfg = _ex3(42)
    assert feasible(Speculative(), cfg) == [STEP, FORCE]
    cfg = Speculative().step(cfg, FORCE).cfg
    feas = feasible(Speculative(), cfg)
    # out-of-bounds read while misspeculating: one load per cell of each array
    assert feas == (
        [DLoad("a1", j) for j in range(4)]
        + [DLoad("a2", j) for j in range(1000)]
        + [DLoad("a3", 0)]
    )


def test_directives_exhausted_vs_stuck():
    out = run(Speculative(), _ex3(42), [], 100)
    assert out.kind is RunKind.DIRS_EXHAUSTED
    # an out-of-bounds read without the flag has no feasible directive at all
    com = ARead("x", "a1", Num(9))
    cfg = SpecConfig(com, ScalarState(), ArrayState({"a1": (5,)}), False)
    assert run(Speculative(), cfg, [], 100).kind is RunKind.STUCK
    assert run(Speculative(), cfg, [STEP], 100).kind is RunKind.STUCK
    # a directive no rule consumes at a branch stops the run there
    out = run(Speculative(), _ex3(42), [DLoad("a1", 0)], 100)
    assert (out.kind, out.consumed, out.final.redex) == (RunKind.STUCK, 0, LISTING1)
    # fuel runs out exactly at a branch, after the assignment and the
    # dropping of its finished head; one more unit takes the branch
    cfg = SpecConfig(parse_com("x := 1; if x < 2 then skip end"), ScalarState(),
                     ArrayState(), False)
    out = run(Speculative(), cfg, [STEP], 2)
    assert (out.kind, out.consumed, type(out.final.redex)) == (RunKind.FUEL_EXHAUSTED, 0, If)
    assert run(Speculative(), cfg, [STEP], 3).kind is RunKind.TERMINATED


def test_run_picks_directives_where_they_run_out():
    pools = NamePools()
    rng = random.Random(33)
    for seed in range(60):
        com = gen_program(seed, 12, pools)
        rho, mu = random_state(rng, pools)
        cfg = SpecConfig(com, rho, mu, rng.random() < 0.3)
        sem, offered, picked = Speculative(), [], []

        def pick(at, feas):
            offered.append(feas == feasible(sem, at))
            return rng.choice(feas) if len(picked) < 6 else None

        out = run(sem, cfg, picked, 500, pick)
        # every picked directive is appended and consumed, and replaying
        # the list without a pick gives the same outcome
        assert len(picked) == out.consumed and all(offered)
        replay = run(sem, cfg, picked, 500)
        assert (replay.kind, replay.trace, replay.consumed, replay.final.key()) == \
            (out.kind, out.trace, out.consumed, out.final.key())


def test_run_pick_appends_stops_and_is_not_called_when_stuck():
    # picked directives follow the given ones
    picked = [FORCE]
    out = run(Speculative(), _ex3(42), picked, 100, lambda cfg, feas: feas[-1])
    assert picked == [FORCE, DLoad("a3", 0), STEP]
    assert (out.kind, out.trace) == (
        RunKind.TERMINATED, (OBranch(False), ORead("a1", 4), ORead("a2", 42)))
    # a pick that returns None stops the run, directives exhausted
    calls = []
    out = run(Speculative(), _ex3(42), [], 100, lambda cfg, feas: calls.append(feas))
    assert (out.kind, out.consumed, calls) == (RunKind.DIRS_EXHAUSTED, 0, [[STEP, FORCE]])
    # an out-of-bounds read without the flag, first or after a picked
    # step: nothing is feasible, the run is stuck and the pick not called
    def never(cfg, feas):
        raise AssertionError("pick called with nothing feasible")

    cfg = SpecConfig(ARead("x", "a1", Num(9)), ScalarState(), ArrayState({"a1": (5,)}), False)
    out = run(Speculative(), cfg, [], 100, never)
    assert (out.kind, out.consumed) == (RunKind.STUCK, 0)
    cfg = SpecConfig(parse_com("if x < 1 then y <- a1[9] end"), ScalarState(),
                     ArrayState({"a1": (5,)}), False)
    picked = []
    out = run(Speculative(), cfg, picked, 100,
              lambda cfg, feas: never(cfg, feas) if cfg.redex.__class__ is ARead else STEP)
    assert (out.kind, out.trace, picked) == (RunKind.STUCK, (OBranch(True),), [STEP])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_erasure_step_only_runs_equal_sequential(seed):
    com = gen_program(seed, 12)
    rho, mu = parse_state("x = 1\ny = 2\ni = 0\nk = 1\na = [1,2]\nc = [3]")
    seq = seq_run(com, rho, mu, 400)
    spec = run(Speculative(), SpecConfig(com, rho, mu, False), [STEP] * 100, 400)
    assert spec.trace == seq.trace
    assert spec.final.rho == seq.rho
    assert spec.final.mu == seq.mu
    assert spec.final.flag is False


def test_step_accounting_matches_sequential_at_every_fuel():
    # the focused stepper must spend fuel exactly like the structural rules:
    # cut off at any fuel, every semantics driven by step directives stops
    # where the sequential oracle does, in the same state and command
    rng = random.Random(2024)
    pools = NamePools()
    for _ in range(60):
        com = gen_program(rng.randrange(10**9), rng.randrange(10, 40), pools)
        P, PA = random_labeling(rng, pools)
        rho, mu = random_state(rng, pools, max_array_size=4)
        acom, _ = flow_track(com, P, PA, PUBLIC)
        for fuel in range(61):
            seq = seq_run(com, rho, mu, fuel)
            for sem, cfg in (
                (Speculative(), SpecConfig(com, rho, mu, False)),
                (IdealFiSLH(P), SpecConfig(com, rho, mu, False)),
                (IdealFvSLH(P), SpecConfig(com, rho, mu, False)),
                (IdealFS(), FsIdealConfig(acom, rho, mu, False, PUBLIC, P, PA)),
            ):
                out = run(sem, cfg, [STEP] * 100, fuel)
                assert out.kind is seq.kind, (sem, fuel)
                assert out.trace == seq.trace
                assert out.final.rho == seq.rho and out.final.mu == seq.mu
                # the stack folds back to the command the oracle holds
                final = out.final
                com_left = erase_acom(final.acom) if isinstance(final, FsIdealConfig) else final.com
                assert syntax_equal(com_left, seq.com)


def test_step_accounting_matches_sequential_on_a_long_silent_stretch():
    # the silent loop runs the 15 steps before the first observation, with
    # zero and nonzero assignments, in one call; cut off at any fuel, every
    # semantics stops where the sequential oracle does, up to termination
    com = parse_com("x := 1; y := x + 1; z := y * 2; x := z - 9; y := 0; i := x; "
                    "k := 0; while k < 2 do k := k + 1 end; a[y] <- x")
    rho, mu = parse_state("x = 3\nz = 1\na = [0,0]")
    P, PA = LabelMap({"x": PUBLIC, "k": PUBLIC}), LabelMap({"a": PUBLIC})
    acom, _ = flow_track(com, P, PA, PUBLIC)
    for fuel in range(30):
        seq = seq_run(com, rho, mu, fuel)
        for sem, cfg in (
            (Speculative(), SpecConfig(com, rho, mu, False)),
            (IdealFiSLH(P), SpecConfig(com, rho, mu, False)),
            (IdealFvSLH(P), SpecConfig(com, rho, mu, False)),
            (IdealFS(), FsIdealConfig(acom, rho, mu, False, PUBLIC, P, PA)),
        ):
            out = run(sem, cfg, [STEP] * 4, fuel)
            assert out.kind is seq.kind, (sem, fuel)
            assert out.trace == seq.trace
            assert out.final.rho == seq.rho and out.final.mu == seq.mu
            final = out.final
            com_left = erase_acom(final.acom) if isinstance(final, FsIdealConfig) else final.com
            assert syntax_equal(com_left, seq.com)


def _advance_stepwise(sem, cfg, fuel):
    """``advance`` as one ``sem.step(cfg, None)`` call per silent step."""
    used = 0
    while used < fuel:
        r = sem.step(cfg, None)
        if r.tag is not StepTag.STEPPED:
            if r.tag is StepTag.NEED_DIR:
                return cfg, used, None
            return cfg, used, RunKind.TERMINATED if sem.is_final(cfg) else RunKind.STUCK
        assert r.obs is None and r.consumed == 0
        cfg, used = r.cfg, used + 1
    return cfg, used, RunKind.TERMINATED if sem.is_final(cfg) else RunKind.FUEL_EXHAUSTED


def _command_of(cfg):
    return erase_acom(cfg.acom) if isinstance(cfg, FsIdealConfig) else cfg.com


def test_silent_loop_matches_single_steps_at_every_fuel():
    # the silent loop runs many steps on local variables and builds one
    # configuration; cut off at any fuel, it must stop where single steps
    # do, with the same kind, key (stores, flag, pc and labelings included)
    # and command, from every observing redex a random run reaches
    rng = random.Random(515)
    pools = NamePools()
    kinds = set()
    # a silent stretch of 15 steps before the first observation, with zero
    # and nonzero assignments
    straight = parse_com("x := 1; y := x + 1; z := y * 2; x := z - 9; y := 0; i := x; "
                         "k := 0; while k < 2 do k := k + 1 end; a[y] <- x")
    programs = [straight] + [gen_program(rng.randrange(10**9), rng.randrange(10, 40), pools)
                           for _ in range(60)]
    for com in programs:
        P, PA = random_labeling(rng, pools)
        rho, mu = random_state(rng, pools, max_array_size=3)
        flag = rng.random() < 0.3
        acom, _ = flow_track(com, P, PA, PUBLIC)
        for sem, cfg in (
            (Speculative(), SpecConfig(com, rho, mu, flag)),
            (IdealFiSLH(P), SpecConfig(com, rho, mu, flag)),
            (IdealFvSLH(P), SpecConfig(com, rho, mu, flag)),
            (IdealFS(), FsIdealConfig(acom, rho, mu, flag, PUBLIC, P, PA)),
        ):
            for _ in range(12):
                for fuel in range(40):
                    got, want = sem.advance(cfg, fuel), _advance_stepwise(sem, cfg, fuel)
                    assert got[1:] == want[1:], (sem, fuel)
                    assert got[0].key() == want[0].key()
                    assert syntax_equal(_command_of(got[0]), _command_of(want[0]))
                    kinds.add(got[2])
                cfg, _, kind = sem.advance(cfg, 400)
                feas = feasible(sem, cfg) if kind is None else []
                if not feas:
                    break
                cfg = sem.step(cfg, rng.choice(feas)).cfg
    assert kinds == {None, RunKind.TERMINATED, RunKind.FUEL_EXHAUSTED}


def _directive_universe(mu):
    """step, force, and a load and a store for every cell of every array."""
    dirs = [STEP, FORCE]
    for ctor in (DLoad, DStore):
        for name, vec in sorted(mu.items()):
            dirs.extend(ctor(name, j) for j in range(len(vec)))
    return dirs


def test_candidates_are_ordered_and_cover_every_stepping_directive():
    # the directive-tree walk merges children in candidate order and only
    # ever tries candidates; both facts must hold for every semantics
    rng = random.Random(77)
    pools = NamePools(("x", "y", "i", "k"), ("a", "c"))
    observing = {}
    for _ in range(40):
        com = gen_program(rng.randrange(10**9), 12, pools)
        P, PA = random_labeling(rng, pools)
        rho, mu = random_state(rng, pools)
        flag = bool(rng.getrandbits(1))
        acom, _ = flow_track(com, P, PA, PUBLIC)
        for sem, cfg in (
            (Speculative(), SpecConfig(com, rho, mu, flag)),
            (IdealFiSLH(P), SpecConfig(com, rho, mu, flag)),
            (IdealFvSLH(P), SpecConfig(com, rho, mu, flag)),
            (IdealFS(), FsIdealConfig(acom, rho, mu, flag, PUBLIC, P, PA)),
        ):
            for _ in range(40):
                cands = sem.candidates(cfg)
                assert cands == sorted(cands, key=dir_sort_key)
                assert len(set(cands)) == len(cands)
                if sem.step(cfg, None).tag is not StepTag.NEED_DIR:
                    assert cands == []  # silent, final or stuck: nothing to choose
                    d = None
                else:
                    steps = [
                        d for d in _directive_universe(cfg.mu)
                        if sem.step(cfg, d).tag is StepTag.STEPPED
                    ]
                    assert set(steps) <= set(cands), (sem, cfg)
                    observing[type(sem)] = observing.get(type(sem), 0) + 1
                    if not steps:
                        break
                    d = rng.choice(steps)
                r = sem.step(cfg, d)
                if r.tag is not StepTag.STEPPED:
                    break
                cfg = r.cfg
    assert len(observing) == 4
    assert min(observing.values()) >= 50
