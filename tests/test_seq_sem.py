from hypothesis import given, settings
from hypothesis import strategies as st

from awhile.gen import gen_program
from awhile.lang import (
    ARead,
    Asgn,
    BoolLit,
    Num,
    Seq,
    SKIP,
    While,
    parse_com,
)
from awhile.seq_sem import RunKind, seq_run, seq_step
from awhile.state import ArrayState, OBranch, ORead, ScalarState, parse_state

LISTING1 = parse_com("if i < a1_size then j <- a1[i]; x <- a2[j] end")

EX2_STATE = "a1_size = 4\na1 = [0,7,1,2]\na2 = [%s]" % ",".join(["0"] * 1000)


def _ex2(i):
    rho, mu = parse_state(EX2_STATE)
    return rho.set("i", i), mu


def test_seq_skip_rule():
    rho, mu = ScalarState(), ArrayState()
    com = Seq(SKIP, Asgn("x", Num(1)))
    assert seq_step(com, rho, mu) == (Asgn("x", Num(1)), rho, mu, None)


def test_if_step_emits_branch_observation():
    rho, mu = _ex2(1)
    com2, rho2, mu2, obs = seq_step(LISTING1, rho, mu)
    assert obs == OBranch(True)
    assert com2 == LISTING1.then
    assert (rho2, mu2) == (rho, mu)


def test_out_of_bounds_read_is_stuck():
    rho, mu = ScalarState(), ArrayState({"a1": (1, 2, 3, 4)})
    assert seq_step(ARead("x", "a1", Num(9)), rho, mu) is None


def test_skip_is_stuck():
    assert seq_step(SKIP, ScalarState(), ArrayState()) is None


def test_valid_access_trace():
    rho, mu = _ex2(1)
    out = seq_run(LISTING1, rho, mu, 100)
    assert out.kind is RunKind.TERMINATED
    assert out.trace == (OBranch(True), ORead("a1", 1), ORead("a2", 7))


def test_invalid_access_trace():
    rho, mu = _ex2(4)
    out = seq_run(LISTING1, rho, mu, 100)
    assert out.kind is RunKind.TERMINATED
    assert out.trace == (OBranch(False),)


def _loop_oracle(fuel):
    """Independent simulation of while true do skip end: the unfolding
    cycle is unfold (silent), branch (observed), drop skip (silent)."""
    trace = []
    phase, steps = 0, 0
    while steps < fuel:
        if phase == 1:
            trace.append(OBranch(True))
        phase = (phase + 1) % 3
        steps += 1
    return tuple(trace)


def test_infinite_loop_exhausts_fuel():
    out = seq_run(While(BoolLit(True), SKIP), ScalarState(), ArrayState(), 10)
    assert out.kind is RunKind.FUEL_EXHAUSTED
    assert out.trace == _loop_oracle(10)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 500))
def test_determinism_and_trace_monotonicity(seed):
    com = gen_program(seed, 10)
    rho, mu = parse_state("x = 1\ni = 0\na = [1,2]\nc = [3]")
    full = seq_run(com, rho, mu, 300)
    # a single-step function: re-running yields the identical outcome
    again = seq_run(com, rho, mu, 300)
    assert full == again
    # smaller fuel yields a prefix
    for fuel in (0, 3, 17, 80):
        part = seq_run(com, rho, mu, fuel)
        assert full.trace[: len(part.trace)] == part.trace
