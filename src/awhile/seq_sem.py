"""Deterministic small-step sequential semantics with observation traces.

A step optionally emits an observation: branch outcomes for conditionals,
array name and index for reads and writes.  Loop unfolding, assignment, and
sequencing are silent.  Execution gets stuck (no successor) at skip and at
out-of-bounds array accesses.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from .lang import ARead, Asgn, AWrite, Com, If, Seq, Skip, SKIP, While, eval_aexp, eval_bexp
from .record import Record
from .state import ArrayState, OBranch, ORead, OWrite, Obs, ScalarState


class RunKind(enum.Enum):
    TERMINATED = "terminated"
    STUCK = "stuck"
    FUEL_EXHAUSTED = "fuel-exhausted"
    DIRS_EXHAUSTED = "dirs-exhausted"  # only produced by directive-driven runs

    def __str__(self):
        return self.value


class SeqOutcome(Record):
    kind: RunKind
    com: Com
    rho: ScalarState
    mu: ArrayState
    trace: Tuple[Obs, ...]


def seq_step(
    c: Com, rho: ScalarState, mu: ArrayState
) -> Optional[Tuple[Com, ScalarState, ArrayState, Optional[Obs]]]:
    """One small step; None means stuck (skip, or a failed bounds check)."""
    cls = c.__class__
    if cls is Skip:
        return None
    if cls is Asgn:
        return SKIP, rho.set(c.name, eval_aexp(rho, c.expr)), mu, None
    if cls is Seq:
        if c.first.__class__ is Skip:
            return c.second, rho, mu, None
        sub = seq_step(c.first, rho, mu)
        if sub is None:
            return None
        c1, rho1, mu1, obs = sub
        return Seq(c1, c.second), rho1, mu1, obs
    if cls is If:
        taken = eval_bexp(rho, c.cond)
        return (c.then if taken else c.other), rho, mu, OBranch(taken)
    if cls is While:
        return If(c.cond, Seq(c.body, c), SKIP), rho, mu, None
    if cls is ARead:
        i = eval_aexp(rho, c.index)
        if i >= mu.size(c.array):
            return None
        return SKIP, rho.set(c.name, mu.get(c.array, i)), mu, ORead(c.array, i)
    if cls is AWrite:
        i = eval_aexp(rho, c.index)
        if i >= mu.size(c.array):
            return None
        v = eval_aexp(rho, c.value)
        return SKIP, rho, mu.set(c.array, i, v), OWrite(c.array, i)
    raise TypeError(f"not a command: {c!r}")


def seq_run(c: Com, rho: ScalarState, mu: ArrayState, fuel: int) -> SeqOutcome:
    """Iterate seq_step up to ``fuel`` steps, noting observations in order.
    Every step costs one unit of fuel, silent or not."""
    trace: List[Obs] = []
    while fuel > 0:
        step = seq_step(c, rho, mu)
        if step is None:
            kind = RunKind.TERMINATED if isinstance(c, Skip) else RunKind.STUCK
            return SeqOutcome(kind, c, rho, mu, tuple(trace))
        c, rho, mu, obs = step
        if obs is not None:
            trace.append(obs)
        fuel -= 1
    if isinstance(c, Skip):
        return SeqOutcome(RunKind.TERMINATED, c, rho, mu, tuple(trace))
    return SeqOutcome(RunKind.FUEL_EXHAUSTED, c, rho, mu, tuple(trace))
