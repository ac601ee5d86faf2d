"""Random programs, states, labelings and speculative walks, for the
property tests, the random trials of ``bcc`` and ``awhile gen``.  Every
generator is deterministic in its seed or its ``random.Random``; none of
them checks anything.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from .ifc_static import LabelMap, PUBLIC
from .lang import (
    And, ARead, Asgn, AWrite, BinOp, BoolLit, Cmp, Com, CTCond, If, Not, Num, Or, Seq,
    Skip, SKIP, Var, While, vars_of_expr,
)
from .record import Record
from .spec_sem import Speculative, advance, feasible
from .state import ArrayState, Dir, ScalarState, SpecConfig


class NamePools(Record):
    scalars: Tuple[str, ...] = ("x", "y", "z", "i", "k")
    arrays: Tuple[str, ...] = ("a", "c")


def _gen_aexp(rng: random.Random, pools: NamePools, depth: int, need_var: bool):
    if depth <= 0:
        if need_var or rng.random() < 0.6:
            return Var(rng.choice(pools.scalars))
        return Num(rng.randrange(4))
    roll = rng.random()
    if roll < 0.35:
        e = Var(rng.choice(pools.scalars)) if rng.random() < 0.7 else Num(rng.randrange(4))
    elif roll < 0.9:
        op = rng.choice("+-*")
        e = BinOp(
            op,
            _gen_aexp(rng, pools, depth - 1, False),
            _gen_aexp(rng, pools, depth - 1, False),
        )
    else:
        e = CTCond(
            _gen_bexp(rng, pools, depth - 1, False),
            _gen_aexp(rng, pools, depth - 1, False),
            _gen_aexp(rng, pools, depth - 1, False),
        )
    if need_var and not vars_of_expr(e):
        e = BinOp("+", Var(rng.choice(pools.scalars)), e)
    return e


def _gen_bexp(rng: random.Random, pools: NamePools, depth: int, need_var: bool):
    roll = rng.random()
    if depth > 0 and roll < 0.15:
        return Not(_gen_bexp(rng, pools, depth - 1, need_var))
    if depth > 0 and roll < 0.3:
        ctor = And if rng.random() < 0.5 else Or
        return ctor(
            _gen_bexp(rng, pools, depth - 1, need_var),
            _gen_bexp(rng, pools, depth - 1, False),
        )
    if not need_var and roll > 0.92:
        return BoolLit(rng.random() < 0.5)
    op = rng.choice(["=", "<>", "<=", "<"])
    return Cmp(
        op,
        _gen_aexp(rng, pools, 1, need_var),
        _gen_aexp(rng, pools, 1, False),
    )


def _gen_leaf(rng: random.Random, pools: NamePools, assignable: Tuple[str, ...]) -> Com:
    kinds = ["asgn", "skip"]
    if pools.arrays:
        kinds += ["aread", "awrite", "awrite"]
    kind = rng.choice(kinds)
    if kind == "skip" or (kind in ("asgn", "aread") and not assignable):
        return SKIP
    if kind == "asgn":
        return Asgn(rng.choice(assignable), _gen_aexp(rng, pools, 2, False))
    if kind == "aread":
        return ARead(
            rng.choice(assignable),
            rng.choice(pools.arrays),
            _gen_aexp(rng, pools, 1, True),
        )
    return AWrite(
        rng.choice(pools.arrays),
        _gen_aexp(rng, pools, 1, True),
        _gen_aexp(rng, pools, 1, False),
    )


def _rseq(first: Com, second: Com) -> Com:
    # keep sequences right-nested, the shape the grammar produces
    if isinstance(first, Seq):
        return Seq(first.first, _rseq(first.second, second))
    return Seq(first, second)


def _gen_com(
    rng: random.Random, pools: NamePools, budget: int, assignable: Tuple[str, ...]
) -> Com:
    if budget <= 1:
        return _gen_leaf(rng, pools, assignable)
    roll = rng.random()
    if roll < 0.35 and budget >= 3:
        left = rng.randrange(1, budget - 1)
        return _rseq(
            _gen_com(rng, pools, left, assignable),
            _gen_com(rng, pools, budget - left - 1, assignable),
        )
    if roll < 0.6 and budget >= 3:
        half = (budget - 1) // 2
        return If(
            _gen_bexp(rng, pools, 1, True),
            _gen_com(rng, pools, half, assignable),
            _gen_com(rng, pools, budget - 1 - half, assignable),
        )
    if roll < 0.72 and budget >= 4 and len(assignable) > 1:
        # bounded loop: a counter strictly increases toward a small constant
        # and is not assigned anywhere else in the body
        ctr = rng.choice(assignable)
        inner = tuple(n for n in assignable if n != ctr)
        body = _gen_com(rng, pools, budget - 3, inner)
        cond = Cmp("<", Var(ctr), Num(rng.randrange(1, 4)))
        return While(cond, _rseq(body, Asgn(ctr, BinOp("+", Var(ctr), Num(1)))))
    return _gen_leaf(rng, pools, assignable)


def gen_program(seed: int, size_budget: int, pools: NamePools = NamePools()) -> Com:
    """Deterministic pseudo-random program within a node budget.  Loops are
    generated with a strictly increasing counter bounded by a constant, so
    every generated program terminates under modest fuel."""
    rng = random.Random(seed)
    return _gen_com(rng, pools, size_budget, pools.scalars)


def count_nodes(c: Com) -> int:
    if isinstance(c, (Skip, Asgn, ARead, AWrite)):
        return 1
    if isinstance(c, Seq):
        return 1 + count_nodes(c.first) + count_nodes(c.second)
    if isinstance(c, If):
        return 1 + count_nodes(c.then) + count_nodes(c.other)
    if isinstance(c, While):
        return 1 + count_nodes(c.body)
    raise TypeError(f"not a command: {c!r}")


def random_state(
    rng: random.Random,
    pools: NamePools,
    max_value: int = 3,
    max_array_size: int = 3,
) -> Tuple[ScalarState, ArrayState]:
    """Random small state covering every pooled name; arrays are non-empty."""
    rho = ScalarState({n: rng.randrange(max_value + 1) for n in pools.scalars})
    mu = ArrayState(
        {
            n: tuple(
                rng.randrange(max_value + 1)
                for _ in range(rng.randrange(1, max_array_size + 1))
            )
            for n in pools.arrays
        }
    )
    return rho, mu


def random_labeling(rng: random.Random, pools: NamePools) -> Tuple[LabelMap, LabelMap]:
    P = LabelMap({n: PUBLIC for n in pools.scalars if rng.random() < 0.5})
    PA = LabelMap({n: PUBLIC for n in pools.arrays if rng.random() < 0.5})
    return P, PA


def random_spec_walk(
    rng: random.Random, sem: Speculative, cfg: SpecConfig, max_dirs: int, fuel: int
) -> List[Dir]:
    """Drive a speculative run under ``sem`` (the caller's ``Speculative``,
    whose per-check table its runs share) by picking a random feasible
    directive at every observing redex; returns the consumed directive
    list."""
    dirs: List[Dir] = []
    while len(dirs) < max_dirs:
        cfg, used, kind = advance(sem, cfg, fuel)
        fuel -= used
        if kind is not None:
            break
        feas = feasible(sem, cfg)
        if not feas:
            break
        d = rng.choice(feas)
        cfg = sem.step(cfg, d).cfg
        dirs.append(d)
        fuel -= 1
    return dirs
