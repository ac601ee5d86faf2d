"""A fixed reference loop that measures how fast the host runs Python right
now, so that measured times can be stated at one fixed host speed.

On the shared 2-vCPU VM the bounds were set on, the same work takes up to
twice as long from one minute to the next, and the best time over a
25-second run still drifted by up to 75% between runs minutes apart.
Dividing each measured time by the slowdown of a reference loop run right
after it removes that drift: see README.md for the figures.

The loop is a tiny small-step interpreter in the style of awhile's own
code (frozen dataclasses, isinstance dispatch, recursion, dict copies),
because contention slows different code differently and this kind of code
tracks awhile.  It uses nothing from awhile, so no change to the program
can move it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# The loop's time on that VM when quiet.  A measured time divided by
# slowdown() is the time the work would take at that speed.
REFERENCE_S = 0.0075


@dataclass(frozen=True)
class _Num:
    value: int


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class _Set:
    name: str
    expr: object


@dataclass(frozen=True)
class _Seq:
    first: object
    second: object


@dataclass(frozen=True)
class _Loop:
    counter: str
    bound: int
    body: object


_SKIP = _Num(0)


def _eval(e, env) -> int:
    if isinstance(e, _Num):
        return e.value
    if isinstance(e, _Var):
        return env.get(e.name, 0)
    a, b = _eval(e.left, env), _eval(e.right, env)
    if e.op == "+":
        return a + b
    if e.op == "*":
        return a * b % 1009
    return max(a - b, 0)


def _step(c, env):
    if isinstance(c, _Set):
        env2 = dict(env)
        env2[c.name] = _eval(c.expr, env)
        return _SKIP, env2
    if isinstance(c, _Seq):
        if c.first is _SKIP:
            return c.second, env
        first, env2 = _step(c.first, env)
        return _Seq(first, c.second), env2
    if env.get(c.counter, 0) >= c.bound:  # _Loop
        return _SKIP, env
    env2 = dict(env)
    env2[c.counter] = env.get(c.counter, 0) + 1
    return _Seq(c.body, c), env2


def _program():
    body = _SKIP
    for i in range(12):
        expr = _Bin("+*-"[i % 3], _Var("xyz"[i % 3]), _Bin("+", _Var("y"), _Num(i)))
        stmt = _Set("xyz"[(i + 1) % 3], expr)
        body = stmt if body is _SKIP else _Seq(stmt, body)
    return _Loop("i", 200, body)


_PROGRAM = _program()


def run() -> dict:
    c, env = _PROGRAM, {"x": 1, "y": 2, "z": 3}
    while c is not _SKIP:
        c, env = _step(c, env)
    return env


def slowdown() -> float:
    """How many times longer than REFERENCE_S the loop takes right now."""
    t = time.perf_counter()
    run()
    return (time.perf_counter() - t) / REFERENCE_S
