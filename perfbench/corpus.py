"""The benchmark's own seeded program generator.

It does not use ``awhile gen`` or ``seccheck.gen_program``, so a change to
the program's generator cannot change the benchmark's inputs.  Every
program is IFC-typed by construction under ``LABELS``; a program of the
``cct`` flavour is also constant-time typed (every branch condition and
every access index is public).  The output checks rely on this.

Loops count a dedicated counter from 0 to a constant, so every program
terminates; the counter is assigned nowhere else.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

PUBLIC_SCALARS = ("p0", "p1", "p2")
SECRET_SCALARS = ("s0", "s1")
PUBLIC_ARRAY, PUBLIC_ARRAY_SIZE = "A", 2
SECRET_ARRAY, SECRET_ARRAY_SIZE = "S", 3
PUBLIC_COUNTERS = ("l0", "l1")
SECRET_COUNTER = "t0"
LOOP_BOUND = 2

LABELS = {n: "public" for n in PUBLIC_SCALARS + PUBLIC_COUNTERS + (PUBLIC_ARRAY,)}
LABELS.update({n: "secret" for n in SECRET_SCALARS + (SECRET_COUNTER, SECRET_ARRAY)})

# (statements, flavour, lemma variant): the schedule is fixed, so the seed
# changes what the programs say but not how many there are, how large they
# are, or which checks run on them.  The largest size stays below the
# depth at which the checker's recursive tree walks fail.
SCHEDULE: Tuple[Tuple[int, str, str], ...] = tuple(
    (size, flavour, variant)
    for size, variants in (
        (2, ("fislh", "fvslh")),
        (3, ("fsfvslh", "fislh")),
        (5, ("fvslh", "fsfvslh")),
        (8, ("fislh", "fvslh")),
        (12, ("fsfvslh", "fislh")),
        (18, ("fvslh", "fsfvslh")),
        (27, ("fislh", "fvslh")),
        (40, ("fsfvslh", "fislh")),
        (60, ("fvslh", "fsfvslh")),
        (90, ("fislh", "fvslh")),
        (135, ("fsfvslh", "fislh")),
        (200, ("fvslh", "fsfvslh")),
    )
    for flavour, variant in zip(("cct", "ifc"), variants)
)


class _Gen:
    def __init__(self, rng: random.Random, flavour: str):
        self.rng = rng
        self.flavour = flavour

    def num(self) -> str:
        return str(self.rng.randrange(4))

    def aexp(self, names: Sequence[str], depth: int = 2) -> str:
        rng = self.rng
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(names) if rng.random() < 0.7 else self.num()
        roll = rng.random()
        if roll < 0.8:
            op = rng.choice("+-*")
            return f"{self.aexp(names, depth - 1)} {op} {self.aexp(names, depth - 1)}"
        return (f"({self.bexp(names, depth - 1)} ? {self.aexp(names, depth - 1)}"
                f" : {self.aexp(names, depth - 1)})")

    def bexp(self, names: Sequence[str], depth: int = 1) -> str:
        rng = self.rng
        op = rng.choice(["=", "<>", "<=", "<"])
        cmp = f"{rng.choice(names)} {op} {self.aexp(names, 0)}"
        if depth > 0 and rng.random() < 0.25:
            conj = rng.choice(["&&", "||"])
            return f"{cmp} {conj} {self.bexp(names, depth - 1)}"
        return cmp

    def index(self, names: Sequence[str], size: int) -> str:
        # mostly clamped into bounds by a constant-time conditional, so
        # runs go on; the rest fall in or out of bounds
        rng = self.rng
        var = rng.choice(names)
        if rng.random() < 0.7:
            return f"({var} < {size} ? {var} : {rng.randrange(size)})"
        return var if rng.random() < 0.5 else f"{var} - {self.num()}"

    def leaf(self, secret_pc: bool) -> str:
        rng = self.rng
        pub, sec = PUBLIC_SCALARS, SECRET_SCALARS
        everything = pub + sec
        index_names = pub if self.flavour == "cct" else everything
        kinds = ("asgn-s", "read-s", "write-s") if secret_pc else (
            "asgn-p", "asgn-s", "read-p", "read-s", "write-p", "write-s")
        kind = rng.choice(kinds)
        if kind == "asgn-p":
            return f"{rng.choice(pub)} := {self.aexp(pub)}"
        if kind == "asgn-s":
            return f"{rng.choice(sec)} := {self.aexp(everything)}"
        if kind == "read-p":
            return f"{rng.choice(pub)} <- {PUBLIC_ARRAY}[{self.index(pub, PUBLIC_ARRAY_SIZE)}]"
        if kind == "read-s":
            arr, size = rng.choice(((PUBLIC_ARRAY, PUBLIC_ARRAY_SIZE),
                                    (SECRET_ARRAY, SECRET_ARRAY_SIZE)))
            return f"{rng.choice(sec)} <- {arr}[{self.index(index_names, size)}]"
        if kind == "write-p":
            return (f"{PUBLIC_ARRAY}[{self.index(pub, PUBLIC_ARRAY_SIZE)}]"
                    f" <- {self.aexp(pub, 1)}")
        return (f"{SECRET_ARRAY}[{self.index(index_names, SECRET_ARRAY_SIZE)}]"
                f" <- {self.aexp(everything, 1)}")

    def block(self, n: int, secret_pc: bool, nested: bool) -> Tuple[List[str], int]:
        """Statements totalling at least n (a control statement counts one
        plus its body); returns them unjoined with their count."""
        rng = self.rng
        stmts: List[str] = []
        count = 0
        while count < n:
            roll = rng.random()
            if not nested and n - count >= 4 and roll < 0.2:
                more, k = self.branch(min(n - count - 1, rng.randrange(2, 7)), secret_pc)
            elif not nested and n - count >= 5 and roll < 0.3:
                more, k = self.loop(min(n - count - 3, rng.randrange(2, 6)))
            else:
                more, k = [self.leaf(secret_pc)], 1
            stmts.extend(more)
            count += k
        return stmts, count

    def branch(self, n: int, secret_pc: bool) -> Tuple[List[str], int]:
        secret_cond = self.flavour == "ifc" and (secret_pc or self.rng.random() < 0.5)
        cond = self.bexp(SECRET_SCALARS if secret_cond else PUBLIC_SCALARS)
        inner_secret = secret_pc or secret_cond
        then, k1 = self.block(max(1, n // 2), inner_secret, True)
        other, k2 = self.block(max(1, n - n // 2), inner_secret, True)
        text = f"if {cond} then\n{_indent(then)}\nelse\n{_indent(other)}\nend"
        return [text], 1 + k1 + k2

    def loop(self, n: int) -> Tuple[List[str], int]:
        rng = self.rng
        if self.flavour == "ifc" and rng.random() < 0.4:
            ctr, secret_loop = SECRET_COUNTER, True
        else:
            ctr, secret_loop = rng.choice(PUBLIC_COUNTERS), False
        body, k = self.block(n, secret_loop, True)
        body.append(f"{ctr} := {ctr} + 1")
        text = f"while {ctr} < {LOOP_BOUND} do\n{_indent(body)}\nend"
        return [f"{ctr} := 0", text], 3 + k


def _join(stmts: List[str]) -> str:
    return ";\n".join(stmts)


def _indent(stmts: List[str]) -> str:
    return "\n".join("  " + ln for ln in _join(stmts).splitlines())


def program(rng: random.Random, statements: int, flavour: str) -> str:
    """Program text of at least the given number of statements; flavour
    "cct" is constant-time typed, "ifc" IFC-typed only."""
    stmts, _ = _Gen(rng, flavour).block(statements, False, False)
    return _join(stmts) + "\n"


def labels_text() -> str:
    return "".join(f"{n}: {lab}\n" for n, lab in sorted(LABELS.items()))


def space_spec(rng: random.Random, statements: int):
    """State space as (scalars, arrays): every public name gets one value
    and the secret scalars vary, so all states are public-equivalent.
    Larger programs get fewer states, since the lemma checks pair them."""
    scalars = [(n, (rng.randrange(1, 4),)) for n in PUBLIC_SCALARS]
    scalars += [(n, (0,)) for n in PUBLIC_COUNTERS + (SECRET_COUNTER,)]
    lo = rng.randrange(0, 3)
    scalars.append(("s0", (lo, lo + 1 + rng.randrange(3))))
    if statements <= 40:
        hi = rng.randrange(0, 3)
        scalars.append(("s1", (hi, hi + 1 + rng.randrange(3))))
    arrays = [
        (PUBLIC_ARRAY, PUBLIC_ARRAY_SIZE, (rng.randrange(1, 4),)),
        (SECRET_ARRAY, SECRET_ARRAY_SIZE, (rng.randrange(0, 4),)),
    ]
    return tuple(scalars), tuple(arrays)
