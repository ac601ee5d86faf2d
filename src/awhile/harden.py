"""The speculative-load-hardening transformation family.

Every variant is one scheme (Baumann et al., "FSLH: Flexible Mechanized
Speculative Load Hardening", CSF 2025).  Each branch updates a reserved
flag variable ``b`` through a constant-time conditional, so that it holds 1
exactly while the processor is misspeculating, and the flag then masks
branch conditions, access indices or loaded values.  What a variant masks
is one row of a decision table, looked up by labels:

  variant        condition   read x <- a[i]     write a[i] <- e
                 by cond     by x, then i       by e, then i
                 pub sec     pp  ps  sp  ss     pp  ps  sp  ss
  islh            -   -      I   I   I   I      I   I   I   I
  sislh           -   -      I   I   -   -      -   -   I   I
  sislh-nostore   -   -      I   I   -   -      -   -   -   -
  fislh           -   G      I   I   -   I      -   I   I   I
  uslh            G   G      I   I   I   I      I   I   I   I
  svslh           -   -      V   V   -   -      -   -   -   -
  fvslh           -   G      V   I   -   I      -   I   -   I

  G   guard the condition: b = 0 && cond
  I   mask the index: (b = 1 ? 0 : i)
  V   mask the loaded value after the load: x := (b = 1 ? 0 : x)
  -   leave it alone
  pp, ps, sp, ss: the first label public or secret, then the second

sislh-nostore is sislh without store masking; it reproduces the known
counterexample and is insecure.  One translator applies every row.  The
fixed variants (harden) read their labels from a labeling P; fsfvslh
(harden_fs) is the fvslh row with its labels read from the flow-sensitive
annotation of each node.  uslh is its own row, not fislh or fvslh over an
all-secret labeling, so the tests comparing them compare independent
derivations.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .flow_ifc import (
    AARead,
    AAsgn,
    AAWrite,
    ABranch,
    ACom,
    AIf,
    ASeq,
    ASkip,
    AWhileC,
)
from .ifc_static import PUBLIC, LabelMap, label_of_expr
from .lang import (
    And,
    ARead,
    Asgn,
    AWrite,
    Cmp,
    Com,
    CTCond,
    If,
    KEYWORDS,
    Num,
    Seq,
    Skip,
    SKIP,
    Var,
    While,
    _scalar_names,
    program_names,
)
from .record import Record, _build

DEFAULT_FLAG_VAR = "b"
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class HardenVariant(Record):
    """One row of the decision table.  ``cond`` holds the action for a
    public and a secret condition; ``read`` and ``write`` hold one such
    pair for a public and for a secret first label (the read's target, the
    write's value), each indexed by the label of the index."""

    kind: str
    cond: str
    read: Tuple[str, str]
    write: Tuple[str, str]


ISLH = HardenVariant("islh", "--", ("II", "II"), ("II", "II"))
SISLH = HardenVariant("sislh", "--", ("II", "--"), ("--", "II"))
SISLH_NO_STORE_MASK = HardenVariant("sislh-nostore", "--", ("II", "--"), ("--", "--"))
FISLH = HardenVariant("fislh", "-G", ("II", "-I"), ("-I", "II"))
USLH = HardenVariant("uslh", "GG", ("II", "II"), ("II", "II"))
SVSLH = HardenVariant("svslh", "--", ("VV", "--"), ("--", "--"))
FVSLH = HardenVariant("fvslh", "-G", ("VI", "-I"), ("-I", "-I"))

# Every hardening by name: 'none' leaves the program alone, and fsfvslh
# is the fvslh row over annotation labels.
VARIANTS = {
    "none": None,
    **{v.kind: v for v in (ISLH, SISLH, SISLH_NO_STORE_MASK, FISLH, USLH, SVSLH, FVSLH)},
    "fsfvslh": FVSLH,
}


class FlagCollisionError(Exception):
    pass


class BranchNodeError(Exception):
    """Raised when the input contains a runtime branch wrapper; the
    translation is defined on analysis output only."""


class _FixedLabels:
    """Labels of the names of a command under a fixed labeling."""

    __slots__ = ("P",)

    def __init__(self, P: LabelMap):
        self.P = P

    def cond(self, c):
        return label_of_expr(self.P, c.cond)

    def target(self, c):
        return self.P.get(c.name)

    def index(self, c):
        return label_of_expr(self.P, c.index)

    def value(self, c):
        return label_of_expr(self.P, c.value)


class _Annotations:
    """Labels the flow-sensitive analysis stored on each node.  A write's
    annotation has no value label; the fvslh row never asks for one."""

    cond = staticmethod(lambda c: c.lbl)
    target = staticmethod(lambda c: c.lbl_target)
    index = staticmethod(lambda c: c.lbl_index)
    value = None


def _pick(cells, label, c):
    """cells[0] under a public label, cells[1] under a secret one; the
    label is computed only when the two differ."""
    return cells[0] if cells[0] == cells[1] or label(c) is PUBLIC else cells[1]


def _seq(first: Com, second: Com) -> Com:
    # a hardened skip branch reduces to the bare flag update
    return first if second is SKIP else _build(Seq, (first, second))


def _translate(root, row: HardenVariant, labels, flag_var: str) -> Com:
    """Harden a command or an annotated command by one table row.  The walk
    keeps an explicit work stack: a node with parts pushes a marker (its
    kind and hardened condition) beneath them, and the marker assembles the
    parts' translations from the top of ``done``.  The flag's nodes (``b``,
    ``0``, ``1``, ``b = 1``, ``b = 0``) are built once and shared by every
    mask, guard and flag update."""
    b, zero, one = Var(flag_var), Num(0), Num(1)
    b_is_1, b_is_0 = Cmp("=", b, one), Cmp("=", b, zero)
    done: List[Com] = []
    work = [root]
    while work:
        c = work.pop()
        kind = type(c)
        if kind is tuple:
            kind, guard = c
            if kind is Seq:
                second = done.pop()
                done[-1] = _build(Seq, (done[-1], second))
                continue
            # each branch sets the flag to 1 unless the condition led to it
            stay = _build(Asgn, (flag_var, _build(CTCond, (guard, b, one))))
            leave = _build(Asgn, (flag_var, _build(CTCond, (guard, one, b))))
            if kind is If:
                other = done.pop()
                done[-1] = _build(If, (guard, _seq(stay, done[-1]), _seq(leave, other)))
            else:
                loop = _build(While, (guard, _seq(stay, done[-1])))
                done[-1] = _build(Seq, (loop, leave))
        elif kind is Seq or kind is ASeq:
            work += ((Seq, None), c.second, c.first)
        elif kind in (If, AIf, While, AWhileC):
            guard = c.cond
            if _pick(row.cond, labels.cond, c) == "G":
                guard = _build(And, (b_is_0, guard))
            if kind is If or kind is AIf:
                work += ((If, guard), c.other, c.then)
            else:
                work += ((While, guard), c.body)
        elif kind is Skip or kind is ASkip:
            done.append(SKIP)
        elif kind is Asgn:
            done.append(c)
        elif kind is AAsgn:
            done.append(_build(Asgn, (c.name, c.expr)))
        elif kind is ARead or kind is AARead:
            rule = _pick(_pick(row.read, labels.target, c), labels.index, c)
            index = c.index
            if rule == "I":
                index = _build(CTCond, (b_is_1, zero, index))
            read = _build(ARead, (c.name, c.array, index))
            if rule == "V":
                loaded = _build(CTCond, (b_is_1, zero, _build(Var, (c.name,))))
                read = _build(Seq, (read, _build(Asgn, (c.name, loaded))))
            done.append(read)
        elif kind is AWrite or kind is AAWrite:
            index = c.index
            if _pick(_pick(row.write, labels.value, c), labels.index, c) == "I":
                index = _build(CTCond, (b_is_1, zero, index))
            done.append(_build(AWrite, (c.array, index, c.value)))
        elif kind is ABranch:
            raise BranchNodeError("branch wrappers only occur in runtime configurations")
        else:
            raise TypeError(f"not a command: {c!r}")
    return done[0]


def _reserve(flag_var: str, names) -> None:
    """Refuse a flag variable the hardened program could not spell: not a
    name, a keyword, or one of the program's ``names``, its scalars and its
    arrays.  ``harden`` reads them from ``lang.program_names``, which has
    them from the parser for a parsed program; ``harden_fs`` walks the
    annotated tree once."""
    if not _NAME_RE.fullmatch(flag_var) or flag_var in KEYWORDS:
        raise FlagCollisionError(f"flag variable {flag_var!r} is not a variable name")
    scalars, arrays = names
    if flag_var in scalars:
        raise FlagCollisionError(
            f"flag variable {flag_var!r} is used by the program"
        )
    if flag_var in arrays:
        raise FlagCollisionError(f"flag variable {flag_var!r} names an array of the program")


def harden(
    variant: HardenVariant,
    c: Com,
    P: LabelMap,
    PA: LabelMap,
    flag_var: str = DEFAULT_FLAG_VAR,
) -> Com:
    """Apply an SLH variant to ``c``, labels taken from P.  The flag
    variable must be reserved: a program that already uses it is
    rejected."""
    _reserve(flag_var, program_names(c))
    return _translate(c, variant, _FixedLabels(P), flag_var)


def harden_fs(acom: ACom, flag_var: str = DEFAULT_FLAG_VAR) -> Com:
    """Translate an annotated command by the fvslh row, labels taken from
    its annotations (fsfvslh).  Its names come from one walk of the
    annotated tree itself, past ``program_names``, whose one slot keeps the
    program the annotation was made from."""
    arrays = set()
    _reserve(flag_var, (_scalar_names(acom, arrays), arrays))
    return _translate(acom, FVSLH, _Annotations, flag_var)
