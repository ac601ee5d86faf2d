"""Ideal semantics: the speculative stepper under the masking policy of
each hardening variant.

These serve as per-variant specifications of hardened programs: a hardened
program under the plain speculative semantics moves in lockstep with the
source program under the matching ideal semantics (backwards compiler
correctness), so security of the ideal semantics transfers to the hardened
code.

``IdealFiSLH`` and ``IdealFvSLH`` are subclasses of
``spec_sem.Speculative``: its ``step`` (``step_ex``) and ``advance`` (its
silent loop) under the variant's policy table and a fixed labeling.  All
variants read a secret branch condition as false while misspeculating; the
policies differ in when access indices and loaded values are masked to 0
and in which misspeculated accesses get stuck.  ``IdealFS``, the
flow-sensitive variant, steps annotated commands with its own structural
rules (a dynamic pc label and labelings, carried for the well-labeledness
argument) and takes every access decision from the fvslh policy, applied
through the shared read and write rules to the labels in the annotations.

Its configurations are focused like ``SpecConfig``, so a step costs the
same at any nesting depth; a branch wrapper is a pc label saved on the
stack, restored when the finished branch is popped.  Its silent rules
(assignment with its label update, dropping ``skip`` with the pc restore,
unfolding ``while``) are one loop, ``_silent_fs``, as in ``spec_sem``; it
is ``IdealFS.advance``, and ``_step_fs`` is ``IdealFS.step``.  It
evaluates expressions through its own per-check table.
"""

from __future__ import annotations

from typing import Callable, Optional

from .flow_ifc import (
    AARead,
    AAsgn,
    AAWrite,
    ABranch,
    ACom,
    AIf,
    ASeq,
    ASkip,
    ASKIP,
    AWhileC,
)
from .ifc_static import Label, LabelMap, join, label_of_expr
from .lang import compiled
from .record import Record, _build
from .seq_sem import RunKind
from .spec_sem import (
    NEED_DIR,
    STEPPED,
    STUCK,
    Speculative,
    StepResult,
    candidate_classes,
    candidate_dirs,
    read_rule,
    successors_by_step,
    write_rule,
)
from .state import (
    ArrayState, BRANCH_OBS, Dir, DForce, DStep, ORead, OWrite, ScalarState, focus_ids,
)

# ---------------------------------------------------------------------------
# Masking policies
# ---------------------------------------------------------------------------


class _Policy(Record):
    """When a variant masks an access, from the labels of the index (li),
    the read target (lx) and the written value (le)."""

    read_mask_index: Callable[[bool, Label, Label], bool]
    read_mask_value: Callable[[bool, Label, Label], bool]
    read_force_ok: Callable[[Label, Label], bool]
    read_force_mask_value: Callable[[Label], bool]
    write_mask_index: Callable[[bool, Label, Label], bool]
    write_force_ok: Callable[[Label, Label], bool]


_FISLH_POLICY = _Policy(
    read_mask_index=lambda flag, li, lx: flag and (not li.is_public or lx.is_public),
    read_mask_value=lambda flag, li, lx: False,
    read_force_ok=lambda li, lx: li.is_public and not lx.is_public,
    read_force_mask_value=lambda lx: False,
    write_mask_index=lambda flag, li, le: flag and (not li.is_public or not le.is_public),
    write_force_ok=lambda li, le: li.is_public and le.is_public,
)

_FVSLH_POLICY = _Policy(
    read_mask_index=lambda flag, li, lx: flag and not li.is_public,
    read_mask_value=lambda flag, li, lx: flag and li.is_public and lx.is_public,
    read_force_ok=lambda li, lx: li.is_public,
    read_force_mask_value=lambda lx: lx.is_public,
    write_mask_index=lambda flag, li, le: flag and not li.is_public,
    write_force_ok=lambda li, le: li.is_public,
)


# ---------------------------------------------------------------------------
# The labeling-based variants: the stepper under a policy and fixed P/PA
# ---------------------------------------------------------------------------


class _FixedLabeling(Speculative):
    """The speculative semantics under the variant's policy and the fixed
    labeling P of scalars (no rule reads an array labeling), with a
    per-check ``labels`` table beside ``table``: the labels of the
    expressions under P (``spec_sem.fixed_label``)."""

    masked = True

    def __init__(self, P: LabelMap):
        super().__init__()
        self.P, self.labels = P, {}


class IdealFiSLH(_FixedLabeling):
    policy = _FISLH_POLICY


class IdealFvSLH(_FixedLabeling):
    policy = _FVSLH_POLICY


# ---------------------------------------------------------------------------
# The flow-sensitive variant (annotated commands)
# ---------------------------------------------------------------------------


class FsIdealConfig:
    """Configuration of the flow-sensitive ideal semantics, focused: the
    redex (never a sequence or branch wrapper), the stack, the stores, the
    flag, and the dynamic pc label and labelings.  A stack entry is an
    annotated sequence, whose second half runs next, or the pc label a
    branch wrapper saved.  Built from an annotated command like
    ``SpecConfig``; ``acom`` folds the stack back, wrappers included."""

    __slots__ = ("redex", "k", "rho", "mu", "flag", "pc", "P", "PA")

    def __init__(self, acom: ACom, rho: ScalarState, mu: ArrayState, flag: bool,
                 pc: Label, P: LabelMap, PA: LabelMap, k=None):
        while acom.__class__ is ASeq or acom.__class__ is ABranch:
            if acom.__class__ is ASeq:
                k, acom = (acom, k), acom.first
            else:
                k, acom = (acom.lbl, k), acom.body
        self.redex, self.k, self.rho, self.mu, self.flag = acom, k, rho, mu, flag
        self.pc, self.P, self.PA = pc, P, PA

    @property
    def acom(self) -> ACom:
        a, k = self.redex, self.k
        while k is not None:
            top, k = k
            a = ASeq(a, top.second, top.mid) if isinstance(top, ASeq) else ABranch(top, a)
        return a

    def key(self):
        """As ``SpecConfig.key``, with the pc label and the labelings."""
        rho, mu = self.rho, self.mu
        return (focus_ids(self.redex, self.k), rho._f or rho.frozen(), mu._f or mu.frozen(),
                self.flag, self.pc, self.P, self.PA)

    def __repr__(self):
        return (
            f"FsIdealConfig({self.acom!r}, {self.rho!r}, {self.mu!r}, {self.flag!r}, "
            f"{self.pc!r}, {self.P!r}, {self.PA!r})"
        )


def _silent_fs(sem, cfg: FsIdealConfig, fuel: int):
    """As ``spec_sem.silent_steps``, over annotated commands.  Dropping a
    finished ``skip`` head also pops the pc labels that the branches left on
    the way saved, and the outermost one's pc holds after the drop; an
    assignment also gives its target the label of its expression."""
    table = sem.table
    a, k, pc, P, m = cfg.redex, cfg.k, cfg.pc, cfg.P, None
    used, kind = 0, RunKind.FUEL_EXHAUSTED
    while used < fuel:
        cls = a.__class__
        if cls is AAsgn:
            if m is None:
                m = dict(cfg.rho._m)  # copied once, then updated in place
            v = compiled(table, a.expr)(m)
            if v:
                m[a.name] = v
            else:
                m.pop(a.name, None)  # a zero binding equals the default
            P = P.set(a.name, label_of_expr(P, a.expr))
            a = ASKIP
        elif cls is ASkip:
            rest, saved = k, pc
            while rest is not None:
                top, rest = rest
                if top.__class__ is ASeq:
                    break
                saved = top
            else:
                kind = RunKind.TERMINATED  # only saved pc labels are left
                break
            a, k, pc = top.second, rest, saved
            while a.__class__ is ASeq or a.__class__ is ABranch:
                if a.__class__ is ASeq:
                    k, a = (a, k), a.first
                else:
                    k, a = (a.lbl, k), a.body
        elif cls is AWhileC:
            unfolded = table.get(id(a))
            if unfolded is None:
                # the unfolded command holds the loop, so the id stays valid
                unfolded = table[id(a)] = AIf(a.cond, ASeq(a.body, a, a.fix), ASKIP, a.lbl)
            a = unfolded
        else:
            kind = None  # an observing redex
            break
        used += 1
    if used:
        rho = cfg.rho if m is None else ScalarState.adopt(m)
        cfg = FsIdealConfig(a, rho, cfg.mu, cfg.flag, pc, P, cfg.PA, k)
    if kind is RunKind.FUEL_EXHAUSTED and IdealFS.is_final(cfg):
        kind = RunKind.TERMINATED
    return cfg, used, kind


def _step_fs(sem, cfg: FsIdealConfig, d: Optional[Dir]) -> StepResult:
    """As ``step_ex``: a silent redex takes one step of ``_silent_fs``.
    Every access decision comes from the fvslh policy, applied to the
    labels in the annotations."""
    a = cfg.redex
    cls = a.__class__
    if cls is AAsgn or cls is ASkip or cls is AWhileC:
        cfg2, used, _ = _silent_fs(sem, cfg, 1)
        return StepResult(STEPPED, cfg2) if used else STUCK
    # the remaining commands observe
    if d is None:
        return NEED_DIR
    k, rho, mu, flag, table = cfg.k, cfg.rho, cfg.mu, cfg.flag, sem.table
    pc, P, PA = cfg.pc, cfg.P, cfg.PA
    if cls is AIf:
        if flag and not a.lbl.is_public:
            taken = False  # a secret condition reads as false while misspeculating
        else:
            taken = compiled(table, a.cond)(rho._m)
        if d.__class__ is DStep:
            succ, flag2 = (a.then if taken else a.other), flag
        elif d.__class__ is DForce:
            succ, flag2 = (a.other if taken else a.then), True
        else:
            return STUCK
        # entering the branch saves the pc on the stack
        cfg2 = FsIdealConfig(succ, rho, mu, flag2, join(pc, a.lbl), P, PA, (pc, k))
        return StepResult(STEPPED, cfg2, BRANCH_OBS[taken], 1)
    if cls is AARead:
        li, lx = a.lbl_index, a.lbl_target
        r = read_rule(_FVSLH_POLICY, li, lx, table, rho, mu, flag, a.array, a.index, d)
        if r is None:
            return STUCK
        v, i, flag2 = r
        cfg2 = FsIdealConfig(ASKIP, rho.set(a.name, v), mu, flag2, pc, P.set(a.name, lx), PA, k)
        return StepResult(STEPPED, cfg2, _build(ORead, (a.array, i)), 1)
    if cls is AAWrite:
        li, le = a.lbl_index, label_of_expr(P, a.value)
        r = write_rule(_FVSLH_POLICY, li, le, table, rho, mu, flag, a.array, a.index, a.value, d)
        if r is None:
            return STUCK
        mu2, i, flag2 = r
        if d.__class__ is DStep:
            le = join(li, le)  # an architectural write also carries its index label
        PA2 = PA.set(a.array, join(PA.get(a.array), join(pc, le)))
        cfg2 = FsIdealConfig(ASKIP, rho, mu2, flag2, pc, P, PA2, k)
        return StepResult(STEPPED, cfg2, _build(OWrite, (a.array, i)), 1)
    raise TypeError(f"not an annotated command: {a!r}")


class IdealFS:
    """The flow-sensitive ideal semantics over FsIdealConfig, with a
    per-check table of its own (see ``Speculative``)."""

    masked = True

    def __init__(self):
        self.table = {}

    step = _step_fs
    advance = _silent_fs
    successors = successors_by_step  # fused per rule only for the fixed labelings
    candidates = candidate_dirs
    classes = candidate_classes

    @staticmethod
    def is_final(cfg: FsIdealConfig) -> bool:
        """skip with only saved pc labels left on the stack."""
        if cfg.redex.__class__ is not ASkip:
            return False
        k = cfg.k
        while k is not None:
            if k[0].__class__ is ASeq:
                return False
            k = k[1]
        return True
