"""Ideal semantics: the speculative stepper under the masking policy of
each hardening variant.

These serve as per-variant specifications of hardened programs: a hardened
program under the plain speculative semantics moves in lockstep with the
source program under the matching ideal semantics (backwards compiler
correctness), so security of the ideal semantics transfers to the hardened
code.

``IdealFiSLH`` and ``IdealFvSLH`` are ``spec_sem.step_ex`` under the
variant's policy table and a fixed labeling.  All variants read a secret
branch condition as false while misspeculating; the policies differ in when
access indices and loaded values are masked to 0 and in which misspeculated
accesses get stuck.  ``IdealFS``, the flow-sensitive variant, steps
annotated commands with its own structural rules (a dynamic pc label and
labelings, carried for the well-labeledness argument) and takes every
access decision from the fvslh policy, applied through the shared read and
write rules to the labels in the annotations.

Its configurations are focused like ``SpecConfig``, so a step costs the
same at any nesting depth; a branch wrapper is a pc label saved on the
stack, restored when the finished branch is popped.
"""

from __future__ import annotations

from typing import Callable, List, Optional

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
from .lang import eval_aexp, eval_bexp
from .record import Record
from .spec_sem import (
    NEED_DIR,
    SPEC,
    STEPPED,
    STUCK,
    StepResult,
    candidate_dirs,
    read_rule,
    step_ex,
    write_rule,
)
from .state import (
    ArrayState, Dir, DForce, DStep, OBranch, ORead, OWrite, ScalarState, SpecConfig, focus_ids,
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


class _FixedLabeling(Record):
    """step_ex under the variant's policy and the fixed scalar labeling P,
    with a loop table of its own (see ``step_ex``), kept out of its fields."""

    __slots__ = ("__dict__",)  # for the loop table
    P: LabelMap
    PA: LabelMap

    policy = None  # set by each variant

    def __new__(cls, fields):
        self = tuple.__new__(cls, fields)
        object.__setattr__(self, "loops", {})
        return self

    def step(self, cfg: SpecConfig, d: Optional[Dir]) -> StepResult:
        return step_ex(cfg, d, self.policy, self.P, self.loops)

    @staticmethod
    def candidates(cfg: SpecConfig) -> List[Dir]:
        return candidate_dirs(cfg, True)

    is_final = staticmethod(SPEC.is_final)


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
        while isinstance(acom, (ASeq, ABranch)):
            if isinstance(acom, ASeq):
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
        ids, rho, mu = focus_ids(self.redex, self.k), self.rho.frozen(), self.mu.frozen()
        return (ids, rho, mu, self.flag, self.pc, self.P, self.PA)

    def __repr__(self):
        return (
            f"FsIdealConfig({self.acom!r}, {self.rho!r}, {self.mu!r}, {self.flag!r}, "
            f"{self.pc!r}, {self.P!r}, {self.PA!r})"
        )


def _step_fs(cfg: FsIdealConfig, d: Optional[Dir], loops: dict) -> StepResult:
    """As ``step_ex`` with a loops table: a ``while`` unfolds to the same
    annotated command every time, so configurations that reach one loop
    head by different paths have equal keys."""
    a, k, rho, mu, flag = cfg.redex, cfg.k, cfg.rho, cfg.mu, cfg.flag
    pc, P, PA = cfg.pc, cfg.P, cfg.PA
    cls = a.__class__
    if cls is ASkip:
        # drop the finished head; each branch left on the way restores the
        # pc it saved, so the outermost one's pc holds after the drop
        while k is not None:
            top, k = k
            if top.__class__ is ASeq:
                return StepResult(STEPPED, FsIdealConfig(top.second, rho, mu, flag, pc, P, PA, k))
            pc = top
        return STUCK
    if cls is AAsgn:
        rho2 = rho.set(a.name, eval_aexp(rho, a.expr))
        P2 = P.set(a.name, label_of_expr(P, a.expr))
        return StepResult(STEPPED, FsIdealConfig(ASKIP, rho2, mu, flag, pc, P2, PA, k))
    if cls is AWhileC:
        unfolded = loops.get(id(a))
        if unfolded is None:
            # the unfolded command holds the loop, so the id stays valid
            unfolded = loops[id(a)] = AIf(a.cond, ASeq(a.body, a, a.fix), ASKIP, a.lbl)
        return StepResult(STEPPED, FsIdealConfig(unfolded, rho, mu, flag, pc, P, PA, k))
    # the remaining commands observe
    if d is None:
        return NEED_DIR
    if cls is AIf:
        taken = eval_bexp(rho, a.cond)
        if flag and taken:
            taken = a.lbl.is_public  # a secret condition reads as false
        if d.__class__ is DStep:
            succ, flag2 = (a.then if taken else a.other), flag
        elif d.__class__ is DForce:
            succ, flag2 = (a.other if taken else a.then), True
        else:
            return STUCK
        # entering the branch saves the pc on the stack
        cfg2 = FsIdealConfig(succ, rho, mu, flag2, join(pc, a.lbl), P, PA, (pc, k))
        return StepResult(STEPPED, cfg2, OBranch(taken), 1)
    if cls is AARead:
        li, lx = a.lbl_index, a.lbl_target
        r = read_rule(_FVSLH_POLICY, li, lx, rho, mu, flag, a.array, a.index, d)
        if r is None:
            return STUCK
        v, i, flag2 = r
        cfg2 = FsIdealConfig(ASKIP, rho.set(a.name, v), mu, flag2, pc, P.set(a.name, lx), PA, k)
        return StepResult(STEPPED, cfg2, ORead(a.array, i), 1)
    if cls is AAWrite:
        li, le = a.lbl_index, label_of_expr(P, a.value)
        r = write_rule(_FVSLH_POLICY, li, le, rho, mu, flag, a.array, a.index, a.value, d)
        if r is None:
            return STUCK
        mu2, i, flag2 = r
        if d.__class__ is DStep:
            le = join(li, le)  # an architectural write also carries its index label
        PA2 = PA.set(a.array, join(PA.get(a.array), join(pc, le)))
        cfg2 = FsIdealConfig(ASKIP, rho, mu2, flag2, pc, P, PA2, k)
        return StepResult(STEPPED, cfg2, OWrite(a.array, i), 1)
    raise TypeError(f"not an annotated command: {a!r}")


class IdealFS:
    """The flow-sensitive ideal semantics over FsIdealConfig, with a loop
    table of its own (see ``_step_fs``)."""

    def __init__(self):
        self.loops = {}

    def step(self, cfg: FsIdealConfig, d: Optional[Dir]) -> StepResult:
        return _step_fs(cfg, d, self.loops)

    @staticmethod
    def candidates(cfg: FsIdealConfig) -> List[Dir]:
        return candidate_dirs(cfg, True)

    @staticmethod
    def is_final(cfg: FsIdealConfig) -> bool:
        """skip with only saved pc labels left on the stack."""
        if not isinstance(cfg.redex, ASkip):
            return False
        k = cfg.k
        while k is not None:
            if isinstance(k[0], ASeq):
                return False
            k = k[1]
        return True
