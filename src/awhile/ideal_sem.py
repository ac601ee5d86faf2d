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
annotated commands with its own structural rules (branch wrappers, a
dynamic pc label and labelings, carried for the well-labeledness argument)
and takes every access decision from the fvslh policy, applied through the
shared read and write rules to the labels in the annotations.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    pc_of_acom,
    terminal,
)
from .ifc_static import Label, LabelMap, join, label_of_expr
from .lang import Skip, eval_aexp, eval_bexp
from .spec_sem import (
    NEED_DIR,
    STUCK,
    StepResult,
    StepTag,
    candidate_dirs,
    head_redex,
    read_rule,
    step_ex,
    write_rule,
)
from .state import ArrayState, Dir, DForce, DStep, OBranch, ORead, OWrite, ScalarState, SpecConfig

# ---------------------------------------------------------------------------
# Masking policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Policy:
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


@dataclass(frozen=True)
class _FixedLabeling:
    """step_ex under the variant's policy and the fixed scalar labeling P."""

    P: LabelMap
    PA: LabelMap

    policy = None  # set by each variant

    def step(self, cfg: SpecConfig, d: Optional[Dir]) -> StepResult:
        return step_ex(cfg, d, self.policy, self.P)

    @staticmethod
    def candidates(cfg: SpecConfig) -> List[Dir]:
        return candidate_dirs(head_redex(cfg.com), cfg, True)

    @staticmethod
    def is_final(cfg: SpecConfig) -> bool:
        return isinstance(cfg.com, Skip)


@dataclass(frozen=True)
class IdealFiSLH(_FixedLabeling):
    policy = _FISLH_POLICY


@dataclass(frozen=True)
class IdealFvSLH(_FixedLabeling):
    policy = _FVSLH_POLICY


# ---------------------------------------------------------------------------
# The flow-sensitive variant (annotated commands)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FsIdealConfig:
    """Configuration of the flow-sensitive ideal semantics: an annotated
    command plus the dynamic pc label and labelings."""

    acom: ACom
    rho: ScalarState
    mu: ArrayState
    flag: bool
    pc: Label
    P: LabelMap
    PA: LabelMap


def _step_fs(cfg: FsIdealConfig, d: Optional[Dir]) -> StepResult:
    a, rho, mu, flag = cfg.acom, cfg.rho, cfg.mu, cfg.flag
    pc, P, PA = cfg.pc, cfg.P, cfg.PA
    if isinstance(a, ASkip):
        return STUCK
    if isinstance(a, ABranch):
        sub = _step_fs(FsIdealConfig(a.body, rho, mu, flag, pc, P, PA), d)
        if sub.tag is not StepTag.STEPPED:
            return sub
        n = sub.cfg
        wrapped = FsIdealConfig(ABranch(a.lbl, n.acom), n.rho, n.mu, n.flag, n.pc, n.P, n.PA)
        return StepResult(StepTag.STEPPED, wrapped, sub.obs, sub.consumed)
    if isinstance(a, ASeq):
        if terminal(a.first):
            pc2 = pc_of_acom(a.first, pc)
            return StepResult(
                StepTag.STEPPED, FsIdealConfig(a.second, rho, mu, flag, pc2, P, PA)
            )
        sub = _step_fs(FsIdealConfig(a.first, rho, mu, flag, pc, P, PA), d)
        if sub.tag is not StepTag.STEPPED:
            return sub
        n = sub.cfg
        seq2 = FsIdealConfig(ASeq(n.acom, a.second, a.mid), n.rho, n.mu, n.flag, n.pc, n.P, n.PA)
        return StepResult(StepTag.STEPPED, seq2, sub.obs, sub.consumed)
    if isinstance(a, AAsgn):
        rho2 = rho.set(a.name, eval_aexp(rho, a.expr))
        P2 = P.set(a.name, label_of_expr(P, a.expr))
        return StepResult(StepTag.STEPPED, FsIdealConfig(ASKIP, rho2, mu, flag, pc, P2, PA))
    if isinstance(a, AWhileC):
        unfolded = AIf(a.cond, ASeq(a.body, a, a.fix), ASKIP, a.lbl)
        return StepResult(
            StepTag.STEPPED, FsIdealConfig(unfolded, rho, mu, flag, pc, P, PA)
        )
    # the remaining commands observe
    if d is None:
        return NEED_DIR
    if isinstance(a, AIf):
        taken = eval_bexp(rho, a.cond)
        if flag and taken:
            taken = a.lbl.is_public  # a secret condition reads as false
        if isinstance(d, DStep):
            succ, flag2 = (a.then if taken else a.other), flag
        elif isinstance(d, DForce):
            succ, flag2 = (a.other if taken else a.then), True
        else:
            return STUCK
        cfg2 = FsIdealConfig(ABranch(pc, succ), rho, mu, flag2, join(pc, a.lbl), P, PA)
        return StepResult(StepTag.STEPPED, cfg2, OBranch(taken), 1)
    if isinstance(a, AARead):
        li, lx = a.lbl_index, a.lbl_target
        r = read_rule(_FVSLH_POLICY, li, lx, rho, mu, flag, a.array, a.index, d)
        if r is None:
            return STUCK
        v, i, flag2 = r
        cfg2 = FsIdealConfig(ASKIP, rho.set(a.name, v), mu, flag2, pc, P.set(a.name, lx), PA)
        return StepResult(StepTag.STEPPED, cfg2, ORead(a.array, i), 1)
    if isinstance(a, AAWrite):
        li, le = a.lbl_index, label_of_expr(P, a.value)
        r = write_rule(_FVSLH_POLICY, li, le, rho, mu, flag, a.array, a.index, a.value, d)
        if r is None:
            return STUCK
        mu2, i, flag2 = r
        if isinstance(d, DStep):
            le = join(li, le)  # an architectural write also carries its index label
        PA2 = PA.set(a.array, join(PA.get(a.array), join(pc, le)))
        cfg2 = FsIdealConfig(ASKIP, rho, mu2, flag2, pc, P, PA2)
        return StepResult(StepTag.STEPPED, cfg2, OWrite(a.array, i), 1)
    raise TypeError(f"not an annotated command: {a!r}")


def _fs_redex(a: ACom) -> Optional[ACom]:
    """Innermost command about to be reduced, skipping branch wrappers and
    sequence spines; None when the next step is silent or absent."""
    while True:
        if isinstance(a, ABranch):
            a = a.body
        elif isinstance(a, ASeq):
            if terminal(a.first):
                return None  # silent skip of the finished head
            a = a.first
        else:
            return a


@dataclass(frozen=True)
class IdealFS:
    """The flow-sensitive ideal semantics over FsIdealConfig."""

    step = staticmethod(_step_fs)

    @staticmethod
    def candidates(cfg: FsIdealConfig) -> List[Dir]:
        return candidate_dirs(_fs_redex(cfg.acom), cfg, True)

    @staticmethod
    def is_final(cfg: FsIdealConfig) -> bool:
        return terminal(cfg.acom)
