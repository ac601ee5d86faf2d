"""Directive-driven speculative small-step semantics: the one stepper
behind every semantics of the checker.

This is a strict extension of the sequential semantics: silent rules fire on
their own, while every observation-producing step consumes exactly one
attacker directive.  ``step`` follows the architectural path; ``force``
mispredicts a branch and sets the misspeculation flag; ``load a j`` and
``store a j`` redirect an out-of-bounds access (only possible once the flag
is set) to an arbitrary in-bounds cell of an arbitrary array, while the
emitted observation still names the original array and index.

Configurations are focused (refocusing, Danvy & Nielsen 2004): a
``SpecConfig`` holds the redex, which is never a sequence, and a stack of
the commands still to run after it.  A step rewrites the redex or pops the
stack, so it costs the same at any nesting depth.  The step count is that
of the structural rules over ``Seq``: dropping a finished ``skip`` head is
one silent step, and a ``while`` unfolds to ``if b then (body; while) else
skip`` in one silent step.

The silent rules (assignment, dropping ``skip``, unfolding ``while``) are
written once, in one loop, ``silent_steps``: it runs up to a given fuel of
them on local variables and builds one configuration at the end
(lightweight fusion, Danvy & Millikin 2008).  A semantics' ``advance`` runs
it with the whole fuel, and ``step_ex`` on a silent redex with a budget of 1.
``step_ex`` holds the observing rules.  With no policy it is the
speculative semantics and computes no labels.  Under a hardening's masking
policy and fixed labeling it is that hardening's ideal semantics
(``ideal_sem``); the read and write rules are written once and also serve
the flow-sensitive ideal semantics.

Every semantics is a value whose methods are its rule functions: ``step``
(``step_ex``), ``advance`` (its silent loop), ``candidates``
(``candidate_dirs``), ``classes`` (``candidate_classes``) and
``is_final``.  It holds a per-check ``table`` of each ``while``'s unfolded
command and each expression's compiled closure (``lang.compiled``); every
rule evaluates through it.  ``run`` and ``feasible`` work over any
semantics.  ``run`` is the one loop that drives a concrete run: one that
chooses its directives as it goes (a random trial of ``bcc``, an
interactive run) passes a ``pick``.  ``advance`` is the one place that
decides where a run stops: terminated, or out of fuel.  A directive that
no rule can consume leaves the configuration stuck; feasibility filtering
belongs to the checker, not the semantics.

A misspeculated load's successor and observation depend on its directive
only through the value it reads, so ``candidate_classes`` lists the loads
at a node by that value, its load class: one load per distinct value, the
first that reads it.  The checker's directive tree (``seccheck._Tree``),
which expands a node by stepping its other candidates and one load per
class, its pair walk and its group sweep (``seccheck._expands``) work per
class, so their cost at a misspeculated access grows with the values the
arrays hold, not with their cells.  ``candidate_dirs`` lists every load, from the
same classes; ``feasible`` and ``seccheck.enum_spec_runs`` step each one:
they are the reference the tree is tested against.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

from .flow_ifc import AARead, AAWrite, AIf
from .ifc_static import label_of_expr
from .lang import ARead, Asgn, AWrite, If, Seq, Skip, SKIP, While, compiled
from .record import Record, _build
from .seq_sem import RunKind
from .state import (
    BRANCH_OBS,
    Dir,
    DForce,
    DLoad,
    DStep,
    DStore,
    FORCE,
    ORead,
    OWrite,
    Obs,
    ScalarState,
    SpecConfig,
    STEP,
)


class StepTag(enum.Enum):
    STEPPED = "stepped"
    STUCK = "stuck"
    NEED_DIR = "need-dir"  # at an observing redex with no directive left


class StepResult:
    """A step's tag; after a step, the successor configuration (SpecConfig,
    or FsIdealConfig under IdealFS), its observation (None when silent) and
    the number of directives consumed."""

    __slots__ = ("tag", "cfg", "obs", "consumed")

    def __init__(self, tag: StepTag, cfg=None, obs: Optional[Obs] = None, consumed: int = 0):
        self.tag, self.cfg, self.obs, self.consumed = tag, cfg, obs, consumed


STEPPED = StepTag.STEPPED
STUCK = StepResult(StepTag.STUCK)
NEED_DIR = StepResult(StepTag.NEED_DIR)


# ---------------------------------------------------------------------------
# Access rules, shared by every semantics
# ---------------------------------------------------------------------------


def read_rule(policy, li, lx, table, rho, mu, flag: bool, array: str, index, d: Dir):
    """A read of ``array[index]`` under ``d``: (value, observed index, new
    flag), or None when no rule applies.  A policy decides from the labels
    of the index (li) and the target (lx) whether the index or the value is
    masked to 0 and whether a load may be redirected.  The index evaluates
    through the semantics' per-check ``table`` (``lang.compiled``)."""
    cls = d.__class__
    if cls is DStep:
        if policy is not None and policy.read_mask_index(flag, li, lx):
            i = 0
        else:
            i = compiled(table, index)(rho._m)
        if i >= mu.size(array):
            return None
        if policy is not None and policy.read_mask_value(flag, li, lx):
            return 0, i, flag
        return mu.get(array, i), i, flag
    if cls is DLoad:
        # only while misspeculating, only for an out-of-bounds access
        if not flag or (policy is not None and not policy.read_force_ok(li, lx)):
            return None
        i = compiled(table, index)(rho._m)
        if i < mu.size(array) or d.index >= mu.size(d.array):
            return None
        if policy is not None and policy.read_force_mask_value(lx):
            return 0, i, True
        return mu.get(d.array, d.index), i, True
    return None


def write_rule(policy, li, le, table, rho, mu, flag: bool, array: str, index, value, d: Dir):
    """A write of ``value`` to ``array[index]`` under ``d``: (new arrays,
    observed index, new flag), or None when no rule applies.  A policy
    decides from the labels of the index (li) and the value (le) whether
    the index is masked to 0 and whether a store may be redirected."""
    cls = d.__class__
    if cls is DStep:
        if policy is not None and policy.write_mask_index(flag, li, le):
            i = 0
        else:
            i = compiled(table, index)(rho._m)
        if i >= mu.size(array):
            return None
        return mu.set(array, i, compiled(table, value)(rho._m)), i, flag
    if cls is DStore:
        if not flag or (policy is not None and not policy.write_force_ok(li, le)):
            return None
        i = compiled(table, index)(rho._m)
        if i < mu.size(array) or d.index >= mu.size(d.array):
            return None
        return mu.set(d.array, d.index, compiled(table, value)(rho._m)), i, True
    return None


# ---------------------------------------------------------------------------
# The stepper
# ---------------------------------------------------------------------------


def silent_steps(sem, cfg: SpecConfig, fuel: int):
    """Run the silent steps from ``cfg``, at most ``fuel`` of them, and
    return (cfg, fuel_used, kind): ``kind`` is None at an observing redex,
    which needs a directive, and otherwise the RunKind the run stops with
    (terminated, or out of fuel; a final configuration has no rule
    either).  This is ``Speculative.advance``.  The silent rules:
    an assignment; dropping a finished ``skip`` head, so that the top of
    the stack runs next; and unfolding a ``while`` to ``if b then (body;
    while) else skip``, to the same command object every time (kept in
    ``sem.table``), so that configurations that reach one loop head by
    different paths have equal keys (``SpecConfig.key``).  The loop keeps
    the redex, the stack and the scalar bindings in local variables and
    builds one configuration at the end (lightweight fusion, Danvy &
    Millikin 2008)."""
    table = sem.table
    c, k, m = cfg.redex, cfg.k, None
    used, kind = 0, RunKind.FUEL_EXHAUSTED
    while used < fuel:
        cls = c.__class__
        if cls is Asgn:
            if m is None:
                m = dict(cfg.rho._m)  # copied once, then updated in place
            v = compiled(table, c.expr)(m)
            if v:
                m[c.name] = v
            else:
                m.pop(c.name, None)  # a zero binding equals the default
            c = SKIP
        elif cls is Skip:
            if k is None:
                kind = RunKind.TERMINATED
                break
            c, k = k
            while c.__class__ is Seq:
                k, c = (c.second, k), c.first
        elif cls is While:
            unfolded = table.get(id(c))
            if unfolded is None:
                # the unfolded command holds the loop, so the id stays valid
                unfolded = table[id(c)] = If(c.cond, Seq(c.body, c), SKIP)
            c = unfolded
        else:
            kind = None  # an observing redex
            break
        used += 1
    if kind is RunKind.FUEL_EXHAUSTED and k is None and c.__class__ is Skip:
        kind = RunKind.TERMINATED
    if used:
        rho = cfg.rho if m is None else ScalarState.adopt(m)
        cfg = SpecConfig(c, rho, cfg.mu, cfg.flag, k)
    return cfg, used, kind


def fixed_label(sem, e):
    """The label of the expression ``e`` under the fixed labeling
    ``sem.P``, computed once per check and kept in the per-check
    ``sem.labels`` beside the compiled closures, keyed by ``id(e)``; the
    entry holds ``e``, so the id stays valid while the table lives."""
    entry = sem.labels.get(id(e))
    if entry is None:
        entry = sem.labels[id(e)] = (label_of_expr(sem.P, e), e)
    return entry[0]


def step_ex(sem, cfg: SpecConfig, d: Optional[Dir]) -> StepResult:
    """Tagged step of the redex under ``sem`` (``Speculative``, or a fixed
    labeling's ideal semantics): a silent redex takes one step of
    ``silent_steps`` and consumes nothing; observing rules require a
    matching directive.  ``d=None`` at an observing redex reports NEED_DIR.
    Without a policy (``sem.policy``) this is the speculative semantics;
    with one it is an ideal semantics over the fixed labeling ``sem.P``,
    whose labels it reads through ``fixed_label``.
    Expressions evaluate through ``sem.table`` (``lang.compiled``)."""
    c = cfg.redex
    cls = c.__class__
    if cls is Asgn or cls is Skip or cls is While:
        cfg2, used, _ = silent_steps(sem, cfg, 1)
        return StepResult(STEPPED, cfg2) if used else STUCK
    # the remaining commands observe
    if d is None:
        return NEED_DIR
    k, rho, mu, flag, policy, table = cfg.k, cfg.rho, cfg.mu, cfg.flag, sem.policy, sem.table
    if cls is If:
        if policy is not None and flag and not fixed_label(sem, c.cond).is_public:
            # a secret condition reads as false while misspeculating; it is
            # not evaluated, so a group tree (seccheck) does not depend on it
            taken = False
        else:
            taken = compiled(table, c.cond)(rho._m)
        if d.__class__ is DStep:
            succ, flag2 = (c.then if taken else c.other), flag
        elif d.__class__ is DForce:
            succ, flag2 = (c.other if taken else c.then), True
        else:
            return STUCK
        return StepResult(STEPPED, SpecConfig(succ, rho, mu, flag2, k), BRANCH_OBS[taken], 1)
    if cls is ARead:
        li = lx = None
        if policy is not None:
            li, lx = fixed_label(sem, c.index), sem.P.get(c.name)
        r = read_rule(policy, li, lx, table, rho, mu, flag, c.array, c.index, d)
        if r is None:
            return STUCK
        v, i, flag2 = r
        cfg2 = SpecConfig(SKIP, rho.set(c.name, v), mu, flag2, k)
        return StepResult(STEPPED, cfg2, _build(ORead, (c.array, i)), 1)
    if cls is AWrite:
        li = le = None
        if policy is not None:
            li, le = fixed_label(sem, c.index), fixed_label(sem, c.value)
        r = write_rule(policy, li, le, table, rho, mu, flag, c.array, c.index, c.value, d)
        if r is None:
            return STUCK
        mu2, i, flag2 = r
        cfg2 = SpecConfig(SKIP, rho, mu2, flag2, k)
        return StepResult(STEPPED, cfg2, _build(OWrite, (c.array, i)), 1)
    raise TypeError(f"not a command: {c!r}")


def first_cells(vec) -> Dict[object, int]:
    """Each value ``vec`` holds -> the index of its first cell, in the
    order of those cells.  The passes over the cells run in C and compare
    no values, only hash them, so a vector that holds ``OPAQUE`` decides
    nothing on it."""
    first = dict(zip(reversed(vec), range(len(vec) - 1, -1, -1)))
    if len(first) == len(vec):
        return dict(zip(vec, range(len(vec))))
    return {v: first[v] for v in dict.fromkeys(vec)}


def candidate_classes(sem, cfg) -> Tuple[List[Dir], Dict[object, DLoad]]:
    """The directives that could apply at the redex of ``cfg``, by class:
    those that are not loads, in dir_sort_key order, and the loads as a
    map from each value an in-bounds cell holds to the first load of it in
    dir_sort_key order, in that order.  Both are empty when the next step
    is silent.  A branch admits step and force.  An access admits step
    unless its index is out of bounds and the semantics cannot mask it
    (``sem.masked`` false), and, while misspeculating with the real index
    out of bounds, a load/store of any in-bounds cell of any array.

    Loads of one value step ``cfg`` alike, to successors with equal keys
    and equal observations: ``read_rule`` decides whether a load steps from
    the flag, the labels and the original index alone, reads the cell's
    value (or 0 under a masking policy, where the classes are finer than
    they need be) and observes the original index.  A store is a class of
    its own."""
    redex = cfg.redex
    cls = redex.__class__
    if cls is If or cls is AIf:
        return [STEP, FORCE], {}
    if cls is ARead or cls is AARead:
        reads = True
    elif cls is AWrite or cls is AAWrite:
        reads = False
    else:
        return [], {}
    oob = compiled(sem.table, redex.index)(cfg.rho._m) >= cfg.mu.size(redex.array)
    dirs: List[Dir] = [STEP] if sem.masked or not oob else []
    loads: Dict[object, DLoad] = {}
    if cfg.flag and oob:
        if reads:
            for name, vec in sorted(cfg.mu.items()):
                for v, j in first_cells(vec).items():
                    if v not in loads:
                        loads[v] = _build(DLoad, (name, j))
        else:
            for name, vec in sorted(cfg.mu.items()):
                dirs.extend([_build(DStore, (name, j)) for j in range(len(vec))])
    return dirs, loads


def candidate_dirs(sem, cfg) -> List[Dir]:
    """Directives that could apply at the redex of ``cfg``, in dir_sort_key
    order: those of ``candidate_classes``, with one load per in-bounds cell
    of every array where it lists loads."""
    dirs, loads = candidate_classes(sem, cfg)
    if loads:
        dirs.extend([_build(DLoad, (name, j))
                     for name, vec in sorted(cfg.mu.items()) for j in range(len(vec))])
    return dirs


class Speculative:
    """The speculative semantics: the stepper under no policy, with a
    per-check table of its own (``table``: the unfolded loops and the
    compiled expressions).  The table keeps every program it has stepped
    alive, so each check makes its own value."""

    policy = None
    masked = False

    def __init__(self):
        self.table = {}

    step = step_ex
    advance = silent_steps
    candidates = candidate_dirs
    classes = candidate_classes

    @staticmethod
    def is_final(cfg: SpecConfig) -> bool:
        return cfg.k is None and cfg.redex.__class__ is Skip


# ---------------------------------------------------------------------------
# Runs over any semantics
# ---------------------------------------------------------------------------


def feasible(sem, cfg) -> List[Dir]:
    """Directives some rule of ``sem`` can actually consume at ``cfg``."""
    return [d for d in sem.candidates(cfg) if sem.step(cfg, d).tag is StepTag.STEPPED]


class Outcome(Record):
    kind: RunKind
    final: object  # the last configuration; FsIdealConfig carries pc and labelings
    trace: Tuple[Obs, ...]
    consumed: int


def run(sem, cfg, dirs: Sequence[Dir], fuel: int, pick=None) -> Outcome:
    """Run, consuming directives left to right.  Stops at a final
    configuration (terminated), when no rule applies (stuck), at an
    observing redex with no directives left (directives exhausted, or stuck
    when no directive is feasible there), or when fuel runs out.  Where
    ``dirs`` runs out at a redex with a feasible directive, ``pick(cfg,
    feasible)``, when given, returns the next directive, which is appended
    to ``dirs`` (a list, then), or None to stop.  The number of consumed
    directives always equals the trace length."""
    trace: List[Obs] = []
    while True:
        cfg, used, kind = sem.advance(cfg, fuel)
        fuel -= used
        if kind is not None:
            break
        if len(trace) == len(dirs):
            feas = feasible(sem, cfg)
            d = pick(cfg, feas) if feas and pick is not None else None
            if d is None:
                kind = RunKind.DIRS_EXHAUSTED if feas else RunKind.STUCK
                break
            dirs.append(d)
        r = sem.step(cfg, dirs[len(trace)])
        if r.tag is not STEPPED:
            kind = RunKind.STUCK
            break
        cfg = r.cfg
        trace.append(r.obs)
        fuel -= 1
    return Outcome(kind, cfg, tuple(trace), len(trace))
