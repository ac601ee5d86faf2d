"""The flow-sensitive IFC analysis, its annotated commands, and the
well-labeledness checker.  The annotated command classes are defined in
``lang``, beside the syntax they annotate, and exported here too.

The analysis is a total function: it accepts every program and returns an
annotated command plus the labeling holding after execution.  Loop bodies
are re-analyzed until the labeling joined with the loop entry stabilizes;
each unstable round moves at least one assigned name from public to secret,
so the iteration count is bounded by the number of names the body assigns.

Branch nodes never appear in analysis output; they are introduced at run
time by the flow-sensitive ideal semantics to save and restore the pc label.
"""

from __future__ import annotations

from typing import Tuple

from .ifc_static import (
    Label,
    LabelMap,
    Labeling,
    join,
    label_leq,
    label_of_expr,
)
from .lang import (
    AARead,
    AAsgn,
    AAWrite,
    ABranch,
    ACom,
    AIf,
    ARead,
    ASeq,
    Asgn,
    ASKIP,
    ASkip,
    AWhileC,
    AWrite,
    Com,
    If,
    Seq,
    Skip,
    SKIP,
    While,
)
from .record import _build


def erase_acom(acom: ACom) -> Com:
    """Strip all annotations; a Branch wrapper erases to its body.  The
    sequence spine is walked in a loop."""
    firsts = []
    while isinstance(acom, ASeq):
        firsts.append(erase_acom(acom.first))
        acom = acom.second
    if isinstance(acom, ASkip):
        out = SKIP
    elif isinstance(acom, AAsgn):
        out = Asgn(acom.name, acom.expr)
    elif isinstance(acom, AIf):
        out = If(acom.cond, erase_acom(acom.then), erase_acom(acom.other))
    elif isinstance(acom, AWhileC):
        out = While(acom.cond, erase_acom(acom.body))
    elif isinstance(acom, AARead):
        out = ARead(acom.name, acom.array, acom.index)
    elif isinstance(acom, AAWrite):
        out = AWrite(acom.array, acom.index, acom.value)
    elif isinstance(acom, ABranch):
        out = erase_acom(acom.body)
    else:
        raise TypeError(f"not an annotated command: {acom!r}")
    for first in reversed(firsts):
        out = Seq(first, out)
    return out


def branch_free(acom: ACom) -> bool:
    while isinstance(acom, ASeq):
        if not branch_free(acom.first):
            return False
        acom = acom.second
    if isinstance(acom, ABranch):
        return False
    if isinstance(acom, AIf):
        return branch_free(acom.then) and branch_free(acom.other)
    if isinstance(acom, AWhileC):
        return branch_free(acom.body)
    return True


def pc_of_acom(acom: ACom, pc: Label) -> Label:
    """Label of the outermost branch annotation along the head spine, or the
    given pc when there is none.  Sequences delegate to their first half:
    that is where a wrapper introduced by an earlier conditional lives."""
    if isinstance(acom, ABranch):
        return acom.lbl
    if isinstance(acom, ASeq):
        return pc_of_acom(acom.first, pc)
    return pc


# ---------------------------------------------------------------------------
# Flow-sensitive analysis
# ---------------------------------------------------------------------------


def assigned_names(c: Com) -> Tuple[frozenset, frozenset]:
    """Scalars and arrays a command may assign; bounds the fixpoint."""
    scalars, arrays = set(), set()
    todo = [c]
    while todo:
        c = todo.pop()
        if isinstance(c, (Asgn, ARead)):
            scalars.add(c.name)
        elif isinstance(c, AWrite):
            arrays.add(c.array)
        elif isinstance(c, Seq):
            todo += (c.first, c.second)
        elif isinstance(c, If):
            todo += (c.then, c.other)
        elif isinstance(c, While):
            todo.append(c.body)
        elif not isinstance(c, Skip):
            raise TypeError(f"not a command: {c!r}")
    return frozenset(scalars), frozenset(arrays)


def flow_track(c: Com, P: LabelMap, PA: LabelMap, pc: Label) -> Tuple[ACom, Labeling]:
    """Analyze ``c`` starting from labeling (P, PA) under context label pc.

    Returns the annotated command and the labeling after execution.  Total:
    no program is rejected.
    """
    if isinstance(c, Skip):
        return ASKIP, Labeling(P, PA)
    if isinstance(c, Asgn):
        return _build(AAsgn, (c.name, c.expr)), _build(
            Labeling, (P.set(c.name, label_of_expr(P, c.expr)), PA)
        )
    if isinstance(c, Seq):  # the spine, in a loop
        parts = []
        while isinstance(c, Seq):
            a1, mid = flow_track(c.first, P, PA, pc)
            parts.append((a1, mid))
            P, PA, c = mid.vars, mid.arrs, c.second
        acom, out = flow_track(c, P, PA, pc)
        for a1, mid in reversed(parts):
            acom = _build(ASeq, (a1, acom, mid))
        return acom, out
    if isinstance(c, If):
        lbl = label_of_expr(P, c.cond)
        pc2 = join(pc, lbl)
        a1, l1 = flow_track(c.then, P, PA, pc2)
        a2, l2 = flow_track(c.other, P, PA, pc2)
        return _build(AIf, (c.cond, a1, a2, lbl)), l1.join(l2)
    if isinstance(c, While):
        entry = Labeling(P, PA)
        sc, ar = assigned_names(c.body)
        cur = entry
        abody, after = None, None
        # one extra round re-analyzes the body at the fixpoint so the stored
        # annotations are the ones valid there
        for _ in range(len(sc) + len(ar) + 2):
            lbl = label_of_expr(cur.vars, c.cond)
            abody, after = flow_track(c.body, cur.vars, cur.arrs, join(pc, lbl))
            nxt = after.join(entry)
            if nxt == cur:
                break
            cur = nxt
        else:  # pragma: no cover - the bound argument rules this out
            raise AssertionError("loop labeling failed to stabilize within bound")
        lbl = label_of_expr(cur.vars, c.cond)
        return _build(AWhileC, (c.cond, abody, lbl, cur)), cur
    if isinstance(c, ARead):
        li = label_of_expr(P, c.index)
        lx = join(pc, join(li, PA.get(c.array)))
        return _build(AARead, (c.name, c.array, c.index, lx, li)), _build(
            Labeling, (P.set(c.name, lx), PA)
        )
    if isinstance(c, AWrite):
        li = label_of_expr(P, c.index)
        le = label_of_expr(P, c.value)
        lbl = join(PA.get(c.array), join(pc, join(li, le)))
        return _build(AAWrite, (c.array, c.index, c.value, li)), _build(
            Labeling, (P, PA.set(c.array, lbl))
        )
    raise TypeError(f"not a command: {c!r}")


# ---------------------------------------------------------------------------
# Well-labeledness
# ---------------------------------------------------------------------------


def well_labeled(acom: ACom, initial: Labeling, pc: Label, final: Labeling) -> bool:
    """Check that the annotations of ``acom`` over-approximate the flows from
    ``initial`` at context ``pc``, ending below ``final``.

    All intermediate labelings are annotation fields, so the judgment is
    decided without search.  Loop annotations are confirmed to be fixpoints:
    the body must map the annotated labeling to itself at the raised pc, and
    the loop's condition label is checked against that fixpoint labeling
    (any labeling reachable during execution stays below it).
    """
    P, PA = initial.vars, initial.arrs
    if isinstance(acom, ASkip):
        return initial.leq(final)
    if isinstance(acom, AAsgn):
        upd = Labeling(P.set(acom.name, label_of_expr(P, acom.expr)), PA)
        return upd.leq(final)
    if isinstance(acom, ASeq):
        # the spine, in a loop: each part after the head must be
        # branch-free, and each is checked once
        head = acom.first
        if not well_labeled(head, initial, pc, acom.mid):
            return False
        pc, initial, acom = pc_of_acom(head, pc), acom.mid, acom.second
        while isinstance(acom, ASeq):
            part = acom.first
            if not (branch_free(part) and well_labeled(part, initial, pc, acom.mid)):
                return False
            initial, acom = acom.mid, acom.second
        return branch_free(acom) and well_labeled(acom, initial, pc, final)
    if isinstance(acom, AIf):
        pc2 = join(pc, acom.lbl)
        return (
            label_leq(label_of_expr(P, acom.cond), acom.lbl)
            and branch_free(acom.then)
            and branch_free(acom.other)
            and well_labeled(acom.then, initial, pc2, final)
            and well_labeled(acom.other, initial, pc2, final)
        )
    if isinstance(acom, AWhileC):
        pc2 = join(pc, acom.lbl)
        return (
            label_leq(label_of_expr(acom.fix.vars, acom.cond), acom.lbl)
            and branch_free(acom.body)
            and initial.leq(acom.fix)
            and acom.fix.leq(final)
            and well_labeled(acom.body, acom.fix, pc2, acom.fix)
        )
    if isinstance(acom, AARead):
        upd = Labeling(P.set(acom.name, acom.lbl_target), PA)
        return (
            label_leq(label_of_expr(P, acom.index), acom.lbl_index)
            and label_leq(pc, acom.lbl_target)
            and label_leq(acom.lbl_index, acom.lbl_target)
            and label_leq(PA.get(acom.array), acom.lbl_target)
            and upd.leq(final)
        )
    if isinstance(acom, AAWrite):
        lbl = join(
            PA.get(acom.array),
            join(pc, join(acom.lbl_index, label_of_expr(P, acom.value))),
        )
        upd = Labeling(P, PA.set(acom.array, lbl))
        return (
            label_leq(label_of_expr(P, acom.index), acom.lbl_index)
            and upd.leq(final)
        )
    if isinstance(acom, ABranch):
        return well_labeled(acom.body, initial, pc, final)
    raise TypeError(f"not an annotated command: {acom!r}")
