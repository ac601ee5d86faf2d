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
The well-labeledness judgment is one walk over an explicit stack, so it
judges any nesting depth: each entry says whether a Branch wrapper may
stand there, which keeps wrappers to the heads of sequence spines without
walking any part twice.
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
    decided without search, in one walk over an explicit stack.  Loop
    annotations are confirmed to be fixpoints: the body must map the
    annotated labeling to itself at the raised pc, and the loop's condition
    label is checked against that fixpoint labeling (any labeling reachable
    during execution stays below it).

    A Branch wrapper may stand only where the flow-sensitive ideal semantics
    puts one: at the head of the sequence spine, through nested heads and
    wrapper bodies, never in a later spine part, a branch arm or a loop
    body.  The label the outermost wrapper of a head saves is the pc of the
    rest of its spine.
    """
    # (annotated command, initial, pc, final, whether a wrapper may stand)
    todo = [(acom, initial, pc, final, True)]
    while todo:
        acom, initial, pc, final, wrapper = todo.pop()
        P, PA, cls = initial.vars, initial.arrs, acom.__class__
        if cls is ASeq:
            head = acom.first
            while wrapper and head.__class__ is ASeq:
                head = head.first
            rest = head.lbl if wrapper and head.__class__ is ABranch else pc
            todo += ((acom.second, acom.mid, rest, final, False),
                     (acom.first, initial, pc, acom.mid, wrapper))
            ok = True
        elif cls is ABranch:
            todo.append((acom.body, initial, pc, final, True))
            ok = wrapper
        elif cls is AIf:
            pc2 = join(pc, acom.lbl)
            todo += ((acom.other, initial, pc2, final, False),
                     (acom.then, initial, pc2, final, False))
            ok = label_leq(label_of_expr(P, acom.cond), acom.lbl)
        elif cls is AWhileC:
            todo.append((acom.body, acom.fix, join(pc, acom.lbl), acom.fix, False))
            ok = (label_leq(label_of_expr(acom.fix.vars, acom.cond), acom.lbl)
                  and initial.leq(acom.fix) and acom.fix.leq(final))
        elif cls is ASkip:
            ok = initial.leq(final)
        elif cls is AAsgn:
            ok = Labeling(P.set(acom.name, label_of_expr(P, acom.expr)), PA).leq(final)
        elif cls is AARead:
            ok = (
                label_leq(label_of_expr(P, acom.index), acom.lbl_index)
                and label_leq(pc, acom.lbl_target)
                and label_leq(acom.lbl_index, acom.lbl_target)
                and label_leq(PA.get(acom.array), acom.lbl_target)
                and Labeling(P.set(acom.name, acom.lbl_target), PA).leq(final)
            )
        elif cls is AAWrite:
            lbl = join(
                PA.get(acom.array),
                join(pc, join(acom.lbl_index, label_of_expr(P, acom.value))),
            )
            ok = (
                label_leq(label_of_expr(P, acom.index), acom.lbl_index)
                and Labeling(P, PA.set(acom.array, lbl)).leq(final)
            )
        else:
            raise TypeError(f"not an annotated command: {acom!r}")
        if not ok:
            return False
    return True
