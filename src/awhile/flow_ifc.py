"""The flow-sensitive IFC analysis, its annotated commands, and the
well-labeledness checker.  The annotated command classes are defined in
``lang``, beside the syntax they annotate, and exported here too.

The analysis is a total function: it accepts every program and returns an
annotated command plus the labeling holding after execution.  Loop bodies
are re-analyzed until the labeling joined with the loop entry stabilizes.
That labeling only loses public names, all of them public at the entry,
and each unstable round makes at least one of them secret, so a loop takes
at most the entry's public names plus one rounds; the guard allows one
more.  The analysis keeps an explicit stack, so it analyzes any nesting
depth.

Branch nodes never appear in analysis output; they are introduced at run
time by the flow-sensitive ideal semantics to save and restore the pc label.
The well-labeledness judgment is one walk over an explicit stack, so it
judges any nesting depth: each entry says whether a Branch wrapper may
stand there, which keeps wrappers to the heads of sequence spines without
walking any part twice.
"""

from __future__ import annotations

from typing import List, Tuple

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


def flow_track(c: Com, P: LabelMap, PA: LabelMap, pc: Label) -> Tuple[ACom, Labeling]:
    """Analyze ``c`` starting from labeling (P, PA) under context label pc.

    Returns the annotated command and the labeling after execution.  Total:
    no program is rejected.  The walk keeps an explicit stack of (command,
    P, PA, pc) tasks: a node with parts pushes a marker, a plain tuple in
    the command's place, beneath them, and the marker assembles the parts'
    results, (annotated command, labeling after), from the top of ``done``.
    A loop's marker ends each round of its fixpoint and starts the next.
    """
    done: List[Tuple[ACom, Labeling]] = []
    work = [(c, P, PA, pc)]
    while work:
        c, P, PA, pc = work.pop()
        kind = type(c)
        if kind is tuple:
            kind = c[0]
            if kind is Seq:  # the first part is done: the second starts where it ends
                mid = done[-1][1]
                work += (((ASeq,), P, PA, pc), (c[1], mid.vars, mid.arrs, pc))
            elif kind is ASeq:
                a2, out = done.pop()
                a1, mid = done[-1]
                done[-1] = (_build(ASeq, (a1, a2, mid)), out)
            elif kind is If:
                a2, l2 = done.pop()
                a1, l1 = done[-1]
                done[-1] = (_build(AIf, (c[1], a1, a2, c[2])), l1.join(l2))
            else:
                _, loop, entry, cur, lbl, rounds = c
                abody, after = done.pop()
                nxt = after.join(entry)
                if nxt == cur:
                    # the round that found the fixpoint analyzed the body
                    # there, so the stored annotations are valid there
                    done.append((_build(AWhileC, (loop.cond, abody, lbl, cur)), cur))
                    continue
                if not rounds:  # pragma: no cover - the bound argument rules this out
                    raise AssertionError("loop labeling failed to stabilize within bound")
                lbl = label_of_expr(nxt.vars, loop.cond)
                work += (((While, loop, entry, nxt, lbl, rounds - 1), P, PA, pc),
                         (loop.body, nxt.vars, nxt.arrs, join(pc, lbl)))
        elif kind is Skip:
            done.append((ASKIP, _build(Labeling, (P, PA))))
        elif kind is Asgn:
            done.append((_build(AAsgn, (c.name, c.expr)),
                         _build(Labeling, (P.set(c.name, label_of_expr(P, c.expr)), PA))))
        elif kind is Seq:
            work += (((Seq, c.second), P, PA, pc), (c.first, P, PA, pc))
        elif kind is If:
            lbl = label_of_expr(P, c.cond)
            pc2 = join(pc, lbl)
            work += (((If, c.cond, lbl), P, PA, pc), (c.other, P, PA, pc2), (c.then, P, PA, pc2))
        elif kind is While:
            # each unstable round makes a public name of the entry secret;
            # the first round starts as if one had ended at the entry
            entry = _build(Labeling, (P, PA))
            done.append((None, entry))
            bound = len(P.public_names()) + len(PA.public_names()) + 2
            work.append(((While, c, entry, None, None, bound), P, PA, pc))
        elif kind is ARead:
            li = label_of_expr(P, c.index)
            lx = join(pc, join(li, PA.get(c.array)))
            done.append((_build(AARead, (c.name, c.array, c.index, lx, li)),
                         _build(Labeling, (P.set(c.name, lx), PA))))
        elif kind is AWrite:
            li = label_of_expr(P, c.index)
            le = label_of_expr(P, c.value)
            lbl = join(PA.get(c.array), join(pc, join(li, le)))
            done.append((_build(AAWrite, (c.array, c.index, c.value, li)),
                         _build(Labeling, (P, PA.set(c.array, lbl)))))
        else:
            raise TypeError(f"not a command: {c!r}")
    return done[0]


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
