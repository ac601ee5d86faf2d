"""Two-point security lattice, labelings, and the flow-insensitive IFC
type system together with its constant-time restriction.

Labels form the lattice public ⊑ secret; the join of two labels is public
only when both are.  Labelings are total maps with a conservative secret
default, so an unlisted name never weakens a check.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Mapping, Optional

from .lang import (
    And,
    ARead,
    Asgn,
    AWrite,
    BinOp,
    BoolLit,
    Cmp,
    Com,
    CTCond,
    If,
    Not,
    Num,
    Or,
    Seq,
    Skip,
    Var,
    While,
)
from .record import Record


class Label(enum.Enum):
    PUBLIC = "public"
    SECRET = "secret"

    @property
    def is_public(self) -> bool:
        return self is Label.PUBLIC

    def __str__(self) -> str:
        return self.value


PUBLIC = Label.PUBLIC
SECRET = Label.SECRET


def join(l1: Label, l2: Label) -> Label:
    return PUBLIC if (l1 is PUBLIC and l2 is PUBLIC) else SECRET


def label_leq(l1: Label, l2: Label) -> bool:
    """public ⊑ secret; each label ⊑ itself."""
    return l1 is PUBLIC or l2 is SECRET


class LabelMap:
    """Total map from names to labels, default secret.  Immutable."""

    __slots__ = ("_m",)

    def __init__(self, entries: Optional[Mapping[str, Label]] = None):
        # normalize: drop explicit secret entries, they equal the default
        self._m: Dict[str, Label] = {
            k: v for k, v in (entries or {}).items() if v is PUBLIC
        }

    def get(self, name: str) -> Label:
        return self._m.get(name, SECRET)

    def set(self, name: str, label: Label) -> "LabelMap":
        m = dict(self._m)
        if label is PUBLIC:
            m[name] = PUBLIC
        else:
            m.pop(name, None)
        out = LabelMap.__new__(LabelMap)
        out._m = m
        return out

    def public_names(self) -> frozenset:
        return frozenset(self._m)

    def join(self, other: "LabelMap") -> "LabelMap":
        # pointwise join: public only where both are public
        out = LabelMap.__new__(LabelMap)
        out._m = {k: PUBLIC for k in self._m if k in other._m}
        return out

    def leq(self, other: "LabelMap") -> bool:
        # self ⊑ other pointwise: wherever other is public, self must be too
        return other._m.keys() <= self._m.keys()

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelMap) and self._m == other._m

    def __hash__(self):
        return hash(frozenset(self._m))

    def __repr__(self):
        inner = ", ".join(f"{k}: public" for k in sorted(self._m))
        return f"LabelMap({{{inner}}})"


def all_secret() -> LabelMap:
    return LabelMap()


def all_public(names: Iterable[str]) -> LabelMap:
    return LabelMap({n: PUBLIC for n in names})


class Labeling(Record):
    """A pair of label maps: scalar variables and arrays."""

    vars: LabelMap
    arrs: LabelMap

    def join(self, other: "Labeling") -> "Labeling":
        return Labeling(self.vars.join(other.vars), self.arrs.join(other.arrs))

    def leq(self, other: "Labeling") -> bool:
        return self.vars.leq(other.vars) and self.arrs.leq(other.arrs)


# ---------------------------------------------------------------------------
# Expression labels
# ---------------------------------------------------------------------------


def label_of_expr(P: LabelMap, e) -> Label:
    """Join of the labels of all variables occurring in an arithmetic or
    boolean expression.  Literals are public; a constant-time conditional
    joins all three subterms.  Walks a work list that grows as the loop
    reads it and answers secret at the first secret name; a bare name needs
    no list."""
    public = P._m
    if e.__class__ is Var:
        return PUBLIC if e.name in public else SECRET
    todo = [e]
    for e in todo:
        cls = e.__class__
        if cls is Var:
            if e.name not in public:
                return SECRET
        elif cls is BinOp or cls is Cmp or cls is And or cls is Or:
            todo += (e.left, e.right)
        elif cls is CTCond:
            todo += (e.cond, e.then, e.other)
        elif cls is Not:
            todo.append(e.arg)
        elif not (cls is Num or cls is BoolLit):
            raise TypeError(f"not an expression: {e!r}")
    return PUBLIC


# ---------------------------------------------------------------------------
# Type systems
# ---------------------------------------------------------------------------


def wt_ifc(P: LabelMap, PA: LabelMap, pc: Label, c: Com) -> bool:
    """Flow-insensitive IFC typing with a pc label for implicit flows.

    Assignments require pc ⊔ ℓ(e) ⊑ P(X); branching raises the pc by the
    condition label; array reads and writes fold the index label and pc into
    the flow checks.  Typed with an explicit stack of (pc, command), so a
    long program cannot exhaust the recursion limit.
    """
    todo = [(pc, c)]
    while todo:
        pc, c = todo.pop()
        if isinstance(c, Seq):
            todo += ((pc, c.second), (pc, c.first))
            continue
        if isinstance(c, If):
            pc2 = join(pc, label_of_expr(P, c.cond))
            todo += ((pc2, c.other), (pc2, c.then))
            continue
        if isinstance(c, While):
            todo.append((join(pc, label_of_expr(P, c.cond)), c.body))
            continue
        if isinstance(c, Skip):
            ok = True
        elif isinstance(c, Asgn):
            ok = label_leq(join(pc, label_of_expr(P, c.expr)), P.get(c.name))
        elif isinstance(c, ARead):
            lab = join(pc, join(label_of_expr(P, c.index), PA.get(c.array)))
            ok = label_leq(lab, P.get(c.name))
        elif isinstance(c, AWrite):
            lab = join(pc, join(label_of_expr(P, c.index), label_of_expr(P, c.value)))
            ok = label_leq(lab, PA.get(c.array))
        else:
            raise TypeError(f"not a command: {c!r}")
        if not ok:
            return False
    return True


def wt_cct(P: LabelMap, PA: LabelMap, c: Com) -> bool:
    """Constant-time typing: branch conditions and access indices must be
    public; no pc tracking is needed since branching never leaves public
    context.  Typed with an explicit stack, like ``wt_ifc``."""
    todo = [c]
    while todo:
        c = todo.pop()
        if isinstance(c, Seq):
            todo += (c.second, c.first)
            continue
        if isinstance(c, If):
            ok = label_of_expr(P, c.cond) is PUBLIC
            todo += (c.other, c.then)
        elif isinstance(c, While):
            ok = label_of_expr(P, c.cond) is PUBLIC
            todo.append(c.body)
        elif isinstance(c, Skip):
            ok = True
        elif isinstance(c, Asgn):
            ok = label_leq(label_of_expr(P, c.expr), P.get(c.name))
        elif isinstance(c, ARead):
            ok = label_of_expr(P, c.index) is PUBLIC and label_leq(
                PA.get(c.array), P.get(c.name)
            )
        elif isinstance(c, AWrite):
            ok = label_of_expr(P, c.index) is PUBLIC and label_leq(
                label_of_expr(P, c.value), PA.get(c.array)
            )
        else:
            raise TypeError(f"not a command: {c!r}")
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# Labeling file format: one line per name, `NAME: public` or `NAME: secret`;
# unlisted names are secret; '#' starts a comment.
# ---------------------------------------------------------------------------


class LabelingError(Exception):
    pass


def parse_labeling(text: str) -> LabelMap:
    entries: Dict[str, Label] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise LabelingError(f"line {lineno}: expected 'NAME: public|secret'")
        name, _, level = line.partition(":")
        name = name.strip()
        level = level.strip()
        if not name or level not in ("public", "secret"):
            raise LabelingError(f"line {lineno}: expected 'NAME: public|secret'")
        if name in entries:
            raise LabelingError(f"line {lineno}: duplicate entry for {name!r}")
        entries[name] = PUBLIC if level == "public" else SECRET
    return LabelMap(entries)


def format_labeling(m: LabelMap, names: Iterable[str] = ()) -> str:
    """Render a label map; always lists its public names, plus any extra
    requested names (which show up as secret unless public)."""
    shown = sorted(set(m.public_names()) | set(names))
    return "\n".join(f"{n}: {m.get(n)}" for n in shown)
