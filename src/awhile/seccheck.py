"""Bounded differential checking of the security definitions and lemmas.

The universally-quantified attacker of the definitions is realized by
exhaustive enumeration of directive sequences up to a depth bound, with the
trace-prefix comparison done at a single maximal fuel (sound because traces
grow monotonically with fuel).  Enumeration is feasibility-directed: only
directives some rule can consume are explored, which is sound because an
infeasible directive leaves both runs stuck at the same point with equal
empty suffixes.

Every Violated verdict carries a concrete witness (states, directive list,
the two diverging traces, and the index of the first divergence) that
replays: re-running the two executions reproduces the traces.

The fuel-bounded premise check of relative security under-approximates the
set of state pairs the unbounded definition quantifies over (a pair whose
sequential runs diverge only beyond the fuel bound is treated as satisfying
the premise); this is a documented soundness caveat of the bounded checker.

Cost model of the SCT and relative-security checks: the space is enumerated
once and its states grouped by their public projection, and the groups'
pairs are generated one at a time in nested-scan order, so memory grows with
the states, not with the pairs.  The relative-security premise gets one
sequential run per public group, from the group's abstract state (below),
and one run per state only in a group whose run decides something on the
opaque value; it is grouped by the labeling the check was given, also for
``uslh``, whose pairs ignore the labeling.  It then splits the groups into
the components of prefix-related traces, by sorting each group's distinct
traces, and only the pairs with prefix-related traces are walked.  Each
group is first settled by one sweep of the configurations its directive tree
would reach, from one abstract state that keeps every scalar and array cell
its states agree on and holds the opaque value ``lang.OPAQUE`` everywhere
else; the sweep steps what a full expansion of that tree would, and keeps
no tree.  A group whose sweep ends decided every branch, bounds test,
candidate list and observation on values its states share, so all of them
have that tree, and its pairs are counted by formula, not generated; one
whose sweep decides something on the opaque value (``SecretDependence``) has
its pairs walked.  This is dynamic information-flow tracking over a flat
abstract domain (Cousot & Cousot, POPL 1977).  A settled group holds no
divergent pair, so the first divergent pair, its position and its witness do
not change.  For the pairs walked, each state gets one directive tree,
whose nodes are expanded when a walk first reaches them, shared
by every pair walk the state takes part in, and dropped after the state's
last pair.  A tree is a DAG: its nodes are hash-consed on (configuration,
fuel, depth) (Filliâtre & Conchon, ML Workshop 2006), so paths that
reconverge on a configuration step it once, and no node is freed behind a
walk, since another parent may reach it.  A
pair walk merges two trees, stepping each (node, directive) at most once,
and skips the node pairs it already found clean, which are clean in any
context (the product visited set of explicit-state model checking).  It
is a depth-first search over an explicit stack, so the directive bound has
no recursion limit.  Every
pair check reaches its verdict through ``_pair_verdict``; one that has no
pair holds vacuously and says so in its message, and a violated one is
replayed with ``spec_sem.run`` before it is reported.  The unwinding check
over a space groups and walks its pairs the same way, under the ideal
semantics; it and the noninterference check type the program once.  The
one-pair checks (``check_spec_obs_equiv``, ``check_unwinding``) walk their
pair without a group tree.  The noninterference check decides every group
of related states at each flag and directive with one step of the group's
abstract configuration (``_settles``), and steps only the pairs of the
groups that step does not settle.

The checks stop a run where the semantics' ``advance`` says it stops.  The
group sweep and the directive trees step a configuration with one call of
the semantics' ``successors``, which steps every candidate there at once,
and call nothing else of it but ``advance``.  A random trial of ``bcc``
is one ``spec_sem.run`` of the hardened program, whose ``pick`` draws each
directive.
"""

from __future__ import annotations

import bisect
import enum
import heapq
import itertools
import random
import re
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .flow_ifc import ACom, Labeling, flow_track, well_labeled
from .harden import DEFAULT_FLAG_VAR, VARIANTS, harden, harden_fs
from .ideal_sem import FsIdealConfig, IdealFS, IdealFiSLH, IdealFvSLH
from .ifc_static import (
    Label,
    LabelMap,
    PUBLIC,
    all_secret,
    wt_cct,
    wt_ifc,
)
from .lang import (
    OPAQUE, Com, SecretDependence, numeral_too_long, program_names, syntax_equal,
)
from .record import Record
from .seq_sem import RunKind, seq_run
from .spec_sem import Speculative, StepTag, feasible, first_cells, run
from .state import (
    ArrayState,
    Dir,
    DLoad,
    FORCE,
    Obs,
    ScalarState,
    SpecConfig,
    STEP,
    dir_sort_key,
    format_dirs,
    pub_equiv_arrays,
    pub_equiv_scalars,
)

DEFAULT_MAX_DIRS = 8
DEFAULT_FUEL = 200


class Bounds(Record):
    max_dirs: int = DEFAULT_MAX_DIRS
    fuel: int = DEFAULT_FUEL
    space: str = ""  # descriptor of the state space a verdict ranged over

    def over(self, space: "StateSpace") -> "Bounds":
        return Bounds(self.max_dirs, self.fuel, space.describe())


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class VerdictStatus(enum.Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    PRECONDITION_FAILED = "precondition-failed"

    def __str__(self):
        return self.value


class Witness(Record):
    s1: Tuple[ScalarState, ArrayState]
    s2: Tuple[ScalarState, ArrayState]
    dirs: Tuple[Dir, ...]
    trace1: Tuple[Obs, ...]
    trace2: Tuple[Obs, ...]
    divergence_index: int


class Verdict(Record):
    """A check's outcome.  ``facts`` are (name, value) pairs saying what
    the check covered (pairs walked, steps or runs checked, equalities
    compared), in print order; ``failures`` are the failure messages of a
    check that reports them instead of a witness, and None for the others."""

    status: VerdictStatus
    witness: Optional[Witness] = None
    bounds: Optional[Bounds] = None
    message: str = ""
    facts: Tuple[Tuple[str, object], ...] = ()
    failures: Optional[Tuple[str, ...]] = None

    @property
    def holds(self) -> bool:
        return self.status is VerdictStatus.HOLDS


def _counted(name: str, count: int, failures: Sequence[str], vacuous: str) -> Verdict:
    """The verdict of a check that counts what it covered and reports
    failure messages; a holds that covered nothing says so."""
    return Verdict(
        VerdictStatus.VIOLATED if failures else VerdictStatus.HOLDS,
        message=vacuous if count == 0 and not failures else "",
        facts=((name, count),),
        failures=tuple(failures),
    )


_NO_PAIR = "vacuous: no pair of states met the lemma's preconditions"


def prefix_of(o1: Sequence[Obs], o2: Sequence[Obs]) -> bool:
    """True iff one observation sequence is a prefix of the other."""
    n = min(len(o1), len(o2))
    return tuple(o1[:n]) == tuple(o2[:n])


# ---------------------------------------------------------------------------
# State spaces
# ---------------------------------------------------------------------------


class SpaceFormatError(Exception):
    pass


class PreconditionError(Exception):
    pass


class _IllTyped(PreconditionError):
    """A program outside a lemma's typing precondition."""


class StateSpace(Record):
    """Finite grid of initial states: per-scalar value domains and per-array
    shapes (fixed size, per-cell domain)."""

    scalars: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    arrays: Tuple[Tuple[str, int, Tuple[int, ...]], ...] = ()

    def names(self) -> frozenset:
        return frozenset(n for n, _ in self.scalars) | frozenset(
            n for n, _, _ in self.arrays
        )

    def count(self) -> int:
        total = 1
        for _, dom in self.scalars:
            total *= len(dom)
        for _, size, dom in self.arrays:
            total *= len(dom) ** size
        return total

    def describe(self) -> str:
        parts = [f"{n} in {{{','.join(map(str, dom))}}}" for n, dom in self.scalars]
        parts += [
            f"{n} : size {size} in {{{','.join(map(str, dom))}}}"
            for n, size, dom in self.arrays
        ]
        return "; ".join(parts)


_SPACE_SCALAR_RE = re.compile(
    r"^([A-Za-z_][A-Za-z_0-9]*)\s+in\s+\{([^}]*)\}$"
)
_SPACE_ARRAY_RE = re.compile(
    r"^([A-Za-z_][A-Za-z_0-9]*)\s*:\s*size\s+(\d+)\s+in\s+\{([^}]*)\}$"
)


def _integer(text: str, lineno: int) -> int:
    """The value of a space file's numeral, or SpaceFormatError: a value
    is a natural number, as in a state file."""
    if not text.isdecimal():
        raise SpaceFormatError(f"line {lineno}: domain values must be natural numbers")
    try:
        return int(text)
    except ValueError:
        raise SpaceFormatError(f"line {lineno}: {numeral_too_long(text)}")


def _domain(text: str, lineno: int) -> Tuple[int, ...]:
    values = tuple(_integer(v.strip(), lineno) for v in text.split(",") if v.strip())
    if not values:
        raise SpaceFormatError(f"line {lineno}: empty domain")
    return values


def parse_space(text: str) -> StateSpace:
    """Space file: ``NAME in {v1,v2,...}`` for scalars, ``NAME : size K in
    {v1,...}`` for arrays, one per line; '#' comments."""
    scalars: List[Tuple[str, Tuple[int, ...]]] = []
    arrays: List[Tuple[str, int, Tuple[int, ...]]] = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SPACE_ARRAY_RE.match(line) or _SPACE_SCALAR_RE.match(line)
        if not m:
            raise SpaceFormatError(
                f"line {lineno}: expected 'NAME in {{...}}' or 'NAME : size K in {{...}}'"
            )
        name = m.group(1)
        if name in seen:
            raise SpaceFormatError(f"line {lineno}: duplicate name {name!r}")
        seen.add(name)
        if m.re is _SPACE_ARRAY_RE:
            size = _integer(m.group(2), lineno)
            arrays.append((name, size, _domain(m.group(3), lineno)))
        else:
            scalars.append((name, _domain(m.group(2), lineno)))
    return StateSpace(tuple(scalars), tuple(arrays))


def enum_states(space: StateSpace) -> Iterator[Tuple[ScalarState, ArrayState]]:
    """Cartesian product of the declared domains, in deterministic order.
    The empty space yields the single all-default state."""
    scalar_names = [n for n, _ in space.scalars]
    scalar_doms = [dom for _, dom in space.scalars]
    array_names = [n for n, _, _ in space.arrays]
    array_doms = [
        list(itertools.product(dom, repeat=size)) for _, size, dom in space.arrays
    ]
    for svals in itertools.product(*scalar_doms):
        rho = ScalarState(dict(zip(scalar_names, svals)))
        for avecs in itertools.product(*array_doms):
            mu = ArrayState(dict(zip(array_names, avecs)))
            yield rho, mu


def _require_arrays(c: Com, mu: ArrayState) -> None:
    """The array precondition of the paper's lemmas: every array the
    program uses is non-empty in ``mu``, where one it leaves out has size
    0.  PreconditionError names the first failing array in name order."""
    empty = [a for a in program_names(c)[1] if mu.size(a) == 0]
    if empty:
        raise PreconditionError(f"array {min(empty)!r} is empty in the initial state")


def _states(c: Com, space: StateSpace) -> list:
    """The states of the space, once the program meets ``_require_arrays``
    on the first: every state of a space has the same arrays.  A space
    that cannot be enumerated, such as one with an array too large to hold
    or to index, raises SpaceFormatError, whether the program uses the
    array or not."""
    try:
        states = list(enum_states(space))  # never empty: the empty space has one state
    except (OverflowError, MemoryError):
        raise SpaceFormatError("state space too large to enumerate") from None
    _require_arrays(c, states[0][1])
    return states


# ---------------------------------------------------------------------------
# Directive trees, over any semantics (spec_sem.Speculative or an ideal one)
# ---------------------------------------------------------------------------


def enum_spec_runs(
    cfg: SpecConfig,
    sem=None,
    max_dirs: int = DEFAULT_MAX_DIRS,
    fuel: int = DEFAULT_FUEL,
) -> List[Tuple[Tuple[Dir, ...], Tuple[Obs, ...], RunKind]]:
    """Exhaustively explore the directive tree of one configuration: every
    feasible directive at every observing redex, up to max_dirs consumed
    directives.  Returns (directives, trace, outcome kind) per leaf.  It
    recurses once per directive: the checks walk their own trees, and this
    is the tests' reference for them."""
    sem = sem or Speculative()
    out: List[Tuple[Tuple[Dir, ...], Tuple[Obs, ...], RunKind]] = []

    def rec(cfg, dirs, trace, fuel_left):
        cfg, used, kind = sem.advance(cfg, fuel_left)
        fuel_left -= used
        if kind is None:
            feas = feasible(sem, cfg)
            if not feas:
                kind = RunKind.STUCK
            elif len(dirs) >= max_dirs:
                kind = RunKind.DIRS_EXHAUSTED
        if kind is not None:
            out.append((dirs, trace, kind))
            return
        for d in feas:
            r = sem.step(cfg, d)
            rec(r.cfg, dirs + (d,), trace + (r.obs,), fuel_left - 1)

    rec(cfg, (), (), fuel)
    return out


class _Node:
    """A configuration advanced to its next observing redex.  Once the tree
    expands it, from one ``sem.successors`` call, ``kids`` holds its
    feasible children under the candidates that are not loads, as (sort
    key, directive, observation, child node), in dir_sort_key order, and
    ``loads`` maps each load class (the value read, see
    ``spec_sem.candidate_classes``) to (the class's first load,
    observation, child node), or to None when its loads are stuck; both are
    None until then.  The node keeps its configuration, which keeps the
    objects its key names by identity alive."""

    __slots__ = ("cfg", "fuel", "depth", "kids", "loads")

    def __init__(self, cfg, fuel: int, depth: int):
        self.cfg, self.fuel, self.depth = cfg, fuel, depth
        self.kids = self.loads = None


# every node the walk does not descend from: terminated, stuck, out of fuel,
# or at the directive bound
_LEAF = _Node(None, 0, 0)


class _Tree:
    """The directive tree of one configuration, each node expanded by one
    ``sem.successors`` call the first time a walk reaches it: its
    candidates that are not loads, in dir_sort_key order (the order the
    semantics list them in), and one load per class (loads of one class
    step alike, see ``spec_sem.candidate_classes``).  A node's subtree
    depends only on its key (``cfg.key()``, fuel, depth), so ``nodes``
    makes the tree a DAG with one node per key."""

    __slots__ = ("sem", "max_dirs", "nodes", "root")

    def __init__(self, sem, cfg, fuel: int, max_dirs: int):
        self.sem, self.max_dirs, self.nodes = sem, max_dirs, {}
        self.root = self._node(cfg, fuel, 0)

    def _node(self, cfg, fuel: int, depth: int) -> _Node:
        if depth >= self.max_dirs:
            return _LEAF
        cfg, used, kind = self.sem.advance(cfg, fuel)
        if kind is not None:
            return _LEAF
        key = (cfg.key(), fuel - used, depth)
        n = self.nodes.get(key)
        if n is None:
            n = self.nodes[key] = _Node(cfg, fuel - used, depth)
        return n

    def expand(self, n: _Node):
        """n's ``kids`` and ``loads``, from one ``sem.successors`` call on
        the first call."""
        if n.kids is None:
            fuel, depth, node = n.fuel - 1, n.depth + 1, self._node
            kids, n.loads = self.sem.successors(n.cfg)
            n.kids = []
            for d, o, c in kids:
                if c is not None:
                    n.kids.append((dir_sort_key(d), d, o, node(c, fuel, depth)))
            if n.loads:
                for v, e in n.loads.items():
                    if e is not None:
                        n.loads[v] = (e[0], e[1], node(e[2], fuel, depth))
        return n.kids, n.loads


def _load_pairs(mu1: ArrayState, mu2: ArrayState) -> dict:
    """The loads two nodes both list, one per distinct pair of classes:
    (value in ``mu1``, value in ``mu2``) -> the first load that reads it,
    in dir_sort_key order of that load.  Both nodes list the loads of the
    arrays both hold, at the indices below both sizes."""
    pairs = {}
    for name, vec1 in sorted(mu1.items()):
        vec2 = mu2.vector(name)
        if vec1 == vec2:  # the usual case: no pair of values to build
            cells = {(v, v): j for v, j in first_cells(vec1).items()}
        else:
            cells = first_cells(list(zip(vec1, vec2)))
        for p, j in cells.items():
            if p not in pairs:
                pairs[p] = DLoad(name, j)
    return pairs


def _joint_divergence(t1: _Tree, t2: _Tree):
    """Search for a directive sequence both runs can consume whose traces
    differ.  Returns (dirs, trace1, trace2, index) for the first divergence
    in canonical order, or None.  Directive sequences only one run can
    consume are vacuous for observational equivalence and are pruned: the
    walk follows the directives feasible on both sides (``_shared``).  It
    enters each node pair once: a pair it left clean (in ``clean``) has no
    divergence under it on any path.  The walk is a depth-first search
    over an explicit stack, one entry per node pair on the current path
    with its children still to try, beside ``path``, the (directive,
    observation 1, observation 2) that led to each but the first."""
    if t1.root is _LEAF or t2.root is _LEAF:
        return None
    stack = [((t1.root, t2.root), _shared(t1, t2, t1.root, t2.root))]
    path, clean = [], set()
    while stack:
        pair, kids = stack[-1]
        for d, o1, c1, o2, c2 in kids:
            if o1 != o2:
                dirs, obs1, obs2 = zip(*path, (d, o1, o2))
                return dirs, obs1, obs2, len(path)
            if c1 is not _LEAF and c2 is not _LEAF and (c1, c2) not in clean:
                path.append((d, o1, o2))
                stack.append(((c1, c2), _shared(t1, t2, c1, c2)))
                break
        else:  # every child is clean
            clean.add(pair)
            stack.pop()
            if path:
                path.pop()
    return None


def _shared(t1: _Tree, t2: _Tree, n1: _Node, n2: _Node):
    """The children two nodes have under one directive, as (directive,
    observation 1, child 1, observation 2, child 2), in dir_sort_key order
    of the directive: the merge of the two nodes' ordered children, then
    the loads both list, one per distinct pair of classes, under its first
    load.  A repeated pair has the same observations and the same pair of
    children, so the walk would find it clean."""
    kids1, loads1 = t1.expand(n1)
    kids2, loads2 = t2.expand(n2)
    k2, end2 = 0, len(kids2)
    for key, d, o1, c1 in kids1:
        while k2 < end2 and kids2[k2][0] < key:
            k2 += 1
        if k2 < end2 and kids2[k2][0] == key:
            yield d, o1, c1, kids2[k2][2], kids2[k2][3]
    # loads sort after every other directive a read admits
    if loads1 and loads2:
        for (v1, v2), d in _load_pairs(n1.cfg.mu, n2.cfg.mu).items():
            e1, e2 = loads1[v1], loads2[v2]
            if e1 is not None and e2 is not None:
                yield d, e1[1], e1[2], e2[1], e2[2]


# ---------------------------------------------------------------------------
# Definition-level checks
# ---------------------------------------------------------------------------


def check_seq_obs_equiv(
    c: Com,
    s1: Tuple[ScalarState, ArrayState],
    s2: Tuple[ScalarState, ArrayState],
    fuel: int = DEFAULT_FUEL,
) -> Verdict:
    """Bounded sequential observational equivalence: the two full traces at
    maximal fuel must be prefix-related (trace monotonicity makes checking
    one fuel value equivalent to checking all of them)."""
    o1 = seq_run(c, s1[0], s1[1], fuel)
    o2 = seq_run(c, s2[0], s2[1], fuel)
    if prefix_of(o1.trace, o2.trace):
        return Verdict(VerdictStatus.HOLDS, bounds=Bounds(0, fuel))
    idx = next(i for i, (a, b) in enumerate(zip(o1.trace, o2.trace)) if a != b)
    return Verdict(VerdictStatus.VIOLATED, Witness(s1, s2, (), o1.trace, o2.trace, idx),
                   Bounds(0, fuel))


def check_spec_obs_equiv(
    c: Com,
    s1: Tuple[ScalarState, ArrayState],
    s2: Tuple[ScalarState, ArrayState],
    flag: bool = False,
    max_dirs: int = DEFAULT_MAX_DIRS,
    fuel: int = DEFAULT_FUEL,
) -> Verdict:
    """Bounded speculative observational equivalence of one program from
    two states: every directive sequence (up to the bound) both
    configurations can consume must produce equal traces on the consumed
    prefix."""
    return _pair_verdict(
        Speculative(), lambda rho, mu: SpecConfig(c, rho, mu, flag), [s1, s2], [[0, 1]],
        Bounds(max_dirs, fuel),
    )


def _public_groups(
    states: Sequence[Tuple[ScalarState, ArrayState]], P: LabelMap, PA: LabelMap
) -> List[List[int]]:
    """The states grouped by their public projection, as ascending index
    lists, in the order of each group's first state."""
    scalars, arrays = sorted(P.public_names()), sorted(PA.public_names())
    groups = {}
    for i, (rho, mu) in enumerate(states):
        key = (tuple([rho.get(n) for n in scalars]), tuple([mu.vector(n) for n in arrays]))
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _abstract_state(states, group: Sequence[int]):
    """One state for a whole group: each scalar and array cell on which the
    group's states all agree, and ``OPAQUE`` for every other.  The scalar
    names are those bound in any of the states, since a state binds no zero
    value.  The callers pass states of one space (``enum_states``), which
    all hold the same arrays at the same sizes: a size-0 array is dropped
    from every state alike.  So the first state's arrays are everyone's."""
    members = [states[s] for s in group]
    m = {}
    for n in set().union(*[rho.names() for rho, _ in members]):
        values = {rho.get(n) for rho, _ in members}
        v = values.pop() if len(values) == 1 else OPAQUE
        if v:
            m[n] = v
    arrays = {
        n: tuple(cells[0] if len(set(cells)) == 1 else OPAQUE
                 for cells in zip(*[mu.vector(n) for _, mu in members]))
        for n in sorted(members[0][1].names())
    }
    return ScalarState.adopt(m), ArrayState(arrays)


def _expands(sem, cfg, bounds: Bounds) -> bool:
    """Whether the directive tree of ``cfg`` expands in full without a step
    that decides something on ``OPAQUE`` (SecretDependence).  It sweeps the
    configurations the tree would reach with an explicit stack and keeps no
    tree: each (configuration, fuel, depth) is stepped by one
    ``sem.successors`` call, which steps each candidate that is not a load
    and each load class, as ``_Tree.expand`` steps a node, so it steps what
    expanding every node of the tree steps.
    ``seen`` keeps each configuration, so that the ids in its key stay
    valid."""
    advance, successors = sem.advance, sem.successors
    max_dirs, todo, seen = bounds.max_dirs, [(cfg, bounds.fuel, 0)], {}
    try:
        while todo:
            cfg, fuel, depth = todo.pop()
            if depth >= max_dirs:
                continue
            cfg, used, kind = advance(cfg, fuel)
            if kind is not None:
                continue
            fuel -= used
            key = (cfg.key(), fuel, depth)
            if key in seen:
                continue
            seen[key] = cfg
            kids, loads = successors(cfg)
            fuel, depth = fuel - 1, depth + 1
            for _, _, succ in kids:
                if succ is not None:
                    todo.append((succ, fuel, depth))
            if loads:
                for e in loads.values():
                    if e is not None:
                        todo.append((e[2], fuel, depth))
    except SecretDependence:
        return False
    return True


def _settled(sem, start, states, groups: Sequence[Sequence[int]], bounds: Bounds) -> set:
    """The states of the groups of two or more that one sweep settles: the
    sweep (``_expands``) from the group's abstract state
    (``_abstract_state``).  If it ends without a SecretDependence, every
    branch, bounds test, candidate list and observation was decided on
    values the group's states share, so each of them has the same directive
    tree, and no pair of the group diverges."""
    settled = set()
    for group in groups:
        if len(group) > 1 and _expands(sem, start(*_abstract_state(states, group)), bounds):
            settled.update(group)
    return settled


class WitnessReplayError(Exception):
    """A violated verdict's witness did not replay: an internal error of the
    checker, never a verdict."""


def _certify(sem, start, w: Witness, fuel: int) -> None:
    """Replay a witness with ``run`` from both of its states, apart from the
    directive trees: the reported traces, equal before the divergence index
    and unequal at it.  WitnessReplayError when it does not replay."""
    t1 = run(sem, start(*w.s1), w.dirs, fuel).trace
    t2 = run(sem, start(*w.s2), w.dirs, fuel).trace
    i = w.divergence_index
    if ((t1, t2) != (w.trace1, w.trace2) or i >= min(len(t1), len(t2))
            or t1[:i] != t2[:i] or t1[i] == t2[i]):
        raise WitnessReplayError(
            f"witness does not replay: directives {format_dirs(w.dirs)!r} give "
            f"traces {t1} and {t2}, divergence index {i}"
        )


def _pair_verdict(
    sem,
    start: Callable[[ScalarState, ArrayState], object],
    states: Sequence[Tuple[ScalarState, ArrayState]],
    groups: Sequence[Sequence[int]],
    bounds: Bounds,
    vacuous: str = "",
    count_pairs: bool = False,
    by_group: bool = False,
    related: Optional[Callable[[int, int], bool]] = None,
) -> Verdict:
    """The verdict of every pair check.  It takes the pairs i < j of the
    ``groups`` (ascending index lists) in nested-scan order, a merge of each
    group's pairs, and walks those ``related`` accepts over the states'
    shared directive trees under ``sem``, rooted at ``start(rho, mu)``; a
    state's tree is built on its first pair walked and dropped after its
    last pair.  The checks over a space skip the groups ``_settled``
    settles (``by_group``), whose pairs are counted, not generated; the
    one-pair checks walk their pair, so the tests' per-pair references stay
    independent of the groups.  It holds, with the ``vacuous`` message when
    there is no pair, or is violated with the first divergent pair's
    witness, once ``_certify`` has replayed it.  With ``count_pairs``, the
    pairs taken up to a violating one, skipped ones included, are the fact
    ``pairs``."""
    settled = _settled(sem, start, states, groups, bounds) if by_group else ()
    walked = [g for g in groups if len(g) > 1 and g[0] not in settled]
    skipped = [g for g in groups if len(g) > 1 and g[0] in settled]
    # a group's state s < top has its last pair at (s, top), and top at
    # (second, top), for the group's last two states second and top
    second = {g[-1]: g[-2] for g in walked}
    trees, taken, witness = {}, 0, None
    for i, j in heapq.merge(*[itertools.combinations(g, 2) for g in walked]):
        taken += 1
        if related is None or related(i, j):
            for s in (i, j):
                if s not in trees:
                    trees[s] = _Tree(sem, start(*states[s]), bounds.fuel, bounds.max_dirs)
            res = _joint_divergence(trees[i], trees[j])
            if res is not None:
                witness = Witness(states[i], states[j], *res)
                break
        if j in second:
            trees.pop(i, None)
            if second[j] == i:
                trees.pop(j, None)
    # the groups are disjoint, so a skipped group's pair (a, b) comes before
    # the violating pair (i, j) when a < i: for m of its n states below i,
    # m(n - 1) - m(m - 1)/2 pairs, and all n(n - 1)/2 when there is none
    for g in skipped:
        n = len(g)
        m = n if witness is None else sum([s < i for s in g])
        taken += m * (n - 1) - m * (m - 1) // 2
    facts = (("pairs", taken),) if count_pairs else ()
    if witness is not None:
        _certify(sem, start, witness, bounds.fuel)
        return Verdict(VerdictStatus.VIOLATED, witness, bounds, facts=facts)
    return Verdict(VerdictStatus.HOLDS, bounds=bounds, message="" if taken else vacuous,
                   facts=facts)


def check_sct(
    c: Com,
    P: LabelMap,
    PA: LabelMap,
    space: StateSpace,
    bounds: Bounds = Bounds(),
) -> Verdict:
    """Speculative constant-time, bounded: every public-equivalent pair of
    initial states from the space, starting non-misspeculating, must be
    speculatively observationally equivalent.  A space without such a pair
    holds vacuously, and the verdict says so."""
    states = _states(c, space)
    return _pair_verdict(
        Speculative(), lambda rho, mu: SpecConfig(c, rho, mu, False), states,
        _public_groups(states, P, PA), bounds.over(space),
        f"vacuous: 0 public-equivalent pairs among {len(states)} states", by_group=True,
    )


def transform(
    variant_kind: str,
    c: Com,
    P: LabelMap,
    PA: LabelMap,
    flag_var: str = DEFAULT_FLAG_VAR,
) -> Com:
    """Apply the named hardening (or none) to a program."""
    if variant_kind not in VARIANTS:
        raise ValueError(f"unknown variant {variant_kind!r}")
    row = VARIANTS[variant_kind]
    if row is None:
        return c
    if variant_kind == "fsfvslh":
        acom, _ = flow_track(c, P, PA, PUBLIC)
        return harden_fs(acom, flag_var)
    return harden(row, c, P, PA, flag_var)


def transform_over(
    variant_kind: str,
    c: Com,
    P: LabelMap,
    PA: LabelMap,
    space: StateSpace,
    flag_var: str = DEFAULT_FLAG_VAR,
) -> Com:
    """``transform`` for a check whose speculative runs start from the
    states of ``space`` not misspeculating (``sct`` and ``relsec``).  A
    hardened program owns its flag variable, whose value 0 at the start
    says so; a space that binds it raises PreconditionError."""
    hardened = transform(variant_kind, c, P, PA, flag_var)
    if VARIANTS[variant_kind] is not None and flag_var in space.names():
        raise PreconditionError(f"state space binds the reserved flag variable {flag_var!r}")
    return hardened


def _seq_traces(c: Com, states, groups: Sequence[Sequence[int]], fuel: int) -> dict:
    """The sequential trace of every state of the ``groups``, by index: one
    ``seq_run`` per group, from its abstract state (``_abstract_state``).
    If that run decides nothing on ``OPAQUE``, every branch, bounds test
    and observation was decided on values the group's states share, so each
    of them takes the same steps and has this trace.  A group whose run
    raises SecretDependence gets one run per state."""
    traces = {}
    for group in groups:
        if len(group) > 1:
            try:
                trace = seq_run(c, *_abstract_state(states, group), fuel).trace
            except SecretDependence:
                pass
            else:
                traces.update(dict.fromkeys(group, trace))
                continue
        for s in group:
            traces[s] = seq_run(c, *states[s], fuel).trace
    return traces


def _premise_components(group: Sequence[int], traces: dict) -> List[List[int]]:
    """A group's states split into the connected components of its pairs
    with prefix-related traces, as ascending index lists.  A component
    holds the states of one trace with no proper prefix among the group's
    traces and of every trace extending it, which sort right after it;
    observations are unordered records, so a trace sorts by their reprs."""
    by_trace = {}
    for s in group:
        by_trace.setdefault(traces[s], []).append(s)
    components, root = [], None
    for t in sorted(by_trace, key=lambda t: tuple(map(repr, t))):
        if root is None or not prefix_of(root, t):
            root = t
            components.append([])
        components[-1].extend(by_trace[t])
    return [sorted(part) for part in components]


def check_relative_security(
    variant_kind: str,
    c: Com,
    P: LabelMap,
    PA: LabelMap,
    space: StateSpace,
    bounds: Bounds = Bounds(),
    flag_var: str = DEFAULT_FLAG_VAR,
) -> Verdict:
    """Bounded relative security of a hardening variant on one program: for
    every public-equivalent pair of initial states whose *source* runs are
    sequentially observationally equivalent, the hardened program's runs
    must be speculatively observationally equivalent.

    Pairs failing the sequential premise are skipped (the source already
    leaks the difference).  variant_kind 'none' checks the source program
    itself.  'uslh' pairs all states regardless of the labeling, matching
    its theorem, which has no public-equivalence premise; its premise runs
    are still grouped by the labeling (``_seq_traces``).  A program that
    uses the flag variable raises FlagCollisionError, as ``transform`` does
    for every other check, and a hardening over a space that binds it
    raises PreconditionError, as it does for ``sct`` (``transform_over``);
    so does a program that uses an array the space leaves empty, as for
    every check over a space (``_states``).
    """
    if variant_kind not in VARIANTS:
        return Verdict(VerdictStatus.PRECONDITION_FAILED,
                       message=f"unknown variant {variant_kind!r}")
    hardened = transform_over(variant_kind, c, P, PA, space, flag_var)
    states = _states(c, space)
    if variant_kind in ("fislh", "fvslh") and not wt_ifc(P, PA, PUBLIC, c):
        return Verdict(VerdictStatus.PRECONDITION_FAILED,
                       message=f"{variant_kind} requires an IFC-well-typed program")
    bounds = bounds.over(space)
    groups = _public_groups(states, P, PA)
    # a public group's states are all paired or none is
    if variant_kind == "uslh":
        pairing = [list(range(len(states)))] if len(states) > 1 else []
        premised = groups if pairing else []
    else:
        pairing = premised = [g for g in groups if len(g) > 1]
    traces = _seq_traces(c, states, premised, bounds.fuel)
    pairs = sum(len(g) * (len(g) - 1) // 2 for g in pairing)
    # a component of two or more states has a pair that meets the premise
    return _pair_verdict(
        Speculative(), lambda rho, mu: SpecConfig(hardened, rho, mu, False), states,
        [part for g in pairing for part in _premise_components(g, traces)], bounds,
        f"vacuous: 0 of {pairs} public-equivalent pairs passed the sequential premise",
        by_group=True,
        related=lambda i, j: traces[i] is traces[j] or prefix_of(traces[i], traces[j]),
    )


def check_equality(c: Com, P: LabelMap, PA: LabelMap) -> Verdict:
    """The transformation equalities on one program: fiSLH equals sSLH on a
    constant-time typed program, and fiSLH and fvSLH equal uSLH under the
    all-secret labeling.  Each comparison made is a fact; the uSLH program
    is built once, for both of its comparisons."""
    facts = []
    if wt_cct(P, PA, c):
        equal = syntax_equal(transform("fislh", c, P, PA), transform("sislh", c, P, PA))
        facts.append(("fislh_eq_sislh", equal))
    secret = all_secret()
    uslh = transform("uslh", c, secret, secret)
    for v in ("fislh", "fvslh"):
        facts.append((f"{v}_eq_uslh_all_secret",
                      syntax_equal(transform(v, c, secret, secret), uslh)))
    ok = all(equal for _, equal in facts)
    return Verdict(VerdictStatus.HOLDS if ok else VerdictStatus.VIOLATED, facts=tuple(facts))


# ---------------------------------------------------------------------------
# Lemma-level checks
# ---------------------------------------------------------------------------


def _ideal_source(variant_kind: str, c: Com, P: LabelMap, PA: LabelMap, typed: bool):
    """The ideal semantics of a flexible variant, a builder of its initial
    configurations from (rho, mu, flag), and the program they start from:
    for fsfvslh the program's annotation, computed here once, and ``c``
    otherwise.  A variant with no ideal semantics raises PreconditionError.
    With ``typed``, a program outside the lemmas' typing precondition (IFC
    well-typed, or for fsfvslh a well-labeled annotation) raises
    ``_IllTyped``, a PreconditionError."""
    if variant_kind == "fsfvslh":
        acom, final = flow_track(c, P, PA, PUBLIC)
        if typed and not well_labeled(acom, Labeling(P, PA), PUBLIC, final):
            raise _IllTyped("analysis output not well-labeled")
        return (IdealFS(), lambda rho, mu, flag: FsIdealConfig(acom, rho, mu, flag, PUBLIC, P, PA),
                acom)
    if variant_kind == "fislh":
        sem = IdealFiSLH(P)
    elif variant_kind == "fvslh":
        sem = IdealFvSLH(P)
    else:
        raise PreconditionError(
            f"no ideal semantics for variant {variant_kind!r}; the other variants "
            "are covered through the flexible ones"
        )
    if typed and not wt_ifc(P, PA, PUBLIC, c):
        raise _IllTyped("program not IFC-well-typed")
    return sem, lambda rho, mu, flag: SpecConfig(c, rho, mu, flag), c


def _bcc_programs(variant_kind: str, c: Com, P: LabelMap, PA: LabelMap, flag_var: str):
    """The ideal semantics of a bcc check, its builder of source
    configurations, and the hardened program; fsfvslh hardens the
    annotation the source starts from, so the analysis runs once."""
    sem, start, source = _ideal_source(variant_kind, c, P, PA, typed=False)
    if variant_kind == "fsfvslh":
        return sem, start, harden_fs(source, flag_var)
    return sem, start, transform(variant_kind, c, P, PA, flag_var)


def check_bcc(
    variant_kind: str,
    c: Com,
    P: LabelMap,
    PA: LabelMap,
    rho: ScalarState,
    mu: ArrayState,
    dirs: Sequence[Dir],
    fuel: int = DEFAULT_FUEL,
    flag_var: str = DEFAULT_FLAG_VAR,
) -> Tuple[bool, str]:
    """Backwards compiler correctness, one run: the hardened program under
    the speculative semantics and the source under the matching ideal
    semantics, driven by the same directives, must produce identical traces
    and directive consumption, identical arrays and misspeculation flag, and
    scalars identical off the flag variable.  A terminated hardened run must
    map to a terminated (or terminal) source run whose program flag variable
    encodes the semantic flag.

    Side conditions: every array the program uses is non-empty, the source
    does not use the flag variable (the hardening refuses it), and the flag
    variable's initial value encodes the initial misspeculation flag.
    """
    sem, start, hardened = _bcc_programs(variant_kind, c, P, PA, flag_var)
    _require_arrays(c, mu)
    flag = _bcc_flag(rho, flag_var)
    return _bcc_run(Speculative(), sem, start, hardened, rho, mu, flag, dirs, fuel, flag_var)


def check_bcc_space(
    variant_kind: str,
    c: Com,
    P: LabelMap,
    PA: LabelMap,
    space: StateSpace,
    bounds: Bounds = Bounds(),
    dirs: Optional[Sequence[Dir]] = None,
    trials: int = 0,
    seed: int = 0,
    flag_var: str = DEFAULT_FLAG_VAR,
) -> Verdict:
    """check_bcc over a space, from each state in enumeration order with
    ``dirs``, and otherwise from ``trials`` states drawn at random (seeded
    by ``seed``).  Each run starts with the flag the state's flag variable
    encodes and consumes ``dirs``.  A random trial is instead one run of
    the hardened program that picks a feasible directive at each observing
    redex, drawn from the same generator right after its state, until it
    has consumed ``bounds.max_dirs``; the ideal source then runs over the
    directives consumed.  The hardened program, the ideal source and the
    speculative semantics are prepared once, and the array precondition
    checked once (``_states``), before any run, so every run shares one
    per-check table.  Stops at the first failing run; the verdict counts
    the runs as ``runs`` and holds the failure message."""
    sem, start, hardened = _bcc_programs(variant_kind, c, P, PA, flag_var)
    spec = Speculative()
    states = _states(c, space)
    rng = random.Random(seed)
    picks = states if dirs is not None else (
        states[rng.randrange(len(states))] for _ in range(trials))
    vacuous = "vacuous: no run was checked"
    count = 0

    def draw(cfg, feas):  # a random trial's pick, over the trial's ``walk``
        return rng.choice(feas) if len(walk) < bounds.max_dirs else None

    for rho, mu in picks:
        walk, pick = (dirs, None) if dirs is not None else ([], draw)
        count += 1
        ok, why = _bcc_run(spec, sem, start, hardened, rho, mu, _bcc_flag(rho, flag_var), walk,
                           bounds.fuel, flag_var, pick)
        if not ok:
            return _counted("runs", count, [why], vacuous)
    return _counted("runs", count, [], vacuous)


def _bcc_flag(rho: ScalarState, flag_var: str) -> bool:
    """The initial misspeculation flag of a bcc run, encoded by the flag
    variable; PreconditionError when its value is neither 0 nor 1."""
    b0 = rho.get(flag_var)
    if b0 not in (0, 1):
        raise PreconditionError(
            f"{flag_var!r} must be 0 or 1 in the initial state, found {b0}"
        )
    return bool(b0)


def _bcc_run(
    spec, sem, start, hardened, rho, mu, flag, dirs, fuel, flag_var, pick=None
) -> Tuple[bool, str]:
    target = run(spec, SpecConfig(hardened, rho, mu, flag), dirs, fuel, pick)
    if target.kind is RunKind.FUEL_EXHAUSTED:
        raise PreconditionError("fuel too small for the hardened run")
    used = list(dirs[: target.consumed])
    source = run(sem, start(rho, mu, flag), used, fuel)
    if source.kind is RunKind.FUEL_EXHAUSTED:
        raise PreconditionError("fuel too small for the ideal run")

    if source.consumed != target.consumed:
        return False, (
            f"consumed {source.consumed} directives ideally "
            f"vs {target.consumed} speculatively"
        )
    if source.trace != target.trace:
        return False, f"traces differ: ideal {source.trace} vs spec {target.trace}"
    src_cfg, tgt_cfg = source.final, target.final
    if src_cfg.mu != tgt_cfg.mu:
        return False, "array states differ"
    if src_cfg.flag != tgt_cfg.flag:
        return False, "misspeculation flags differ"
    names = (src_cfg.rho.names() | tgt_cfg.rho.names()) - {flag_var}
    for n in sorted(names):
        if src_cfg.rho.get(n) != tgt_cfg.rho.get(n):
            return False, f"scalar {n!r} differs off the flag variable"
    if target.kind is RunKind.TERMINATED:
        if source.kind is not RunKind.TERMINATED:
            return False, f"target terminated but source {source.kind}"
        if tgt_cfg.rho.get(flag_var) != (1 if tgt_cfg.flag else 0):
            return False, "terminated run: flag variable does not encode the flag"
    return True, "ok"


def _unrelated(variant_kind: str, P: LabelMap, PA: LabelMap, s1, s2, flag: bool) -> str:
    """Why two states are not related by the premise of the lemmas of the
    ideal semantics, or the empty string when they are: equal public
    scalars, and equal public arrays, for fislh always and for the value
    variants (fvslh, fsfvslh) only when not misspeculating."""
    if not pub_equiv_scalars(P, s1[0], s2[0]):
        return "scalars not public-equivalent"
    if variant_kind == "fislh":
        if not pub_equiv_arrays(PA, s1[1], s2[1]):
            return "arrays not public-equivalent"
    elif not flag and not pub_equiv_arrays(PA, s1[1], s2[1]):
        return "arrays not public-equivalent at flag=F"
    return ""


def _related_groups(variant_kind: str, states, P: LabelMap, PA: LabelMap) -> List[List[int]]:
    """The states grouped by what ``_unrelated`` compares at both flags:
    public scalars, and for fislh public arrays too (``_public_groups``).
    Two states of different groups are unrelated at either flag."""
    return _public_groups(states, P, PA if variant_kind == "fislh" else all_secret())


def _step_ni(
    sem, variant_kind: str, P: LabelMap, PA: LabelMap, cfg1, cfg2, d: Optional[Dir]
) -> Tuple[bool, str]:
    """One step of two related configurations under the same directive."""
    r1 = sem.step(cfg1, d)
    r2 = sem.step(cfg2, d)
    if r1.tag is not StepTag.STEPPED or r2.tag is not StepTag.STEPPED:
        return True, "vacuous: a side is stuck"
    if r1.obs != r2.obs or r1.consumed != r2.consumed:
        return True, "vacuous: observations differ"
    n1, n2 = r1.cfg, r2.cfg
    prog1 = n1.acom if isinstance(n1, FsIdealConfig) else n1.com
    prog2 = n2.acom if isinstance(n2, FsIdealConfig) else n2.com
    if not syntax_equal(prog1, prog2):
        return False, "successor commands differ"
    if n1.flag != n2.flag:
        return False, "successor flags differ"
    # the flow-sensitive variant relates states through its dynamic
    # labelings (a secret stored into a public array re-labels the array);
    # the fixed-labeling variants exclude that by typing
    if isinstance(n1, FsIdealConfig):
        if (n1.pc, n1.P, n1.PA) != (n2.pc, n2.P, n2.PA):
            return False, "successor dynamic labelings differ"
        out_P, out_PA = n1.P, n1.PA
    else:
        out_P, out_PA = P, PA
    why = _unrelated(variant_kind, out_P, out_PA, (n1.rho, n1.mu), (n2.rho, n2.mu), n1.flag)
    return (False, "successor " + why) if why else (True, "ok")


def check_step_ni(
    variant_kind: str,
    c: Com,
    P: LabelMap,
    PA: LabelMap,
    s1: Tuple[ScalarState, ArrayState],
    s2: Tuple[ScalarState, ArrayState],
    flag: bool,
    d: Optional[Dir],
) -> Tuple[bool, str]:
    """Single-step noninterference of the ideal semantics: from two states
    related at ``flag`` (``_unrelated``), steps of the same command with
    equal directive and observation yield equal successor commands, equal
    flags, and successor states related at the successor flag.  Two
    unrelated states raise PreconditionError, saying why.

    Vacuously true when either side cannot step or the observations differ.
    """
    sem, start, _ = _ideal_source(variant_kind, c, P, PA, typed=True)
    why = _unrelated(variant_kind, P, PA, s1, s2, flag)
    if why:
        raise PreconditionError(why)
    return _step_ni(sem, variant_kind, P, PA, start(*s1, flag), start(*s2, flag), d)


_NI_DIRS = (None, STEP, FORCE)


def _settles(sem, variant_kind: str, P: LabelMap, PA: LabelMap, cfg, d: Optional[Dir]) -> bool:
    """Whether one step of ``cfg``, a group's abstract configuration
    (``_abstract_state``), under ``d`` decides ``_step_ni`` for every pair
    of the group's states.  The step must decide nothing on ``OPAQUE``
    (SecretDependence).  Then a stuck step leaves every state stuck, which
    is vacuous, and otherwise every state takes the same rule to the same
    command, flag and labelings, so what remains is that ``OPAQUE`` is
    absent from what ``_step_ni`` compares: the observation, the public
    scalars of the output labeling, and its public arrays where the
    variant's relation compares them at the successor flag.  ``_unrelated``
    of the abstract successor with itself would not do: it compares
    ``OPAQUE`` cells equal, by identity."""
    try:
        r = sem.step(cfg, d)
    except SecretDependence:
        return False
    if r.tag is not StepTag.STEPPED:
        return True
    n = r.cfg
    out_P, out_PA = (n.P, n.PA) if isinstance(n, FsIdealConfig) else (P, PA)
    arrays = out_PA.public_names() if variant_kind == "fislh" or not n.flag else ()
    compared = [*(r.obs or ()), *[n.rho.get(x) for x in out_P.public_names()],
                *[v for a in arrays for v in n.mu.vector(a)]]
    for v in compared:
        if v is OPAQUE:
            return False
    return True


def check_ni(
    variant_kind: str, c: Com, P: LabelMap, PA: LabelMap, space: StateSpace
) -> Verdict:
    """check_step_ni over the space: every pair of states (a state with
    itself included) in nested-scan order, both flags, and the directives
    none, step and force.  The program is typed once; an ill-typed program
    checks nothing, and a variant with no ideal semantics raises
    PreconditionError.  A pair is checked at a flag where its two states
    share a group: their ``_public_groups`` group at flag false, and their
    ``_related_groups`` group at flag true (for fislh the same grouping).
    At any other flag it is outside the lemma's premise (``_unrelated``).

    Every group is decided at its flag and each directive by one step of
    its abstract configuration (``_settles``), which counts the group's
    pairs without stepping them.  A singleton always settles: its
    configuration holds no ``OPAQUE``, and a state steps like itself.  The
    pairs of a group at the directives it leaves open are stepped, so the
    verdict, which counts the steps as ``checked``, settled ones included,
    holds the failure message of every failing step, in pair order."""
    states = _states(c, space)
    try:
        sem, start, _ = _ideal_source(variant_kind, c, P, PA, typed=True)
    except _IllTyped:
        return _counted("checked", 0, [], _NO_PAIR)
    member = {}  # (flag, state) -> its group at that flag, and the directives left open
    checked = 0
    for flag, groups in ((False, _public_groups(states, P, PA)),
                         (True, _related_groups(variant_kind, states, P, PA))):
        for g in groups:
            cfg = start(*_abstract_state(states, g), flag)
            entry = (g, [d for d in _NI_DIRS if not _settles(sem, variant_kind, P, PA, cfg, d)])
            member.update(((flag, s), entry) for s in g)
            checked += 3 * (len(g) * (len(g) + 1) // 2)
    failures = []
    for i in range(len(states)):
        (own, own_dirs), (row, row_dirs) = member[False, i], member[True, i]
        if not (own_dirs or row_dirs):
            continue  # both groups of row i are settled
        # the pairs (i, j), j >= i, of the related group, or of the public
        # group, which lies in it, where the related group is settled
        cols = row if row_dirs else own
        for j in cols[bisect.bisect_left(cols, i):]:
            for flag, dirs in ((False, own_dirs if member[False, j][0] is own else ()),
                               (True, row_dirs)):
                if dirs:
                    cfg1, cfg2 = start(*states[i], flag), start(*states[j], flag)
                for d in dirs:
                    ok, why = _step_ni(sem, variant_kind, P, PA, cfg1, cfg2, d)
                    if not ok:
                        failures.append(why)
    return _counted("checked", checked, failures, _NO_PAIR)


def check_unwinding(
    variant_kind: str,
    c: Com,
    P: LabelMap,
    PA: LabelMap,
    s1: Tuple[ScalarState, ArrayState],
    s2: Tuple[ScalarState, ArrayState],
    bounds: Bounds = Bounds(),
) -> Verdict:
    """Unwinding of ideal misspeculated executions: from well-typed (or
    well-labeled) configurations that are already misspeculating and
    related at that flag (``_unrelated``), identical directives yield
    identical observations."""
    try:
        sem, start, _ = _ideal_source(variant_kind, c, P, PA, typed=True)
    except PreconditionError as exc:
        return Verdict(VerdictStatus.PRECONDITION_FAILED, message=str(exc))
    why = _unrelated(variant_kind, P, PA, s1, s2, True)
    if why:
        return Verdict(VerdictStatus.PRECONDITION_FAILED, message=why)
    return _pair_verdict(sem, lambda rho, mu: start(rho, mu, True), [s1, s2], [[0, 1]], bounds)


def check_unwinding_space(
    variant_kind: str,
    c: Com,
    P: LabelMap,
    PA: LabelMap,
    space: StateSpace,
    bounds: Bounds = Bounds(),
) -> Verdict:
    """check_unwinding over the space: the pairs of states meeting the
    lemma's premise, those of one ``_related_groups`` group (equal public
    scalars, and for fislh equal public arrays), in nested-scan order,
    walked over shared directive trees.  The program is typed once; an
    ill-typed program walks no pair, and a variant with no ideal semantics
    raises PreconditionError.  The verdict counts the pairs walked, up to
    and including a violating one, as ``pairs``."""
    bounds = bounds.over(space)
    states = _states(c, space)
    try:
        sem, start, _ = _ideal_source(variant_kind, c, P, PA, typed=True)
    except _IllTyped:
        return _pair_verdict(None, None, [], [], bounds, _NO_PAIR, count_pairs=True)
    return _pair_verdict(
        sem, lambda rho, mu: start(rho, mu, True), states,
        _related_groups(variant_kind, states, P, PA),
        bounds, _NO_PAIR, count_pairs=True, by_group=True,
    )


def check_wl_preservation(
    acom: ACom,
    initial: Labeling,
    pc: Label,
    final: Labeling,
    rho: ScalarState,
    mu: ArrayState,
    flag: bool,
    d: Optional[Dir],
) -> Tuple[bool, str]:
    """One flow-sensitive ideal step from a well-labeled configuration must
    leave a configuration well-labeled against the same final labeling."""
    if not well_labeled(acom, initial, pc, final):
        raise PreconditionError("initial configuration not well-labeled")
    cfg = FsIdealConfig(acom, rho, mu, flag, pc, initial.vars, initial.arrs)
    return _wl_successor(IdealFS().step(cfg, d), final)


def _wl_successor(r, final: Labeling) -> Tuple[bool, str]:
    """check_wl_preservation's conclusion on the result ``r`` of one step
    from a well-labeled configuration."""
    if r.tag is not StepTag.STEPPED:
        return True, "vacuous: no step"
    n = r.cfg
    if well_labeled(n.acom, Labeling(n.P, n.PA), n.pc, final):
        return True, "ok"
    return False, "successor not well-labeled"


def check_wl(
    c: Com,
    P: LabelMap,
    PA: LabelMap,
    space: StateSpace,
    bounds: Bounds = Bounds(),
    seed: int = 0,
) -> Verdict:
    """Well-labeledness preservation along random flow-sensitive ideal
    walks: from each state of the space, up to ``4 * max_dirs`` steps under
    directives drawn by a generator seeded with ``seed``.  Each step is
    taken once and its successor checked, as check_wl_preservation
    concludes; the premise that the configuration stepped is well-labeled
    is the analysis output's at a walk's start and the previous step's
    conclusion after it.  The verdict counts the steps as ``checked`` and
    holds the reason of the first failure; a failure at 0 steps means the
    analysis output itself is not well-labeled."""
    vacuous = "vacuous: no step was checked"
    states = _states(c, space)
    acom, final = flow_track(c, P, PA, PUBLIC)
    if not well_labeled(acom, Labeling(P, PA), PUBLIC, final):
        return _counted("checked", 0, ["analysis output not well-labeled"], vacuous)
    rng = random.Random(seed)
    fs = IdealFS()
    checked = 0
    for rho, mu in states:
        cfg = FsIdealConfig(acom, rho, mu, False, PUBLIC, P, PA)
        for _ in range(bounds.max_dirs * 4):
            feas = feasible(fs, cfg)
            r = fs.step(cfg, rng.choice(feas) if feas else None)
            ok, why = _wl_successor(r, final)
            checked += 1
            if not ok:
                return _counted("checked", checked, [why], vacuous)
            if r.tag is not StepTag.STEPPED:
                break
            cfg = r.cfg
    return _counted("checked", checked, [], vacuous)
