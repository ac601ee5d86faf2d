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
once and its states grouped by their public projection, which yields the
public-equivalent pairs in nested-scan order.  Each state gets one
sequential run (the relative-security premise) and one directive tree,
expanded lazily, shared by every pair walk the state takes part in, and
dropped after the state's last pair.  A tree is a DAG: its nodes are
hash-consed on (configuration, fuel, depth) (Filliâtre & Conchon, ML
Workshop 2006), so paths that reconverge on a configuration step it once,
and no node is freed behind a walk, since another parent may reach it.  A
pair walk merges two trees, stepping each (node, directive) at most once,
and skips the node pairs it already found clean, which are clean in any
context (the product visited set of explicit-state model checking).  A
check that walks no pair holds vacuously and says so in its message.  The
unwinding check over a space walks its pairs the same way, under the ideal
semantics; it and the noninterference check type the program once.

The checks stop a run where ``spec_sem.advance`` says it stops, and draw
their random walks from ``gen``, which holds every generator.
"""

from __future__ import annotations

import enum
import itertools
import random
import re
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .flow_ifc import ACom, Labeling, flow_track, well_labeled
from .gen import random_spec_walk
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
from .lang import Com, numeral_too_long, syntax_equal
from .record import Record
from .seq_sem import RunKind, seq_run
from .spec_sem import Speculative, StepTag, advance, feasible, load_class, run
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
    """The value of a space file's integer, or SpaceFormatError."""
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text[0] in "+-" else text
        if digits.isdecimal():
            raise SpaceFormatError(f"line {lineno}: {numeral_too_long(digits)}")
        raise SpaceFormatError(f"line {lineno}: domain values must be integers")


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
    directives.  Returns (directives, trace, outcome kind) per leaf."""
    sem = sem or Speculative()
    out: List[Tuple[Tuple[Dir, ...], Tuple[Obs, ...], RunKind]] = []

    def rec(cfg, dirs, trace, fuel_left):
        cfg, used, kind = advance(sem, cfg, fuel_left)
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
    """A configuration advanced to its next observing redex.  ``kids`` holds
    the feasible children stepped so far, as (sort key, directive,
    observation, child node), in dir_sort_key order; ``cands`` are the
    candidate directives and ``pos`` the first one not yet stepped.
    ``classes`` maps each load class (``load_class``) stepped so far to the
    ``kids`` entry of its first load, or to None when it is stuck, until
    every candidate is stepped.  The node keeps its configuration, which keeps
    the objects its key names by identity alive."""

    __slots__ = ("cfg", "fuel", "depth", "cands", "pos", "kids", "classes")

    def __init__(self, cfg, fuel: int, depth: int):
        self.cfg, self.fuel, self.depth = cfg, fuel, depth
        self.cands, self.pos, self.kids, self.classes = None, 0, [], None


# every node the walk does not descend from: terminated, stuck, out of fuel,
# or at the directive bound
_LEAF = _Node(None, 0, 0)


class _Tree:
    """The directive tree of one configuration, expanded on demand: a node's
    children are stepped one directive at a time, in dir_sort_key order
    (the order the semantics list their candidates in), each at most once,
    and a load not at all when an earlier load of its class was (loads of
    one class step alike, see ``spec_sem.load_class``).  A node's subtree
    depends only on its key (``cfg.key()``, fuel, depth), so ``nodes`` makes
    the tree a DAG with one node per key."""

    __slots__ = ("sem", "max_dirs", "nodes", "root")

    def __init__(self, sem, cfg, fuel: int, max_dirs: int):
        self.sem, self.max_dirs, self.nodes = sem, max_dirs, {}
        self.root = self._node(cfg, fuel, 0)

    def _node(self, cfg, fuel: int, depth: int) -> _Node:
        if depth >= self.max_dirs:
            return _LEAF
        cfg, used, kind = advance(self.sem, cfg, fuel)
        if kind is not None:
            return _LEAF
        key = (cfg.key(), fuel - used, depth)
        n = self.nodes.get(key)
        if n is None:
            n = self.nodes[key] = _Node(cfg, fuel - used, depth)
        return n

    def kid(self, n: _Node, k: int):
        """The k-th feasible child of n, or None past the last one.  Only
        the first load of each class is stepped; the others share its
        observation and child, each under its own directive."""
        kids = n.kids
        while k >= len(kids):
            if n.cands is None:
                n.cands = self.sem.candidates(n.cfg)
            if n.pos == len(n.cands):
                n.classes = None
                return None
            d = n.cands[n.pos]
            n.pos += 1
            # every directive but a load is a class of its own
            cls = load_class(n.cfg, d) if d.__class__ is DLoad else None
            if cls is not None and n.classes is not None and cls in n.classes:
                first = n.classes[cls]
                if first is not None:
                    kids.append((dir_sort_key(d), d, first[2], first[3]))
                continue
            r = self.sem.step(n.cfg, d)
            stepped = r.tag is StepTag.STEPPED
            if stepped:
                child = self._node(r.cfg, n.fuel - 1, n.depth + 1)
                kids.append((dir_sort_key(d), d, r.obs, child))
            if cls is not None:
                if n.classes is None:
                    n.classes = {}
                n.classes[cls] = kids[-1] if stepped else None
        return kids[k]


def _joint_divergence(t1: _Tree, t2: _Tree):
    """Search for a directive sequence both runs can consume whose traces
    differ.  Returns (dirs, trace1, trace2, index) for the first divergence
    in canonical order, or None.  Directive sequences only one run can
    consume are vacuous for observational equivalence and are pruned: the
    walk follows the directives feasible on both sides, merging the two
    nodes' ordered children.  It enters each node pair once: a pair it
    left clean (in ``clean``) has no divergence under it on any path."""
    return _walk(t1, t2, t1.root, t2.root, [], [], [], set())


def _walk(t1: _Tree, t2: _Tree, n1: _Node, n2: _Node, dirs, obs1, obs2, clean):
    # a module-level function rather than a closure: a self-referencing
    # closure would keep both trees alive until the cyclic collector runs
    if n1 is _LEAF or n2 is _LEAF or (n1, n2) in clean:
        return None
    k1 = k2 = 0
    e1, e2 = t1.kid(n1, 0), t2.kid(n2, 0)
    while e1 is not None and e2 is not None:
        key1, key2 = e1[0], e2[0]
        if key1 == key2:
            d, o1, o2 = e1[1], e1[2], e2[2]
            if o1 != o2:
                return (
                    tuple(dirs) + (d,), tuple(obs1) + (o1,), tuple(obs2) + (o2,),
                    len(obs1),
                )
            dirs.append(d)
            obs1.append(o1)
            obs2.append(o2)
            res = _walk(t1, t2, e1[3], e2[3], dirs, obs1, obs2, clean)
            if res is not None:
                return res
            dirs.pop()
            obs1.pop()
            obs2.pop()
        # advance the side with the smaller directive, or both on a match
        if key1 <= key2:
            k1 += 1
            e1 = t1.kid(n1, k1)
        if key2 <= key1:
            k2 += 1
            e2 = t2.kid(n2, k2)
    clean.add((n1, n2))
    return None


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
    idx = next(
        i for i, (a, b) in enumerate(zip(o1.trace, o2.trace)) if a != b
    )
    return Verdict(
        VerdictStatus.VIOLATED,
        Witness(s1, s2, (), o1.trace, o2.trace, idx),
        Bounds(0, fuel),
    )


def check_spec_obs_equiv(
    c1: Com,
    s1: Tuple[ScalarState, ArrayState],
    c2: Com,
    s2: Tuple[ScalarState, ArrayState],
    flag: bool = False,
    max_dirs: int = DEFAULT_MAX_DIRS,
    fuel: int = DEFAULT_FUEL,
) -> Verdict:
    """Bounded speculative observational equivalence: every directive
    sequence (up to the bound) both configurations can consume must produce
    equal traces on the consumed prefix."""
    sem = Speculative()
    res = _joint_divergence(
        _Tree(sem, SpecConfig(c1, s1[0], s1[1], flag), fuel, max_dirs),
        _Tree(sem, SpecConfig(c2, s2[0], s2[1], flag), fuel, max_dirs),
    )
    bounds = Bounds(max_dirs, fuel)
    if res is None:
        return Verdict(VerdictStatus.HOLDS, bounds=bounds)
    dirs, t1, t2, idx = res
    return Verdict(VerdictStatus.VIOLATED, Witness(s1, s2, dirs, t1, t2, idx), bounds)


def _equivalent_pairs(
    states: Sequence[Tuple[ScalarState, ArrayState]], P: LabelMap, PA: LabelMap
) -> List[Tuple[int, int]]:
    """Index pairs i < j of public-equivalent states, in the order of a
    nested scan.  States are grouped by their public projection, so only
    pairs within a group are formed."""
    scalars, arrays = sorted(P.public_names()), sorted(PA.public_names())
    groups = {}
    group_of = []
    for i, (rho, mu) in enumerate(states):
        key = (tuple([rho.get(n) for n in scalars]), tuple([mu.vector(n) for n in arrays]))
        group = groups.setdefault(key, [])
        group.append(i)
        group_of.append(group)
    return [(i, j) for i, group in enumerate(group_of) for j in group if j > i]


def _first_divergent_pair(
    sem,
    start: Callable[[ScalarState, ArrayState], object],
    states: Sequence[Tuple[ScalarState, ArrayState]],
    pairs: Sequence[Tuple[int, int]],
    bounds: Bounds,
) -> Optional[Tuple[int, Witness]]:
    """Walk the pairs in order, each over the two states' shared directive
    trees under ``sem``, rooted at ``start(rho, mu)``; a state's tree is
    built on its first pair and dropped after its last.  Returns the
    position of the first divergent pair and its witness."""
    last = {}
    for k, (i, j) in enumerate(pairs):
        last[i] = last[j] = k
    trees = {}
    for k, (i, j) in enumerate(pairs):
        for s in (i, j):
            if s not in trees:
                trees[s] = _Tree(sem, start(*states[s]), bounds.fuel, bounds.max_dirs)
        res = _joint_divergence(trees[i], trees[j])
        if res is not None:
            return k, Witness(states[i], states[j], *res)
        for s in (i, j):
            if last[s] == k:
                del trees[s]
    return None


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
    bounds = bounds.over(space)
    states = list(enum_states(space))
    pairs = _equivalent_pairs(states, P, PA)
    if not pairs:
        return Verdict(
            VerdictStatus.HOLDS,
            bounds=bounds,
            message=f"vacuous: 0 public-equivalent pairs among {len(states)} states",
        )
    found = _first_divergent_pair(
        Speculative(), lambda rho, mu: SpecConfig(c, rho, mu, False), states, pairs, bounds
    )
    if found is not None:
        return Verdict(VerdictStatus.VIOLATED, found[1], bounds)
    return Verdict(VerdictStatus.HOLDS, bounds=bounds)


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
    its theorem, which has no public-equivalence premise.  A program that
    uses the flag variable raises FlagCollisionError, as ``transform`` does
    for every other check.
    """
    if variant_kind not in VARIANTS:
        return Verdict(
            VerdictStatus.PRECONDITION_FAILED, message=f"unknown variant {variant_kind!r}"
        )
    hardened = transform(variant_kind, c, P, PA, flag_var)
    if any(size < 1 for _, size, _ in space.arrays):
        return Verdict(
            VerdictStatus.PRECONDITION_FAILED,
            message="state space contains an empty array",
        )
    if flag_var in space.names():
        return Verdict(
            VerdictStatus.PRECONDITION_FAILED,
            message=f"state space binds the reserved flag variable {flag_var!r}",
        )
    if variant_kind in ("fislh", "fvslh") and not wt_ifc(P, PA, PUBLIC, c):
        return Verdict(
            VerdictStatus.PRECONDITION_FAILED,
            message=f"{variant_kind} requires an IFC-well-typed program",
        )
    bounds = bounds.over(space)
    pair_P, pair_PA = (all_secret(), all_secret()) if variant_kind == "uslh" else (P, PA)
    states = list(enum_states(space))
    pairs = _equivalent_pairs(states, pair_P, pair_PA)
    traces = {
        s: seq_run(c, states[s][0], states[s][1], bounds.fuel).trace
        for s in {s for pair in pairs for s in pair}
    }
    premised = [(i, j) for i, j in pairs if prefix_of(traces[i], traces[j])]
    if not premised:
        return Verdict(
            VerdictStatus.HOLDS,
            bounds=bounds,
            message=f"vacuous: 0 of {len(pairs)} public-equivalent pairs "
            "passed the sequential premise",
        )
    found = _first_divergent_pair(
        Speculative(), lambda rho, mu: SpecConfig(hardened, rho, mu, False),
        states, premised, bounds,
    )
    if found is not None:
        return Verdict(VerdictStatus.VIOLATED, found[1], bounds)
    return Verdict(VerdictStatus.HOLDS, bounds=bounds)


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


class PreconditionError(Exception):
    pass


def _ideal_source(variant_kind: str, c: Com, P: LabelMap, PA: LabelMap, typed: bool):
    """The ideal semantics of a flexible variant and a builder of its
    initial configurations from (rho, mu, flag); fsfvslh starts from the
    program's annotation, computed here once.  With ``typed``, a program
    outside the lemmas' typing precondition (IFC well-typed, or for fsfvslh
    a well-labeled annotation) raises PreconditionError."""
    if variant_kind == "fsfvslh":
        acom, final = flow_track(c, P, PA, PUBLIC)
        if typed and not well_labeled(acom, Labeling(P, PA), PUBLIC, final):
            raise PreconditionError("analysis output not well-labeled")
        return IdealFS(), lambda rho, mu, flag: FsIdealConfig(acom, rho, mu, flag, PUBLIC, P, PA)
    if variant_kind == "fislh":
        sem = IdealFiSLH(P, PA)
    elif variant_kind == "fvslh":
        sem = IdealFvSLH(P, PA)
    else:
        raise PreconditionError(
            f"no ideal semantics for variant {variant_kind!r}; the other variants "
            "are covered through the flexible ones"
        )
    if typed and not wt_ifc(P, PA, PUBLIC, c):
        raise PreconditionError("program not IFC-well-typed")
    return sem, lambda rho, mu, flag: SpecConfig(c, rho, mu, flag)


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

    Side conditions: all arrays non-empty, the source does not use the flag
    variable (the hardening refuses it), and the flag variable's initial
    value encodes the initial misspeculation flag.
    """
    sem, start = _ideal_source(variant_kind, c, P, PA, typed=False)
    hardened = transform(variant_kind, c, P, PA, flag_var)
    flag = _bcc_flag(rho, mu, flag_var)
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
    """check_bcc over a space.  With ``dirs``, one run per state in
    enumeration order; otherwise ``trials`` runs, each from a state drawn
    at random and driven by a random walk of the hardened program (seeded
    by ``seed``).  The hardened program, the ideal source and the
    speculative semantics are prepared once, before any run, so every walk
    and run shares one per-check table.  Stops at the first failing run;
    the verdict counts the runs as ``runs`` and holds the failure message."""
    sem, start = _ideal_source(variant_kind, c, P, PA, typed=False)
    hardened = transform(variant_kind, c, P, PA, flag_var)
    spec = Speculative()
    if dirs is None:
        rng = random.Random(seed)
        states = list(enum_states(space))  # never empty: the empty space has one state
        runs = (_random_bcc_run(rng, spec, states, hardened, bounds) for _ in range(trials))
    else:
        runs = ((rho, mu, dirs) for rho, mu in enum_states(space))
    vacuous = "vacuous: no run was checked"
    count = 0
    for rho, mu, run_dirs in runs:
        count += 1
        flag = _bcc_flag(rho, mu, flag_var)
        ok, why = _bcc_run(spec, sem, start, hardened, rho, mu, flag, run_dirs, bounds.fuel,
                           flag_var)
        if not ok:
            return _counted("runs", count, [why], vacuous)
    return _counted("runs", count, [], vacuous)


def _random_bcc_run(rng: random.Random, spec: Speculative, states, hardened: Com, bounds: Bounds):
    rho, mu = states[rng.randrange(len(states))]
    walk = random_spec_walk(
        rng, spec, SpecConfig(hardened, rho, mu, False), bounds.max_dirs, bounds.fuel
    )
    return rho, mu, walk


def _bcc_flag(rho: ScalarState, mu: ArrayState, flag_var: str) -> bool:
    """The initial misspeculation flag of a bcc run; PreconditionError when
    a side condition on the state fails."""
    if any(len(vec) == 0 for _, vec in mu.items()):
        raise PreconditionError("empty array in initial state")
    b0 = rho.get(flag_var)
    if b0 not in (0, 1):
        raise PreconditionError(
            f"{flag_var!r} must be 0 or 1 in the initial state, found {b0}"
        )
    return bool(b0)


def _bcc_run(spec, sem, start, hardened, rho, mu, flag, dirs, fuel, flag_var) -> Tuple[bool, str]:
    target = run(spec, SpecConfig(hardened, rho, mu, flag), dirs, fuel)
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


def _ni_premise(value_based: bool, P: LabelMap, PA: LabelMap, s1, s2, flag: bool) -> str:
    """Why two states are not related for single-step noninterference, or
    the empty string when they are."""
    if not pub_equiv_scalars(P, s1[0], s2[0]):
        return "scalar states not public-equivalent"
    if value_based:
        if not flag and not pub_equiv_arrays(PA, s1[1], s2[1]):
            return "array states not public-equivalent at flag=F"
    elif not pub_equiv_arrays(PA, s1[1], s2[1]):
        return "array states not public-equivalent"
    return ""


def _step_ni(
    sem, value_based: bool, P: LabelMap, PA: LabelMap, cfg1, cfg2, d: Optional[Dir]
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
    if not pub_equiv_scalars(out_P, n1.rho, n2.rho):
        return False, "successor scalars not public-equivalent"
    if value_based:
        if not n1.flag and not pub_equiv_arrays(out_PA, n1.mu, n2.mu):
            return False, "successor arrays not public-equivalent at flag=F"
    elif not pub_equiv_arrays(out_PA, n1.mu, n2.mu):
        return False, "successor arrays not public-equivalent"
    return True, "ok"


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
    """Single-step noninterference of the ideal semantics: from two related
    states, steps of the same command with equal directive and observation
    yield equal successor commands, equal flags, public-equivalent scalars,
    and the variant's array relation (unconditional for the index variant;
    conditional on not misspeculating for the value variants).

    Vacuously true when either side cannot step or the observations differ.
    """
    sem, start = _ideal_source(variant_kind, c, P, PA, typed=True)
    value_based = variant_kind in ("fvslh", "fsfvslh")
    why = _ni_premise(value_based, P, PA, s1, s2, flag)
    if why:
        raise PreconditionError(why)
    return _step_ni(sem, value_based, P, PA, start(*s1, flag), start(*s2, flag), d)


def check_ni(
    variant_kind: str, c: Com, P: LabelMap, PA: LabelMap, space: StateSpace
) -> Verdict:
    """check_step_ni over the space: every pair of states (a state with
    itself included) in nested-scan order, both flags, and the directives
    none, step and force.  The program is typed once; an ill-typed program
    checks nothing.  Only states with equal public scalars are paired, and
    pairs outside the rest of the lemma's premise are skipped.  The verdict
    counts the steps as ``checked`` and holds every failure message."""
    try:
        sem, start = _ideal_source(variant_kind, c, P, PA, typed=True)
    except PreconditionError:
        return _counted("checked", 0, [], _NO_PAIR)
    value_based = variant_kind in ("fvslh", "fsfvslh")
    states = list(enum_states(space))
    pairs = _equivalent_pairs(states, P, all_secret()) + [(i, i) for i in range(len(states))]
    checked, failures = 0, []
    for i, j in sorted(pairs):
        for flag in (False, True):
            if _ni_premise(value_based, P, PA, states[i], states[j], flag):
                continue
            cfg1, cfg2 = start(*states[i], flag), start(*states[j], flag)
            for d in (None, STEP, FORCE):
                ok, why = _step_ni(sem, value_based, P, PA, cfg1, cfg2, d)
                checked += 1
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
    """Unwinding of ideal misspeculated executions: from public-equivalent,
    well-typed (or well-labeled) configurations that are already
    misspeculating, identical directives yield identical observations."""
    try:
        sem, start = _ideal_source(variant_kind, c, P, PA, typed=True)
    except PreconditionError as exc:
        return Verdict(VerdictStatus.PRECONDITION_FAILED, message=str(exc))
    if not pub_equiv_scalars(P, s1[0], s2[0]):
        return Verdict(
            VerdictStatus.PRECONDITION_FAILED,
            message="scalars not public-equivalent",
        )
    if variant_kind == "fislh" and not pub_equiv_arrays(PA, s1[1], s2[1]):
        return Verdict(
            VerdictStatus.PRECONDITION_FAILED,
            message="arrays not public-equivalent",
        )
    found = _first_divergent_pair(
        sem, lambda rho, mu: start(rho, mu, True), [s1, s2], [(0, 1)], bounds
    )
    if found is not None:
        return Verdict(VerdictStatus.VIOLATED, found[1], bounds)
    return Verdict(VerdictStatus.HOLDS, bounds=bounds)


def check_unwinding_space(
    variant_kind: str,
    c: Com,
    P: LabelMap,
    PA: LabelMap,
    space: StateSpace,
    bounds: Bounds = Bounds(),
) -> Verdict:
    """check_unwinding over the space: the pairs of states meeting the
    lemma's premise (equal public scalars, and for fislh equal public
    arrays), in nested-scan order, walked over shared directive trees.  The
    program is typed once; an ill-typed program walks no pair.  The verdict
    counts the pairs walked, up to and including a violating one, as
    ``pairs``."""
    vacuous = Verdict(VerdictStatus.HOLDS, bounds=bounds, message=_NO_PAIR,
                      facts=(("pairs", 0),))
    try:
        sem, start = _ideal_source(variant_kind, c, P, PA, typed=True)
    except PreconditionError:
        return vacuous
    states = list(enum_states(space))
    pairs = _equivalent_pairs(states, P, PA if variant_kind == "fislh" else all_secret())
    if not pairs:
        return vacuous
    found = _first_divergent_pair(
        sem, lambda rho, mu: start(rho, mu, True), states, pairs, bounds
    )
    if found is None:
        return Verdict(VerdictStatus.HOLDS, bounds=bounds, facts=(("pairs", len(pairs)),))
    k, w = found
    return Verdict(VerdictStatus.VIOLATED, w, bounds, facts=(("pairs", k + 1),))


def check_wl_preservation(
    acom: ACom,
    initial: Labeling,
    pc: Label,
    final: Labeling,
    rho: ScalarState,
    mu: ArrayState,
    flag: bool,
    d: Optional[Dir],
    sem: Optional[IdealFS] = None,
) -> Tuple[bool, str]:
    """One flow-sensitive ideal step from a well-labeled configuration must
    leave a configuration well-labeled against the same final labeling.
    The step is taken under ``sem``, the caller's ``IdealFS`` whose
    per-check table a whole check shares, or a fresh one."""
    if not well_labeled(acom, initial, pc, final):
        raise PreconditionError("initial configuration not well-labeled")
    cfg = FsIdealConfig(acom, rho, mu, flag, pc, initial.vars, initial.arrs)
    r = (sem or IdealFS()).step(cfg, d)
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
    directives drawn by a generator seeded with ``seed``, each step checked
    by check_wl_preservation.  The verdict counts the steps as ``checked``
    and holds the reason of the first failure; a failure at 0 steps means
    the analysis output itself is not well-labeled."""
    vacuous = "vacuous: no step was checked"
    acom, final = flow_track(c, P, PA, PUBLIC)
    if not well_labeled(acom, Labeling(P, PA), PUBLIC, final):
        return _counted("checked", 0, ["analysis output not well-labeled"], vacuous)
    rng = random.Random(seed)
    fs = IdealFS()
    checked = 0
    for rho, mu in enum_states(space):
        cfg = FsIdealConfig(acom, rho, mu, False, PUBLIC, P, PA)
        for _ in range(bounds.max_dirs * 4):
            feas = feasible(fs, cfg)
            d = rng.choice(feas) if feas else None
            ok, why = check_wl_preservation(
                cfg.acom, Labeling(cfg.P, cfg.PA), cfg.pc, final,
                cfg.rho, cfg.mu, cfg.flag, d, fs,
            )
            checked += 1
            if not ok:
                return _counted("checked", checked, [why], vacuous)
            r = fs.step(cfg, d)
            if r.tag is not StepTag.STEPPED:
                break
            cfg = r.cfg
    return _counted("checked", checked, [], vacuous)
