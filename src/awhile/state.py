"""Machine states, observations, attacker directives, and their text formats.

All values here are immutable; updates return fresh states, so states can be
shared freely, as the checker shares them between the pair walks over one
state's directive tree.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .ifc_static import LabelMap
# OPAQUE and SecretDependence are defined with the evaluators and re-exported here
from .lang import OPAQUE, Com, SecretDependence, Seq, numeral_too_long
from .record import Record


class _Store:
    """What the two stores share: a dict of bindings, ``_m``, and the
    frozenset of its items, ``_f``, built on first use.  A state of one
    kind never equals a state of the other."""

    __slots__ = ("_m", "_f")

    def names(self) -> frozenset:
        return frozenset(self._m)

    def items(self):
        return self._m.items()

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self._m == other._m

    def frozen(self) -> frozenset:
        """The bindings as a frozenset, built once.  It caches its own hash,
        so a configuration key over it (``SpecConfig.key``) costs O(1) after
        the first use."""
        if self._f is None:
            self._f = frozenset(self._m.items())
        return self._f

    def __hash__(self):
        return hash(self.frozen())


class ScalarState(_Store):
    """Total map from scalar names to naturals, default 0."""

    __slots__ = ()

    def __init__(self, entries: Optional[Mapping[str, int]] = None):
        # zero entries equal the default; dropping them makes dict equality
        # coincide with semantic equality.  Tested as ``set`` tests them, so
        # an OPAQUE entry is kept, not compared
        self._m: Dict[str, int] = {k: v for k, v in (entries or {}).items() if v}
        self._f = None

    def get(self, name: str) -> int:
        return self._m.get(name, 0)

    @staticmethod
    def adopt(m: Dict[str, int]) -> "ScalarState":
        """The state over the bindings ``m``, which hold no zero value.  The
        state takes ``m`` over: nothing may change it afterwards."""
        out = ScalarState.__new__(ScalarState)
        out._m, out._f = m, None
        return out

    def set(self, name: str, value: int) -> "ScalarState":
        m = dict(self._m)
        if value:  # as the silent loops test it, so OPAQUE is kept, not compared
            m[name] = value
        else:
            m.pop(name, None)
        return ScalarState.adopt(m)

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._m.items()))
        return f"ScalarState({inner})"


class ArrayState(_Store):
    """Map from array names to fixed-length vectors of naturals.

    An array's size is fixed for the lifetime of a state; names not present
    behave as size-0 arrays (every access is out of bounds).
    """

    __slots__ = ()

    def __init__(self, entries: Optional[Mapping[str, Sequence[int]]] = None):
        self._m: Dict[str, Tuple[int, ...]] = {
            k: tuple(v) for k, v in (entries or {}).items() if len(v) > 0
        }
        self._f = None

    def size(self, name: str) -> int:
        return len(self._m.get(name, ()))

    def get(self, name: str, index: int) -> int:
        return self._m[name][index]

    def set(self, name: str, index: int, value: int) -> "ArrayState":
        vec = self._m[name]
        if not (0 <= index < len(vec)):
            raise IndexError(f"{name}[{index}] out of bounds (size {len(vec)})")
        m = dict(self._m)
        m[name] = vec[:index] + (value,) + vec[index + 1:]
        out = ArrayState.__new__(ArrayState)
        out._m, out._f = m, None
        return out

    def vector(self, name: str) -> Tuple[int, ...]:
        return self._m.get(name, ())

    def __repr__(self):
        inner = ", ".join(f"{k}={list(v)}" for k, v in sorted(self._m.items()))
        return f"ArrayState({inner})"


# ---------------------------------------------------------------------------
# Observations and directives
# ---------------------------------------------------------------------------


class OBranch(Record):
    taken: bool

    def __str__(self):
        return f"branch {'true' if self.taken else 'false'}"


# the branch observations, indexed by the condition's value
BRANCH_OBS = (OBranch(False), OBranch(True))


class ORead(Record):
    array: str
    index: int

    def __str__(self):
        return f"read {self.array} {self.index}"


class OWrite(Record):
    array: str
    index: int

    def __str__(self):
        return f"write {self.array} {self.index}"


Obs = Union[OBranch, ORead, OWrite]


class DStep(Record):
    def __str__(self):
        return "step"


class DForce(Record):
    def __str__(self):
        return "force"


class DLoad(Record):
    array: str
    index: int

    def __str__(self):
        return f"load {self.array} {self.index}"


class DStore(Record):
    array: str
    index: int

    def __str__(self):
        return f"store {self.array} {self.index}"


Dir = Union[DStep, DForce, DLoad, DStore]

STEP = DStep()
FORCE = DForce()


def dir_sort_key(d: Dir):
    """Canonical ordering: step < force < loads < stores, loads and stores
    by (array, index).  Used for deterministic exploration and witness
    selection."""
    cls = d.__class__
    if cls is DStep:
        return (0, "", 0)
    if cls is DForce:
        return (1, "", 0)
    if cls is DLoad:
        return (2, d.array, d.index)
    return (3, d.array, d.index)


def focus_ids(redex, k):
    """The identities of a focused configuration's redex and stack entries,
    folded into nested pairs, which are cheaper to build than a flat tuple."""
    ids = id(redex)
    while k is not None:
        ids, k = (ids, id(k[0])), k[1]
    return ids


class SpecConfig:
    """Configuration of the speculative semantics, focused: the redex about
    to be reduced (never a sequence), the continuation stack of commands
    still to run after it, the stores, and the misspeculation flag (False at
    execution start).

    The stack is a linked tuple ``(command, rest)``, or None when empty.
    Building a configuration from a sequence pushes its second part and
    focuses on its first; this costs no step.  ``com`` undoes the focusing:
    it folds the stack back around the redex, giving the command the
    structural rules over ``Seq`` would hold."""

    __slots__ = ("redex", "k", "rho", "mu", "flag")

    def __init__(self, com: Com, rho: ScalarState, mu: ArrayState, flag: bool, k=None):
        while com.__class__ is Seq:
            k, com = (com.second, k), com.first
        self.redex, self.k, self.rho, self.mu, self.flag = com, k, rho, mu, flag

    @property
    def com(self) -> Com:
        c, k = self.redex, self.k
        while k is not None:
            c, k = Seq(c, k[0]), k[1]
        return c

    def key(self):
        """Equal for two configurations that step alike: the identities of
        the redex and of every stack entry, the stores and the flag.  The
        identities stay valid while this configuration is alive."""
        rho, mu = self.rho, self.mu
        # the cached slots, read directly: a call per store would cost as
        # much as the whole lookup
        return (focus_ids(self.redex, self.k), rho._f or rho.frozen(), mu._f or mu.frozen(),
                self.flag)

    def __repr__(self):
        return f"SpecConfig({self.com!r}, {self.rho!r}, {self.mu!r}, {self.flag!r})"


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


class StateFormatError(Exception):
    pass


_SCALAR_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(\d+)$")
_ARRAY_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\s*=\s*\[([\d\s,]*)\]$")
_EXPECTED = "expected 'NAME = NAT' or 'NAME = [NAT,...]'"


def _nat(digits: str, where: str) -> int:
    """The value of a checked numeral; StateFormatError, prefixed with
    ``where``, when it is too long to convert."""
    try:
        return int(digits)
    except ValueError:
        raise StateFormatError(where + numeral_too_long(digits))


def _cells(body: str, where: str) -> Tuple[int, ...]:
    """The values of the numerals between the commas of ``body``."""
    try:
        return tuple(map(int, body.split(",")))
    except ValueError:
        cells = [v.strip() for v in body.split(",")]
        if not all(map(str.isdecimal, cells)):  # an empty cell, or a space in one
            raise StateFormatError(where + _EXPECTED)
        return tuple(_nat(v, where) for v in cells)


def parse_state_full(text: str):
    """Parse a state file: one binding per line, ``NAME = NAT`` for scalars
    and ``NAME = [NAT,...,NAT]`` for arrays; '#' starts a comment.

    Returns (scalars, arrays, warnings).  Empty array literals are accepted
    but flagged with a warning, since the security results assume every
    array is non-empty.
    """
    scalars: Dict[str, int] = {}
    arrays: Dict[str, Tuple[int, ...]] = {}
    warnings: List[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _ARRAY_RE.match(line)
        if m:
            name, body = m.group(1), m.group(2).strip()
            if name in arrays or name in scalars:
                raise StateFormatError(f"line {lineno}: duplicate name {name!r}")
            if body:
                values = _cells(body, f"line {lineno}: ")
            else:
                values = ()
                warnings.append(
                    f"line {lineno}: array {name!r} is empty; "
                    "security checks assume non-empty arrays"
                )
            arrays[name] = values
            continue
        m = _SCALAR_RE.match(line)
        if m:
            name = m.group(1)
            if name in scalars or name in arrays:
                raise StateFormatError(f"line {lineno}: duplicate name {name!r}")
            scalars[name] = _nat(m.group(2), f"line {lineno}: ")
            continue
        raise StateFormatError(f"line {lineno}: {_EXPECTED}")
    return ScalarState(scalars), ArrayState(arrays), warnings


def parse_state(text: str) -> Tuple[ScalarState, ArrayState]:
    rho, mu, _ = parse_state_full(text)
    return rho, mu


def format_state(rho: ScalarState, mu: ArrayState) -> str:
    lines = [f"{k} = {v}" for k, v in sorted(rho.items())]
    lines += [f"{k} = [{','.join(map(str, v))}]" for k, v in sorted(mu.items())]
    return "\n".join(lines)


def parse_dirs(text: str) -> List[Dir]:
    """Parse a directive string: whitespace-separated tokens ``step``,
    ``force``, ``load NAME NAT``, ``store NAME NAT``."""
    tokens = text.split()
    out: List[Dir] = []
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t == "step":
            out.append(STEP)
            i += 1
        elif t == "force":
            out.append(FORCE)
            i += 1
        elif t in ("load", "store"):
            if i + 2 >= len(tokens):
                raise StateFormatError(f"{t!r} needs an array name and an index")
            name, idx = tokens[i + 1], tokens[i + 2]
            if not idx.isdecimal():
                raise StateFormatError(f"{t!r} index must be a natural, got {idx!r}")
            idx = _nat(idx, f"{t!r} index: ")
            out.append(DLoad(name, idx) if t == "load" else DStore(name, idx))
            i += 3
        else:
            raise StateFormatError(f"unknown directive token {t!r}")
    return out


def format_dirs(dirs: Iterable[Dir]) -> str:
    return " ".join(str(d) for d in dirs)


def format_trace(trace: Iterable[Obs]) -> str:
    """One line per observation: ``branch true|false``, ``read NAME NAT``,
    ``write NAME NAT``."""
    return "\n".join(str(o) for o in trace)


# ---------------------------------------------------------------------------
# Public equivalence
# ---------------------------------------------------------------------------


def pub_equiv_scalars(P: LabelMap, rho1: ScalarState, rho2: ScalarState) -> bool:
    return all(rho1.get(n) == rho2.get(n) for n in P.public_names())


def pub_equiv_arrays(PA: LabelMap, mu1: ArrayState, mu2: ArrayState) -> bool:
    # public arrays must agree in size and contents; arrays absent from both
    # states agree trivially (size 0)
    return all(mu1.vector(n) == mu2.vector(n) for n in PA.public_names())


def pub_equiv(
    P: LabelMap,
    PA: LabelMap,
    s1: Tuple[ScalarState, ArrayState],
    s2: Tuple[ScalarState, ArrayState],
) -> bool:
    """True iff the two states agree on all public scalars and on the sizes
    and contents of all public arrays.  Names outside the labeling default
    to secret, hence are unconstrained."""
    return pub_equiv_scalars(P, s1[0], s2[0]) and pub_equiv_arrays(PA, s1[1], s2[1])
