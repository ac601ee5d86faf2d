"""Regression fixtures: the six gadget programs used throughout the
security checks, each bundled with its labeling, a small state space, and
the documented attack or protection claim that ``repro`` replays.
``repro_listing`` returns labelled verdicts and formats nothing: the CLI
renders them as it renders every other verdict.

Bare-variable branch conditions from the informal sources are encoded as
``1 <= x``, since the grammar requires comparisons.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .harden import harden, ISLH
from .ifc_static import LabelMap, parse_labeling
from .lang import Com, parse_com
from .record import Record
from .seccheck import (
    Bounds,
    StateSpace,
    Verdict,
    VerdictStatus,
    check_relative_security,
    check_sct,
    check_spec_obs_equiv,
    parse_space,
    transform,
)
from .state import ArrayState, ScalarState, parse_state


class Fixture(Record):
    number: int
    title: str
    program_text: str
    labeling_text: str
    space_text: str
    # states for the pairwise replays (listings 1 and 2)
    pair_state_texts: Optional[Tuple[str, str]] = None

    def program(self) -> Com:
        return parse_com(self.program_text)

    def labeling(self) -> LabelMap:
        return parse_labeling(self.labeling_text)

    def space(self) -> StateSpace:
        return parse_space(self.space_text)

    def pair(self) -> Tuple[Tuple[ScalarState, ArrayState], Tuple[ScalarState, ArrayState]]:
        t1, t2 = self.pair_state_texts
        return parse_state(t1), parse_state(t2)


_A2_CELLS = ",".join(["0"] * 1000)

_EX3_STATE_1 = f"""
i = 4
a1_size = 4
a1 = [0,7,1,2]
a2 = [{_A2_CELLS}]
a3 = [42]
"""

_EX3_STATE_2 = f"""
i = 4
a1_size = 4
a1 = [0,7,1,2]
a2 = [{_A2_CELLS}]
a3 = [43]
"""

LISTING1 = Fixture(
    number=1,
    title="Spectre v1 gadget",
    program_text="""\
if i < a1_size then
  j <- a1[i];
  x <- a2[j]
end
""",
    labeling_text="""\
i: public
a1_size: public
j: public
x: public
a1: public
a2: public
a3: secret
""",
    space_text="""\
i in {0,4}
a1_size in {4}
a1 : size 4 in {0}
a2 : size 4 in {0}
a3 : size 1 in {42,43}
""",
    pair_state_texts=(_EX3_STATE_1, _EX3_STATE_2),
)

LISTING2 = Fixture(
    number=2,
    title="Spectre v1 gadget protected with iSLH",
    program_text="""\
if i < a1_size then
  b := (i < a1_size ? b : 1);
  j <- a1[(b = 1 ? 0 : i)];
  x <- a2[(b = 1 ? 0 : j)]
else
  b := (i < a1_size ? 1 : b)
end
""",
    labeling_text=LISTING1.labeling_text,
    space_text=LISTING1.space_text,
    pair_state_texts=LISTING1.pair_state_texts,
)

LISTING3 = Fixture(
    number=3,
    title="Leakage through unprotected stores",
    program_text="""\
if i < secrets_size then
  secrets[i] <- key;
  x <- a[0];
  if 1 <= x then
    skip
  end
end
""",
    labeling_text="""\
i: public
secrets_size: public
x: public
a: public
key: secret
secrets: secret
""",
    space_text="""\
i in {0,1}
secrets_size in {1}
x in {0}
key in {0,1}
secrets : size 1 in {0}
a : size 1 in {0}
""",
)

LISTING4 = Fixture(
    number=4,
    title="Leakage through sequentially unreachable code",
    program_text="""\
if false then
  if secret = 0 then
    y := 1
  end
end
""",
    labeling_text="""\
secret: secret
y: secret
""",
    space_text="""\
secret in {0,1}
y in {0}
""",
)

LISTING5 = Fixture(
    number=5,
    title="Leakage through sequentially unreachable load",
    program_text="""\
if false then
  xsecret <- a[isecret]
end
""",
    labeling_text="""\
isecret: secret
xsecret: secret
a: secret
""",
    space_text="""\
isecret in {0,1}
xsecret in {0}
a : size 2 in {0}
""",
)

LISTING6 = Fixture(
    number=6,
    title="Leakage through sequentially unreachable store",
    program_text="""\
if false then
  a[isecret] <- epublic
end
""",
    labeling_text="""\
isecret: secret
epublic: public
a: secret
""",
    space_text="""\
isecret in {0,1}
epublic in {1}
a : size 2 in {0}
""",
)

FIXTURES: Dict[int, Fixture] = {
    f.number: f for f in (LISTING1, LISTING2, LISTING3, LISTING4, LISTING5, LISTING6)
}

# variants the relative-security claims of listings 4-6 cover
PROTECTING_VARIANTS = ("fislh", "fvslh", "uslh", "fsfvslh")


def repro_listing(
    number: int, bounds: Bounds = Bounds()
) -> Tuple[int, List[Tuple[str, Verdict]]]:
    """Replay a fixture's documented attack or protection claim.

    Returns (exit_code, results), each result a (label, verdict) pair in
    replay order; exit 0 when the headline claim is a protection that
    holds, 1 when it is an attack that is found.
    """
    if number not in FIXTURES:
        raise KeyError(f"no fixture for listing {number}")
    fx = FIXTURES[number]

    if number == 1:
        s1, s2 = fx.pair()
        v = check_spec_obs_equiv(fx.program(), s1, s2, False, bounds.max_dirs, bounds.fuel)
        results = [("speculative observational equivalence (unprotected)", v)]
    elif number == 2:
        src = FIXTURES[1]
        s1, s2 = src.pair()
        lab = src.labeling()
        hardened = harden(ISLH, src.program(), lab, lab)
        v = check_spec_obs_equiv(hardened, s1, s2, False, max(bounds.max_dirs, 10), bounds.fuel)
        results = [("speculative observational equivalence (iSLH-protected)", v)]
    elif number == 3:
        lab, space = fx.labeling(), fx.space()
        broken = transform("sislh-nostore", fx.program(), lab, lab)
        v = check_sct(broken, lab, lab, space, bounds)
        results = [("sct with store masking disabled", v)]
        for kind in ("sislh", "svslh"):
            v = check_sct(transform(kind, fx.program(), lab, lab), lab, lab, space, bounds)
            results.append((f"sct under {kind}", v))
    else:
        # listings 4-6: relative security fails unhardened, holds hardened
        lab, space = fx.labeling(), fx.space()
        v = check_relative_security("none", fx.program(), lab, lab, space, bounds)
        results = [("relative security (unhardened)", v)]
        for kind in PROTECTING_VARIANTS:
            v = check_relative_security(kind, fx.program(), lab, lab, space, bounds)
            results.append((f"relative security under {kind}", v))
    # the first verdict is the headline claim
    return (1 if results[0][1].status is VerdictStatus.VIOLATED else 0), results
