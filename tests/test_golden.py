"""Golden verdicts: the CLI's JSON output and exit code on a fixed set of
checks, compared with a committed file.

A change to the exploration algorithm must leave every verdict, witness,
message and printed counter (``pairs``, ``checked``, ``runs``) as it was.
The cases are the six fixtures (``repro 1..6``), ``sct`` and ``relsec`` for
every variant on the Listing-1 gadget and on its looped form, and ``sct``,
``relsec``, ``unwind``, ``ni`` and ``bcc`` on a small seeded corpus of
``gen_program`` programs.  Every witness in the file is also replayed with
``spec_sem.run``, apart from the directive trees that found it.

Regenerate the file, only when a change means to alter a verdict, with::

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile

from awhile.cli import main
from awhile.fixtures import FIXTURES, LISTING1, PROTECTING_VARIANTS
from awhile.gen import NamePools, gen_program
from awhile.ifc_static import parse_labeling
from awhile.lang import parse_com, pretty_com
from awhile.seccheck import prefix_of, transform
from awhile.seq_sem import seq_run
from awhile.spec_sem import Speculative, run
from awhile.state import SpecConfig, parse_dirs, parse_state, pub_equiv

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "verdicts.json")

VARIANTS = ("none", "islh", "sislh", "sislh-nostore", "fislh", "uslh",
            "svslh", "fvslh", "fsfvslh")
FLEXIBLE = ("fislh", "fvslh", "fsfvslh")

LOOPED_GADGET = """\
k := 0;
while k < 2 do
  if i < a1_size then
    j <- a1[i];
    x <- a2[j]
  end;
  i := i + 1;
  k := k + 1
end
"""
LOOPED_SPACE = """\
i in {0,3}
a1_size in {4}
a1 : size 4 in {1}
a2 : size 4 in {0}
a3 : size 1 in {42,43}
"""
LOOPED_LABELS = "".join(
    f"{n}: public\n" for n in ("i", "a1_size", "j", "x", "k", "a1", "a2")
)


def _corpus(count: int = 12):
    """Seeded small programs, each with a random labeling and a space of
    sixteen states over three of its scalars and both of its arrays."""
    pools = NamePools()
    for seed in range(count):
        rng = random.Random(1000 + seed)
        program = pretty_com(gen_program(seed, 8 + seed % 7, pools))
        labels = "".join(
            f"{n}: public\n" for n in pools.scalars + pools.arrays if rng.random() < 0.5
        )
        x, y, z = rng.sample(pools.scalars, 3)
        space = (f"{x} in {{0,1}}\n{y} in {{0,2}}\n{z} in {{1,3}}\n"
                 "a : size 2 in {1}\nc : size 1 in {0,3}\n")
        yield f"gen{seed}", program, labels, space


def cases():
    """(name, files, argv) per case; argv names files by their key."""
    out = []
    for n in range(1, 7):
        out.append((f"repro{n}", {},
                    ["repro", "--listing", str(n), "--max-dirs", "6", "--format", "json"]))
    gadgets = [
        ("gadget", {"p": LISTING1.program_text, "l": LISTING1.labeling_text,
                    "s": LISTING1.space_text}, ["--max-dirs", "6"]),
        ("looped", {"p": LOOPED_GADGET, "l": LOOPED_LABELS, "s": LOOPED_SPACE},
         ["--max-dirs", "8"]),
    ]
    for name, program, labels, space in _corpus():
        gadgets.append((name, {"p": program, "l": labels, "s": space}, ["--max-dirs", "4"]))
    for name, files, max_dirs in gadgets:
        bounds = [*max_dirs, "--fuel", "200"]  # ni takes none
        common = ["--labels", "l", "--space", "s", "--format", "json", "p"]
        for prop in ("sct", "relsec"):
            for v in VARIANTS:
                out.append((f"{name}/{prop}/{v}", files,
                            ["check", "--property", prop, "--variant", v, *bounds, *common]))
        if name == "looped":
            continue
        for v in FLEXIBLE:
            for prop, extra in (("unwind", bounds), ("ni", []),
                                ("bcc", ["--trials", "4", "--seed", "3", *bounds])):
                out.append((f"{name}/{prop}/{v}", files,
                            ["check", "--property", prop, "--variant", v, *extra, *common]))
    return out


def run_case(workdir: str, files, argv):
    """Exit code and parsed JSON stdout of one CLI call."""
    for key, text in files.items():
        with open(os.path.join(workdir, key), "w", encoding="utf-8") as fh:
            fh.write(text)
    argv = [os.path.join(workdir, a) if a in files else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    result = {"exit": code}
    if out.getvalue():
        result["stdout"] = json.loads(out.getvalue())
    if err.getvalue():
        result["stderr"] = err.getvalue()
    return result


def compute():
    with tempfile.TemporaryDirectory() as workdir:
        return {name: run_case(workdir, files, argv) for name, files, argv in cases()}


def render(results) -> str:
    return json.dumps(results, indent=1, sort_keys=True) + "\n"


def test_golden_verdicts():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    actual = compute()
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"verdicts changed: {changed}"
    with open(GOLDEN, encoding="utf-8") as fh:
        assert fh.read() == render(actual)


def test_golden_cases_cover_every_outcome():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    statuses = {r.get("stdout", {}).get("status") for r in expected.values()}
    assert {"holds", "violated", "precondition-failed"} <= statuses
    assert {r["exit"] for r in expected.values()} == {0, 1, 2}
    assert any("witness" in r.get("stdout", {}) for r in expected.values())


def _repro_checks(n: int):
    """(property, variant) of each verdict ``repro n`` prints, in order,
    and the fixture whose program and labeling they check."""
    if n <= 2:
        return FIXTURES[1], [("sct", "none" if n == 1 else "islh")]
    if n == 3:
        return FIXTURES[3], [("sct", v) for v in ("sislh-nostore", "sislh", "svslh")]
    return FIXTURES[n], [("relsec", v) for v in ("none",) + PROTECTING_VARIANTS]


def _replay(prop: str, variant: str, program: str, labels: str, verdict) -> None:
    """Re-run a violated verdict's witness with spec_sem.run: the checked
    program from both witness states, starting with the flag false, driven
    by the witness directives.  The runs give the witness traces, equal
    before the divergence index and unequal at it; the states meet the
    check's premise."""
    com, lab = parse_com(program), parse_labeling(labels)
    target = transform(variant, com, lab, lab)
    w, fuel = verdict["witness"], verdict["fuel"]
    s1, s2 = parse_state(w["state1"]), parse_state(w["state2"])
    dirs = parse_dirs(w["dirs"])
    runs = [run(Speculative(), SpecConfig(target, *s, False), dirs, fuel) for s in (s1, s2)]
    assert [r.consumed for r in runs] == [len(dirs)] * 2
    t1, t2 = ([str(o) for o in r.trace] for r in runs)
    assert (t1, t2) == (w["trace1"], w["trace2"])
    i = w["divergence_index"]
    assert t1[:i] == t2[:i] and t1[i] != t2[i]
    if not (prop == "relsec" and variant == "uslh"):
        assert pub_equiv(lab, lab, s1, s2)
    if prop == "relsec":
        assert prefix_of(seq_run(com, *s1, fuel).trace, seq_run(com, *s2, fuel).trace)


def test_golden_witnesses_replay():
    """Every witness in the golden file replays independently of the
    directive trees that found it."""
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    replayed = {}
    for name, files, argv in cases():
        out = expected[name].get("stdout", {})
        if argv[0] == "repro":
            fixture, checks = _repro_checks(int(argv[2]))
            found = [(*check, fixture.program_text, fixture.labeling_text, v)
                     for check, v in zip(checks, out["verdicts"])]
            kind = "repro"
        else:
            prop, variant = argv[argv.index("--property") + 1], argv[argv.index("--variant") + 1]
            found = [(prop, variant, files["p"], files["l"], out)]
            kind = prop
        for prop, variant, program, labels, verdict in found:
            if "witness" in verdict:
                _replay(prop, variant, program, labels, verdict)
                replayed[kind] = replayed.get(kind, 0) + 1
    assert replayed == {"sct": 56, "relsec": 6, "repro": 5}


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(render(compute()))
