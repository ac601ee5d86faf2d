"""Golden verdicts: the CLI's JSON output and exit code on a fixed set of
checks, compared with a committed file.

A change to the exploration algorithm must leave every verdict, witness,
message and printed counter (``pairs``, ``checked``, ``runs``) as it was.
The cases are the six fixtures (``repro 1..6``), ``sct`` and ``relsec`` for
every variant on the Listing-1 gadget and on its looped form, and ``sct``,
``relsec``, ``unwind``, ``ni`` and ``bcc`` on a small seeded corpus of
``gen_program`` programs.

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
from awhile.fixtures import LISTING1
from awhile.gen import NamePools, gen_program
from awhile.lang import pretty_com

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
    for name, files, bounds in gadgets:
        common = ["--labels", "l", "--space", "s", *bounds, "--fuel", "200",
                  "--format", "json", "p"]
        for prop in ("sct", "relsec"):
            for v in VARIANTS:
                out.append((f"{name}/{prop}/{v}", files,
                            ["check", "--property", prop, "--variant", v, *common]))
        if name == "looped":
            continue
        for v in FLEXIBLE:
            for prop, extra in (("unwind", []), ("ni", []),
                                ("bcc", ["--trials", "4", "--seed", "3"])):
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(render(compute()))
