"""The three workloads: their input files and their operations.

An operation is one call of ``awhile.cli.main(argv)``.  Every workload is
built from ``--seed`` alone; the same seed writes the same files and
yields the same operations.  Each operation names the output check that
``checks.py`` applies to it.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import corpus

HARDENINGS = ("islh", "sislh", "fislh", "uslh", "svslh", "fvslh", "fsfvslh")
VARIANTS = ("none",) + HARDENINGS
FUEL = 200

# The ROADMAP baseline: the Listing-1 gadget run twice in a loop.  It is
# constant-time typed and IFC-typed under GADGET_LABELS.
GADGET = """\
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
GADGET_LABELS = {n: "public" for n in ("i", "a1_size", "j", "x", "k", "a1", "a2")}
GADGET_LABELS["a3"] = "secret"

# Exit codes and verdict statuses that the listings document (README.md
# and the fixtures' docstrings): 1 is an attack found, 0 a protection.
REPRO_DOCUMENTED = {
    1: (1, ("violated",)),
    2: (0, ("holds",)),
    3: (1, ("violated", "holds", "holds")),
    4: (1, ("violated",) + ("holds",) * 4),
    5: (1, ("violated",) + ("holds",) * 4),
    6: (1, ("violated",) + ("holds",) * 4),
}


@dataclass(frozen=True)
class Op:
    argv: Tuple[str, ...]
    check: str
    info: Tuple[Tuple[str, object], ...] = ()

    def get(self, key: str):
        return dict(self.info)[key]


@dataclass
class Space:
    """A state space as the benchmark itself sees it: per-scalar domains
    and per-array (size, cell domain)."""

    scalars: Tuple[Tuple[str, Tuple[int, ...]], ...]
    arrays: Tuple[Tuple[str, int, Tuple[int, ...]], ...]

    def text(self) -> str:
        lines = [f"{n} in {{{','.join(map(str, d))}}}" for n, d in self.scalars]
        lines += [f"{n} : size {k} in {{{','.join(map(str, d))}}}"
                  for n, k, d in self.arrays]
        return "\n".join(lines) + "\n"


@dataclass
class Workload:
    name: str
    ops: List[Op]
    labels: Dict[str, Dict[str, str]] = field(default_factory=dict)
    spaces: Dict[str, Space] = field(default_factory=dict)
    files: Dict[str, str] = field(default_factory=dict)

    def write(self, workdir: str) -> None:
        for name, text in self.files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)


def _labels_text(labels: Dict[str, str]) -> str:
    return "".join(f"{n}: {lab}\n" for n, lab in sorted(labels.items()))


def _gadget_space(rng: random.Random, i_values, n_secrets: int) -> Space:
    # a1's cells index a2 in bounds and are never 0; the secrets are
    # distinct and all out of a2's bounds.  So the seed changes values but
    # not the shape of any exploration, and the call count stays exact.
    cell = rng.randrange(1, 4)
    secrets = tuple(sorted(rng.sample(range(4, 100), n_secrets)))
    return Space(
        scalars=(("i", tuple(i_values)), ("a1_size", (4,))),
        arrays=(("a1", 4, (cell,)), ("a2", 4, (0,)), ("a3", 1, secrets)),
    )


def relsec_pairs(seed: int, small: bool) -> Workload:
    rng = random.Random(seed)
    # 4 values of i and 4 secrets: 24 public-equivalent pairs, each state in
    # 3 of them.  i = 4 reaches the attack within 4 directives, i = 2 within 8.
    max_dirs = 4 if small else 8
    space = _gadget_space(rng, (4,) if small else range(4), 2 if small else 4)
    wl = Workload("relsec-pairs", [], {"gadget.labels": GADGET_LABELS},
                  {"relsec.space": space})
    wl.files = {"gadget.aw": GADGET, "gadget.labels": _labels_text(GADGET_LABELS),
                "relsec.space": space.text()}
    for v in VARIANTS:
        wl.ops.append(Op(
            ("check", "--property", "relsec", "--variant", v,
             "--labels", "gadget.labels", "--space", "relsec.space",
             "--max-dirs", str(max_dirs), "--fuel", str(FUEL), "gadget.aw"),
            "relsec", (("variant", v),)))
    return wl


def sct_deep(seed: int, small: bool) -> Workload:
    rng = random.Random(seed)
    max_dirs = 6 if small else 12
    space = _gadget_space(rng, (0, 3), 2)
    wl = Workload("sct-deep", [], {"gadget.labels": GADGET_LABELS},
                  {"sct.space": space})
    wl.files = {"gadget.aw": GADGET, "gadget.labels": _labels_text(GADGET_LABELS),
                "sct.space": space.text()}
    for v in VARIANTS:
        wl.ops.append(Op(
            ("check", "--property", "sct", "--variant", v,
             "--labels", "gadget.labels", "--space", "sct.space",
             "--max-dirs", str(max_dirs), "--fuel", str(FUEL), "gadget.aw"),
            "sct", (("variant", v),)))
    for listing in sorted(REPRO_DOCUMENTED):
        wl.ops.append(Op(
            ("repro", "--listing", str(listing), "--max-dirs", str(max_dirs),
             "--fuel", str(FUEL), "--format", "json"),
            "repro", (("listing", listing),)))
    return wl


CORPUS_FUEL = 5000
CORPUS_MAX_DIRS = 4
BCC_TRIALS = 6


def lemma_corpus(seed: int, small: bool) -> Workload:
    rng = random.Random(seed)
    schedule = corpus.SCHEDULE[:4] if small else corpus.SCHEDULE
    wl = Workload("lemma-corpus", [], {"corpus.labels": corpus.LABELS})
    wl.files["corpus.labels"] = corpus.labels_text()
    lab = ("--labels", "corpus.labels")
    for n, (size, flavour, variant) in enumerate(schedule):
        prog = corpus.program(rng, size, flavour)
        space = Space(*corpus.space_spec(rng, size))
        stem = f"c{n:02d}"
        src, spc = f"{stem}.aw", f"{stem}.space"
        wl.files[src] = prog
        wl.files[spc] = space.text()
        wl.spaces[spc] = space
        meta = (("program", src), ("space", spc), ("flavour", flavour))
        system = "cct" if flavour == "cct" else "ifc"
        bounds = ("--max-dirs", str(CORPUS_MAX_DIRS), "--fuel", str(CORPUS_FUEL))
        wl.ops.append(Op(("print", src), "print", meta))
        wl.ops.append(Op(("analyze",) + lab + (src,), "analyze", meta))
        for v in HARDENINGS:
            wl.ops.append(Op(("harden", "--variant", v) + lab + (src,), "harden",
                             meta + (("variant", v),)))
        wl.ops.append(Op(("typecheck", "--system", system) + lab + (src,),
                         "typecheck", meta))
        wl.ops.append(Op(("check", "--property", "equality") + lab + (src,),
                         "equality", meta))
        wl.ops.append(Op(
            ("check", "--property", "bcc", "--variant", variant) + lab
            + ("--space", spc, "--trials", str(BCC_TRIALS),
               "--seed", str(rng.randrange(1 << 30))) + bounds + (src,),
            "bcc", meta + (("variant", variant),)))
        wl.ops.append(Op(
            ("check", "--property", "unwind", "--variant", variant) + lab
            + ("--space", spc) + bounds + (src,),
            "unwind", meta + (("variant", variant),)))
        wl.ops.append(Op(
            ("check", "--property", "ni", "--variant", variant) + lab
            + ("--space", spc) + (src,),
            "ni", meta + (("variant", variant),)))
    return wl


WORKLOADS = {
    "relsec-pairs": relsec_pairs,
    "sct-deep": sct_deep,
    "lemma-corpus": lemma_corpus,
}
