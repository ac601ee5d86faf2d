"""Output checks.  None of them compares against a stored copy of an
earlier output; each rests on one of:

* the paper's theorems for the gadget (which verdicts must hold);
* the listings' documented results (the ``repro`` exit codes);
* witness replay: a ``violated`` verdict's directives, run again with
  ``awhile run --sem spec`` on both witness states, give the reported
  traces, which first differ at the reported index;
* non-vacuity: a ``holds`` counts only if the benchmark, enumerating the
  state space itself, finds pairs the property actually quantifies over;
* sequential transparency: a hardened program runs sequentially like its
  source, apart from the flag variable;
* typing by construction of the benchmark's own corpus.

Every check takes the run's ``Context``, the operation and its ``Result``,
and returns a list of problems; an empty list means the output passed.
Checks that need more runs make them through the same CLI.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import workloads

FLAG_VAR = "b"  # the CLI's default flag variable; the inputs never use it


@dataclass(frozen=True)
class Result:
    rc: Optional[int]  # None when the call raised
    out: str
    err: str

    @property
    def failed(self) -> bool:
        """Raised, or exited with the usage/precondition code."""
        return self.rc is None or self.rc not in (0, 1)


def run_cli(argv) -> Result:
    """One in-process call of the public CLI entry point."""
    from awhile.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc(file=err)
            rc = None
    return Result(rc, out.getvalue(), err.getvalue())


class Context:
    """What the checks of one workload share: the workload and results
    computed once per run (source traces, premise pair counts)."""

    def __init__(self, wl: "workloads.Workload"):
        self.wl = wl
        self._memo: Dict[Tuple, object] = {}
        self._files = 0

    def memo(self, key: Tuple, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def write_file(self, suffix: str, text: str) -> str:
        self._files += 1
        name = f"_check{self._files}{suffix}"
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
        return name


# ---------------------------------------------------------------------------
# States, spaces and runs, as the benchmark itself sees them
# ---------------------------------------------------------------------------


def enumerate_space(space: "workloads.Space") -> List[Tuple[Dict[str, int], Dict[str, Tuple[int, ...]]]]:
    doms = [d for _, d in space.scalars]
    adoms = [list(itertools.product(d, repeat=k)) for _, k, d in space.arrays]
    states = []
    for svals in itertools.product(*doms):
        for avals in itertools.product(*adoms):
            states.append((
                {n: v for (n, _), v in zip(space.scalars, svals)},
                {n: v for (n, _, _), v in zip(space.arrays, avals)},
            ))
    return states


def state_text(state) -> str:
    scalars, arrays = state
    lines = [f"{n} = {v}" for n, v in scalars.items()]
    lines += [f"{n} = [{','.join(map(str, v))}]" for n, v in arrays.items()]
    return "\n".join(lines) + "\n"


def pub_equiv(labels: Dict[str, str], s1, s2, arrays: bool = True) -> bool:
    """Unlisted names are secret, as in the labeling file format."""
    public = [n for n, lab in labels.items() if lab == "public"]
    if any(s1[0].get(n, 0) != s2[0].get(n, 0) for n in public):
        return False
    return not arrays or all(s1[1].get(n, ()) == s2[1].get(n, ()) for n in public)


@dataclass(frozen=True)
class Run:
    trace: Tuple[str, ...]
    outcome: str
    final: Tuple[str, ...]


def parse_run(out: str) -> Run:
    lines = out.splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("outcome: "))
    fin = lines.index("final state:")
    final = tuple(ln for ln in lines[fin + 1:] if ln != "(all defaults)")
    return Run(tuple(lines[:at]), lines[at][len("outcome: "):], final)


def run_program(ctx: Context, sem: str, program: str, state: str, dirs: str = "",
                fuel: int = workloads.FUEL) -> Run:
    argv = ["run", "--sem", sem, "--state", ctx.write_file(".state", state),
            "--fuel", str(fuel)]
    if dirs:
        argv += ["--dirs", dirs]
    res = run_cli(argv + [program])
    if res.rc != 0:
        raise CheckError(f"run --sem {sem} {program} exited {res.rc}: {res.err.strip()[-200:]}")
    return parse_run(res.out)


class CheckError(Exception):
    pass


def prefix_related(t1, t2) -> bool:
    n = min(len(t1), len(t2))
    return tuple(t1[:n]) == tuple(t2[:n])


def premise_pairs(ctx: Context, program: str, space_name: str, labels_name: str) -> int:
    """Public-equivalent pairs of the space whose sequential traces are
    prefix-related: the pairs relative security quantifies over."""
    def count():
        labels = ctx.wl.labels[labels_name]
        states = enumerate_space(ctx.wl.spaces[space_name])
        traces = [run_program(ctx, "seq", program, state_text(s)).trace for s in states]
        return sum(
            1
            for (s1, t1), (s2, t2) in itertools.combinations(zip(states, traces), 2)
            if pub_equiv(labels, s1, s2) and prefix_related(t1, t2)
        )
    return ctx.memo(("premise", program, space_name), count)


def equivalent_pairs(ctx: Context, space_name: str, labels_name: str,
                     arrays: bool = True) -> int:
    labels = ctx.wl.labels[labels_name]
    states = enumerate_space(ctx.wl.spaces[space_name])
    return sum(1 for s1, s2 in itertools.combinations(states, 2)
               if pub_equiv(labels, s1, s2, arrays))


# ---------------------------------------------------------------------------
# Verdicts and witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    dirs: str
    trace1: Tuple[str, ...]
    trace2: Tuple[str, ...]
    index: int
    state1: str
    state2: str


def _state_from_line(text: str) -> str:
    if text == "(all defaults)":
        return ""
    return "\n".join(text.split(", ")) + "\n"


def _split_trace(text: str) -> Tuple[str, ...]:
    return tuple(text.split("; ")) if text else ()


def parse_verdict(out: str) -> Tuple[str, Optional[Witness]]:
    """The text form ``check`` prints: the status, then for a violation the
    directives, both traces, the divergence and both states."""
    lines = out.splitlines()
    status = lines[0] if lines else ""
    fields = {}
    for ln in lines[1:]:
        key, sep, value = ln.partition(": ")
        if sep:
            fields[key] = value
    if status != "violated" or "directives" not in fields:
        return status, None
    div = next(ln for ln in lines if ln.startswith("diverges at observation "))
    return status, Witness(
        fields["directives"],
        _split_trace(fields["trace 1"]),
        _split_trace(fields["trace 2"]),
        int(div.rsplit(" ", 1)[1]) - 1,
        _state_from_line(fields["state 1"]),
        _state_from_line(fields["state 2"]),
    )


def replay(ctx: Context, program: str, w: Witness) -> List[str]:
    """The witness directives run on both witness states must reproduce the
    reported traces, equal before the reported index and different at it."""
    r1 = run_program(ctx, "spec", program, w.state1, w.dirs)
    r2 = run_program(ctx, "spec", program, w.state2, w.dirs)
    i = w.index
    problems = []
    if (r1.trace, r2.trace) != (w.trace1, w.trace2):
        problems.append(f"replay of '{w.dirs}' gives other traces than reported")
    if not (len(r1.trace) > i and len(r2.trace) > i
            and r1.trace[:i] == r2.trace[:i] and r1.trace[i] != r2.trace[i]):
        problems.append(f"replay of '{w.dirs}' does not diverge at observation {i + 1}")
    return problems


def _replay_verdict(ctx: Context, w: Optional[Witness], program: str) -> List[str]:
    if w is None:
        return ["violated without a witness"]
    return replay(ctx, program, w)


def _status_exit(status: str, rc: int) -> List[str]:
    want = {"holds": 0, "violated": 1}.get(status)
    if want is None:
        return [f"unexpected status {status!r}"]
    return [] if rc == want else [f"status {status} but exit {rc}"]


def _hardened(ctx: Context, program: str, variant: str, labels: str,
              extra: Tuple[str, ...] = ()) -> str:
    """The program the checker ran for a variant, written to a file."""
    if variant == "none":
        return program

    def make():
        res = run_cli(["harden", "--variant", variant, *extra, "--labels", labels, program])
        if res.rc != 0:
            raise CheckError(f"harden --variant {variant} {program} exited {res.rc}")
        return ctx.write_file(".aw", res.out)
    return ctx.memo(("harden", program, variant, extra), make)


# Relative security: uSLH, the flexible index and value SLH and the
# flow-sensitive variant enforce it (the last two only on IFC-typed
# programs, which the gadget is); the unprotected gadget leaks.
RELSEC_MUST_HOLD = ("uslh", "fislh", "fvslh", "fsfvslh")


def check_relsec(ctx: Context, op: "workloads.Op", res: Result) -> List[str]:
    variant = op.get("variant")
    status, w = parse_verdict(res.out)
    problems = _status_exit(status, res.rc)
    if variant in RELSEC_MUST_HOLD and status != "holds":
        problems.append(f"{status}, but the theorem says holds")
    if variant == "none" and status != "violated":
        problems.append(f"{status}, but the gadget leaks")
    if status == "holds" and premise_pairs(ctx, "gadget.aw", "relsec.space", "gadget.labels") == 0:
        problems.append("holds, but no pair passes the premise: vacuous")
    if status == "violated":
        problems += _replay_verdict(ctx, w, _hardened(ctx, "gadget.aw", variant, "gadget.labels"))
    return [f"relsec {variant}: {p}" for p in problems]


def check_sct(ctx: Context, op: "workloads.Op", res: Result) -> List[str]:
    """The gadget is constant-time typed.  sSLH and svSLH enforce SCT on
    such programs; fiSLH equals sSLH on them; iSLH masks every index sSLH
    masks; and for a constant-time program every public-equivalent pair
    passes the relative-security premise, so the relative-security
    theorems of uSLH, fvSLH and the flow-sensitive variant give SCT too."""
    variant = op.get("variant")
    status, w = parse_verdict(res.out)
    problems = _status_exit(status, res.rc)
    want = "violated" if variant == "none" else "holds"
    if status != want:
        problems.append(f"{status}, but the theorem says {want}")
    if status == "holds" and equivalent_pairs(ctx, "sct.space", "gadget.labels") == 0:
        problems.append("holds over no public-equivalent pair: vacuous")
    if status == "violated":
        problems += _replay_verdict(ctx, w, _hardened(ctx, "gadget.aw", variant, "gadget.labels"))
    return [f"sct {variant}: {p}" for p in problems]


def _listing_program(ctx: Context, listing: int) -> str:
    """The program a listing's violations are found in: the source, except
    for listing 3, whose attack runs on sSLH without store masking."""
    from awhile.fixtures import FIXTURES

    fx = FIXTURES[listing]
    src = ctx.memo(("listing", listing), lambda: ctx.write_file(".aw", fx.program_text))
    if listing != 3:
        return src
    labels = ctx.memo(("listing-labels", listing),
                      lambda: ctx.write_file(".labels", fx.labeling_text))
    return _hardened(ctx, src, "sislh", labels, ("--no-store-mask",))


def check_repro(ctx: Context, op: "workloads.Op", res: Result) -> List[str]:
    listing = op.get("listing")
    want_rc, want_statuses = workloads.REPRO_DOCUMENTED[listing]
    payload = json.loads(res.out)
    statuses = tuple(v["status"] for v in payload["verdicts"])
    problems = []
    if res.rc != want_rc or payload["exit"] != want_rc:
        problems.append(f"exit {res.rc}, documented {want_rc}")
    if statuses != want_statuses:
        problems.append(f"verdicts {statuses}, documented {want_statuses}")
    for v in payload["verdicts"]:
        if v["status"] != "violated":
            continue
        w = v.get("witness")
        problems += _replay_verdict(ctx, w and Witness(
            w["dirs"], tuple(w["trace1"]), tuple(w["trace2"]),
            w["divergence_index"], w["state1"] + "\n", w["state2"] + "\n"),
            _listing_program(ctx, listing))
    return [f"repro {listing}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# The lemma corpus
# ---------------------------------------------------------------------------


def _first_state(ctx: Context, space: str) -> str:
    return state_text(enumerate_space(ctx.wl.spaces[space])[0])


def _seq_run(ctx: Context, program: str, space: str) -> Run:
    return ctx.memo(("seq", program, space), lambda: run_program(
        ctx, "seq", program, _first_state(ctx, space), fuel=workloads.CORPUS_FUEL))


def check_print(ctx, op, res) -> List[str]:
    again = run_cli(["print", ctx.write_file(".aw", res.out)])
    if again.rc != 0 or again.out != res.out:
        return [f"print {op.get('program')}: the printed program does not re-print the same"]
    return []


def check_analyze(ctx, op, res) -> List[str]:
    """Flow-sensitive labels are at least as precise as the flow-insensitive
    typing the program satisfies, so no public name may end secret."""
    lines = res.out.splitlines()
    final = lines[lines.index("# final labeling") + 1:]
    labels = ctx.wl.labels["corpus.labels"]
    raised = [ln for ln in final
              if ln.endswith(": secret") and labels.get(ln.split(":")[0]) == "public"]
    return [f"analyze {op.get('program')}: public name ends secret: {raised}"] if raised else []


def check_harden(ctx, op, res) -> List[str]:
    """The hardened program must re-parse and, run sequentially from the
    same state, give the source's trace, outcome and final state, apart
    from the flag variable."""
    program, variant = op.get("program"), op.get("variant")
    src = _seq_run(ctx, program, op.get("space"))
    hard = run_program(ctx, "seq", ctx.write_file(".aw", res.out),
                       _first_state(ctx, op.get("space")), fuel=workloads.CORPUS_FUEL)
    if hard.outcome == "fuel-exhausted" or src.outcome == "fuel-exhausted":
        return [f"harden {variant} {program}: sequential run out of fuel"]
    final = tuple(ln for ln in hard.final if not ln.startswith(f"{FLAG_VAR} = "))
    if (hard.trace, hard.outcome, final) != (src.trace, src.outcome, src.final):
        return [f"harden {variant} {program}: sequential run differs from the source"]
    return []


def check_typecheck(ctx, op, res) -> List[str]:
    if res.rc != 0 or res.out.strip() != "well-typed":
        return [f"typecheck {op.get('program')}: {res.out.strip()}, but it is typed by construction"]
    return []


def check_equality(ctx, op, res) -> List[str]:
    lines = res.out.splitlines()
    facts = dict(ln.split(": ", 1) for ln in lines[:-1])
    # fiSLH equals sSLH on constant-time typed programs; an ifc-flavour
    # program may happen to be one
    want = {"fislh_eq_uslh_all_secret", "fvslh_eq_uslh_all_secret"}
    if op.get("flavour") == "cct":
        want.add("fislh_eq_sislh")
    problems = []
    if not want <= set(facts) <= want | {"fislh_eq_sislh"}:
        problems.append(f"compared {sorted(facts)}, expected {sorted(want)}")
    if any(v != "True" for v in facts.values()) or lines[-1] != "holds" or res.rc != 0:
        problems.append("an equality theorem reported false")
    return [f"equality {op.get('program')}: {p}" for p in problems]


def _lemma_holds(op, res, count_key: Optional[str], minimum: int) -> List[str]:
    lines = res.out.splitlines()
    name = f"{op.argv[2]} {op.get('variant')} {op.get('program')}"
    if res.rc != 0 or not lines or lines[-1] != "holds":
        return [f"{name}: {lines[-1] if lines else 'no output'}, but the lemma holds"]
    if count_key is not None:
        counts = [int(ln.split(": ")[1]) for ln in lines if ln.startswith(count_key + ": ")]
        if not counts or counts[0] < minimum:
            return [f"{name}: {count_key} {counts}, expected at least {minimum}"]
    return []


def check_bcc(ctx, op, res) -> List[str]:
    return _lemma_holds(op, res, "runs", workloads.BCC_TRIALS)


def check_ni(ctx, op, res) -> List[str]:
    return _lemma_holds(op, res, "checked", 1)


def check_unwind(ctx, op, res) -> List[str]:
    """Unwinding quantifies over public-equivalent pairs of a typed
    program (arrays too for fiSLH); the corpus is typed by construction,
    so a pair must exist for the holds to mean anything."""
    problems = _lemma_holds(op, res, None, 0)
    arrays = op.get("variant") == "fislh"
    if equivalent_pairs(ctx, op.get("space"), "corpus.labels", arrays) == 0:
        problems.append(f"unwind {op.get('program')}: holds over no pair")
    return problems


CHECKS = {
    "relsec": check_relsec,
    "sct": check_sct,
    "repro": check_repro,
    "print": check_print,
    "analyze": check_analyze,
    "harden": check_harden,
    "typecheck": check_typecheck,
    "equality": check_equality,
    "bcc": check_bcc,
    "ni": check_ni,
    "unwind": check_unwind,
}


def check(ctx: Context, op: "workloads.Op", res: Result) -> List[str]:
    try:
        return CHECKS[op.check](ctx, op, res)
    except (CheckError, ValueError, KeyError, IndexError, StopIteration) as exc:
        # output that cannot be read is wrong output
        return [f"{' '.join(op.argv)}: unreadable output ({type(exc).__name__}: {exc})"]
