"""Command-line front end.

Every subcommand is a thin adapter over the library: identical inputs
through the CLI and through the module API produce identical results.
Exit codes: 0 for success/Holds, 1 for Violated (or an ill-typed program
under ``typecheck``), 2 for usage, syntax, and precondition errors.
``main`` builds one argument parser, the invoked subcommand's; the full
parser, with every subcommand, only for ``-h``, an unknown command or
leftover arguments.

Environment variables SLH_MAX_DIRS and SLH_FUEL override the default
exploration bounds when the corresponding flags are not given.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import Callable, List, Optional

from . import seccheck
from .flow_ifc import flow_track, pretty_acom
from .harden import DEFAULT_FLAG_VAR, VARIANTS, FlagCollisionError
from .ifc_static import (
    LabelMap,
    LabelingError,
    PUBLIC,
    all_secret,
    parse_labeling,
    wt_cct,
    wt_ifc,
)
from .lang import (
    ParseError, arrays_of, numeral_too_long, parse_com, pretty_com, syntax_repr, used_vars,
)
from .seccheck import (
    Bounds,
    PreconditionError,
    Verdict,
    VerdictStatus,
    check_bcc_space,
    check_equality,
    check_ni,
    check_relative_security,
    check_sct,
    check_unwinding_space,
    check_wl,
    parse_space,
    transform,
)
from .gen import gen_program
from .spec_sem import STEPPED, Speculative, advance, feasible, run
from .seq_sem import seq_run
from .state import (
    SpecConfig,
    StateFormatError,
    format_state,
    format_trace,
    parse_dirs,
    parse_state_full,
)
from .fixtures import FIXTURES, repro_listing

class CliError(Exception):
    """Usage-level failure; exits with status 2."""


def _read_input(path: str) -> str:
    try:
        if path == "-":
            # strict UTF-8 with universal newlines, as for a file below,
            # whatever the locale's encoding and error handler
            return io.TextIOWrapper(io.BytesIO(sys.stdin.buffer.read()),
                                    encoding="utf-8").read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path!r}: {exc}")
    except UnicodeDecodeError:
        raise CliError(f"cannot read {path!r}: not UTF-8 text")


def _load_program(path: str):
    text = _read_input(path)
    if not text.strip():
        raise CliError("empty program")
    return parse_com(text)


def _load_labels(path: Optional[str]) -> LabelMap:
    if path is None:
        return all_secret()
    return parse_labeling(_read_input(path))


def _env_default(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        digits = raw.strip()
        if digits[1:].isdecimal() and digits[0] in "+-":
            digits = digits[1:]
        if digits.isdecimal():
            # too long for int: echoing it would print every digit
            raise CliError(f"{name}: {numeral_too_long(digits)}")
        raise CliError(f"{name} must be an integer, got {raw!r}")


def _bound(value: Optional[int], flag: str, env: str, fallback: int) -> int:
    """A flag's value, else the environment's, else the default; a
    negative bound is a usage error, not an empty exploration."""
    if value is None:
        value, source = _env_default(env, fallback), env
    else:
        source = flag
    if value < 0:
        raise CliError(f"{source} must not be negative, got {value}")
    return value


def _bounds(args) -> Bounds:
    return Bounds(
        _bound(args.max_dirs, "--max-dirs", "SLH_MAX_DIRS", seccheck.DEFAULT_MAX_DIRS),
        _bound(args.fuel, "--fuel", "SLH_FUEL", seccheck.DEFAULT_FUEL),
    )


def _emit(args, payload: Callable[[], dict], lines: Callable[[], List[str]]):
    """Print ``payload()`` as JSON under ``--format json``, else the text
    ``lines()``: only the requested rendering is built."""
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload(), indent=2, sort_keys=True))
    else:
        for line in lines():
            print(line)


# failure messages printed per verdict in text; JSON lists every one
_SHOWN_FAILURES = 5


def _verdict_payload(v: Verdict) -> dict:
    out = {"status": str(v.status), **dict(v.facts)}
    if v.bounds is not None:
        out["max_dirs"] = v.bounds.max_dirs
        out["fuel"] = v.bounds.fuel
        if v.bounds.space:
            out["space"] = v.bounds.space
    if v.message:
        out["message"] = v.message
    if v.failures is not None:
        out["failures"] = list(v.failures)
    if v.witness is not None:
        w = v.witness
        out["witness"] = {
            "state1": format_state(*w.s1),
            "state2": format_state(*w.s2),
            "dirs": " ".join(str(d) for d in w.dirs),
            "trace1": [str(o) for o in w.trace1],
            "trace2": [str(o) for o in w.trace2],
            "divergence_index": w.divergence_index,
        }
    return out


def _verdict_lines(v: Verdict) -> List[str]:
    """Fact lines, failure lines, the status and the witness.  A verdict
    with facts prints its message (a vacuous note on what was counted)
    before the status, one without facts after it."""
    lines = [f"{name}: {value}" for name, value in v.facts]
    failures = v.failures or ()
    lines += failures[:_SHOWN_FAILURES]
    if len(failures) > _SHOWN_FAILURES:
        lines.append(f"... and {len(failures) - _SHOWN_FAILURES} more (--format json lists all)")
    message = [v.message] if v.message else []
    if v.facts:
        lines += message + [str(v.status)]
    else:
        lines += [str(v.status)] + message
    if v.witness is not None:
        w = v.witness
        lines.append("directives: " + " ".join(str(d) for d in w.dirs))
        lines.append("trace 1: " + "; ".join(str(o) for o in w.trace1))
        lines.append("trace 2: " + "; ".join(str(o) for o in w.trace2))
        lines.append(f"diverges at observation {w.divergence_index + 1}")
        s1 = format_state(*w.s1).replace("\n", ", ") or "(all defaults)"
        s2 = format_state(*w.s2).replace("\n", ", ") or "(all defaults)"
        lines.append("state 1: " + s1)
        lines.append("state 2: " + s2)
    return lines


def _verdict_exit(v: Verdict) -> int:
    if v.status is VerdictStatus.HOLDS:
        return 0
    if v.status is VerdictStatus.VIOLATED:
        return 1
    return 2


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_parse(args) -> int:
    ast = syntax_repr(_load_program(args.program))
    _emit(args, lambda: {"ast": ast}, lambda: [ast])
    return 0


def cmd_print(args) -> int:
    text = pretty_com(_load_program(args.program))
    _emit(args, lambda: {"program": text}, lambda: [text])
    return 0


def cmd_typecheck(args) -> int:
    com = _load_program(args.program)
    labels = _load_labels(args.labels)
    if args.system == "cct":
        ok = wt_cct(labels, labels, com)
    else:
        ok = wt_ifc(labels, labels, PUBLIC, com)
    _emit(args, lambda: {"system": args.system, "well_typed": ok},
          lambda: ["well-typed" if ok else "ill-typed"])
    return 0 if ok else 1


def cmd_analyze(args) -> int:
    com = _load_program(args.program)
    labels = _load_labels(args.labels)
    acom, final = flow_track(com, labels, labels, PUBLIC)
    scalars = sorted(used_vars(com))
    arrays = sorted(arrays_of(com))
    out_labels = "\n".join(
        [f"{n}: {final.vars.get(n)}" for n in scalars]
        + [f"{n}: {final.arrs.get(n)}" for n in arrays]
    )
    annotated = pretty_acom(acom)
    _emit(
        args,
        lambda: {"annotated": annotated, "final_labeling": out_labels},
        lambda: [annotated, "", "# final labeling", out_labels],
    )
    return 0


def cmd_harden(args) -> int:
    variant = args.variant
    if args.no_store_mask:
        if variant != "sislh":
            raise CliError("--no-store-mask only applies to --variant sislh")
        variant = "sislh-nostore"
    com = _load_program(args.program)
    labels = _load_labels(args.labels)
    text = pretty_com(transform(variant, com, labels, labels, args.flag_var))
    _emit(args, lambda: {"program": text}, lambda: [text])
    return 0


def _run_interactive(cfg: SpecConfig, fuel: int) -> int:
    """Prompt for a directive at every observing redex; the silent steps in
    between are spec_sem.advance's, so interactive runs stop where
    spec_sem.run does."""
    sem, trace = Speculative(), []
    while True:
        cfg, used, kind = advance(sem, cfg, fuel)
        fuel -= used
        if kind is not None:
            break
        feas = feasible(sem, cfg)
        if not feas:
            print("stuck: no feasible directive")
            break
        print("command:")
        print(pretty_com(cfg.com))
        print("state: " + format_state(cfg.rho, cfg.mu).replace("\n", ", "))
        print(f"flag: {'1' if cfg.flag else '0'}")
        print("feasible: " + " | ".join(str(d) for d in feas))
        sys.stdout.write("dir> ")
        sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:
            print("(end of input)")
            break
        line = line.strip()
        if line in ("q", "quit", "exit"):
            break
        try:
            chosen = parse_dirs(line)
        except StateFormatError as exc:
            print(f"error: {exc}")
            continue
        if len(chosen) != 1:
            print("error: one directive at a time")
            continue
        r = sem.step(cfg, chosen[0])
        if r.tag is not STEPPED:
            print("directive does not apply here")
            continue
        cfg = r.cfg
        fuel -= 1
        trace.append(r.obs)
        print(f"obs: {r.obs}")
    print("trace:")
    if trace:
        print(format_trace(trace))
    print("final state: " + format_state(cfg.rho, cfg.mu).replace("\n", ", "))
    return 0


# --sem ideal-* -> the flexible variant whose ideal semantics it is
_IDEAL_VARIANTS = {"ideal-fislh": "fislh", "ideal-fvslh": "fvslh", "ideal-fs": "fsfvslh"}


def cmd_run(args) -> int:
    com = _load_program(args.program)
    rho, mu, warnings = (
        parse_state_full(_read_input(args.state)) if args.state else parse_state_full("")
    )
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    fuel = _bound(args.fuel, "--fuel", "SLH_FUEL", seccheck.DEFAULT_FUEL)
    dirs = parse_dirs(args.dirs) if args.dirs else []
    labels = _load_labels(args.labels)

    if args.interactive:
        if args.sem != "spec":
            raise CliError("--interactive requires --sem spec")
        return _run_interactive(SpecConfig(com, rho, mu, False), fuel)

    if args.sem == "seq":
        out = seq_run(com, rho, mu, fuel)
        final_state = format_state(out.rho, out.mu)
        consumed = None
    else:
        if args.sem == "spec":
            sem, cfg = Speculative(), SpecConfig(com, rho, mu, False)
        else:
            sem, start = seccheck._ideal_source(
                _IDEAL_VARIANTS[args.sem], com, labels, labels, typed=False
            )
            cfg = start(rho, mu, False)
        out = run(sem, cfg, dirs, fuel)
        final_state = format_state(out.final.rho, out.final.mu)
        consumed = out.consumed
    payload = {
        "outcome": str(out.kind),
        "trace": [str(o) for o in out.trace],
        "final_state": final_state,
    }
    lines = []
    if out.trace:
        lines.append(format_trace(out.trace))
    lines.append(f"outcome: {out.kind}")
    if consumed is not None:
        payload["consumed"] = consumed
        lines.append(f"consumed: {consumed}")
    lines.append("final state:")
    lines.append(final_state if final_state else "(all defaults)")
    _emit(args, lambda: payload, lambda: lines)
    return 0


# property -> its library driver, called as (args, program, labels, space, bounds)
_PROPERTIES = {
    "sct": lambda a, c, P, space, b: check_sct(
        transform(a.variant or "none", c, P, P, a.flag_var), P, P, space, b
    ),
    "relsec": lambda a, c, P, space, b: check_relative_security(
        a.variant or "none", c, P, P, space, b, a.flag_var
    ),
    "bcc": lambda a, c, P, space, b: check_bcc_space(
        a.variant, c, P, P, space, b, parse_dirs(a.dirs) if a.dirs else None,
        a.trials, a.seed, a.flag_var,
    ),
    "ni": lambda a, c, P, space, b: check_ni(a.variant, c, P, P, space),
    "unwind": lambda a, c, P, space, b: check_unwinding_space(a.variant, c, P, P, space, b),
    "wl": lambda a, c, P, space, b: check_wl(c, P, P, space, b, a.seed),
    "equality": lambda a, c, P, space, b: check_equality(c, P, P),
}


def cmd_check(args) -> int:
    com = _load_program(args.program)
    labels = _load_labels(args.labels)
    bounds = _bounds(args)
    space = seccheck.StateSpace()
    if args.space:
        space = parse_space(_read_input(args.space))
    if args.property in ("bcc", "ni", "unwind") and args.variant not in _IDEAL_VARIANTS.values():
        raise CliError(f"--property {args.property} needs --variant fislh|fvslh|fsfvslh")
    if args.property in ("equality", "wl") and args.variant is not None:
        raise CliError(f"--variant does not apply to --property {args.property}")
    if args.property == "bcc" and args.trials < 0:
        raise CliError(f"--trials must not be negative, got {args.trials}")
    v = _PROPERTIES[args.property](args, com, labels, space, bounds)
    _emit(args, lambda: _verdict_payload(v), lambda: _verdict_lines(v))
    return _verdict_exit(v)


def cmd_repro(args) -> int:
    if args.listing not in FIXTURES:
        raise CliError(f"no fixture for listing {args.listing}")
    bounds = _bounds(args)
    code, results = repro_listing(args.listing, bounds)

    def payload():
        return {
            "listing": args.listing,
            "verdicts": [_verdict_payload(v) for _, v in results],
            "exit": code,
        }

    def lines():
        out = [f"listing {args.listing}: {FIXTURES[args.listing].title}"]
        for label, v in results:
            first, *rest = _verdict_lines(v)
            if v.bounds is not None and v.bounds.max_dirs > bounds.max_dirs:
                rest.append(f"max_dirs raised from {bounds.max_dirs} to {v.bounds.max_dirs}")
            out.append(f"{label}: {first}")
            out += ["  " + line for line in rest]
        return out

    _emit(args, payload, lines)
    return code


def cmd_gen(args) -> int:
    if args.size < 0:
        raise CliError(f"--size must not be negative, got {args.size}")
    text = pretty_com(gen_program(args.seed, args.size))
    _emit(args, lambda: {"program": text}, lambda: [text])
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _program_args(p, labels=False, bounds=False):
    p.add_argument("program", help="program file ('-' for stdin)")
    if labels:
        p.add_argument("--labels", help="labeling file (default: all secret)")
    if bounds:
        p.add_argument("--max-dirs", type=int, default=None)
        p.add_argument("--fuel", type=int, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")


def _labeled_program_args(p):
    _program_args(p, labels=True)


def _typecheck_args(p):
    p.add_argument("--system", choices=["ifc", "cct"], default="ifc")
    _program_args(p, labels=True)


def _harden_args(p):
    p.add_argument(
        "--variant",
        choices=["islh", "sislh", "fislh", "uslh", "svslh", "fvslh", "fsfvslh"],
        required=True,
    )
    p.add_argument("--no-store-mask", action="store_true",
                   help="sislh only: skip store-index masking (insecure)")
    p.add_argument("--flag-var", default=DEFAULT_FLAG_VAR)
    _program_args(p, labels=True)


def _run_args(p):
    p.add_argument(
        "--sem",
        choices=["seq", "spec", "ideal-fislh", "ideal-fvslh", "ideal-fs"],
        default="seq",
    )
    p.add_argument("--state", help="state file")
    p.add_argument("--dirs", help="directive string, e.g. 'force load a 0 step'")
    p.add_argument("--fuel", type=int, default=None)
    p.add_argument("--interactive", action="store_true",
                   help="prompt for each directive (spec semantics only)")
    _program_args(p, labels=True)


def _check_args(p):
    p.add_argument(
        "--property",
        choices=list(_PROPERTIES),
        required=True,
    )
    p.add_argument(
        "--variant",
        choices=list(VARIANTS),
        default=None,
    )
    p.add_argument("--space", help="state-space file")
    p.add_argument("--dirs", help="bcc: fixed directive string")
    p.add_argument("--trials", type=int, default=100, help="bcc: random runs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--flag-var", default=DEFAULT_FLAG_VAR)
    _program_args(p, labels=True, bounds=True)


def _repro_args(p):
    p.add_argument("--listing", type=int, required=True, choices=sorted(FIXTURES))
    p.add_argument("--max-dirs", type=int, default=None)
    p.add_argument("--fuel", type=int, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")


def _gen_args(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=10)
    p.add_argument("--format", choices=["text", "json"], default="text")


# name -> (help, handler, adds the arguments); the order is the listing's
_COMMANDS = {
    "parse": ("parse and dump the AST", cmd_parse, _program_args),
    "print": ("parse and pretty-print", cmd_print, _program_args),
    "typecheck": ("IFC or constant-time typing", cmd_typecheck, _typecheck_args),
    "analyze": ("flow-sensitive IFC analysis", cmd_analyze, _labeled_program_args),
    "harden": ("apply an SLH variant", cmd_harden, _harden_args),
    "run": ("run a program under a semantics", cmd_run, _run_args),
    "check": ("bounded security checks", cmd_check, _check_args),
    "repro": ("replay a fixture's documented result", cmd_repro, _repro_args),
    "gen": ("generate a random program", cmd_gen, _gen_args),
}


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, as the full parser's sub-parser for it
    would be: the same usage, help and errors, and the same namespace."""
    _, fn, add_args = _COMMANDS[name]
    p = argparse.ArgumentParser(prog=f"awhile {name}")
    add_args(p)
    p.set_defaults(command=name, fn=fn)
    return p


def _build_parser() -> argparse.ArgumentParser:
    """The parser for every command."""
    top = argparse.ArgumentParser(
        prog="awhile",
        description="AWhile: speculative semantics, IFC analyses, SLH "
        "hardening, and bounded differential security checking",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, fn, add_args) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(fn=fn)
    return top


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = extra = None
    if argv and argv[0] in _COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or extra:
        # no known command, or leftovers, which argparse reports with the
        # top usage line listing every command: let the full parser report
        args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ParseError, StateFormatError, LabelingError,
            seccheck.SpaceFormatError, PreconditionError,
            FlagCollisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the parser and the syntax walkers recurse once per nesting level
        print("error: program nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
