"""Command-line front end.

Every subcommand is a thin adapter over the library: identical inputs
through the CLI and through the module API produce identical results.
Exit codes: 0 for success/Holds, 1 for Violated (or an ill-typed program
under ``typecheck``), 2 for usage, syntax, and precondition errors.
Every subcommand's arguments are declared once, in ``_COMMANDS``, and read
on one of two paths.  ``main`` reads a well-formed command line straight
from the table, without argparse; anything else (help, ``--``, ``--x=y``,
an abbreviation, a bad value, an unknown command) goes to the argparse
parser built from the same table, which owns help, usage and errors.

Environment variables SLH_MAX_DIRS and SLH_FUEL override the default
exploration bounds when the corresponding flags are not given; each is
read only by a command that takes its bound.
"""

from __future__ import annotations

import functools
import io
import os
import sys
from types import SimpleNamespace
from typing import Callable, List, Optional

from . import seccheck
from .flow_ifc import flow_track
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
    ParseError, numeral_too_long, parse_com, pretty_com, program_names, syntax_repr,
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
    transform_over,
)
from .gen import gen_program
from .spec_sem import Speculative, run
from .seq_sem import RunKind, seq_run
from .state import (
    SpecConfig,
    StateFormatError,
    format_dirs,
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
    try:
        return parse_com(text)
    except RecursionError:
        # the parser recurses once per nesting level; nothing after it does
        raise CliError("program nested too deeply") from None


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


def _bounds(args, takes=("--max-dirs", "--fuel")) -> Bounds:
    """The bounds of a command that ``takes`` the given bound options.  A
    bound it does not take keeps its default, and its environment variable
    is not read."""
    return Bounds(
        _bound(args.max_dirs, "--max-dirs", "SLH_MAX_DIRS", seccheck.DEFAULT_MAX_DIRS)
        if "--max-dirs" in takes else seccheck.DEFAULT_MAX_DIRS,
        _bound(args.fuel, "--fuel", "SLH_FUEL", seccheck.DEFAULT_FUEL)
        if "--fuel" in takes else seccheck.DEFAULT_FUEL,
    )


def _emit(args, payload: Callable[[], dict], lines: Callable[[], List[str]]):
    """Print ``payload()`` as JSON under ``--format json``, else the text
    ``lines()``: only the requested rendering is built, and ``json`` is
    imported only to print JSON, so a call that prints text does not pay
    for its import."""
    if getattr(args, "format", "text") == "json":
        import json

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
            "dirs": format_dirs(w.dirs),
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
        lines.append("directives: " + format_dirs(w.dirs))
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
    scalars, arrays = program_names(com)
    out_labels = "\n".join(
        [f"{n}: {final.vars.get(n)}" for n in sorted(scalars)]
        + [f"{n}: {final.arrs.get(n)}" for n in sorted(arrays)]
    )
    annotated = pretty_com(acom)
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
    """Prompt for a directive at every observing redex with a feasible
    one: the prompt is the ``pick`` of one ``spec_sem.run``, so interactive
    runs stop where every run does."""
    sem = Speculative()

    def prompt(cfg, feas):
        while True:
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
                return None
            line = line.strip()
            if line in ("q", "quit", "exit"):
                return None
            try:
                chosen = parse_dirs(line)
            except StateFormatError as exc:
                print(f"error: {exc}")
                continue
            if len(chosen) != 1:
                print("error: one directive at a time")
            elif chosen[0] not in feas:
                print("directive does not apply here")
            else:
                print(f"obs: {sem.step(cfg, chosen[0]).obs}")
                return chosen[0]

    out = run(sem, cfg, [], fuel, prompt)
    if out.kind is RunKind.STUCK:
        print("stuck: no feasible directive")
    print("trace:")
    if out.trace:
        print(format_trace(out.trace))
    print("final state: " + format_state(out.final.rho, out.final.mu).replace("\n", ", "))
    return 0


# --sem ideal-* -> the flexible variant whose ideal semantics it is
_IDEAL_VARIANTS = {"ideal-fislh": "fislh", "ideal-fvslh": "fvslh", "ideal-fs": "fsfvslh"}


def cmd_run(args) -> int:
    # a flag this run would ignore is refused, not dropped
    if args.interactive and args.sem != "spec":
        raise CliError("--interactive requires --sem spec")
    if args.dirs is not None and (args.interactive or args.sem == "seq"):
        where = "--interactive" if args.interactive else "--sem seq"
        raise CliError(f"--dirs does not apply to {where}")
    if args.interactive and args.format == "json":
        raise CliError("--format json does not apply to --interactive")
    if args.labels is not None and args.sem in ("seq", "spec"):
        raise CliError(f"--labels does not apply to --sem {args.sem}")
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
        return _run_interactive(SpecConfig(com, rho, mu, False), fuel)

    if args.sem == "seq":
        out = seq_run(com, rho, mu, fuel)
        final_state = format_state(out.rho, out.mu)
        consumed = None
    else:
        if args.sem == "spec":
            sem, cfg = Speculative(), SpecConfig(com, rho, mu, False)
        else:
            sem, start, _ = seccheck._ideal_source(
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
        transform_over(a.variant or "none", c, P, P, space, a.flag_var), P, P, space, b
    ),
    "relsec": lambda a, c, P, space, b: check_relative_security(
        a.variant or "none", c, P, P, space, b, a.flag_var
    ),
    "bcc": lambda a, c, P, space, b: check_bcc_space(
        a.variant, c, P, P, space, b, parse_dirs(a.dirs) if a.dirs is not None else None,
        100 if a.trials is None else a.trials, a.seed or 0, a.flag_var,
    ),
    "ni": lambda a, c, P, space, b: check_ni(a.variant, c, P, P, space),
    "unwind": lambda a, c, P, space, b: check_unwinding_space(a.variant, c, P, P, space, b),
    "wl": lambda a, c, P, space, b: check_wl(c, P, P, space, b, a.seed or 0),
    "equality": lambda a, c, P, space, b: check_equality(c, P, P),
}


# property -> the options it reads besides the program, --labels, --format
# and --flag-var (taken where a hardening runs, below); any other one given
# is refused, not dropped.  bcc with --dirs runs those directives once per
# state instead of --trials random runs.
_CHECK_OPTIONS = {
    "sct": ("--variant", "--space", "--max-dirs", "--fuel"),
    "relsec": ("--variant", "--space", "--max-dirs", "--fuel"),
    "bcc": ("--variant", "--space", "--dirs", "--trials", "--seed", "--max-dirs", "--fuel"),
    "bcc --dirs": ("--variant", "--space", "--dirs", "--fuel"),
    "ni": ("--variant", "--space"),
    "unwind": ("--variant", "--space", "--max-dirs", "--fuel"),
    "wl": ("--space", "--max-dirs", "--seed"),
    "equality": (),
}


def cmd_check(args) -> int:
    com = _load_program(args.program)
    labels = _load_labels(args.labels)
    if args.property in ("bcc", "ni", "unwind") and args.variant not in _IDEAL_VARIANTS.values():
        raise CliError(f"--property {args.property} needs --variant fislh|fvslh|fsfvslh")
    row = args.property
    if row == "bcc" and args.dirs is not None:  # an empty one fixes no directive
        row += " --dirs"
    for option in _CHECK_OPTIONS["bcc"]:  # every option, in bcc's row
        if option not in _CHECK_OPTIONS[row] and getattr(
                args, option[2:].replace("-", "_")) is not None:
            raise CliError(f"{option} does not apply to --property {row}")
    if args.trials is not None and args.trials < 0:
        raise CliError(f"--trials must not be negative, got {args.trials}")
    # the flag variable is spelled only where a hardening runs; an explicit
    # one anywhere else is refused, not dropped
    hardens = args.property == "bcc" or (
        args.property in ("sct", "relsec") and args.variant not in (None, "none"))
    if args.flag_var is None:
        args.flag_var = DEFAULT_FLAG_VAR
    elif not hardens:
        where = f"--property {args.property}"
        if args.property in ("sct", "relsec"):
            where += f" --variant {args.variant}" if args.variant else " without --variant"
        raise CliError(f"--flag-var does not apply to {where}")
    bounds = _bounds(args, _CHECK_OPTIONS[row])
    space = seccheck.StateSpace()
    if args.space:
        space = parse_space(_read_input(args.space))
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

# arguments shared by several commands, each a name and its argparse keywords
_PROGRAM = ("program", dict(help="program file ('-' for stdin)"))
_MAX_DIRS = ("--max-dirs", dict(type=int, default=None))
_FUEL = ("--fuel", dict(type=int, default=None))
_FORMAT = ("--format", dict(choices=["text", "json"], default="text"))
_LABELS = ("--labels", dict(help="labeling file (default: all secret)"))
_LABELED = [_PROGRAM, _LABELS, _FORMAT]

# name -> (help, handler, arguments); the order of the commands is the
# listing's, that of the arguments the help's.  The reader and the parser
# below both read this one declaration, so an argument may use only the
# keywords the reader knows: type=int, choices, default, required,
# action="store_true" and help.  None as a check option's default tells an
# omitted option from a given one, which cmd_check refuses where
# _CHECK_OPTIONS says the property does not read it.
_COMMANDS = {
    "parse": ("parse and dump the AST", cmd_parse, [_PROGRAM, _FORMAT]),
    "print": ("parse and pretty-print", cmd_print, [_PROGRAM, _FORMAT]),
    "typecheck": ("IFC or constant-time typing", cmd_typecheck, [
        ("--system", dict(choices=["ifc", "cct"], default="ifc")), *_LABELED]),
    "analyze": ("flow-sensitive IFC analysis", cmd_analyze, _LABELED),
    "harden": ("apply an SLH variant", cmd_harden, [
        ("--variant", dict(required=True, choices=[
            "islh", "sislh", "fislh", "uslh", "svslh", "fvslh", "fsfvslh"])),
        ("--no-store-mask", dict(action="store_true",
                                 help="sislh only: skip store-index masking (insecure)")),
        ("--flag-var", dict(default=DEFAULT_FLAG_VAR)), *_LABELED]),
    "run": ("run a program under a semantics", cmd_run, [
        ("--sem", dict(choices=["seq", "spec", "ideal-fislh", "ideal-fvslh", "ideal-fs"],
                       default="seq")),
        ("--state", dict(help="state file")),
        ("--dirs", dict(help="directive string, e.g. 'force load a 0 step'")),
        _FUEL,
        ("--interactive", dict(action="store_true",
                               help="prompt for each directive (spec semantics only)")),
        *_LABELED]),
    "check": ("bounded security checks", cmd_check, [
        ("--property", dict(choices=list(_PROPERTIES), required=True)),
        ("--variant", dict(choices=list(VARIANTS), default=None)),
        ("--space", dict(help="state-space file")),
        ("--dirs", dict(help="bcc: fixed directive string")),
        ("--trials", dict(type=int, default=None, help="bcc: random runs")),
        ("--seed", dict(type=int, default=None)),
        ("--flag-var", dict(default=None)),
        _PROGRAM, _LABELS, _MAX_DIRS, _FUEL, _FORMAT]),
    "repro": ("replay a fixture's documented result", cmd_repro, [
        ("--listing", dict(type=int, required=True, choices=sorted(FIXTURES))),
        _MAX_DIRS, _FUEL, _FORMAT]),
    "gen": ("generate a random program", cmd_gen, [
        ("--seed", dict(type=int, default=0)),
        ("--size", dict(type=int, default=10)),
        _FORMAT]),
}


@functools.lru_cache(maxsize=None)
def _reading(name: str):
    """What the reader needs of a command's arguments, made on its first
    use: per option string, its destination, its kind (``int``, None for a
    string, True for a ``store_true`` flag) and its choices; the defaults;
    the positionals' names; the required options."""
    options, defaults, positionals, required = {}, {}, [], set()
    for arg, kw in _COMMANDS[name][2]:
        if not arg.startswith("--"):
            positionals.append(arg)
            continue
        dest = arg[2:].replace("-", "_")
        flag = "action" in kw
        options[arg] = (dest, True if flag else kw.get("type"), kw.get("choices"))
        defaults[dest] = False if flag else kw.get("default")
        if kw.get("required"):
            required.add(dest)
    return options, defaults, positionals, required


def _read_args(name: str, argv: List[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse would give for a well-formed ``argv`` of
    command ``name``, or None.  It reads ``--option value`` for an exact
    option string (an ``int`` value through ``int``, then the choices),
    ``store_true`` flags and the declared positionals, one value each.  It
    declines every other token that starts with '-' (except '-' itself),
    so help, ``--``, ``--x=y``, abbreviations and negative numbers; a
    missing value or one that starts with '-'; a bad number or choice; a
    missing required option; and a wrong number of positionals."""
    options, defaults, names, required = _reading(name)
    values = dict(defaults)
    given, positionals = set(), []
    tokens = iter(argv)
    for token in tokens:
        if token[:1] != "-" or token == "-":
            positionals.append(token)
            continue
        option = options.get(token)
        if option is None:
            return None
        dest, kind, choices = option
        if kind is True:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or (value[:1] == "-" and value != "-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        given.add(dest)
    if len(positionals) != len(names) or not required <= given:
        return None
    values.update(zip(names, positionals))
    return SimpleNamespace(**values, command=name, fn=_COMMANDS[name][1])


def _build_parser() -> argparse.ArgumentParser:
    """The parser for every command, from the table above.  Its formatter
    reads the terminal width once, where argparse's default one reads it
    for every argument added.  ``shutil`` is imported here, as argparse
    does, so importing the CLI does not load it."""
    import argparse
    import shutil

    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    top = argparse.ArgumentParser(
        prog="awhile",
        description="AWhile: speculative semantics, IFC analyses, SLH "
        "hardening, and bounded differential security checking",
        formatter_class=formatter,
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, fn, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        for arg, kw in arguments:
            p.add_argument(arg, **kw)
        p.set_defaults(fn=fn)
    return top


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_args(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    if args is None:
        # help, usage and errors are argparse's
        args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ParseError, StateFormatError, LabelingError,
            seccheck.SpaceFormatError, PreconditionError,
            FlagCollisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except seccheck.WitnessReplayError as exc:
        # a fault of the checker, not a verdict: exit 1 is for replayed violations
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
