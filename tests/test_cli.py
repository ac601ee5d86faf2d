import argparse
import hashlib
import io
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

import awhile
from awhile import cli
from awhile.cli import _COMMANDS, _build_parser, main
from awhile.fixtures import FIXTURES
from awhile.gen import gen_program
from awhile.lang import pretty_com

LISTING1 = "if i < a1_size then j <- a1[i]; x <- a2[j] end\n"
LISTING1_LABELS = (
    "i: public\na1_size: public\nj: public\nx: public\na1: public\na2: public\n"
)


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        p = tmp_path / name
        p.write_text(content)
        return str(p)

    return write


def test_parse_ok(files, capsys):
    assert main(["parse", files("p.aw", "skip")]) == 0
    assert "Skip" in capsys.readouterr().out


def test_parse_empty_is_usage_error(files, capsys):
    assert main(["parse", files("p.aw", "")]) == 2
    assert "error" in capsys.readouterr().err


def test_parse_syntax_error_exit_2(files, capsys):
    assert main(["parse", files("p.aw", "if x then")]) == 2


def test_parse_error_is_reported_at_the_faulty_token(files, capsys):
    assert main(["parse", files("p.aw", "x := (y < 1 ? 2 3)\n")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 1:17: expected ':', found '3'\n"


def test_non_utf8_input_is_usage_error(tmp_path, files, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(b"x := 1\xff\n")
    assert main(["print", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {str(bad)!r}: not UTF-8 text\n"
    program = files("p.aw", "x := 1\n")
    assert main(["typecheck", "--labels", str(bad), program]) == 2
    assert capsys.readouterr().err == f"error: cannot read {str(bad)!r}: not UTF-8 text\n"


def test_non_utf8_stdin_is_usage_error(files, capsys, monkeypatch):
    # as under the C locale: the text layer turns the bad byte into a surrogate
    program = files("p.aw", "x := 1\n")
    for argv in (["print", "-"], ["typecheck", "--labels", "-", program]):
        stdin = io.TextIOWrapper(io.BytesIO(b"x := 1\xff\n"), encoding="utf-8",
                                 errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot read '-': not UTF-8 text\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"x := 1;\r\ny := 2\r\n")))
    assert main(["print", "-"]) == 0
    assert capsys.readouterr().out == "x := 1;\ny := 2\n"


def test_deep_nesting_is_usage_error(files, capsys):
    p = files("p.aw", "if x < 1 then\n" * 1500 + "skip\n" + "end\n" * 1500)
    for argv in (["print"], ["analyze"], ["harden", "--variant", "fvslh"]):
        assert main([*argv, p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: program nested too deeply\n"


def test_long_witness_is_not_a_nesting_error(files, capsys):
    # the pair walk keeps an explicit stack, so --max-dirs has no recursion
    # limit: a flat loop's witness of 1,102 directives
    p = files("p.aw", "while i < 1100 do i := i + 1 end; if s < 1 then skip end\n")
    labels, space = files("labels", "i: public\n"), files("space", "s in {0,1}\n")
    assert main(["check", "--property", "sct", "--max-dirs", "1200", "--fuel", "5000",
                 "--labels", labels, "--space", space, p]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    out = captured.out.splitlines()
    assert out[0] == "violated"
    assert out[1] == "directives: " + " ".join(["step"] * 1102)
    assert out[4:] == ["diverges at observation 1102", "state 1: (all defaults)",
                       "state 2: s = 1"]


def test_recursion_error_outside_parsing_propagates(files, monkeypatch):
    # only the parser's RecursionError is reported as nesting
    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "check_sct", overflow)
    with pytest.raises(RecursionError):
        main(["check", "--property", "sct", files("p.aw", "skip\n")])


def test_print_round_trip(files, capsys):
    path = files("p.aw", LISTING1)
    assert main(["print", path]) == 0
    out = capsys.readouterr().out
    assert " ".join(out.split()) == " ".join(LISTING1.split())


def test_print_long_program_round_trips(files, capsys):
    # ';' is parsed with a loop, so a long straight-line program does not
    # exhaust the recursion limit
    text = ";\n".join(["x := x + 1"] * 1500) + "\n"
    assert main(["print", files("p.aw", text)]) == 0
    out = capsys.readouterr().out
    assert out == text
    assert main(["print", files("q.aw", out)]) == 0
    assert capsys.readouterr().out == out


def test_parse_and_typecheck_long_program(files, capsys):
    # the AST dump and both type systems keep explicit stacks
    path = files("p.aw", ";\n".join(["x := x + 1"] * 1500) + "\n")
    assert main(["parse", path]) == 0
    assert capsys.readouterr().out.startswith("Seq(first=Asgn(name='x'")
    labels = files("labels", "x: public\n")
    for system in ("ifc", "cct"):
        assert main(["typecheck", "--system", system, "--labels", labels, path]) == 0
        assert capsys.readouterr().out == "well-typed\n"


def test_long_flat_expression_runs_and_checks(files, capsys):
    # a left-deep chain of one binding power evaluates in a loop
    path = files("p.aw", "x := " + " + ".join(["y"] + ["1"] * 4999) + "\n")
    for sem in ("seq", "spec"):
        assert main(["run", "--sem", sem, path]) == 0
        assert "x = 4999" in capsys.readouterr().out
    space = files("s.space", "y in {0,1}\n")
    assert main(["check", "--property", "sct", "--space", space, path]) == 0
    assert capsys.readouterr().out == "holds\n"
    # 2,001 terms alternating + and -, 1,500 conjuncts, 1,500 disjuncts
    mixed = files("m.aw", "x := " + " + ".join(["y"] + ["2 - 1"] * 1000) + "\n")
    both = files("c.aw", "if " + " && ".join(["y = 0"] * 1500) + " then x := 7 end\n")
    either = files("o.aw", "if " + " || ".join(["y = 1"] * 1500) + " then skip else x := 7 end\n")
    for sem, dirs in (("seq", []), ("spec", ["--dirs", "step"])):
        assert main(["run", "--sem", sem, mixed]) == 0
        assert capsys.readouterr().out.endswith("x = 1000\n")
        for path, branch in ((both, "true"), (either, "false")):
            assert main(["run", "--sem", sem, *dirs, path]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"branch {branch}\n") and out.endswith("x = 7\n")
    labels = files("labels", "y: public\n")
    space = files("t.space", "y in {0,1}\ns in {0,1}\n")
    for path in (mixed, both, either):
        assert main(["check", "--property", "sct", "--space", space, "--labels", labels, path]) == 0
        assert capsys.readouterr().out == "holds\n"


def test_witness_that_does_not_replay_is_an_internal_error(files, capsys, monkeypatch):
    import awhile.seccheck as seccheck

    real_run = seccheck.run
    monkeypatch.setattr(seccheck, "run", lambda sem, cfg, dirs, fuel: real_run(sem, cfg, (), fuel))
    p = files("p.aw", "x <- a[k]\n")
    space = files("s.space", "k in {0,1}\na : size 2 in {0}\n")
    assert main(["check", "--property", "sct", "--space", space, p]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: witness does not replay: ")
    monkeypatch.setattr(seccheck, "run", real_run)
    assert main(["check", "--property", "sct", "--space", space, p]) == 1


def test_typecheck_cct(files, capsys):
    p = files("p.aw", LISTING1)
    labels = files("labels", LISTING1_LABELS)
    assert main(["typecheck", "--system", "cct", "--labels", labels, p]) == 0
    assert main(["typecheck", "--system", "cct", p]) == 1  # all-secret labels


def test_harden_matches_listing2(files, capsys):
    p = files("p.aw", LISTING1)
    assert main(["harden", "--variant", "islh", p]) == 0
    out = capsys.readouterr().out
    assert "(b = 1 ? 0 : i)" in out
    assert "b := (i < a1_size ? b : 1)" in out


# The first 16 hex digits of the sha256 of the exact standard output of
# `print` and of `harden` under each variant, for every fixture listing.
# Listing 2 is already hardened with the flag `b`, so it is hardened again
# with the flag `m`.
_HARDEN_CHOICES = ("islh", "sislh", "fislh", "uslh", "svslh", "fvslh", "fsfvslh")
_PRINTED = {
    1: ("b7723c84bea3c975", "d199159928ce4773", "d199159928ce4773", "d199159928ce4773",
        "67e4f2a5908006e7", "1d924d3062e29e15", "1d924d3062e29e15", "1d924d3062e29e15"),
    2: ("d199159928ce4773", "1ffe4a44e24bc985", "1ffe4a44e24bc985", "1ffe4a44e24bc985",
        "a798191b3175ac1b", "e567adcde4f295bf", "1ffe4a44e24bc985", "1ffe4a44e24bc985"),
    3: ("dfa42dd71c0f41ff", "88e173b2ff0457d3", "88e173b2ff0457d3", "88e173b2ff0457d3",
        "df9395774cf43b65", "62097d9d182f1b5f", "62097d9d182f1b5f", "62097d9d182f1b5f"),
    4: ("0d13d85e8b02002c", "fc01b92bf3a2297a", "fc01b92bf3a2297a", "4c5bd02171c50347",
        "f372925068abdd56", "fc01b92bf3a2297a", "4c5bd02171c50347", "4c5bd02171c50347"),
    5: ("c897464a0c16fc87", "55e9d936f47d1ee3", "f900a44784d1a7ca", "55e9d936f47d1ee3",
        "8f104db0fc9c3ad1", "f900a44784d1a7ca", "55e9d936f47d1ee3", "55e9d936f47d1ee3"),
    6: ("d74d96afc1e65f02", "aad0dd3b97854718", "79706c9fb86d3124", "aad0dd3b97854718",
        "0b5e371b607e637e", "79706c9fb86d3124", "aad0dd3b97854718", "aad0dd3b97854718"),
}


@pytest.mark.parametrize("number", sorted(_PRINTED))
def test_printed_text_of_every_listing_is_pinned(number, files, capsys):
    # the exact text, spaces, line breaks and indentation included
    fx = FIXTURES[number]
    p = files("p.aw", fx.program_text)
    labels = files("labels", fx.labeling_text)
    flag = ["--flag-var", "m"] if number == 2 else []
    digests = []
    for argv in [["print", p]] + [["harden", "--variant", v, "--labels", labels, *flag, p]
                                  for v in _HARDEN_CHOICES]:
        assert main(argv) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16])
    assert tuple(digests) == _PRINTED[number]


def test_run_seq_json(files, capsys):
    p = files("p.aw", LISTING1)
    st = files("s", "i = 1\na1_size = 4\na1 = [0,7,1,2]\na2 = [0,0,0,0,0,0,0,0]")
    assert main(["run", "--sem", "seq", "--state", st, "--format", "json", p]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["outcome"] == "terminated"
    assert data["trace"] == ["branch true", "read a1 1", "read a2 7"]


def test_run_spec_with_dirs(files, capsys):
    p = files("p.aw", LISTING1)
    st = files(
        "s", "i = 4\na1_size = 4\na1 = [0,7,1,2]\na2 = [0,0,0,0,0,0,0,0]\na3 = [5]"
    )
    assert main(
        ["run", "--sem", "spec", "--state", st, "--dirs", "force load a3 0 step", p]
    ) == 0
    out = capsys.readouterr().out
    assert "read a2 5" in out
    assert "consumed: 3" in out


def test_run_ideal_fs(files, capsys):
    p = files("p.aw", "if false then a[isecret] <- e end")
    st = files("s", "isecret = 1\ne = 5\na = [0,0]")
    labels = files("labels", "e: public")
    assert main(
        ["run", "--sem", "ideal-fs", "--state", st, "--labels", labels,
         "--dirs", "force step", p]
    ) == 0
    out = capsys.readouterr().out
    assert "write a 0" in out  # masked store index


@pytest.mark.parametrize("flags, error", [
    (["--sem", "seq", "--dirs", "force"], "--dirs does not apply to --sem seq"),
    (["--sem", "seq", "--dirs", ""], "--dirs does not apply to --sem seq"),
    (["--sem", "spec", "--interactive", "--dirs", "step"],
     "--dirs does not apply to --interactive"),
    (["--sem", "seq", "--labels", "l"], "--labels does not apply to --sem seq"),
    (["--sem", "spec", "--labels", "l"], "--labels does not apply to --sem spec"),
    (["--sem", "spec", "--interactive", "--labels", "l"],
     "--labels does not apply to --sem spec"),
    (["--sem", "spec", "--interactive", "--format", "json"],
     "--format json does not apply to --interactive"),
    (["--sem", "ideal-fs", "--interactive"], "--interactive requires --sem spec"),
])
def test_run_refuses_flags_it_would_ignore(files, capsys, flags, error):
    p, labels = files("p.aw", LISTING1), files("l", LISTING1_LABELS)
    argv = ["run", *[labels if f == "l" else f for f in flags], p]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error}\n")


RUN_STATE = "i = 4\na1_size = 4\na1 = [0,7,1,2]\na2 = [0,0,0,0,0,0,0,0]\na3 = [5]\n"


@pytest.mark.parametrize("sem, dirs, trace", [
    # fiSLH masks the public indices i and j while misspeculating
    ("ideal-fislh", "force step step", ["branch false", "read a1 0", "read a2 0"]),
    # fvSLH lets the index through and masks the loaded public value j
    ("ideal-fvslh", "force load a3 0 step", ["branch false", "read a1 4", "read a2 0"]),
    ("ideal-fs", "force load a3 0 step", ["branch false", "read a1 4", "read a2 0"]),
])
def test_run_ideal_semantics_output(files, capsys, sem, dirs, trace):
    p = files("p.aw", LISTING1)
    argv = ["run", "--sem", sem, "--state", files("s", RUN_STATE),
            "--labels", files("labels", LISTING1_LABELS), "--dirs", dirs, p]
    final = "a1_size = 4\ni = 4\na1 = [0,7,1,2]\na2 = [0,0,0,0,0,0,0,0]\na3 = [5]"
    assert main(argv) == 0
    assert capsys.readouterr().out == "\n".join(
        trace + ["outcome: terminated", "consumed: 3", "final state:", final]) + "\n"
    assert main(argv[:-1] + ["--format", "json", p]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "consumed": 3, "final_state": final, "outcome": "terminated", "trace": trace,
    }


def test_check_sct_exit_codes(files):
    fx_prog = files("l3.aw", (
        "if i < secrets_size then\n"
        "  secrets[i] <- key;\n"
        "  x <- a[0];\n"
        "  if 1 <= x then skip end\n"
        "end\n"
    ))
    labels = files("labels", "i: public\nsecrets_size: public\nx: public\na: public")
    space = files("space", (
        "i in {0,1}\nsecrets_size in {1}\nx in {0}\nkey in {0,1}\n"
        "secrets : size 1 in {0}\na : size 1 in {0}"
    ))
    common = ["check", "--property", "sct", "--labels", labels, "--space", space,
              "--max-dirs", "6", fx_prog]
    assert main(common[:1] + ["--variant", "sislh-nostore"] + common[1:]) == 1
    assert main(common[:1] + ["--variant", "sislh"] + common[1:]) == 0
    assert main(common[:1] + ["--variant", "svslh"] + common[1:]) == 0


def test_check_relsec_precondition_exit_2(files, capsys):
    p = files("p.aw", "y := secret")
    labels = files("labels", "y: public")
    space = files("space", "secret in {0,1}")
    code = main(["check", "--property", "relsec", "--variant", "fislh",
                 "--labels", labels, "--space", space, p])
    assert code == 2


def test_check_bcc_random(files):
    p = files("p.aw", LISTING1)
    labels = files("labels", LISTING1_LABELS)
    space = files("space", (
        "i in {0,4}\na1_size in {4}\na1 : size 4 in {0}\n"
        "a2 : size 4 in {0}\na3 : size 1 in {42}"
    ))
    assert main(["check", "--property", "bcc", "--variant", "fislh",
                 "--labels", labels, "--space", space, "--trials", "40", p]) == 0


def test_check_unwind_and_wl(files):
    p = files("p.aw", "if secret = 0 then y := 1 end")
    space = files("space", "secret in {0,1}\ny in {0}")
    assert main(["check", "--property", "unwind", "--variant", "fislh",
                 "--space", space, "--max-dirs", "4", p]) == 0
    assert main(["check", "--property", "wl", "--space", space, p]) == 0


def test_check_equality(files):
    p = files("p.aw", LISTING1)
    assert main(["check", "--property", "equality", p]) == 0


def test_check_equality_long_program(files, capsys):
    # the hardened programs are compared without recursing down the spine
    p = files("p.aw", ";\n".join(["x := x + 1"] * 600))
    assert main(["check", "--property", "equality", p]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "holds"


def test_repro_exit_codes(capsys):
    assert main(["repro", "--listing", "1"]) == 1
    out = capsys.readouterr().out
    assert "force load a3 0 step" in out
    assert main(["repro", "--listing", "2"]) == 0


def test_repro_json(capsys):
    assert main(["repro", "--listing", "1", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdicts"][0]["status"] == "violated"
    assert data["verdicts"][0]["witness"]["dirs"] == "force load a3 0 step"


REPRO_TEXT = {
    3: """\
listing 3: Leakage through unprotected stores
sct with store masking disabled: violated
  directives: force store a 0 step step
  trace 1: branch false; write secrets 1; read a 0; branch false
  trace 2: branch false; write secrets 1; read a 0; branch true
  diverges at observation 4
  state 1: i = 1, secrets_size = 1, a = [0], secrets = [0]
  state 2: i = 1, key = 1, secrets_size = 1, a = [0], secrets = [0]
sct under sislh: holds
sct under svslh: holds
""",
    4: """\
listing 4: Leakage through sequentially unreachable code
relative security (unhardened): violated
  directives: force step
  trace 1: branch false; branch true
  trace 2: branch false; branch false
  diverges at observation 2
  state 1: (all defaults)
  state 2: secret = 1
relative security under fislh: holds
relative security under fvslh: holds
relative security under uslh: holds
relative security under fsfvslh: holds
""",
}


@pytest.mark.parametrize("listing", sorted(REPRO_TEXT))
def test_repro_text_renders_verdicts_as_check_does(listing, capsys):
    # each verdict is check's text: the first line after the label, the
    # rest indented by two spaces
    assert main(["repro", "--listing", str(listing)]) == 1
    assert capsys.readouterr().out == REPRO_TEXT[listing]


def test_env_overrides_bounds(files, monkeypatch):
    # with a directive budget of 1 the attack cannot be reached
    monkeypatch.setenv("SLH_MAX_DIRS", "1")
    assert main(["repro", "--listing", "1"]) == 0
    monkeypatch.delenv("SLH_MAX_DIRS")
    assert main(["repro", "--listing", "1"]) == 1


_ARRAYS = "a1 = [0,7,1,2], a2 = [0,0,0,0,0,0,0,0], a3 = [5]"
_LOADS = " | ".join([f"load a1 {j}" for j in range(4)] + [f"load a2 {j}" for j in range(8)]
                   + ["load a3 0"])


def _prompt(command, state, flag, feasible):
    return (f"command:\n{command}\nstate: {state}, {_ARRAYS}\nflag: {flag}\n"
            f"feasible: {feasible}\ndir> ")


# the three prompts of Listing 1 from i = 4, a1_size = 4: the branch, the
# misspeculated read of a1 and, after `load a3 0`, the read of a2
_AT_BRANCH = _prompt("if i < a1_size then\n  j <- a1[i];\n  x <- a2[j]\nend",
                     "a1_size = 4, i = 4", 0, "step | force")
_AT_READ = _prompt("j <- a1[i];\nx <- a2[j]", "a1_size = 4, i = 4", 1, _LOADS)
_AT_SECOND_READ = _prompt("x <- a2[j]", "a1_size = 4, i = 4, j = 5", 1, "step")


def _interactive(files, capsys, monkeypatch, stdin, state="i = 4\na1_size = 4", extra=(),
                 program=LISTING1):
    p = files("p.aw", program)
    st = files("s", state + "\na1 = [0,7,1,2]\na2 = [0,0,0,0,0,0,0,0]\na3 = [5]")
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(["run", "--sem", "spec", "--state", st, "--interactive", *extra, p]) == 0
    return capsys.readouterr().out


def test_interactive_run(files, capsys, monkeypatch):
    out = _interactive(files, capsys, monkeypatch, "force\nload a3 0\nstep\n")
    assert out == (
        _AT_BRANCH + "obs: branch false\n" + _AT_READ + "obs: read a1 4\n"
        + _AT_SECOND_READ + "obs: read a2 5\n"
        "trace:\nbranch false\nread a1 4\nread a2 5\n"
        f"final state: a1_size = 4, i = 4, j = 5, {_ARRAYS}\n"
    )


_L1_FINAL = f"final state: a1_size = 4, i = 4, {_ARRAYS}\n"


@pytest.mark.parametrize("stdin, extra, expected", [
    # quit, and end of input, at the misspeculated read
    ("force\nquit\n", (), _AT_BRANCH + "obs: branch false\n" + _AT_READ
     + "trace:\nbranch false\n" + _L1_FINAL),
    ("force\n", (), _AT_BRANCH + "obs: branch false\n" + _AT_READ
     + "(end of input)\ntrace:\nbranch false\n" + _L1_FINAL),
    # a bad token, two directives and an infeasible directive prompt again
    ("bogus\nstep step\nforce\nload a9 0\nload a3 0\nstep\n", (),
     _AT_BRANCH + "error: unknown directive token 'bogus'\n"
     + _AT_BRANCH + "error: one directive at a time\n"
     + _AT_BRANCH + "obs: branch false\n"
     + _AT_READ + "directive does not apply here\n"
     + _AT_READ + "obs: read a1 4\n" + _AT_SECOND_READ + "obs: read a2 5\n"
     "trace:\nbranch false\nread a1 4\nread a2 5\n"
     f"final state: a1_size = 4, i = 4, j = 5, {_ARRAYS}\n"),
    # the fuel runs out after the read of a1, without a prompt
    ("force\nload a3 0\nstep\n", ("--fuel", "3"),
     _AT_BRANCH + "obs: branch false\n" + _AT_READ + "obs: read a1 4\n"
     "trace:\nbranch false\nread a1 4\n"
     f"final state: a1_size = 4, i = 4, j = 5, {_ARRAYS}\n"),
    ("", ("--fuel", "0"), f"trace:\n{_L1_FINAL}"),
], ids=["quit", "end-of-input", "bad-input", "fuel-out", "no-fuel"])
def test_interactive_transcript(files, capsys, monkeypatch, stdin, extra, expected):
    assert _interactive(files, capsys, monkeypatch, stdin, extra=extra) == expected


def test_interactive_run_reports_a_stuck_read(files, capsys, monkeypatch):
    # in bounds of a1_size, out of a1's bounds, and not misspeculating
    out = _interactive(files, capsys, monkeypatch, "step\n", state="i = 4\na1_size = 5")
    at_branch = _AT_BRANCH.replace("a1_size = 4", "a1_size = 5")
    assert out == (at_branch + "obs: branch true\nstuck: no feasible directive\n"
                   f"trace:\nbranch true\nfinal state: a1_size = 5, i = 4, {_ARRAYS}\n")


def test_interactive_prompt_prints_a_folded_configuration(files, capsys, monkeypatch):
    # Listing 1 with three statements in its then-branch and one after it.
    # After `force` the configuration's stack folds to the left,
    # Seq(Seq(then-branch, i := i + 1)), and prints as one flat sequence.
    program = ("if i < a1_size then j <- a1[i]; x <- a2[j]; y := x + 1 end;\n"
               "i := i + 1\n")
    out = _interactive(files, capsys, monkeypatch, "force\n", program=program)
    assert out == (
        _prompt("if i < a1_size then\n  j <- a1[i];\n  x <- a2[j];\n  y := x + 1\nend;\n"
                "i := i + 1", "a1_size = 4, i = 4", 0, "step | force")
        + "obs: branch false\n"
        + _prompt("j <- a1[i];\nx <- a2[j];\ny := x + 1;\ni := i + 1",
                  "a1_size = 4, i = 4", 1, _LOADS)
        + "(end of input)\ntrace:\nbranch false\n" + _L1_FINAL
    )


def test_gen_subcommand(capsys):
    assert main(["gen", "--seed", "5", "--size", "8"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--seed", "5", "--size", "8"]) == 0
    assert capsys.readouterr().out == first


def test_check_vacuous_holds_are_flagged(files, capsys):
    # the repro of a premise no pair passes, and a space without a pair
    p = files("p.aw", "if s = 0 then x := 1 end")
    labels = files("labels", "x: public")
    space = files("space", "s in {0,1}")
    relsec = ["check", "--property", "relsec", "--variant", "none",
              "--labels", labels, "--space", space, p]
    assert main(relsec) == 0
    assert capsys.readouterr().out.splitlines() == [
        "holds",
        "vacuous: 0 of 1 public-equivalent pairs passed the sequential premise",
    ]
    assert main(relsec + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "holds"
    assert data["message"].startswith("vacuous: 0 of 1 ")
    public_s = files("public", "s: public\nx: public")
    sct = ["check", "--property", "sct", "--labels", public_s, "--space", space, p]
    assert main(sct) == 0
    assert capsys.readouterr().out.splitlines() == [
        "holds", "vacuous: 0 public-equivalent pairs among 2 states"
    ]
    assert main(sct + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["message"] == (
        "vacuous: 0 public-equivalent pairs among 2 states"
    )


def test_check_unwind_reports_pairs(files, capsys):
    p = files("p.aw", "if s = 0 then x := 1 end")
    space = files("space", "s in {0,1}")
    args = ["check", "--property", "unwind", "--variant", "fislh",
            "--space", space, "--max-dirs", "4", p]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == ["pairs: 1", "holds"]
    # ill-typed under the labeling: every pair fails the precondition
    labels = files("labels", "x: public")
    assert main(args[:-1] + ["--labels", labels, p]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pairs: 0"
    assert lines[1].startswith("vacuous: ")
    assert lines[-1] == "holds"
    assert main(args[:-1] + ["--labels", labels, "--format", "json", p]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["status"], data["pairs"]) == ("holds", 0)
    assert data["message"].startswith("vacuous: ")


# The looped Listing-1 gadget over a wide space: 640 states in five public
# groups (by i), 128 secret values of a3 each.  The exit code and the sha256
# of the exact `check --format json` output of each pair check, which hold
# the witness, the pair count and the vacuity message.
_WIDE_GADGET = """\
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
_WIDE_LABELS = "".join(
    f"{n}: public\n" for n in ("a1", "a1_size", "a2", "i", "j", "k")
) + "a3: secret\nx: public\n"
_WIDE_SPACE = (
    "i in {0,1,2,3,4}\na1_size in {4}\na1 : size 4 in {2}\na2 : size 4 in {0}\n"
    "a3 : size 1 in {" + ",".join(map(str, range(4, 132))) + "}\n"
)
_VIOLATED_DIGEST = "af85f99e3fbec44d392088cba549da136b233ba778da75e66b62ed235589a912"
_HOLDS_DIGEST = "808cac2ce5cc80917729cb71b7663d1e40f3c7d83f83e00db4d3516bff4ae60c"
_UNWIND_DIGEST = "193792a446cf9d43ff4298a5c3b75b8ff651299ef70e4f3238c1bc684b51c410"


@pytest.mark.parametrize("prop, variant, code, digest", [
    ("relsec", "none", 1, _VIOLATED_DIGEST),
    ("relsec", "uslh", 0, _HOLDS_DIGEST),
    ("relsec", "fvslh", 0, _HOLDS_DIGEST),
    ("sct", "none", 1, _VIOLATED_DIGEST),
    ("sct", "fvslh", 0, _HOLDS_DIGEST),
    ("unwind", "fvslh", 0, _UNWIND_DIGEST),
    ("unwind", "fislh", 0, _UNWIND_DIGEST),
])
def test_wide_space_json_output_is_pinned(prop, variant, code, digest, files, capsys):
    argv = ["check", "--property", prop, "--variant", variant,
            "--labels", files("labels", _WIDE_LABELS), "--space", files("space", _WIDE_SPACE),
            "--max-dirs", "8", "--fuel", "200", "--format", "json", files("p.aw", _WIDE_GADGET)]
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, env", [
    (["--max-dirs", "-3"], {}),
    (["--fuel", "-1"], {}),
    (["--max-dirs", "-3", "--fuel", "-1"], {}),
    ([], {"SLH_MAX_DIRS": "-1"}),
    ([], {"SLH_FUEL": "-5"}),
])
def test_negative_bounds_are_usage_errors(argv, env, capsys, monkeypatch):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(["repro", "--listing", "1"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "must not be negative" in err[0]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name", ["SLH_MAX_DIRS", "SLH_FUEL"])
def test_a_too_long_bound_variable_gets_a_short_message(name, capsys, monkeypatch):
    monkeypatch.setenv(name, "1" * 5000)
    assert main(["repro", "--listing", "2"]) == 2
    assert capsys.readouterr() == ("", f"error: {name}: numeral too long (5000 digits)\n")
    monkeypatch.setenv(name, "+-1")
    assert main(["repro", "--listing", "2"]) == 2
    assert capsys.readouterr() == ("", f"error: {name} must be an integer, got '+-1'\n")


def test_gen_rejects_negative_size(capsys):
    assert main(["gen", "--size", "-5"]) == 2
    assert capsys.readouterr() == ("", "error: --size must not be negative, got -5\n")
    assert main(["gen", "--size", "0"]) == 0
    assert capsys.readouterr().out == pretty_com(gen_program(0, 0)) + "\n"


def test_run_rejects_negative_fuel(files, capsys):
    assert main(["run", "--fuel", "-1", files("p.aw", "skip")]) == 2
    assert "--fuel must not be negative" in capsys.readouterr().err


def test_bad_space_domain_is_usage_error(files, capsys):
    p = files("p.aw", "skip")
    space = files("space", "x in {x}")
    assert main(["check", "--property", "sct", "--space", space, p]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "Traceback" not in err
    # a[-1] would read a's last cell, in a state that run --state refuses
    p = files("p.aw", "y <- a[x]; if y < 6 then skip end\n")
    labels = files("labels", "x: public\ny: public\n")
    space = files("space", "x in {-1}\na : size 2 in {5,6}\n")
    assert main(["check", "--property", "sct", "--labels", labels, "--space", space, p]) == 2
    assert capsys.readouterr() == ("", "error: line 1: domain values must be natural numbers\n")


# past Python's limit on the digits of an integer string (4,300 by default)
_LONG = "1" * 5000


@pytest.mark.parametrize("argv, inputs, err", [
    pytest.param(["print", "p.aw"], {"p.aw": f"x := {_LONG}"},
                 "1:6: numeral too long (5000 digits)", id="program"),
    pytest.param(["run", "--state", "s", "p.aw"], {"s": f"a = [0, {_LONG}]"},
                 "line 1: numeral too long (5000 digits)", id="state"),
    pytest.param(["check", "--property", "sct", "--space", "sp", "p.aw"],
                 {"sp": f"x in {{0}}\na : size {_LONG} in {{0}}"},
                 "line 2: numeral too long (5000 digits)", id="space-size"),
    pytest.param(["check", "--property", "sct", "--space", "sp", "p.aw"],
                 {"sp": f"x in {{0,{_LONG}}}"},
                 "line 1: numeral too long (5000 digits)", id="space-domain"),
    pytest.param(["run", "--sem", "spec", "--dirs", f"force load a {_LONG}", "p.aw"], {},
                 "'load' index: numeral too long (5000 digits)", id="dirs"),
])
def test_long_numerals_are_usage_errors(argv, inputs, err, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.aw").write_text("x <- a[i]")
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("size", [
    "99999999999999999999",  # beyond an index
    "9223372036854775807",  # an index, but beyond itertools.product's repeat
])
def test_an_array_too_large_to_enumerate_is_a_usage_error(size, files, capsys):
    # the program never uses the array; neither size allocates anything
    space = files("space", f"a : size {size} in {{0}}\n")
    assert main(["check", "--property", "sct", "--space", space, files("p.aw", "x := 1")]) == 2
    assert capsys.readouterr() == ("", "error: state space too large to enumerate\n")


def test_a_space_out_of_memory_is_a_usage_error(files, capsys, monkeypatch):
    import awhile.seccheck as seccheck

    def out_of_memory(space):
        raise MemoryError

    monkeypatch.setattr(seccheck, "enum_states", out_of_memory)
    space = files("space", "a : size 99999999999 in {0}\n")
    assert main(["check", "--property", "sct", "--space", space, files("p.aw", "x := 1")]) == 2
    assert capsys.readouterr() == ("", "error: state space too large to enumerate\n")


def test_check_ni_and_bcc_vacuous_are_flagged(files, capsys):
    # ill-typed under the labeling: ni checks no step
    p = files("p.aw", "if s = 0 then x := 1 end")
    labels = files("labels", "x: public")
    space = files("space", "s in {0,1}")
    note = "vacuous: no pair of states met the lemma's preconditions"
    for variant in ("fislh", "fvslh"):
        args = ["check", "--property", "ni", "--variant", variant,
                "--labels", labels, "--space", space, p]
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines() == ["checked: 0", note, "holds"]
        assert main(args[:-1] + ["--format", "json", p]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["status"], data["checked"], data["message"]) == ("holds", 0, note)
    bcc = ["check", "--property", "bcc", "--variant", "fislh", "--labels", labels,
           "--space", space, "--trials", "0", p]
    assert main(bcc) == 0
    assert capsys.readouterr().out.splitlines() == [
        "runs: 0", "vacuous: no run was checked", "holds"
    ]
    assert main(bcc[:-1] + ["--format", "json", p]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["status"], data["runs"]) == ("holds", 0)
    assert data["message"] == "vacuous: no run was checked"
    # a check that covered something prints no note
    assert main(bcc[:-2] + ["1", p]) == 0
    assert capsys.readouterr().out.splitlines() == ["runs: 1", "holds"]


def test_negative_trials_are_usage_errors(files, capsys):
    p = files("p.aw", LISTING1)
    args = ["check", "--property", "bcc", "--variant", "fislh", "--trials", "-1", p]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trials must not be negative" in captured.err


@pytest.mark.parametrize("prop", ["ni", "unwind"])
@pytest.mark.parametrize("variant, typer", [
    ("fislh", "wt_ifc"), ("fvslh", "wt_ifc"), ("fsfvslh", "flow_track"),
])
def test_lemma_checks_type_the_program_once(files, capsys, monkeypatch, prop, variant, typer):
    import awhile.seccheck as seccheck

    calls = {"wt_ifc": 0, "flow_track": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(seccheck, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(seccheck, name, counting)
    p = files("p.aw", LISTING1)
    labels = files("labels", LISTING1_LABELS)
    space = files("space", (
        "i in {0,1,4}\na1_size in {4}\nsecret in {0,1}\n"
        "a1 : size 4 in {0}\na2 : size 4 in {0}\na3 : size 1 in {0,1}"
    ))
    bounds = ["--max-dirs", "3"] if prop == "unwind" else []  # ni takes none
    assert main(["check", "--property", prop, "--variant", variant, "--labels", labels,
                 "--space", space, *bounds, p]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert int(first.split(": ")[1]) > 0  # the check covered pairs
    assert calls == {"wt_ifc": 0, "flow_track": 0, typer: 1}


@pytest.mark.parametrize("variant,transformer", [
    ("fislh", "harden"), ("fvslh", "harden"), ("fsfvslh", "harden_fs"),
])
def test_bcc_hardens_once_per_check(files, capsys, monkeypatch, variant, transformer):
    import awhile.seccheck as seccheck

    calls = {"harden": 0, "harden_fs": 0, "flow_track": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(seccheck, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(seccheck, name, counting)
    p = files("p.aw", LISTING1)
    labels = files("labels", LISTING1_LABELS)
    space = files("space", "i in {0,1,4}\na1_size in {4}\na1 : size 4 in {0}\n"
                           "a2 : size 4 in {0}\na3 : size 1 in {0,1}")
    # six random runs, then one run per state of the six-state space
    for extra in (["--trials", "6", "--max-dirs", "4"], ["--dirs", "force load a3 0 step"]):
        assert main(["check", "--property", "bcc", "--variant", variant, "--labels", labels,
                     "--space", space, *extra, p]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "runs: 6"
    # once per check: the hardening, and for fsfvslh the one annotation
    # that both the ideal source and the hardening start from
    expected = {"harden": 0, "harden_fs": 0, "flow_track": 0, transformer: 2}
    if variant == "fsfvslh":
        expected["flow_track"] = 2
    assert calls == expected


def _ni_steps_fail(monkeypatch):
    import awhile.seccheck as seccheck

    # no group settles, so that every step reaches the planted fault
    count = itertools.count(1)
    monkeypatch.setattr(seccheck, "_settles", lambda *args: False)
    monkeypatch.setattr(seccheck, "_step_ni", lambda *args: (False, f"failure {next(count)}"))


def _bcc_run_fails(monkeypatch):
    import awhile.seccheck as seccheck

    monkeypatch.setattr(seccheck, "_bcc_run", lambda *args: (False, "array states differ"))


def _typed(monkeypatch):
    import awhile.seccheck as seccheck

    monkeypatch.setattr(seccheck, "wt_ifc", lambda *args: True)


def _ill_labeled_analysis(monkeypatch):
    import awhile.seccheck as seccheck
    from awhile.flow_ifc import Labeling
    from awhile.ifc_static import all_public

    real = seccheck.flow_track
    low = Labeling(all_public(["s", "x", "y"]), all_public(["a"]))
    monkeypatch.setattr(
        seccheck, "flow_track", lambda c, P, PA, pc: (real(c, P, PA, pc)[0], low)
    )


def _wl_step_fails(monkeypatch):
    import awhile.seccheck as seccheck

    monkeypatch.setattr(seccheck, "_wl_successor",
                        lambda *args: (False, "successor not well-labeled"))


GADGET = {"p": FIXTURES[1].program_text, "l": FIXTURES[1].labeling_text,
          "s": FIXTURES[1].space_text}
BRANCH = {"p": "if s = 0 then x := 1 end\n", "s": "s in {0,1}\n"}
WL_WALK = {"p": "if s = 0 then y := 1 end; x <- a[y]\n",
           "s": "s in {0,1}\ny in {0}\na : size 2 in {0}\n"}
GADGET_WITNESS = [
    "directives: force load a3 0 load a1 0",
    "trace 1: branch false; read a1 4; read a2 42",
    "trace 2: branch false; read a1 4; read a2 43",
    "diverges at observation 3",
    "state 1: a1_size = 4, i = 4, a1 = [0,0,0,0], a2 = [0,0,0,0], a3 = [42]",
    "state 2: a1_size = 4, i = 4, a1 = [0,0,0,0], a2 = [0,0,0,0], a3 = [43]",
]
NO_PAIR = "vacuous: no pair of states met the lemma's preconditions"

# (files, argv after --property, patch, exit code, stdout lines)
TEXT_PINS = {
    "sct-holds": (GADGET, ["sct", "--variant", "sislh", "--max-dirs", "4"], None, 0,
                  ["holds"]),
    "sct-vacuous": ({**BRANCH, "l": "s: public\nx: public\n"}, ["sct"], None, 0,
                    ["holds", "vacuous: 0 public-equivalent pairs among 2 states"]),
    "sct-violated": (GADGET, ["sct", "--max-dirs", "4"], None, 1,
                     ["violated", *GADGET_WITNESS]),
    "relsec-holds": (GADGET, ["relsec", "--variant", "fvslh", "--max-dirs", "4"], None, 0,
                     ["holds"]),
    "relsec-vacuous": ({**BRANCH, "l": "x: public\n"}, ["relsec"], None, 0, [
        "holds", "vacuous: 0 of 1 public-equivalent pairs passed the sequential premise",
    ]),
    "relsec-violated": (GADGET, ["relsec", "--max-dirs", "4"], None, 1,
                        ["violated", *GADGET_WITNESS]),
    "relsec-precondition-failed": (
        {"p": "y := secret\n", "l": "y: public\n", "s": "secret in {0,1}\n"},
        ["relsec", "--variant", "fislh"], None, 2,
        ["precondition-failed", "fislh requires an IFC-well-typed program"],
    ),
    "unwind-holds": (BRANCH, ["unwind", "--variant", "fislh", "--max-dirs", "4"], None, 0,
                     ["pairs: 1", "holds"]),
    "unwind-vacuous": ({**BRANCH, "l": "x: public\n"}, ["unwind", "--variant", "fislh"],
                       None, 0, ["pairs: 0", NO_PAIR, "holds"]),
    # an explicit secret-to-public flow, let through the typing precondition
    "unwind-violated": (
        {"p": "y := s; if y = 0 then x := 1 end\n", "l": "y: public\n", "s": "s in {0,1}\n"},
        ["unwind", "--variant", "fislh"], _typed, 1,
        ["pairs: 1", "violated", "directives: step", "trace 1: branch true",
         "trace 2: branch false", "diverges at observation 1",
         "state 1: (all defaults)", "state 2: s = 1"],
    ),
    "ni-holds": (GADGET, ["ni", "--variant", "fislh"], None, 0, ["checked: 36", "holds"]),
    "ni-vacuous": ({**BRANCH, "l": "x: public\n"}, ["ni", "--variant", "fvslh"], None, 0,
                   ["checked: 0", NO_PAIR, "holds"]),
    # 36 failures, of which the first five are printed and the rest counted
    "ni-violated": (GADGET, ["ni", "--variant", "fislh"], _ni_steps_fail, 1,
                    ["checked: 36", *(f"failure {k}" for k in range(1, 6)),
                     "... and 31 more (--format json lists all)", "violated"]),
    "bcc-holds": (GADGET, ["bcc", "--variant", "fislh", "--trials", "3"], None, 0,
                  ["runs: 3", "holds"]),
    "bcc-vacuous": (GADGET, ["bcc", "--variant", "fvslh", "--trials", "0"], None, 0,
                    ["runs: 0", "vacuous: no run was checked", "holds"]),
    "bcc-violated": (GADGET, ["bcc", "--variant", "fsfvslh"], _bcc_run_fails, 1,
                     ["runs: 1", "array states differ", "violated"]),
    "wl-holds": (WL_WALK, ["wl", "--max-dirs", "2"], None, 0, ["checked: 8", "holds"]),
    "wl-vacuous": (WL_WALK, ["wl", "--max-dirs", "0"], None, 0,
                   ["checked: 0", "vacuous: no step was checked", "holds"]),
    "wl-ill-labeled": (WL_WALK, ["wl"], _ill_labeled_analysis, 1,
                       ["checked: 0", "analysis output not well-labeled", "violated"]),
    "wl-violated": (WL_WALK, ["wl"], _wl_step_fails, 1,
                    ["checked: 1", "successor not well-labeled", "violated"]),
    "equality-cct": ({"p": LISTING1, "l": LISTING1_LABELS}, ["equality"], None, 0, [
        "fislh_eq_sislh: True", "fislh_eq_uslh_all_secret: True",
        "fvslh_eq_uslh_all_secret: True", "holds",
    ]),
    "equality": ({"p": LISTING1}, ["equality"], None, 0, [
        "fislh_eq_uslh_all_secret: True", "fvslh_eq_uslh_all_secret: True", "holds",
    ]),
}


@pytest.mark.parametrize("name", list(TEXT_PINS))
def test_check_text_output(name, files, capsys, monkeypatch):
    """The exact text every property prints: fact lines, failure lines (at
    most five), the vacuous note, the status, then a witness."""
    contents, argv, patch, code, lines = TEXT_PINS[name]
    if patch is not None:
        patch(monkeypatch)
    paths = {key: files(key, text) for key, text in contents.items()}
    for key, option in (("l", "--labels"), ("s", "--space")):
        if key in paths:
            argv = argv + [option, paths[key]]
    assert main(["check", "--property", *argv, paths["p"]]) == code
    assert capsys.readouterr().out.splitlines() == lines


def test_check_json_lists_every_failure(files, capsys, monkeypatch):
    _ni_steps_fail(monkeypatch)
    labels, space = files("l", GADGET["l"]), files("s", GADGET["s"])
    assert main(["check", "--property", "ni", "--variant", "fislh", "--labels", labels,
                 "--space", space, "--format", "json", files("p.aw", GADGET["p"])]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["checked"] == 36
    assert data["failures"] == [f"failure {k}" for k in range(1, 37)]


@pytest.mark.parametrize("count, extra", [
    (5, []), (6, ["... and 1 more (--format json lists all)"]),
])
def test_text_counts_the_failures_it_leaves_out(count, extra):
    from awhile.cli import _verdict_lines
    from awhile.seccheck import Verdict, VerdictStatus

    failures = tuple(f"failure {k}" for k in range(1, count + 1))
    v = Verdict(VerdictStatus.VIOLATED, facts=(("checked", 9),), failures=failures)
    assert _verdict_lines(v) == ["checked: 9", *failures[:5], *extra, "violated"]


def test_json_output_builds_no_text_lines(files, capsys, monkeypatch):
    import awhile.cli as cli

    def refuse(v):
        raise AssertionError("text lines built for JSON output")

    monkeypatch.setattr(cli, "_verdict_lines", refuse)
    labels, space = files("l", GADGET["l"]), files("s", GADGET["s"])
    assert main(["check", "--property", "ni", "--variant", "fislh", "--labels", labels,
                 "--space", space, "--format", "json", files("p.aw", GADGET["p"])]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "holds"
    assert main(["repro", "--listing", "1", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["verdicts"][0]["status"] == "violated"


@pytest.mark.parametrize("argv", [
    ["print", "p.aw"], ["gen", "--seed", "3"],
    ["harden", "--variant", "fvslh", "p.aw"],
    ["harden", "--variant", "uslh", "--format", "json", "p.aw"],
])
def test_a_program_is_printed_once(argv, files, capsys, monkeypatch):
    import awhile.cli as cli

    calls = []
    monkeypatch.setattr(cli, "pretty_com", lambda c: calls.append(c) or pretty_com(c))
    path = files("p.aw", LISTING1)
    assert main([path if a == "p.aw" else a for a in argv]) == 0
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert pretty_com(calls[0]) in (json.loads(out)["program"] if "json" in argv else out)


def test_analyze_prints_the_annotated_program_once(files, capsys, monkeypatch):
    import awhile.cli as cli

    calls = []
    monkeypatch.setattr(cli, "pretty_com", lambda a: calls.append(a) or pretty_com(a))
    assert main(["analyze", files("p.aw", LISTING1)]) == 0
    assert len(calls) == 1


ANALYZED = """\
i := 0;
while i < n do  # cond=public
  if i < a_size then  # cond=public
    x <- a[i];  # target=public index=public
    c[i] <- x + s  # index=public
  else
    y := 0
  end;
  i := i + 1
end;
if s = 0 then  # cond=secret
  y <- c[0]  # target=secret index=public
else
  skip
end

# final labeling
a_size: public
i: public
n: public
s: secret
x: public
y: secret
a: public
c: secret
"""


def test_analyze_text(files, capsys):
    # each label is a trailing comment; an 'if' without 'else' prints one
    program = files("p.aw", """\
i := 0;
while i < n do
  if i < a_size then x <- a[i]; c[i] <- x + s else y := 0 end;
  i := i + 1
end;
if s = 0 then y <- c[0] end
""")
    labels = files("l", "".join(f"{n}: public\n" for n in "i n a_size a x c y".split()))
    assert main(["analyze", "--labels", labels, program]) == 0
    assert capsys.readouterr().out == ANALYZED


# listing 2 is checked at max_dirs 10 at least
REPRO2_JSON = """\
{
  "exit": 0,
  "listing": 2,
  "verdicts": [
    {
      "fuel": 200,
      "max_dirs": 10,
      "status": "holds"
    }
  ]
}
"""


def test_repro_text_says_when_it_raised_the_bound(capsys):
    assert main(["repro", "--listing", "2", "--max-dirs", "3"]) == 0
    assert capsys.readouterr().out == (
        "listing 2: Spectre v1 gadget protected with iSLH\n"
        "speculative observational equivalence (iSLH-protected): holds\n"
        "  max_dirs raised from 3 to 10\n"
    )
    assert main(["repro", "--listing", "2", "--max-dirs", "3", "--format", "json"]) == 0
    assert capsys.readouterr().out == REPRO2_JSON
    # a bound at or above the listing's own is used as given
    assert main(["repro", "--listing", "2", "--max-dirs", "10"]) == 0
    assert "raised" not in capsys.readouterr().out


@pytest.mark.parametrize("variant", ["fislh", "fvslh", "fsfvslh"])
def test_bcc_refuses_a_flag_variable_program_alike_in_both_modes(files, capsys, variant):
    p = files("p.aw", "b := 1\n")
    for extra in ([], ["--dirs", "step"]):
        assert main(["check", "--property", "bcc", "--variant", variant, *extra, p]) == 2
        assert capsys.readouterr() == ("", "error: flag variable 'b' is used by the program\n")


@pytest.mark.parametrize("variant", ["fislh", "fvslh", "fsfvslh"])
def test_bcc_refuses_a_space_without_an_array_the_program_reads(files, capsys, variant):
    # a misspeculated load of the undeclared 'a' reads 'c' instead, which
    # the ideal run does not: a false violation before arrays were checked
    p = files("p.aw", "if x < 1 then y <- a[x] end\n")
    space = files("space", "x in {0,1}\nc : size 2 in {0,7}\n")
    bcc = ["check", "--property", "bcc", "--variant", variant, "--space", space]
    for extra in (["--seed", "1"], ["--dirs", "force load c 0"]):
        assert main([*bcc, *extra, p]) == 2
        assert capsys.readouterr() == ("", "error: array 'a' is empty in the initial state\n")
    space = files("space", "x in {0,1}\na : size 2 in {0}\nc : size 2 in {0,7}\n")
    for extra in (["--seed", "1"], ["--dirs", "force load c 0"]):
        assert main([*bcc, *extra, p]) == 0
        assert capsys.readouterr().out.endswith("holds\n")


def test_bcc_names_the_first_missing_array_by_name(files, capsys):
    # the program's arrays are a set of strings, whose order changes with
    # the hash seed of the process
    p = files("p.aw", "y <- g[0]; y <- e[0]; y <- a[0]; y <- d[0]\n")
    argv = ["check", "--property", "bcc", "--variant", "fislh", p]
    for extra in ([], ["--dirs", "step"]):
        assert main([*argv, *extra]) == 2
        assert capsys.readouterr() == ("", "error: array 'a' is empty in the initial state\n")
    src = os.path.dirname(os.path.dirname(awhile.__file__))
    for seed in range(4):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        done = subprocess.run([sys.executable, "-m", "awhile.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stderr) == (
            2, "error: array 'a' is empty in the initial state\n"), seed


@pytest.mark.parametrize("argv", [
    ["relsec", "--variant", "fislh"], ["sct"], ["ni", "--variant", "fislh"],
    ["unwind", "--variant", "fislh"], ["wl"], ["bcc", "--variant", "fislh"],
], ids=lambda argv: argv[0])
def test_every_check_over_a_space_refuses_an_empty_array(files, capsys, argv):
    # a misspeculated load of the missing 'a' would read 'c': a violation
    # no lemma covers, or a hold on a space the program cannot run on
    p = files("p.aw", "if x < 1 then y <- a[x]; if y < 1 then skip end end\n")
    check = ["check", "--property", *argv, "--labels",
             files("labels", "x: public\ny: public\na: public\n"), "--space"]
    for a in ("", "a : size 0 in {0}\n"):
        space = files("space", "x in {1}\nc : size 1 in {0,7}\n" + a)
        assert main([*check, space, p]) == 2
        assert capsys.readouterr() == ("", "error: array 'a' is empty in the initial state\n")
    space = files("space", "x in {1}\nc : size 1 in {0,7}\na : size 2 in {0}\n")
    assert main([*check, space, p]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("prop", ["sct", "relsec"])
def test_a_hardening_refuses_a_space_that_binds_its_flag_variable(files, capsys, prop):
    # the hardened runs start not misspeculating, which the flag variable
    # says only while it is 0; a space that binds it may start it at 1
    p = files("p.aw", "if x < 1 then y <- a[x] end\n")
    check = ["check", "--property", prop, "--labels", files("labels", "x: public\ny: public\na: public\n"),
             "--space", files("space", "x in {0,1}\nb in {0,1}\na : size 2 in {0}\n")]
    assert main([*check, "--variant", "fislh", p]) == 2
    assert capsys.readouterr() == (
        "", "error: state space binds the reserved flag variable 'b'\n")
    # another flag variable, or no hardening, leaves 'b' to the program
    for extra in (["--variant", "fislh", "--flag-var", "f"], ["--variant", "none"]):
        assert main([*check, *extra, p]) == 0
        assert capsys.readouterr().out.endswith("holds\n")


@pytest.mark.parametrize("prop", ["ni", "unwind"])
def test_arrays_are_checked_before_the_typing_precondition(files, capsys, prop):
    # an ill-typed program checks nothing, but a malformed space is an
    # error, not a vacuous hold
    p = files("p.aw", "if s = 0 then x <- a[0] end\n")
    check = ["check", "--property", prop, "--variant", "fislh",
             "--labels", files("labels", "x: public\n"), "--space"]
    assert main([*check, files("space", "s in {0,1}\n"), p]) == 2
    assert capsys.readouterr() == ("", "error: array 'a' is empty in the initial state\n")
    assert main([*check, files("space", "s in {0,1}\na : size 1 in {0}\n"), p]) == 0
    assert "vacuous" in capsys.readouterr().out


@pytest.mark.parametrize("argv, option", [
    (["relsec", "--variant", "fvslh", "--dirs", "force"], "--dirs"),
    (["sct", "--trials", "5"], "--trials"),
    (["ni", "--variant", "fislh", "--seed", "4"], "--seed"),
    (["unwind", "--variant", "fislh", "--trials", "0"], "--trials"),
    (["equality", "--seed", "0"], "--seed"),
    (["wl", "--dirs", "step"], "--dirs"),
    (["relsec", "--seed=4"], "--seed"),
    (["equality", "--space", "missing"], "--space"),
    (["equality", "--max-dirs", "3"], "--max-dirs"),
    (["equality", "--fuel", "7"], "--fuel"),
    (["ni", "--variant", "fislh", "--max-dirs", "0"], "--max-dirs"),
    (["ni", "--variant", "fislh", "--fuel=0"], "--fuel"),
    (["wl", "--fuel", "0"], "--fuel"),
    (["bcc", "--variant", "fislh", "--dirs", "step", "--trials", "5"], "--trials"),
    (["bcc", "--variant", "fvslh", "--dirs", "step", "--seed", "3"], "--seed"),
    (["bcc", "--variant", "fsfvslh", "--dirs", "force", "--max-dirs", "2"], "--max-dirs"),
])
def test_check_refuses_an_option_of_another_property(files, capsys, argv, option):
    # refused, not dropped, read with and without argparse, before any
    # space file is read
    p = files("p.aw", "if x < 1 then y <- a[x] end\n")
    where = "bcc --dirs" if argv[0] == "bcc" else argv[0]
    space = [] if argv[0] == "equality" else ["--space", "missing"]
    assert main(["check", "--property", *argv, *space, p]) == 2
    assert capsys.readouterr() == (
        "", f"error: {option} does not apply to --property {where}\n")


def test_bcc_with_empty_dirs_runs_each_state_once(files, capsys):
    # an empty --dirs fixes no directive, as `run --dirs ''` does: one run
    # per state, not the random trials
    p = files("p.aw", LISTING1)
    check = ["check", "--property", "bcc", "--variant", "fislh",
             "--labels", files("labels", LISTING1_LABELS),
             "--space", files("space", "i in {0,1,4}\na1_size in {4}\na1 : size 4 in {0}\n"
                                       "a2 : size 4 in {0}\na3 : size 1 in {0,1}"),
             "--dirs", ""]
    assert main([*check, p]) == 0
    assert capsys.readouterr().out.splitlines() == ["runs: 6", "holds"]
    assert main([*check, "--trials", "3", p]) == 2
    assert capsys.readouterr() == (
        "", "error: --trials does not apply to --property bcc --dirs\n")


@pytest.mark.parametrize("env, argv, code", [
    ({"SLH_FUEL": "-1"}, ["equality"], 0),
    ({"SLH_MAX_DIRS": "-1"}, ["ni", "--variant", "fislh"], 0),
    ({"SLH_FUEL": "-1"}, ["sct"], 2),
])
def test_check_reads_only_the_bound_variables_its_property_takes(
        files, capsys, monkeypatch, env, argv, code):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    p = files("p.aw", "if x < 1 then y := 1 end\n")
    assert main(["check", "--property", *argv, p]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured == ("", "error: SLH_FUEL must not be negative, got -1\n")
    else:
        assert captured.out.endswith("holds\n")


def test_check_takes_the_seed_where_it_applies(files, capsys):
    p = files("p.aw", "if x < 1 then y := 1 end\n")
    for argv in (["wl", "--seed", "4"], ["bcc", "--variant", "fislh", "--seed", "4"]):
        assert main(["check", "--property", *argv, p]) == 0
        assert capsys.readouterr().out.endswith("holds\n")


@pytest.mark.parametrize("prop", ["sct", "relsec", "equality"])
def test_check_refuses_a_flag_variable_program_alike(files, capsys, prop):
    p = files("p.aw", "b := 1\n")
    variant = [] if prop == "equality" else ["--variant", "fislh"]  # equality takes none
    assert main(["check", "--property", prop, *variant, p]) == 2
    assert capsys.readouterr() == ("", "error: flag variable 'b' is used by the program\n")


@pytest.mark.parametrize("flag, why", [
    ("1x", "is not a variable name"), ("", "is not a variable name"),
    ("if", "is not a variable name"), ("b c", "is not a variable name"),
    ("x", "is used by the program"), ("a", "names an array of the program"),
])
def test_flag_variable_the_hardened_program_cannot_spell_is_refused(files, capsys, flag, why):
    p = files("p.aw", "if x < 1 then y <- a[x] end\n")
    error = ("", f"error: flag variable {flag!r} {why}\n")
    for variant in _HARDEN_CHOICES:
        assert main(["harden", "--variant", variant, "--flag-var", flag, p]) == 2
        assert capsys.readouterr() == error
    for variant in ("fislh", "fvslh", "fsfvslh"):
        assert main(["check", "--property", "bcc", "--variant", variant,
                     "--flag-var", flag, p]) == 2
        assert capsys.readouterr() == error


@pytest.mark.parametrize("argv, where", [
    (["ni", "--variant", "fislh"], "--property ni"),
    (["unwind", "--variant", "fvslh"], "--property unwind"),
    (["wl"], "--property wl"),
    (["equality"], "--property equality"),
    (["sct"], "--property sct without --variant"),
    (["sct", "--variant", "none"], "--property sct --variant none"),
    (["relsec"], "--property relsec without --variant"),
    (["relsec", "--variant", "none"], "--property relsec --variant none"),
])
def test_flag_variable_where_nothing_is_hardened_is_refused(files, capsys, argv, where):
    # refused, not dropped, read with and without argparse; the same check
    # runs without the flag, and with the default's name spelled out
    p = files("p.aw", "if x < 1 then y <- a[x] end\n")
    space = [] if argv[0] == "equality" else [
        "--space", files("s.space", "a : size 1 in {0}\n")]
    error = ("", f"error: --flag-var does not apply to {where}\n")
    for flag in (["--flag-var", "1x"], ["--flag-var=f"], ["--flag-var", "b"]):
        assert main(["check", "--property", *argv, *space, *flag, p]) == 2
        assert capsys.readouterr() == error
    assert main(["check", "--property", *argv, *space, p]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_hardening_with_a_chosen_flag_variable_reparses(files, capsys):
    p = files("p.aw", "if x < 1 then y <- a[x]; a[y] <- x end\n")
    for variant in _HARDEN_CHOICES:
        assert main(["harden", "--variant", variant, "--flag-var", "F_1", p]) == 0
        out = capsys.readouterr().out
        assert "F_1 := " in out
        assert main(["print", files("h.aw", out)]) == 0
        assert capsys.readouterr().out == out


@pytest.mark.parametrize("prop", ["equality", "wl"])
def test_variant_does_not_apply_to_equality_and_wl(files, capsys, prop):
    p = files("p.aw", "if s = 0 then y := 1 end\n")
    assert main(["check", "--property", prop, p]) == 0
    capsys.readouterr()
    for variant in ("none", "uslh", "fsfvslh"):
        assert main(["check", "--property", prop, "--variant", variant, p]) == 2
        assert capsys.readouterr() == (
            "", f"error: --variant does not apply to --property {prop}\n")


def test_check_wl_output(files, capsys, monkeypatch):
    p = files("p.aw", "if s = 0 then y := 1 end; x <- a[y]")
    space = files("space", "s in {0,1}\ny in {0}\na : size 2 in {0}")
    argv = ["check", "--property", "wl", "--space", space, "--max-dirs", "2", p]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["holds"] and out[0].startswith("checked: ")
    _ill_labeled_analysis(monkeypatch)
    assert main(argv) == 1
    assert capsys.readouterr().out == "checked: 0\nanalysis output not well-labeled\nviolated\n"
    assert main(argv + ["--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "status": "violated", "checked": 0, "failures": ["analysis output not well-labeled"],
    }


def test_check_wl_vacuous_is_flagged(files, capsys):
    argv = ["check", "--property", "wl", "--max-dirs", "0",
            files("p.aw", "if s = 0 then y := 1 end")]
    note = "vacuous: no step was checked"
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == ["checked: 0", note, "holds"]
    assert main(argv[:-1] + ["--format", "json", argv[-1]]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "status": "holds", "checked": 0, "failures": [], "message": note,
    }


SECRET_STORE = "a[i] <- k\n"  # k is secret under the labeling below


def test_no_store_mask_only_for_sislh(files, capsys):
    p = files("p.aw", SECRET_STORE)
    labels = files("labels", "i: public\n")
    assert main(["harden", "--variant", "sislh", "--labels", labels, p]) == 0
    assert capsys.readouterr().out == "a[(b = 1 ? 0 : i)] <- k\n"
    assert main(["harden", "--variant", "sislh", "--no-store-mask",
                 "--labels", labels, p]) == 0
    assert capsys.readouterr().out == SECRET_STORE
    for variant in ("islh", "fislh", "uslh", "svslh", "fvslh", "fsfvslh"):
        assert main(["harden", "--variant", variant, "--no-store-mask",
                     "--labels", labels, p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --no-store-mask only applies to --variant sislh\n"


def test_long_straight_line_program(files, capsys):
    # no translator, analysis or check recurses down the sequence spine
    p = files("p.aw", ";\n".join(["x := x + 1"] * 5000) + "\n")
    for variant in ("islh", "sislh", "fislh", "uslh", "svslh", "fvslh", "fsfvslh"):
        assert main(["harden", "--variant", variant, p]) == 0
        assert capsys.readouterr().out.count("x := x + 1") == 5000
    assert main(["analyze", p]) == 0
    assert capsys.readouterr().out.endswith("x: secret\n")
    for argv in (["--property", "equality"],
                 ["--property", "sct", "--variant", "fvslh", "--max-dirs", "1"],
                 ["--property", "wl", "--max-dirs", "1"]):
        assert main(["check", *argv, p]) == 0
        assert "holds" in capsys.readouterr().out.splitlines()


# one argv per subcommand that sets every option it has
COMMAND_ARGV = {
    "parse": ["parse", "--format", "json", "p.aw"],
    "print": ["print", "-"],
    "typecheck": ["typecheck", "--system", "cct", "--labels", "l", "p.aw"],
    "analyze": ["analyze", "--labels", "l", "--format", "json", "p.aw"],
    "harden": ["harden", "--variant", "sislh", "--no-store-mask", "--flag-var", "f",
               "--labels", "l", "--format", "json", "p.aw"],
    "run": ["run", "--sem", "ideal-fs", "--state", "s", "--dirs", "step", "--fuel", "9",
            "--interactive", "--labels", "l", "--format", "json", "p.aw"],
    "check": ["check", "--property", "bcc", "--variant", "fsfvslh", "--space", "sp",
              "--dirs", "step", "--trials", "3", "--seed", "4", "--flag-var", "f",
              "--labels", "l", "--max-dirs", "2", "--fuel", "7", "--format", "json",
              "p.aw"],
    "repro": ["repro", "--listing", "2", "--max-dirs", "3", "--fuel", "5",
              "--format", "json"],
    "gen": ["gen", "--seed", "1", "--size", "4", "--format", "json"],
}


def _exit_of(call, capsys):
    with pytest.raises(SystemExit) as exc:
        call()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("name", list(COMMAND_ARGV))
def test_one_command_parser_matches_the_full_parser(name, capsys):
    full = _exit_of(lambda: _build_parser().parse_args([name, "-h"]), capsys)
    assert full[0] == 0 and full[1].startswith(f"usage: awhile {name} ")
    assert _exit_of(lambda: main([name, "-h"]), capsys) == full
    argv = COMMAND_ARGV[name]
    assert vars(cli._read_args(name, argv[1:])) == vars(_build_parser().parse_args(argv))
    bad = [name, "--format", "xml"]
    error = _exit_of(lambda: _build_parser().parse_args(bad), capsys)
    assert error[0] == 2 and error[2].startswith(f"usage: awhile {name} ")
    assert _exit_of(lambda: main(bad), capsys) == error


ALL_COMMANDS = "{parse,print,typecheck,analyze,harden,run,check,repro,gen}"


@pytest.mark.parametrize("argv, code", [
    ([], 2), (["-h"], 0), (["bogus"], 2), (["print", "--bogus", "p.aw"], 2),
])
def test_usage_errors_and_help_list_every_command(argv, code, capsys):
    outcome = _exit_of(lambda: main(argv), capsys)
    assert outcome == _exit_of(lambda: _build_parser().parse_args(argv), capsys)
    assert outcome[0] == code
    assert ALL_COMMANDS in outcome[1] + outcome[2]


def _outcome(call, capsys):
    """(exit code, stdout, stderr) of ``call``, which returns a code or exits."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _argparse_exit(argv, capsys):
    """argparse's outcome when it exits on ``argv`` (help or a usage error),
    else None."""
    def parse():
        _build_parser().parse_args(argv)

    outcome = _outcome(parse, capsys)
    return outcome if outcome[0] is not None else None


EDGE_PROGRAM = "if x < 1 then y := 1 end\n"
EDGE_TEXT = "if x < 1 then\n  y := 1\nend\n"
EDGE_JSON = '{\n  "program": "if x < 1 then\\n  y := 1\\nend"\n}\n'
EDGE_ISLH = "if x < 1 then\n  b := (x < 1 ? b : 1);\n  y := 1\nelse\n  b := (x < 1 ? 1 : b)\nend\n"


def _sct_json(fuel):
    return ('{\n  "fuel": %d,\n  "max_dirs": 8,\n  "message": "vacuous: 0 public-equivalent '
            'pairs among 1 states",\n  "status": "holds"\n}\n' % fuel)


NO_FILE = "error: cannot read '': [Errno 2] No such file or directory: ''\n"

# Edge command lines, with P the program file and stdin holding
# 'y := 2'.  An outcome of None is argparse's own: it exits with its help,
# usage or error text, and main must print exactly that.
EDGE_ARGV = [
    (["print", "--format=json", "P"], (0, EDGE_JSON, "")),
    (["print", "--form", "json", "P"], (0, EDGE_JSON, "")),
    (["check", "--property", "relsec", "--fuel", "-1", "P"],
     (2, "", "error: --fuel must not be negative, got -1\n")),
    (["check", "--property", "sct", "--fuel", "1_0", "--format", "json", "P"],
     (0, _sct_json(10), "")),
    (["check", "--property", "sct", "--fuel", " 3", "--format", "json", "P"],
     (0, _sct_json(3), "")),
    (["print", "--format", "json", "--format", "text", "P"], (0, EDGE_TEXT, "")),
    (["harden", "--variant", "uslh", "--variant", "islh", "P"], (0, EDGE_ISLH, "")),
    (["harden", "--no-store-mask", "--variant", "sislh", "--no-store-mask", "P"],
     (0, EDGE_ISLH, "")),
    (["print", "--", "P"], (0, EDGE_TEXT, "")),
    (["print", "--format", "json", "--", "P"], (0, EDGE_JSON, "")),
    (["check", "--property", "sct", "-h"], None),
    (["print", "P", "--help"], None),
    (["harden", "P"], None),
    (["check", "P"], None),
    (["check", "--variant", "fislh", "P"], None),
    (["repro", "--listing", "9"], None),
    (["repro", "--listing", "-1"], None),
    (["repro", "--listing", "1_0"], None),
    (["check", "--property", "bcc", "--variant", "fislh", "--trials", "x", "P"], None),
    (["check", "--property", "sct", "--fuel"], None),
    (["check", "--property", "sct", "P", "--max-dirs"], None),
    (["print", "--format", "xml", "P"], None),
    (["print", "--format", "-", "P"], None),
    (["print", "P", "P"], None),
    (["repro", "--listing", "2", "P"], None),
    (["print"], None),
    (["print", "--bogus", "P"], None),
    (["print", "-x", "P"], None),
    (["print", "-"], (0, "y := 2\n", "")),
    (["print", "--format", "text", "-"], (0, "y := 2\n", "")),
    (["print", ""], (2, "", NO_FILE)),
    (["typecheck", "--labels", "", "P"], (2, "", NO_FILE)),
    (["gen", "--size", "-3"], (2, "", "error: --size must not be negative, got -3\n")),
]


@pytest.mark.parametrize("argv, expected", EDGE_ARGV,
                         ids=[repr(" ".join(argv)) for argv, _ in EDGE_ARGV])
def test_edge_command_lines_keep_their_outcome(argv, expected, files, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"y := 2\n")))
    p = files("p.aw", EDGE_PROGRAM)
    argv = [p if a == "P" else a for a in argv]
    exited = _argparse_exit(argv, capsys)
    assert (exited is None) == (expected is not None)
    assert _outcome(lambda: main(argv), capsys) == (expected or exited)


def test_main_builds_only_the_invoked_command(files, monkeypatch):
    # a well-formed command line is read without argparse; a usage error
    # builds the full parser, which reports it
    built = []
    real = argparse.ArgumentParser.__init__

    def init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
    p = files("p.aw", "skip")
    assert main(["print", p]) == 0
    assert built == []
    with pytest.raises(SystemExit):
        main(["print", "--bogus", p])
    assert built == ["awhile", *(f"awhile {name}" for name in _COMMANDS)]


def _readable(arg, kw):
    """Whether the reader reads an argument as argparse does: a positional
    with at most a help, or a long option using only type=int, choices,
    default, required, action="store_true" and help, where a typed
    option's default is not a string (argparse would pass it through the
    type)."""
    if not arg.startswith("--"):
        return not arg.startswith("-") and set(kw) <= {"help"}
    return (set(kw) <= {"type", "choices", "default", "required", "action", "help"}
            and kw.get("type", int) is int
            and kw.get("action", "store_true") == "store_true"
            and not ("type" in kw and isinstance(kw.get("default"), str)))


def test_table_uses_only_keywords_the_reader_reads():
    # argparse reads the same table, so an argument beyond the reader's
    # subset would be read differently by the two
    for name, (help_text, fn, arguments) in _COMMANDS.items():
        for arg, kw in arguments:
            assert _readable(arg, kw), (name, arg)


@pytest.mark.parametrize("declare", [
    lambda: ("--n", dict(metavar="N")),
    lambda: ("--n", dict(nargs=2)),
    lambda: ("-n", dict(type=int)),
    lambda: ("--n", dict(type=float)),
    lambda: ("--n", dict(type=int, default="3")),
    lambda: ("--n", dict(action="count")),
    lambda: ("program", dict(type=int)),
])
def test_reader_declines_a_command_it_cannot_read(declare):
    # the table check refuses each argument the reader would misread
    assert not _readable(*declare())


# the shapes of the benchmark's command lines, one per shape
BENCHMARK_ARGV = [
    ["analyze", "--labels", "corpus.labels", "c00.aw"],
    ["check", "--property", "bcc", "--variant", "fsfvslh", "--labels", "corpus.labels",
     "--space", "c02.space", "--trials", "6", "--seed", "2", "--max-dirs", "4",
     "--fuel", "200", "c02.aw"],
    ["check", "--property", "equality", "--labels", "corpus.labels", "c01.aw"],
    ["check", "--property", "ni", "--variant", "fvslh", "--labels", "corpus.labels",
     "--space", "c01.space", "c01.aw"],
    ["check", "--property", "relsec", "--variant", "none", "--labels", "gadget.labels",
     "--space", "relsec.space", "--max-dirs", "8", "--fuel", "200", "gadget.aw"],
    ["check", "--property", "sct", "--variant", "uslh", "--labels", "gadget.labels",
     "--space", "sct.space", "--max-dirs", "12", "--fuel", "200", "gadget.aw"],
    ["check", "--property", "unwind", "--variant", "fislh", "--labels", "corpus.labels",
     "--space", "c00.space", "--max-dirs", "4", "--fuel", "200", "c00.aw"],
    ["harden", "--variant", "svslh", "--labels", "corpus.labels", "c05.aw"],
    ["print", "c07.aw"],
    ["repro", "--listing", "3", "--max-dirs", "12", "--fuel", "200", "--format", "json"],
    ["typecheck", "--system", "cct", "--labels", "corpus.labels", "c09.aw"],
]

# tokens that may stand anywhere: values, files and malformed options
SOUP = ["p.aw", "-", "", "b c", "x", "0", "3", "-1", "1_0", " 3", "007", "1e3", "\u0663",
        "json", "xml", "sct", "fislh", "none", "cct", "seq", "--", "-h", "--help",
        "--format=json", "--form", "--fuel=3", "--max", "-x", "---", "--bogus", "-p.aw",
        "--variant=fislh", "print", "check"]


def _command_lines(seed, count):
    """``count`` command lines of every command, from a seeded soup: each
    draws some of its command's options with values they take in the known
    lines above, places its positional among them, and then suffers up to
    two insertions, replacements or deletions of a token."""
    rng = random.Random(seed)
    values = {}
    for argv in [*COMMAND_ARGV.values(), *BENCHMARK_ARGV]:
        for option, value in zip(argv, argv[1:]):
            if option.startswith("--") and not value.startswith("--"):
                values.setdefault(option, []).append(value)
    lines = []
    for _ in range(count):
        name = rng.choice(list(COMMAND_ARGV))
        options = [t for t in COMMAND_ARGV[name] if t.startswith("--")]
        words = []
        for option in rng.sample(options, rng.randint(0, len(options))):
            pool = values.get(option, [])
            if pool and rng.random() < 0.2:
                pool = SOUP
            words.append([option, rng.choice(pool)] if pool else [option])
        if name not in ("repro", "gen"):
            words.insert(rng.randint(0, len(words)), [rng.choice(["p.aw", "p.aw", "-", ""])])
        argv = [name] + [t for w in words for t in w]
        for _ in range(rng.choice((0, 0, 1, 2))):
            k = rng.randint(1, len(argv))
            move = rng.random()
            if move < 0.4:
                argv.insert(k, rng.choice(SOUP))
            elif k < len(argv):
                if move < 0.7:
                    argv[k] = rng.choice(SOUP)
                else:
                    del argv[k]
        lines.append(argv)
    return lines


def test_reader_agrees_with_argparse(capsys):
    # a line the reader reads gets argparse's namespace; a line it declines
    # makes argparse exit, or holds a form the reader leaves to argparse: a
    # token that starts with '-' and is no option of the command (help,
    # '--', '--x=y', an abbreviation, or a value that starts with '-')
    lines = [*COMMAND_ARGV.values(), *BENCHMARK_ARGV, *_command_lines(23, 10_000)]
    parser = _build_parser()
    read = 0
    for argv in lines:
        args = cli._read_args(argv[0], argv[1:])
        if args is not None:
            read += 1
            parsed, extra = parser.parse_known_args(argv)
            assert (extra, vars(args)) == ([], vars(parsed)), argv
            continue
        try:
            parser.parse_args(argv)
        except SystemExit:
            capsys.readouterr()
            continue
        options = cli._reading(argv[0])[0]
        assert any(t[:1] == "-" and t != "-" and t not in options for t in argv[1:]), argv
    # every known line is read, and both sides of the reader are exercised
    assert all(cli._read_args(a[0], a[1:]) for a in [*COMMAND_ARGV.values(), *BENCHMARK_ARGV])
    assert 1_000 < read < len(lines) - 1_000


@pytest.mark.parametrize("columns", ["50", "80", "200"])
def test_parsers_read_the_terminal_width_once(columns, monkeypatch, capsys):
    # the help and usage of every parser are those of argparse's default
    # formatter, which reads the width for every argument it adds
    monkeypatch.setenv("COLUMNS", columns)
    reads = []
    real = shutil.get_terminal_size

    def counted(*args):
        reads.append(args)
        return real(*args)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    built = _build_parser()
    monkeypatch.setattr(shutil, "get_terminal_size", real)
    assert len(reads) == 1
    default = argparse.ArgumentParser(prog="awhile", description=built.description)
    sub = default.add_subparsers(dest="command", required=True)
    for name, (help_text, fn, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg, kw in arguments:
            p.add_argument(arg, **kw)
    # help, usage errors, and every command's help
    lines = [["-h"], [], *([name, "-h"] for name in _COMMANDS)]
    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    ours = [_exit_of(lambda: built.parse_args(argv), capsys) for argv in lines]
    monkeypatch.setattr(shutil, "get_terminal_size", real)
    assert len(reads) == 1
    assert ours == [_exit_of(lambda: default.parse_args(argv), capsys) for argv in lines]


def test_module_entry_point_reads_sys_argv(files):
    p = files("p.aw", "x := 1\n")
    src = os.path.dirname(os.path.dirname(awhile.__file__))
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="200")

    def run(*argv):
        done = subprocess.run([sys.executable, "-m", "awhile.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        return done.returncode, done.stdout, done.stderr

    assert run("print", p) == (0, "x := 1\n", "")
    assert run("print", "--bogus", p) == (
        2, "", f"usage: awhile [-h] {ALL_COMMANDS} ...\n"
               "awhile: error: unrecognized arguments: --bogus\n")


def test_readme_module_table_names_every_module():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        rows = set(re.findall(r"^\| `awhile\.(\w+)` \|", fh.read(), re.M))
    modules = {name[:-3] for name in os.listdir(os.path.join(root, "src", "awhile"))
               if name.endswith(".py") and name != "__init__.py"}
    assert rows == modules
