import argparse
import io
import itertools
import json
import os
import re
import subprocess
import sys

import pytest

import awhile
from awhile.cli import _build_parser, _command_parser, main
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


def test_interactive_run(files, capsys, monkeypatch):
    p = files("p.aw", LISTING1)
    st = files(
        "s", "i = 4\na1_size = 4\na1 = [0,7,1,2]\na2 = [0,0,0,0,0,0,0,0]\na3 = [5]"
    )
    monkeypatch.setattr("sys.stdin", io.StringIO("force\nload a3 0\nstep\n"))
    assert main(["run", "--sem", "spec", "--state", st, "--interactive", p]) == 0
    out = capsys.readouterr().out
    assert "feasible: step | force" in out
    assert "obs: read a2 5" in out


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
                 {"sp": f"x in {{0,-{_LONG}}}"},
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
    assert main(["check", "--property", prop, "--variant", variant, "--labels", labels,
                 "--space", space, "--max-dirs", "3", p]) == 0
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
    for extra in (["--trials", "6"], ["--dirs", "force load a3 0 step"]):
        assert main(["check", "--property", "bcc", "--variant", variant, "--labels", labels,
                     "--space", space, "--max-dirs", "4", *extra, p]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "runs: 6"
    # once per check: the hardening, and for fsfvslh the annotations of the
    # program to harden and of the ideal source
    expected = {"harden": 0, "harden_fs": 0, "flow_track": 0, transformer: 2}
    if variant == "fsfvslh":
        expected["flow_track"] = 4
    assert calls == expected


def _ni_steps_fail(monkeypatch):
    import awhile.seccheck as seccheck

    count = itertools.count(1)
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

    monkeypatch.setattr(seccheck, "check_wl_preservation",
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
    real = cli.pretty_acom
    monkeypatch.setattr(cli, "pretty_acom", lambda a: calls.append(a) or real(a))
    assert main(["analyze", files("p.aw", LISTING1)]) == 0
    assert len(calls) == 1


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


def test_check_equality_reads_its_space(files, capsys, monkeypatch, tmp_path):
    p = files("p.aw", LISTING1)
    monkeypatch.chdir(tmp_path)
    assert main(["check", "--property", "equality", "--space", "missing", p]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read 'missing': ")


@pytest.mark.parametrize("variant", ["fislh", "fvslh", "fsfvslh"])
def test_bcc_refuses_a_flag_variable_program_alike_in_both_modes(files, capsys, variant):
    p = files("p.aw", "b := 1\n")
    for extra in ([], ["--dirs", "step"]):
        assert main(["check", "--property", "bcc", "--variant", variant, *extra, p]) == 2
        assert capsys.readouterr() == ("", "error: flag variable 'b' is used by the program\n")


@pytest.mark.parametrize("prop", ["sct", "relsec", "equality"])
def test_check_refuses_a_flag_variable_program_alike(files, capsys, prop):
    p = files("p.aw", "b := 1\n")
    variant = [] if prop == "equality" else ["--variant", "fislh"]  # equality takes none
    assert main(["check", "--property", prop, *variant, p]) == 2
    assert capsys.readouterr() == ("", "error: flag variable 'b' is used by the program\n")


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
    assert _exit_of(lambda: _command_parser(name).parse_args(["-h"]), capsys) == full
    assert _exit_of(lambda: main([name, "-h"]), capsys) == full
    argv = COMMAND_ARGV[name]
    assert _command_parser(name).parse_args(argv[1:]) == _build_parser().parse_args(argv)
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


def test_main_builds_only_the_invoked_command(files, monkeypatch):
    built = []
    real = argparse.ArgumentParser.__init__

    def init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
    assert main(["print", files("p.aw", "skip")]) == 0
    assert built == ["awhile print"]


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
