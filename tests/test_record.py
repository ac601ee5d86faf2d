"""Records behave like frozen dataclasses, and importing the package
generates no code."""

import copy
import dataclasses
import itertools
import os
import pickle
import subprocess
import sys

import pytest

import awhile
import awhile.cli  # noqa: F401  (imports every module that defines records)
from awhile.record import Record

SRC = os.path.dirname(os.path.dirname(awhile.__file__))


def _record_classes():
    out, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo += cls.__subclasses__()
    return sorted(out, key=lambda cls: (cls.__module__, cls.__qualname__))


RECORDS = _record_classes()


def _twin(cls):
    """The frozen dataclass with the record's name, fields and defaults."""
    fields = [(name, object, dataclasses.field(default=cls._defaults[name]))
              if name in cls._defaults else (name, object) for name in cls._fields]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def _values(cls, start):
    return tuple(range(start, start + len(cls._fields)))


def test_every_module_defines_its_records_with_the_helper():
    names = {cls.__qualname__ for cls in RECORDS}
    assert {"Num", "Seq", "ASeq", "ORead", "DStep", "Verdict", "Bounds", "Labeling",
            "HardenVariant", "_FixedLabeling", "IdealFiSLH", "Fixture"} <= names
    assert len(RECORDS) == 45


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_a_record_behaves_like_its_frozen_dataclass(cls):
    twin = _twin(cls)
    values, other = _values(cls, 1), _values(cls, 100)
    r, t = cls(*values), twin(*values)
    assert repr(r) == repr(t)
    assert hash(r) == hash(t) == hash(values)
    assert (r == cls(*values), r != cls(*values)) == (True, False)
    assert (r == cls(*other), r != cls(*other)) == (t == twin(*other), t != twin(*other))
    assert r != values and values != r and not r == values
    assert cls(**dict(zip(cls._fields, values))) == r
    assert bool(r) is bool(t) is True
    required = [name for name in cls._fields if name not in cls._defaults]
    assert repr(cls(*values[:len(required)])) == repr(twin(*values[:len(required)]))
    for target in (r, t):
        for name in cls._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(target, name, 0)
            with pytest.raises(AttributeError):
                delattr(target, name)
    with pytest.raises(TypeError):
        r < r
    if "." not in cls.__qualname__:
        assert pickle.loads(pickle.dumps(r)) == r == copy.deepcopy(r)


def test_records_of_different_classes_with_equal_fields_differ():
    by_arity = {}
    for cls in RECORDS:
        by_arity.setdefault(len(cls._fields), []).append(cls)
    pairs = 0
    for group in by_arity.values():
        for a, b in itertools.permutations(group, 2):
            values = _values(a, 1)
            want = _twin(a)(*values) == _twin(b)(*values)
            assert (a(*values) == b(*values), a(*values) != b(*values)) == (want, not want)
            pairs += 1
    assert pairs > 100


def test_a_record_takes_its_arguments_as_a_dataclass_does():
    from awhile.seccheck import Bounds, Verdict, VerdictStatus

    assert Bounds(fuel=3) == Bounds(Bounds().max_dirs, 3, "")
    v = Verdict(VerdictStatus.HOLDS, message="m")
    assert (v.witness, v.message, v.facts) == (None, "m", ())
    for bad in (lambda: Bounds(1, 2, "", 4), lambda: Bounds(1, max_dirs=2),
                lambda: Bounds(depth=1), lambda: Verdict()):
        with pytest.raises(TypeError):
            bad()


def test_the_loop_table_is_no_field():
    from awhile.ideal_sem import IdealFiSLH
    from awhile.ifc_static import all_public

    P = all_public(["x"])
    a, b = IdealFiSLH(P, P), IdealFiSLH(P, P)
    a.table[1] = "unfolded"
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == f"IdealFiSLH(P={P!r}, PA={P!r})"
    assert a.table is not b.table and b.table == {}
    with pytest.raises(AttributeError):
        a.table = {}


def _run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_the_cli_imports_neither_dataclasses_nor_inspect():
    code = ("import sys, awhile.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    assert _run_python(code) == "[]"


def test_importing_the_package_generates_no_code():
    # the standard modules the package imports are imported first, so every
    # exec, eval or compile seen afterwards is the package's own; running a
    # module's code from its file is an exec of a code object from a .py file
    code = """
import sys, argparse, collections, enum, io, itertools, json, os, random, re, typing
generated = []

def hook(event, args):
    if event in ("exec", "compile"):
        source = args[0] if event == "exec" else args[1]
        filename = getattr(source, "co_filename", source)
        if not (isinstance(filename, str) and filename.endswith(".py")):
            generated.append(event)

sys.addaudithook(hook)
import awhile.cli
print(len(generated))
"""
    assert _run_python(code) == "0"
