"""Immutable records: the package's frozen data types, defined without
generated code.

A record class lists its fields as annotations, in order, with optional
defaults, as a frozen dataclass would::

    class Var(Record):
        name: str

A record is a tuple of its field values, with one read-only attribute per
field.  It is built from its fields, positionally or by keyword; ``==``
holds only between records of one class with equal fields; its hash is the
hash of the tuple of its fields; its repr is ``Var(name='x')``; and setting
or deleting an attribute raises AttributeError.  A subclass extends the
fields of its base.

``dataclasses.dataclass`` writes each class's methods as source text and
runs ``exec`` on it when the class is defined, which at start-up cost more
than the rest of the package's import.  Here the methods are written once
and shared, so defining a record costs about as much as defining a class.
Comparing two records is one Python call; a hash is computed in C.

Calling a record class binds its arguments in ``_RecordType.__call__``,
one Python frame per record.  ``_build(cls, fields)`` is the frame-free
path: ``type.__call__`` on the class and one tuple holding every field, in
order, which goes straight to tuple's ``__new__``.  It checks nothing, so
it is for code that knows the arity, such as the parser and the hardening
translator building syntax nodes.
"""

from __future__ import annotations

# namedtuple's read-only attribute for a tuple position
from collections import _tuplegetter

# _build(cls, fields): a record from the tuple of all its field values,
# built by tuple's __new__ without _RecordType.__call__ (see the docstring)
_build = type.__call__
_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__


def _truthy(self) -> bool:
    return True


class _RecordType(type):
    """Lays out a record class: its fields are its base's followed by its
    own annotations, each read through its tuple position.  Calling the
    class binds its arguments to the fields."""

    def __new__(mcls, name, bases, ns):
        base = bases[0]
        fields = getattr(base, "_fields", ())
        defaults = dict(getattr(base, "_defaults", {}))
        own = ns.get("__annotations__", {})
        for i, field in enumerate(own, len(fields)):
            if field in ns:
                defaults[field] = ns[field]
            ns[field] = _tuplegetter(i, None)
        fields += tuple(own)
        ns.setdefault("__slots__", ())
        ns["_fields"], ns["_arity"], ns["_defaults"] = fields, len(fields), defaults
        if not fields and base is not tuple:
            ns.setdefault("__bool__", _truthy)  # an empty tuple is false
        return super().__new__(mcls, name, bases, ns)

    def __call__(cls, *args, **kw):
        if kw or len(args) != cls._arity:
            # keywords or defaults: bind the arguments to the fields
            fields = cls._fields
            if len(args) > len(fields):
                raise TypeError(f"{cls.__name__}() takes {len(fields)} positional "
                                f"arguments but {len(args)} were given")
            args = list(args)
            for name in fields[len(args):]:
                if name in kw:
                    args.append(kw.pop(name))
                elif name in cls._defaults:
                    args.append(cls._defaults[name])
                else:
                    raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
            for name in kw:
                what = "multiple values for" if name in fields else "an unexpected keyword"
                raise TypeError(f"{cls.__name__}() got {what} argument {name!r}")
        return _build(cls, args)


class Record(tuple, metaclass=_RecordType):
    """The base of every record class (see the module docstring)."""

    def __eq__(self, other):
        if self.__class__ is other.__class__:
            return _tuple_eq(self, other)
        # a plain tuple with the same items is not equal either
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if self.__class__ is other.__class__:
            return _tuple_ne(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__

    def _unordered(self, other):
        return NotImplemented

    # records are not ordered, although tuples are
    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __repr__(self):
        parts = ", ".join(map("{}={!r}".format, self._fields, self))
        return f"{self.__class__.__qualname__}({parts})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
