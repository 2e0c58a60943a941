"""Immutable value records: the semantics of a frozen dataclass, without
generating code when a class is defined.

A subclass of `Record` names its fields, in order, as its annotations,
which `__init_subclass__` copies to `_fields`; a slotted subclass names
them in `__slots__ = _fields = (...)` and annotates nothing.  Two
records are equal iff they are of the same class and their fields are
equal, and equal records hash alike; `repr` is `Name(field=value!r, ...)`;
assigning or deleting any attribute raises AttributeError.  Equality, hash,
repr, copy and pickle walk a record's fields with a stack of their own,
descending into each field that holds a record, so they answer at any
depth, such as that of the deepest formula `parse` accepts.  Constructors
that run once per formula node write their own `__slots__` and `__init__`;
the others inherit the generic `__init__` below.  `object.__setattr__`
still sets an attribute, which is how constructors store normalised fields
and derived data.

`json_object` loads the model and the behavior files: one object with
exactly the file's keys, and no key repeated in any object.
"""

from __future__ import annotations

import json

__all__ = ["Record", "json_object"]

_MISSING = object()


class Record:
    """Base of plfkit's immutable value classes; see the module docstring."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        # a class's own annotations only (Python >= 3.10): a subclass that
        # annotates nothing keeps its base's fields
        if cls.__annotations__:
            cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        """Binds the arguments to `_fields` as a dataclass `__init__` does,
        taking a missing field's default from the class attribute of its
        name, then runs `__post_init__`."""
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        fields, cls = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{cls}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls}() got multiple values for argument {name!r}")
            values[name] = value
        for name in fields:
            if name not in values:
                values[name] = getattr(type(self), name, _MISSING)
                if values[name] is _MISSING:
                    raise TypeError(f"{cls}() missing required argument {name!r}")
        return [values[name] for name in fields]

    def __post_init__(self):
        """Normalises and checks the fields; records without checks inherit this."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _preorder(self):
        # records as their classes, other field values as themselves: a class
        # fixes its number of fields, so no record's sequence is a proper
        # prefix of another's
        todo = [self]
        while todo:
            r = todo.pop()
            if isinstance(r, Record):
                yield r.__class__
                todo += reversed(r._values())
            else:
                yield r

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(a == b for a, b in zip(self._preorder(), other._preorder()))

    def __hash__(self):
        return hash(tuple(self._preorder()))

    def __repr__(self):
        out, todo = [], [(self,)]
        while todo:
            item = todo.pop()
            if isinstance(item, str):  # literal text
                out.append(item)
            elif isinstance(r := item[0], Record):
                out.append(r.__class__.__qualname__ + "(")
                todo.append(")")
                for i, name in reversed(list(enumerate(r._fields))):
                    todo += [(getattr(r, name),), ", " * bool(i) + name + "="]
            else:
                out.append(repr(r))
        return "".join(out)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructors, since the default
        # protocol restores slots by assignment; from the flat preorder, since
        # a reduction per record would recurse once per level
        return _from_preorder, (tuple(self._preorder()),)


def _from_preorder(items) -> Record:
    """The record whose `_preorder()` is items, built from the last item up."""
    stack = []
    for item in reversed(items):
        if isinstance(item, type) and issubclass(item, Record):
            item = item(*[stack.pop() for _ in item._fields])
        stack.append(item)
    return stack.pop()


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"a JSON object repeats the key {key!r}")
            seen.add(key)
    return obj


# one decoder for every file: `json.loads` with a hook builds one a call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def json_object(data, keys: set, what: str) -> dict:
    """`data`, decoded first if it is JSON text, as an object whose keys are
    exactly `keys`; otherwise raises ValueError naming `what`."""
    if isinstance(data, str):
        if data.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", data, 0)
        data = _DECODER.decode(data)
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = set(data) - keys
    if unknown:
        raise ValueError(f"unknown keys in {what}: {sorted(unknown)}")
    missing = keys - set(data)
    if missing:
        raise ValueError(f"missing keys in {what}: {sorted(missing)}")
    return data
