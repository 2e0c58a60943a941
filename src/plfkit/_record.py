"""Immutable value records: the semantics of a frozen dataclass, without
generating code when a class is defined.

A subclass of `Record` names its fields, in order, in `_fields`.  Two
records are equal iff they are of the same class and their fields are
equal, and equal records hash alike; `repr` is `Name(field=value!r, ...)`;
assigning or deleting any attribute raises AttributeError.  Constructors
that run once per formula node write their own `__slots__` and `__init__`;
the others inherit the generic `__init__` below.  `object.__setattr__`
still sets an attribute, which is how constructors store normalised fields
and derived data.
"""

from __future__ import annotations

__all__ = ["Record"]

_MISSING = object()


class Record:
    """Base of plfkit's immutable value classes; see the module docstring."""

    __slots__ = ()
    _fields: tuple = ()

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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, since the default
        # protocol restores slots by assignment
        return type(self), self._values()
