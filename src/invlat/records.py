"""Frozen record classes built from their annotated fields.

A subclass of `Record` lists its fields as class annotations, in order, each
with an optional default, after the fields of the record it extends, if any.
Every record gets:

- an `__init__` taking the fields by position or keyword, which then calls
  `__post_init__` (a no-op unless the class defines one; a post-init that
  normalises a field writes it with `object.__setattr__`);
- `==` only against an instance of the same class, comparing the tuple of
  field values, and a hash of that tuple;
- a repr `Name(field=value, ...)`;
- no assignment or deletion of attributes.

The methods are the same functions for every record and read the field names
from the class, so nothing is generated when a record class is created.
Instances keep a `__dict__`, so `functools.cached_property` works on them and
its cached values take no part in equality, hashing or the repr.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__dict__.get("__annotations__", {})
               if name not in cls._fields]
        cls._fields = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults,
                         **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, "
                            f"got {len(args)} positional arguments")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{type(self).__name__}: unexpected or repeated "
                                f"argument {name!r}")
            values[name] = value
        if len(values) < len(fields):
            for name in fields:
                if name not in values:
                    if name not in self._defaults:
                        raise TypeError(f"{type(self).__name__}: missing field {name!r}")
                    values[name] = self._defaults[name]
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the same object compares equal, as a tuple of its fields would
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

