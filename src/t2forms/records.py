"""Record classes with value semantics.

A record names its fields in ``__slots__``, in positional order, and
writes its own ``__init__``.  Records of the same class compare field by
field; ``_compare`` names the fields that take part, all of them unless
the class says otherwise.  A :class:`Record` is mutable and unhashable;
a :class:`Frozen` one refuses assignment and deletion, sets its fields
in ``__init__`` through ``_set``, and hashes the compared fields.
"""

from __future__ import annotations

import operator


class Record:
    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__dict__.get("_compare", cls.__slots__)
        if names:
            cls._key = operator.attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    __slots__ = ()
    # object's own __setattr__, which the refusing one below does not intercept
    _set = object.__setattr__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
