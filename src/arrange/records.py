"""Plain records over ``__slots__``.

A ``Record`` equals a record of the same class whose fields are equal and
shows as ``Name(field=value, ...)``; its fields are its slots less those
named in ``_hidden``.  A record is unhashable.  A ``Frozen`` record hashes
by the same fields and refuses assignment, so its ``__init__`` sets the
slots with ``object.__setattr__``.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _hidden = ()      # slots left out of equality, hashing and repr

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(n for n in cls.__slots__ if n not in cls._hidden)
        if cls._fields:
            # one call reads every field (one field: the bare value)
            cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen "
                             f"{type(self).__name__}")
