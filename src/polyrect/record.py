"""Base class of the package's immutable records.

A record names its fields in ``__slots__``, and its ``__init__`` sets each
one once with ``object.__setattr__``, as a frozen dataclass does.  Equality,
hash, repr and pickling follow the fields in order.  A plain class keeps
``dataclasses``, and the ``inspect`` it loads, off the import path of every
command.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        # the fields' values, compared and hashed (one field's value bare)
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
