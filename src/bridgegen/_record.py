"""Bases of the value classes: types, attributes, FIR arguments and
statements, specs and runtime values.

A subclass lists its fields in ``__slots__`` and writes its own
``__init__``; a subclass that adds no fields declares ``__slots__ = ()``.
The fields, in declaration order through the bases, are compared,
hashed and shown by repr; a class that keeps a field out of all three
names the others in ``_fields``. Equality compares the field tuples of
two objects of the same class, and a :class:`Frozen` object hashes as its
field tuple, so set and dict orders are those of the tuples.
"""

from operator import attrgetter

__all__ = ["Record", "Frozen", "setfield"]

# How a Frozen object's ``__init__`` sets a field: its own __setattr__ raises.
setfield = object.__setattr__


def _no_fields(obj):
    return ()


def _key_of(fields):
    """A function from an object to the tuple of its ``fields``."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if not fields:
        return _no_fields
    get = attrgetter(fields[0])
    return lambda obj: (get(obj),)


class Record:
    """Fields that may change: equality and repr over them, and no hash."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "_fields" not in cls.__dict__:
            cls._fields += tuple(cls.__dict__.get("__slots__", ()))
        cls._key = staticmethod(_key_of(cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._key(self) == self._key(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """Fields set once by ``__init__`` through :func:`setfield`. The hash is
    kept once computed: the few types hashed are hashed again and again,
    as parts of dispatch keys. A copy is the object itself."""

    __slots__ = ("_hash",)
    _fields = ()  # _hash is not a field

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            setfield(self, "_hash", hash(self._key(self)))
            return self._hash

    def __reduce__(self):  # for pickle: its __init__ takes the fields in order
        return self.__class__, self._key(self)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self
