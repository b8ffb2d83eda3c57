"""`Value`, the one base of nestlab's immutable value types."""

from __future__ import annotations

from operator import attrgetter


class Value:
    """An immutable value.  A subclass states its fields once, as `FIELDS`
    in constructor order, and lists them in `__slots__` with the attributes
    its constructor derives; its `__init__` runs its checks and ends in one
    `self._set(...)`, which sets every slot in `__slots__` order and is the
    one way past the freeze.  Equality, hash and the dataclass-style repr
    read the fields alone, so derived slots never change them.  Assignment
    and deletion raise AttributeError, and pickle and deepcopy rebuild a
    value through its constructor, so its checks run again."""

    __slots__ = ()
    FIELDS: tuple[str, ...] = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.FIELDS)
        if len(cls.FIELDS) == 1:
            # attrgetter of one name returns the value, not a 1-tuple
            get = lambda self, one=get: (one(self),)
        cls._values = staticmethod(get)
        # each slot's descriptor setter, which bypasses the refusing __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set(self, *slots):
        # a plain zip: a test checks each call's count against `__slots__`
        for set_slot, value in zip(self._setters, slots):
            set_slot(self, value)

    def __eq__(self, other):
        # a value equals itself field by field, so identity answers at once
        if other is self:
            return True
        if type(other) is type(self):
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.FIELDS, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)
