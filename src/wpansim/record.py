"""Field-wise equality and repr for the package's plain record classes.

The records are classes with an explicit `__init__`, not dataclasses:
`@dataclass` imports `inspect` and builds each record's methods with `exec`
whenever the package is imported.
"""

from __future__ import annotations


class Record:
    """`==` by field and a `Name(field=value, ...)` repr.

    The fields are the class's `__slots__`, or else the attributes that its
    `__init__` sets, in that order.  Records are mutable, so unhashable.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def _fields(self) -> dict:
        if hasattr(self, "__dict__"):
            return self.__dict__
        return {name: getattr(self, name) for name in type(self).__slots__}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._fields().items())
        return f"{type(self).__qualname__}({fields})"
