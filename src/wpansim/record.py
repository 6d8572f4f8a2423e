"""Field-wise equality, repr and copy for the package's plain record classes.

The records are classes with an explicit `__init__`, not dataclasses:
`@dataclass` imports `inspect` and builds each record's methods with `exec`
whenever the package is imported.
"""

from __future__ import annotations

from typing import TypeVar

_R = TypeVar("_R", bound="Record")


class Record:
    """`==` by field, a `Name(field=value, ...)` repr and `copy()`.

    The fields are the class's `__slots__`, or else the attributes that its
    `__init__` sets, in that order.  Records are mutable, so unhashable.

    `copy()` copies the record, every record and list among its fields, and
    every record and list inside those, so the copy shares no mutable part
    with the original.  It shares every other value: numbers, strings,
    None, enum members and tuples (a `Band` too), which the records hold
    only with immutable contents.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def _fields(self) -> dict:
        if hasattr(self, "__dict__"):
            return self.__dict__
        return {name: getattr(self, name) for name in type(self).__slots__}

    def copy(self: _R) -> _R:
        new = object.__new__(type(self))
        for name, value in self._fields().items():
            setattr(new, name, _copied(value))
        return new

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._fields().items())
        return f"{type(self).__qualname__}({fields})"


def _copied(value):
    if isinstance(value, Record):
        return value.copy()
    if type(value) is list:
        return [_copied(item) for item in value]
    return value
