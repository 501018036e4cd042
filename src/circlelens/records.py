"""Plain value records: the package's result and input types.

Every command-line call imports the package, so the records are plain
classes: the standard library's record decorator cost each fresh process
about 14 ms, for its module's import (which pulls in inspect and ast) and
for the code it compiles per class.  A record names its fields in _fields,
which give its repr, == and hash; one base serves them all, and a list
field (AuditReport, RecurrenceTrace) is appended to, never reassigned.
Each class writes its own __init__, no slower than a generated one.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenRecord:
    """An immutable record: repr Name(field=value, ...), == only with a
    record of the same class, field by field, and hashed as the tuple of its
    fields.  Assigning or deleting an attribute raises AttributeError, so
    its __init__ updates self.__dict__."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the tuple of the field values: attrgetter gives a tuple for two
        # names or more, as every record has
        cls._values = attrgetter(*cls._fields)

    def __repr__(self):
        values = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({values})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
