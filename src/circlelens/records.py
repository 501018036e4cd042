"""Plain value records: the package's result and input types.

Every command-line call imports the package, so the records are plain
classes: the standard library's record decorator cost each fresh process
about 14 ms, for its module's import (which pulls in inspect and ast) and
for the code it compiles per class.  A record names its fields in _fields;
the base binds them, by position or by name, and gives its repr, == and
hash.  A record keeps an __init__ only to convert, check or default a value
(Circle, Scene, GeneratorSpec, GammaPoint, CircleArc, Lens), to hold one
outside its fields (DualLine, Circle), or to give each record fresh lists,
appended to, never reassigned (AuditReport, RecurrenceTrace).  Lens keeps
its fields in slots, set through the slots' own setters.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenRecord:
    """An immutable record: repr Name(field=value, ...), == only with a
    record of the same class, field by field, and hashed as the tuple of its
    fields.  Assigning or deleting an attribute raises AttributeError, so
    an __init__ updates self.__dict__."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the tuple of the field values: attrgetter gives a tuple for two
        # names or more, as every record has
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = zip(fields, args)
        if kwargs or len(args) != len(fields):
            values = dict(values)
            if (len(args) > len(fields) or values.keys() & kwargs
                    or values.keys() | kwargs.keys() != set(fields)):
                raise TypeError(f"{type(self).__qualname__} takes its fields "
                                f"{', '.join(fields)} once each")
            values.update(kwargs)
        self.__dict__.update(values)

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
