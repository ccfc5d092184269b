"""The immutable record base of every value type, and the verify records.

Every value type of the package (an FIET, a path, a matrix, a report) is an
immutable :class:`Record`, and :func:`replace` copies one with some fields
changed.  A checked inequality is an :class:`InequalityRecord`, and
:class:`LevelRecords` holds several tower levels' records, built when
read; here, the writer reads both without a tower module.  The module
imports nothing from ``fiet``; it is kept out of ``core`` so that compiling
``core``, which every process does when it runs from source, costs no more
memory than the largest module's compile.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from operator import attrgetter
from typing import Optional

_set = object.__setattr__


class Record:
    """An immutable record: the fields of a frozen dataclass, without its cost.

    A subclass's fields are its own annotated names, in order, and a
    class-level value is that field's default.  Records compare equal when
    they are of one class and their field values are equal, hash as the
    tuple of those values, and print as ``Name(field=value, ...)``;
    assigning or deleting an attribute raises ``AttributeError``.  A
    subclass whose fields have a smaller canonical form compares and hashes
    that instead, by defining the ``_values`` property itself.

    The generic constructor binds positional and keyword arguments to the
    fields as a function signature would, stores them and calls
    :meth:`__post_init__`.  A subclass that normalizes a field, or that is
    built once per induction step, defines its own ``__init__`` instead,
    which validates and stores each field once with
    ``object.__setattr__``.  Nothing is generated or compiled per
    class, so defining a record costs no more than defining a class.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = cls.__match_args__ = tuple(cls.__annotations__)
        cls._defaults = {k: vars(cls)[k] for k in fields if k in vars(cls)}
        # The tuple of field values, read in C when there are two or more,
        # unless the class defines what it compares and hashes itself.
        if "_values" not in vars(cls):
            cls._values = property(attrgetter(*fields) if len(fields) > 1
                                   else lambda r: tuple(getattr(r, k) for k in fields))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values the arguments give, in field order."""
        fields, name = cls._fields, f"{cls.__qualname__}.__init__()"
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields) + 1} positional arguments "
                            f"but {len(args) + 1} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name} got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name} got multiple values for argument {key!r}")
            values[key] = value
        missing = [k for k in fields if k not in values and k not in cls._defaults]
        if missing:
            raise TypeError(f"{name} missing required argument(s) "
                            + ", ".join(map(repr, missing)))
        return [values[k] if k in values else cls._defaults[k] for k in fields]

    def __post_init__(self) -> None:
        """Validate the stored fields; a subclass overrides it."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, **changes) -> Record:
    """A copy of ``record`` with ``changes``, built by its constructor, so the
    new values are validated as any others are."""
    values = {k: getattr(record, k) for k in record._fields}
    values.update(changes)
    return type(record)(**values)


class InequalityRecord(Record):
    """One checked inequality: lhs (cmp) rhs with exact margin = lhs - rhs.

    ``holds`` is ``margin > 0`` for strict records and ``margin >= 0`` for
    the single non-strict one.
    """

    lemma_id: str
    item: str
    lhs: Fraction
    rhs: Fraction
    margin: Fraction
    holds: bool
    strict: bool = True

    def __init__(self, lemma_id: str, item: str, lhs: Fraction, rhs: Fraction,
                 margin: Fraction, holds: bool, strict: bool = True) -> None:
        # A report builds thousands, so each field is stored directly
        # rather than bound through the generic constructor.
        _set(self, "lemma_id", lemma_id)
        _set(self, "item", item)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "margin", margin)
        _set(self, "holds", holds)
        _set(self, "strict", strict)


class LevelRecords(Sequence):
    """Records of several levels in one sequence, read level by level.

    A level is added as its records, or as a callable that builds them
    each time the level is read, with their number.  So a long list of
    failing records is never held: iterating builds one level at a time.
    It is equal to a list of the same records.
    """

    __slots__ = ("_levels", "_len")  # a report holds one per tower level

    def __init__(self, records=(), count: Optional[int] = None) -> None:
        self._levels: list = []
        self._len = 0
        self.add_level(records, count)

    def add_level(self, records, count: Optional[int] = None) -> None:
        """Append a level: its records, or, with ``count``, a callable
        that builds that many."""
        if count is None:
            records = list(records)
            count = len(records)
        self._levels.append(records)
        self._len += count

    def __iter__(self):
        for records in self._levels:
            yield from records() if callable(records) else records

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other):
        if isinstance(other, (list, LevelRecords)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None
