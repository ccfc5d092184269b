"""Exact decimal twins: integers that carry their own decimal digits.

``fiet verify`` prints every value of every tower level as a reduced
fraction, and CPython converts an int to decimal text in time quadratic in
its size.  Every printed integer of a level is a small integer combination
of that level's coordinates, though, so the towers are carried twice: as
binary integers, which decide the verdicts and take the gcds, and as an
exact :class:`~decimal.Decimal` copy of the same vectors, made by the same
matrix products.  Adding, subtracting, multiplying by a small integer and
exactly dividing by one are linear in decimal as in binary, and so is
``str`` of a decimal, so a record's digits come from its twins with no
conversion (Knuth, TAOCP 2, 4.5.1, for the reduced sums).

Every twin operation runs in :data:`EXACT`, a context with the largest
precision and exponent range that traps :class:`~decimal.Inexact` and
:class:`~decimal.Rounded`.  Integer operands have exponent 0, so every
result is an integer with exponent 0 whose ``str`` is its plain digits.
No twin arithmetic runs in a thread's default context, whose 28 digits
would round.

The module imports nothing from ``fiet``, like :mod:`fiet.window`.
"""

from __future__ import annotations

from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
)
from fractions import Fraction
from functools import reduce

EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded])
_add, _subtract, _multiply = EXACT.add, EXACT.subtract, EXACT.multiply


def _dec(n: int):
    # A plain int operand is converted by the context, so it should be small.
    return n.dec if type(n) is Twin else n


class Twin(int):
    """An integer with its exact decimal copy ``dec``.

    ``+``, ``-`` and ``*`` with a twin or a plain int give twins;
    comparisons and every other operation act on the integer alone and give
    plain results.
    """

    def __new__(cls, n: int, dec: Decimal) -> Twin:
        self = int.__new__(cls, n)
        self.dec = dec
        return self

    def __add__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return Twin(int.__add__(self, other), _add(self.dec, _dec(other)))

    def __sub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return Twin(int.__sub__(self, other), _subtract(self.dec, _dec(other)))

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return Twin(int.__rsub__(self, other), _subtract(_dec(other), self.dec))

    def __mul__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return Twin(int.__mul__(self, other), _multiply(self.dec, _dec(other)))

    __radd__, __rmul__ = __add__, __mul__


class TwinFraction(Fraction):
    """A :class:`~fractions.Fraction` whose numerator and denominator carry
    their decimal twins, ``twins``; it is equal to the same plain value."""

    __slots__ = ("twins",)


def _quotient(dec: Decimal, g: int) -> Decimal:
    """dec / g for a g that divides dec, else :class:`~decimal.Inexact`."""
    q, r = EXACT.divmod(dec, g)
    if r:
        raise Inexact(f"a twin is not a multiple of {g}")
    return q


def with_twins(q: Fraction, num: Twin, den: Twin) -> TwinFraction:
    """``q``, equal to num/den (den > 0), with the twins of its two terms.

    num and den are q's terms times g = den / q.denominator, so those twins
    are num's and den's divided by g: when q came from small gcds, one
    small exact division each.
    """
    g = den // q.denominator
    if type(q) is not TwinFraction:
        q = TwinFraction(q)
    q.twins = ((num.dec, den.dec) if g == 1
               else (_quotient(num.dec, g), _quotient(den.dec, g)))
    return q


def fraction(num: int, den: int) -> Fraction:
    """num/den in lowest terms (den > 0), with twins when den is a twin."""
    if type(den) is not Twin:
        return Fraction(num, den)
    return with_twins(TwinFraction(int(num), int(den)), num, den)


def twin_vector(w, dec) -> tuple:
    """The twins of the integers ``w`` whose decimal copies are ``dec``."""
    return tuple(map(Twin, w, dec))


def mat_vec(rows, vec) -> tuple[Decimal, ...]:
    """The product of an integer matrix, given by its rows, with a vector of
    decimals (or of small ints), exactly."""
    return tuple(reduce(_add, map(_multiply, vec, row)) for row in rows)
