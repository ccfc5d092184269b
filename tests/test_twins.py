"""Tests for the decimal twins that give tower records their digits."""

from decimal import Decimal, Inexact, getcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiet import (
    PathParameters,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_separation,
    serialize,
)
from fiet.cli import main
from fiet.serialize import format_fraction, int_to_str
from fiet.twins import Twin, TwinFraction, fraction, twin_vector, with_twins

DIGIT_LIMIT_BITS = 4300 * 10 // 3  # past the interpreter's default digit limit


def twins_of(w):
    return twin_vector(w, [Decimal(e) for e in w])


def twin_records(w, t, w5, w7):
    """Every suite's records on the twin vector of w, and the plain ones."""
    def suites(v, v5, v7):
        return (check_lemma1(v, t) + check_lemma2(v, t) + check_lemma3(v, 11, t)
                + check_lemma4(v, 34, t) + check_separation(v, v5, v7, t))

    return suites(twins_of(w), twins_of(w5), twins_of(w7)), suites(w, w5, w7)


def twin_values(records):
    """Each record value read over a twin total: (value, its two twins)."""
    return [(q, q.twins) for r in records for q in (r.lhs, r.rhs, r.margin)
            if isinstance(q, TwinFraction)]


# A coordinate is a small head shifted left by a drawn number of bits, plus
# a tail, so the strategies' own bounds stay printable.
coordinates = st.builds(lambda head, shift, tail: (head << shift) + tail,
                        st.integers(0, 255),
                        st.sampled_from([0, 64, 900, DIGIT_LIMIT_BITS]),
                        st.integers(0, 1 << 64))
vectors = st.lists(coordinates, min_size=8, max_size=8).filter(any)


class TestTwinDigits:
    @settings(max_examples=40, deadline=None)
    @given(w=vectors, w5=vectors, w7=vectors, k=st.integers(1, 70),
           p1=st.integers(1, 10**6))
    @example(w=[3, 0, 6, 9, 12, 0, 0, 30], w5=[1] * 8, w7=[1] * 8, k=14, p1=10)
    def test_digits_equal_int_to_str(self, w, w5, w7, k, p1):
        # A common factor k makes the values reduce (g > 1), and when it
        # shares a factor with a constant's denominator (7, 10, 4, p1, ...)
        # so does the level's total.
        w = [k * e for e in w]
        t = PathParameters(p1, 2 * p1, 4 * p1, 2 * p1, p1)
        twin, plain = twin_records(w, t, w5, w7)
        assert twin == plain
        values = twin_values(twin)
        assert values
        for q, (num, den) in values:
            assert (str(num), str(den)) == (int_to_str(q.numerator),
                                            int_to_str(q.denominator))

    def test_cases_the_property_must_cover(self):
        # Reduced values (g > 1), negative margins, a constant whose
        # denominator shares a factor with the total, and digits past the
        # interpreter's limit, all in one run of the suites.
        big = 1 << DIGIT_LIMIT_BITS
        w = [14 * e for e in (big + 3, 1, big, 5, 2, big + 1, 1, 9)]
        t = PathParameters(7, 14, 28, 14, 7)
        twin, plain = twin_records(w, t, [1] * 8, [2] * 7 + [1])
        assert twin == plain
        values = twin_values(twin)
        reduced = [q for q, (_, den) in values if den != sum(twins_of(w)).dec]
        assert reduced
        assert any(r.margin < 0 and isinstance(r.margin, TwinFraction) for r in twin)
        assert sum(w) % 7 == 0 and any(r.rhs == Fraction(1, 7) for r in twin)
        assert max(len(str(num)) for _, (num, _) in values) > 4300
        for q, (num, den) in values:
            assert format_fraction(q) == f"{num}/{den}" \
                == f"{int_to_str(q.numerator)}/{int_to_str(q.denominator)}"

    def test_zero_and_exact_arithmetic(self):
        # Twin arithmetic never runs in the default context, whose 28
        # digits would round this sum.
        assert getcontext().prec < 41
        a = Twin(10**40, Decimal(10**40))
        s = a + 1 - Twin(3, Decimal(3)) * 2
        assert type(s) is Twin and str(s.dec) == str(int(s)) == str(10**40 - 5)
        zero = a - a
        assert str(zero.dec) == "0" and str((0 - zero).dec) == "0"
        q = fraction(zero, Twin(12, Decimal(12)))
        assert q == 0 and q.twins == (Decimal(0), Decimal(1))
        assert type(fraction(6, 4)) is Fraction

    def test_an_inexact_twin_operation_raises(self):
        # A twin that is not the decimal copy of its integer must not print
        # digits: 3/2 from 6/4, whose "twins" 7/4 do not divide by 2.
        with pytest.raises(Inexact):
            with_twins(Fraction(3, 2), Twin(6, Decimal(7)), Twin(4, Decimal(4)))


class TestVerifyConvertsNoLargeInteger:
    """The report's digits come from twins: no large integer is converted."""

    @staticmethod
    def check(capsys, monkeypatch, mode, family, code):
        converted = []

        def counting(n):
            converted.append(n.bit_length())
            return int_to_str(n)

        monkeypatch.setattr(serialize, "int_to_str", counting)
        assert main(["verify", "--mode", mode, "--depth", "3",
                     "--family", family]) == code
        out = capsys.readouterr().out
        assert len(out) > 300_000 and converted
        assert max(converted) <= 1000, sorted(converted)[-5:]

    @pytest.mark.parametrize("family, code", [("reference", 0), ("computed", 1)])
    def test_relaxed_depth_3(self, capsys, monkeypatch, family, code):
        self.check(capsys, monkeypatch, "relaxed", family, code)

    @pytest.mark.parametrize("family, code", [("reference", 0), ("computed", 1)])
    def test_strict_depth_3(self, capsys, monkeypatch, family, code):
        # The strict schedule has the largest parameters, and its report
        # writes records that hold but not strictly.
        self.check(capsys, monkeypatch, "strict", family, code)
