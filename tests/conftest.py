"""Shared strategies and fixtures: random FIETs with exact rational lengths."""

import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from fiet import Fiet, FietCombinatorics, core

@pytest.fixture
def no_huge_label_sets(monkeypatch):
    """Fail, without allocating, any build of the labels 1..n for n > 1000."""
    labels = core._labels

    def guarded(n):
        assert n <= 1000, f"built the labels 1..{n}"
        return labels(n)

    monkeypatch.setattr(core, "_labels", guarded)


positive_fractions = st.builds(
    Fraction, st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=24)
)


@st.composite
def combinatorics_st(draw, min_n=2, max_n=6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    labels = list(range(1, n + 1))
    pi0 = tuple(draw(st.permutations(labels)))
    pi1 = tuple(draw(st.permutations(labels)))
    flips = frozenset(draw(st.sets(st.sampled_from(labels), max_size=n)))
    return FietCombinatorics(n, pi0, pi1, flips)


@st.composite
def fiets_st(draw, min_n=2, max_n=6):
    c = draw(combinatorics_st(min_n=min_n, max_n=max_n))
    lengths = tuple(draw(positive_fractions) for _ in range(c.n))
    return Fiet(c, lengths)


def _steppable(f: Fiet) -> bool:
    """One induction step is defined: distinct rightmost labels and lengths."""
    return (
        f.comb.pi0[-1] != f.comb.pi1[-1]
        and f.length_of(f.comb.pi0[-1]) != f.length_of(f.comb.pi1[-1])
    )


def steppable_fiets_st(min_n=2, max_n=6):
    return fiets_st(min_n=min_n, max_n=max_n).filter(_steppable)


@contextmanager
def time_limit(seconds: float, message: str):
    """Raise TimeoutError(message) in the block once ``seconds`` have
    passed, so a run that would take hours fails instead."""
    def expire(signum, frame):
        raise TimeoutError(message)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def det_fraction_elimination(rows) -> Fraction:
    """Independent determinant oracle: plain Gaussian elimination over Q."""
    n = len(rows)
    m = [[Fraction(v) for v in r] for r in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    return det


def subtractive_steps(a: int, b: int) -> list[tuple[int, int]]:
    """Trace of the subtractive gcd algorithm: successive (larger-reduced) pairs.

    Oracle for induction on two unflipped swapped intervals, which performs
    exactly this subtraction until the lengths tie.
    """
    if a < 1 or b < 1 or a == b:
        raise ValueError("need distinct positive integers")
    trace = []
    while a != b:
        if a > b:
            a = a - b
        else:
            b = b - a
        trace.append((a, b))
    return trace
