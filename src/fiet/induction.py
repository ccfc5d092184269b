"""Rauzy induction for interval exchange transformations with flips.

One induction step compares the rightmost domain subinterval (label
``pi0[-1]``) with the rightmost range subinterval (label ``pi1[-1]``), cuts
the shorter one off the end of the interval, and takes the first-return map.
The label of the longer subinterval is the *winner*, the other the *loser*;
the winner keeps its label with length ``len(winner) - len(loser)``.

Two step types, named by a letter:

* letter ``'a'``: the winner is the rightmost *range* label ``pi1[-1]``; the
  domain row ``pi0`` is modified.
* letter ``'b'``: the winner is the rightmost *domain* label ``pi0[-1]``; the
  range row ``pi1`` is modified.

In the modified row the loser is removed from the end and re-inserted
immediately *after* the winner when the winner is unflipped, immediately
*before* it when the winner is flipped; in the flipped case the loser's flip
state is toggled.  Each outcome also carries a case tag: ``'a*'`` when the
winner is the domain label, ``'b*'`` when it is the range label, with suffix
``'2'`` when the winner is flipped and ``'1'`` otherwise.

Lengths transform by old = E · new with E = I + e_{winner,loser}; a path's
matrix is the product of its step matrices in step order, so old lengths =
(path matrix) · new lengths throughout.

Every convention here is cross-checked in the test suite against a geometric
first-return oracle (:func:`fiet.core.first_return`) that knows nothing about
the case analysis.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

from .core import Fiet, FietCombinatorics, FietError, Record

LETTERS = ("a", "b")
# The most runs RauzyPath.repeat builds, beside the 10**6 letters word expands.
MAX_RUNS = 10**6


class KeaneViolation(FietError):
    """The two rightmost subintervals tie (or coincide), so no step is defined."""


class TransitionMatrix(Record):
    """Square integer matrix, rows-of-tuples; exact bigint arithmetic."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows) -> None:
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and non-empty")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "TransitionMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def elementary(cls, n: int, winner: int, loser: int) -> "TransitionMatrix":
        """I + e_{winner,loser} (labels are 1-based)."""
        return cls.elementary_power(n, winner, loser, 1)

    @classmethod
    def elementary_power(cls, n: int, winner: int, loser: int, k: int) -> "TransitionMatrix":
        """I + k * e_{winner,loser}: the matrix of k repeats of a state-fixed step."""
        if winner == loser:
            raise ValueError("winner and loser must differ")
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        rows[winner - 1][loser - 1] += k
        return cls(tuple(tuple(r) for r in rows))

    def __matmul__(self, other: "TransitionMatrix") -> "TransitionMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        ocols = tuple(zip(*other.rows))
        return TransitionMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in ocols)
                for row in self.rows
            )
        )

    def power(self, k: int) -> "TransitionMatrix":
        if k < 0:
            raise ValueError("k must be >= 0")
        result = TransitionMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def mat_vec(self, vec: Sequence) -> tuple:
        if len(vec) != self.n:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.rows)

    def column(self, j: int) -> tuple[int, ...]:
        """Column j (1-based) — the image of the j-th basis vector."""
        return tuple(row[j - 1] for row in self.rows)

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.rows))

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)

    def det(self) -> int:
        """Exact determinant (fraction-free Gaussian elimination)."""
        n = self.n
        m = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


class StepOutcome(Record):
    """Everything one induction step produces besides the new lengths."""

    new_comb: FietCombinatorics
    winner: int
    loser: int
    case_tag: str  # 'a1', 'a2' (winner = domain label), 'b1', 'b2' (range label)
    letter: str  # 'a' (range label wins) or 'b' (domain label wins)

    def __init__(self, new_comb: FietCombinatorics, winner: int, loser: int,
                 case_tag: str, letter: str) -> None:
        # Every induction step builds one, so each field is stored directly
        # rather than bound through the generic constructor.
        object.__setattr__(self, "new_comb", new_comb)
        object.__setattr__(self, "winner", winner)
        object.__setattr__(self, "loser", loser)
        object.__setattr__(self, "case_tag", case_tag)
        object.__setattr__(self, "letter", letter)

    @property
    def matrix(self) -> TransitionMatrix:
        """The step's transition matrix I + e_{winner,loser}, built on access."""
        return TransitionMatrix.elementary(self.new_comb.n, self.winner, self.loser)


def symbolic_step(c: FietCombinatorics, letter: str) -> StepOutcome:
    """One induction step on combinatorics alone, driven by the given letter."""
    if letter not in LETTERS:
        raise ValueError(f"letter must be 'a' or 'b', got {letter!r}")
    if letter == "a":
        winner, loser = c.pi1[-1], c.pi0[-1]
        row = list(c.pi0)
    else:
        winner, loser = c.pi0[-1], c.pi1[-1]
        row = list(c.pi1)
    if winner == loser:
        raise KeaneViolation(
            f"label {winner} is rightmost in both rows; the step is undefined"
        )
    flipped = winner in c.flips
    row.pop()
    k0 = row.index(winner)
    row.insert(k0 + (0 if flipped else 1), loser)
    new_flips = frozenset(c.flips ^ {loser}) if flipped else c.flips
    if letter == "a":
        new_c = FietCombinatorics(c.n, tuple(row), c.pi1, new_flips)
    else:
        new_c = FietCombinatorics(c.n, c.pi0, tuple(row), new_flips)
    tag = ("a" if letter == "b" else "b") + ("2" if flipped else "1")
    return StepOutcome(new_c, winner, loser, tag, letter)


def rauzy_step(f: Fiet) -> tuple[Fiet, StepOutcome]:
    """One length-driven induction step.

    Raises :class:`KeaneViolation` when the rightmost domain and range
    subintervals have equal length (including the degenerate case where one
    label is rightmost in both rows).
    """
    top, bot = f.comb.pi0[-1], f.comb.pi1[-1]
    lt, lb = f.length_of(top), f.length_of(bot)
    if lt == lb:
        raise KeaneViolation(
            f"rightmost subintervals tie: len({top}) = len({bot}) = {lt}"
        )
    letter = "b" if lt > lb else "a"
    out = symbolic_step(f.comb, letter)
    lengths = list(f.lengths)
    lengths[out.winner - 1] -= lengths[out.loser - 1]
    return Fiet(out.new_comb, tuple(lengths)), out


class RauzyPath(Record):
    """A word over {'a','b'}, run-length encoded so runs may be astronomically long."""

    runs: tuple[tuple[str, int], ...]

    def __init__(self, runs) -> None:
        merged: list[list] = []
        for letter, count in runs:
            if letter not in LETTERS:
                raise ValueError(f"invalid letter {letter!r}")
            count = int(count)
            if count < 0:
                raise ValueError("run counts must be >= 0")
            if count == 0:
                continue
            if merged and merged[-1][0] == letter:
                merged[-1][1] += count
            else:
                merged.append([letter, count])
        object.__setattr__(self, "runs", tuple((l, c) for l, c in merged))

    @classmethod
    def from_word(cls, word: str) -> "RauzyPath":
        return cls(tuple((ch, 1) for ch in word))

    @property
    def length(self) -> int:
        return sum(c for _, c in self.runs)

    def word(self, max_length: int = 10**6) -> str:
        if self.length > max_length:
            raise ValueError(f"path has {self.length} letters; too long to expand")
        return "".join(l * c for l, c in self.runs)

    def repeat(self, k: int) -> "RauzyPath":
        if k < 0:
            raise ValueError("k must be >= 0")
        if len(self.runs) * k > MAX_RUNS:
            raise ValueError(f"{k} repeats of {len(self.runs)} runs exceed {MAX_RUNS} runs")
        return RauzyPath(self.runs * k)


def thread_runs(c: FietCombinatorics, runs: Sequence) -> tuple[FietCombinatorics, dict]:
    """Thread (letter, count) runs through the combinatorics: (end state, matrix).

    A count is a positive int or a parameter name.  The matrix is the ordered
    product of the step matrices, so old lengths = matrix · new lengths, as
    a polynomial in the parameters: it maps each monomial (a sorted tuple of
    parameter names) to its integer coefficient columns.  A step with winner
    w and loser l is the column operation col_l += col_w in every term (O(n),
    no matrix product).

    Every run of one letter is threaded by one rule.  The letter rewrites one
    row only, so the winner, the last label of the other row, is the same at
    every step of the run.  It never loses, so col_w never changes, and the
    run adds col_w to each loser's column once per loss, in any order.  The
    states return to the run's start within n steps: the labels after an
    unflipped winner rotate, and those after a flipped winner move in front
    of it one by one until the winner is last in both rows, where the next
    step raises :class:`KeaneViolation`.  So a run steps through at most one
    period, collecting its losers, then makes one column update per distinct
    loser, with q or q + 1 losses from q, r = divmod(count, period), and ends
    on the period's r-th state.  A parameter run p must start on a state its
    letter fixes (period one, else ValueError naming the run); its one loser
    gains p · col_w, so each term's col_w is added to the loser's column of
    that term times p.  Steps are memoized per call, since a long path
    revisits few (state, letter) pairs.
    """
    step = cache(symbolic_step)
    n = c.n
    poly = {(): [[int(i == j) for i in range(n)] for j in range(n)]}
    for letter, count in runs:
        param = isinstance(count, str)
        states, losers = [c], []
        while len(losers) < (1 if param else count):
            out = step(states[-1], letter)
            losers.append(out.loser)
            if out.new_comb == c:
                break
            states.append(out.new_comb)
        if param and len(states) > 1:
            raise ValueError(f"run {count} starts on a state it moves")
        # Back at c, len(states) is the period; a run that ends before it
        # returns has count < len(states), so q = 0 and r = count.
        q, r = (1, 0) if param else divmod(count, len(states))
        w = out.winner - 1
        for mono, cols in list(poly.items()):
            if not any(cols[w]):
                continue
            term = poly.setdefault(tuple(sorted(mono + (count,))),
                                   [[0] * n for _ in range(n)]) if param else cols
            for i, loser in enumerate(losers):
                k = q + (i < r)
                term[loser - 1] = [a + k * b for a, b in zip(term[loser - 1], cols[w])]
        c = states[r]
    return c, poly


def apply_path(
    c: FietCombinatorics, path: RauzyPath
) -> tuple[FietCombinatorics, TransitionMatrix]:
    """Thread a path through the combinatorics; returns (end state, path matrix):
    the constant term of :func:`thread_runs`."""
    end, poly = thread_runs(c, path.runs)
    return end, TransitionMatrix(tuple(zip(*poly[()])))


def length_driven_letters(f: Fiet, steps: int) -> tuple[str, ...]:
    """The letter sequence chosen by ``steps`` length-driven induction steps."""
    letters = []
    cur = f
    for _ in range(steps):
        cur, out = rauzy_step(cur)
        letters.append(out.letter)
    return tuple(letters)
