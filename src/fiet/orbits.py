"""Orbit statistics and the random cross-check of the induction step.

:func:`birkhoff_frequencies` measures visit frequencies and the largest
gap of finite orbits on the map itself, and :func:`oracle_crosscheck`
checks one induction step against the geometric first-return map on
random maps.  Neither reads a tower, so both live apart from
:mod:`fiet.verify`, which re-exports every name here; compiling the two
modules separately keeps each compile, and so every command's import
peak, smaller.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .construction import ResourceLimitError, l1_distance
from .core import (
    Fiet,
    FietCombinatorics,
    Record,
    _fiet_from_rows,
    _return_rows,
    _Tiles,
    _walk,
    exact_int,
)
from .induction import rauzy_step

GAP_CELLS_LOG2 = 12  # birkhoff_frequencies' max_gap grid starts with ~4096 cells
MAX_GAP_CELLS = 1 << 20  # a finer one past ~1M cells: ~0.5 GiB at 1734-bit L


class StartResult(Record):
    """Birkhoff statistics of one orbit up to one horizon."""

    start: Fraction
    horizon: int
    steps_completed: int
    terminated_at: Optional[int]
    frequencies: tuple[Fraction, ...]
    max_gap: Fraction


class FrequencyReport(Record):
    """Visit frequencies for several starts and horizons on one FIET."""

    start_points: tuple[Fraction, ...]
    horizons: tuple[int, ...]
    results: tuple[StartResult, ...]


def midpoint_starts(f: Fiet) -> tuple[Fraction, ...]:
    """Midpoints of the domain subintervals — generic starting points."""
    kernel = _Tiles(f)
    return tuple([Fraction(2 * u + lam, 2 * kernel.scale)
                  for _, u, lam, _, _ in kernel.tiles])


def birkhoff_frequencies(
    f: Fiet, starts: Sequence, horizons
) -> FrequencyReport:
    """Exact visit frequencies of finite orbits.

    For each start and horizon: the fraction of the first ``horizon`` orbit
    points lying in each labeled subinterval (exact rationals summing to 1),
    the largest gap the visited points leave in [0, L) (a density
    diagnostic), and — if the orbit hits a point where the map is undefined —
    the step index at which it terminated, with frequencies over the steps
    actually completed.  A terminating start affects only its own rows.  The
    visited points of a row are x_0 .. x_{done-1}, or x_0 alone when the
    orbit terminates at step 0.

    Arithmetic is pure integer: the map's tiles are scaled by twice the
    common denominator of the lengths and starts, so flips stay exact and
    comparisons are machine integers whenever the data is small.

    ``max_gap`` is exact but the orbit is not stored: the walk keeps only
    the smallest and largest visited point of each cell ``x >> s`` of a
    grid of width ``2**s`` (about ``2**GAP_CELLS_LOG2`` cells at first).
    The gaps between consecutive non-empty cells — from 0 to the first
    minimum, from each maximum to the next minimum, from the last maximum
    to L — are gaps between consecutive visited points, and every other gap
    lies inside one cell and is shorter than ``2**s``.  So the largest of
    them is the exact ``max_gap`` whenever it is at least ``2**s``.
    Otherwise the start is walked again on a finer grid.  Its p points cut
    [0, L) into p + 1 gaps summing to L, so by pigeonhole ``max_gap >=
    L // (p + 1)``, and ``max_gap`` is at least the coarse largest gap too.
    The finer width is the largest power of two not above either bound, so
    the second walk is exact; its grid has at most about 2 (p + 1) cells,
    and one over ``MAX_GAP_CELLS`` raises :class:`ResourceLimitError`.

    At rational lengths every orbit is eventually periodic, and it spends
    most of its steps in translation runs, where its last p steps repeat
    as one translation T^p(y) = y + delta.  The walk crosses each run in
    closed form (see :func:`fiet.window.segments`, which holds the rule):
    the run's points are arithmetic progressions, monotone, so each is
    kept inside its tile, and off a flipped tile's left end, by its last
    term; a periodic orbit (delta = 0) jumps straight to its horizon.  A
    run's window is walked by the same rule, so inner runs are crossed to
    any depth.  Counts and ``max_gap`` stay exact, and the cost grows with
    the number of runs, not of steps.
    """
    if isinstance(horizons, int):
        horizons = (horizons,)
    horizons = tuple(exact_int(h, "horizon") for h in horizons)
    if not horizons or any(h < 1 for h in horizons):
        raise ValueError("horizons must be positive integers")
    horizons = tuple(sorted(set(horizons)))
    starts = tuple(Fraction(s) for s in starts)

    kernel = _Tiles(f, starts)
    L = kernel.L
    results = []
    for start in starts:
        x = int(start * kernel.scale)
        if not (0 <= x < L):
            raise ValueError(f"start {start} outside [0, {f.total_length})")
        s = max(L.bit_length() - GAP_CELLS_LOG2, 0)
        rows = _walk(kernel, x, horizons, s)
        while coarse := [(done, gap) for done, _, gap, _ in rows if gap < 1 << s]:
            s = min(
                max(gap, L // (max(done, 1) + 1)).bit_length() - 1
                for done, gap in coarse
            )
            if (cells := ((L - 1) >> s) + 1) > MAX_GAP_CELLS:
                raise ResourceLimitError(f"max_gap from start {float(start):.9f} needs "
                                         f"{cells} grid cells (limit {MAX_GAP_CELLS})")
            rows = _walk(kernel, x, horizons, s)
        for h, (done, cts, gap, _) in zip(horizons, rows):
            freqs = tuple(
                Fraction(ct, done) if done else Fraction(0) for ct in cts
            )
            results.append(StartResult(
                start=start,
                horizon=h,
                steps_completed=done,
                terminated_at=done if done < h else None,
                frequencies=freqs,
                max_gap=Fraction(gap, kernel.scale),
            ))
    return FrequencyReport(starts, horizons, tuple(results))


def frequency_l1_gaps(report: FrequencyReport, horizon: int) -> dict:
    """Pairwise L1 distances between the frequency vectors at one horizon."""
    rows = [r for r in report.results if r.horizon == horizon]
    gaps = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            gaps[(str(rows[i].start), str(rows[j].start))] = l1_distance(
                rows[i].frequencies, rows[j].frequencies
            )
    return gaps


def oracle_crosscheck(trials: int, seed: int = 0) -> dict:
    """Random cross-validation of the induction step against the return map.

    For each trial draws a random FIET (n in 2..8, random rows, random flip
    set, random exact lengths with distinct rightmost pair), performs one
    length-driven induction step, and independently computes the first-return
    map to [0, L - loser_length) geometrically.  The two results must be
    identical labeled data.

    A trial is decided on integers: the return map's rows, as
    :func:`fiet.core._return_rows` assembles them at the scale ``2 * f.den``
    of ``f``'s tiles, against the step's rows, its lengths cross-multiplied
    (:func:`_rows_match`).  The step's rows were validated when its map was
    built, so rows equal to them are a valid map too.  Only a failing trial
    builds the returned map, and records it beside the step's, the map
    :func:`fiet.core.first_return` returns for that cut; rows that raise,
    or make no valid map, are recorded by the ``repr`` of their error.
    """
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        f = _random_fiet(rng)
        nums = f.nums
        lt, lb = nums[f.comb.pi0[-1] - 1], nums[f.comb.pi1[-1] - 1]
        stepped, _ = rauzy_step(f)
        try:
            kernel = _Tiles(f)
            cut = (sum(nums) - min(lt, lb)) * (kernel.scale // f.den)
            rows = _return_rows(kernel, cut)
            if _rows_match(rows, kernel.scale, stepped):
                continue
            returned = _fiet_from_rows(rows, kernel.scale)
        except Exception as exc:  # noqa: BLE001 - recorded, not silenced
            failures.append({"trial": trial, "fiet": f, "error": repr(exc)})
            continue
        failures.append({"trial": trial, "fiet": f,
                         "stepped": stepped, "returned": returned})
    return {"trials": trials, "passes": trials - len(failures), "failures": failures}


def _rows_match(rows, scale: int, g: Fiet) -> bool:
    """True iff the rows ``(pi0, pi1, flips, widths)``, widths at ``scale``,
    are ``g``'s label rows, flip set and lengths."""
    pi0, pi1, flips, widths = rows
    comb, den = g.comb, g.den
    return (pi0 == comb.pi0 and pi1 == comb.pi1 and flips == comb.flips
            and [w * den for w in widths] == [v * scale for v in g.nums])


def _random_fiet(rng: random.Random) -> Fiet:
    """A random map for :func:`oracle_crosscheck`, drawn from ``rng``.

    Which maps a seed checks is part of its meaning, so the draws are a
    contract.  In order: n in 2..8; the domain row, then the range row,
    each 1..n shuffled; a fresh draw from n on when their rightmost labels
    coincide; for each label 1..n, flipped when ``rng.random() < 0.5``;
    then for each label its length a/b, a in 1..60 drawn before b in
    1..30; a fresh draw from n on when the two rightmost lengths are
    equal.  A value in ``lo..lo + m - 1`` is ``lo`` plus ``below(m)``,
    rejection sampling on ``rng.getrandbits(m.bit_length())``, and a row
    is shuffled by Fisher-Yates: for i from n - 1 down to 1, ``x[i]``
    swaps with ``x[below(i + 1)]``.

    These are the values the standard library's ``randint`` and
    ``shuffle`` draw, without their layers of calls, which took most of
    a draw's time.  Read straight from the generator, they also stay put
    if those helpers change: Python promises the same stream across
    versions only for ``random()``, and ``getrandbits`` is the
    generator's own output.
    """
    bits, uniform = rng.getrandbits, rng.random

    def below(m: int) -> int:
        k = m.bit_length()
        r = bits(k)
        while r >= m:
            r = bits(k)
        return r

    while True:
        n = 2 + below(7)
        rows = list(range(1, n + 1)), list(range(1, n + 1))
        for row in rows:
            for i in range(n - 1, 0, -1):
                j = below(i + 1)
                row[i], row[j] = row[j], row[i]
        pi0, pi1 = rows
        if pi0[-1] == pi1[-1]:
            continue
        flips = frozenset([k for k in range(1, n + 1) if uniform() < 0.5])
        # The map is built over the lcm of the b's.
        pairs = [(1 + below(60), 1 + below(30)) for _ in range(n)]
        den = lcm(*[b for _, b in pairs])
        nums = [a * (den // b) for a, b in pairs]
        if nums[pi0[-1] - 1] != nums[pi1[-1] - 1]:
            comb = FietCombinatorics(n, tuple(pi0), tuple(pi1), flips)
            return Fiet.from_integers(comb, nums, den)
