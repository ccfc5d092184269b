"""Machine verification: inequality suites, towers, separations, simulation.

The invariant-measure argument rests on four groups of coordinate
inequalities (here ``L1`` .. ``L4``) about normalized vectors produced by the
renormalization towers, plus separation sums showing the three limit
directions are distinct.  Every check is exact and never rounds.  A level
vector is carried as integers w with total S = sum(w), and each record side
is an integer linear form in w read over S, or a constant; a record holds
by the sign of a cross-multiplied integer, and its sides and margin become
``Fraction`` values only for the report.

Tower convention: with J = 3m copies scheduled, the level-j vector is the
normalized image of the seed basis vector under the copy matrices j..J
(applied right to left).  Levels J-1 and J are start-up artifacts of the
finite seed, so a depth-m run checks levels 1..3m-2.  Each copy matrix is
read in the labels of the state its copy starts from, so a computed level-j
vector is in the frame of cycle state j-1: it is P^(j-1) A_j ... A_J e_seed
with A_j = M0(p_j) P (see :mod:`fiet.construction`).
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    Fiet,
    FietCombinatorics,
    Record,
    _Tiles,
    _walk,
    domain_partition,
    exact_int,
    first_return,
)
from .induction import KeaneViolation, TransitionMatrix, rauzy_step
from .construction import (
    COPIES_PER_BLOCK,
    N_LABELS,
    ParameterSchedule,
    PathParameters,
    ResourceLimitError,
    integer_coordinates,
    l1_cross,
    l1_distance,
    matrix_fidelity_report,
    normalize,
    reference_column_sums,
    theta_copy,
)

BURN_IN_LEVELS = 2  # levels J-1, J are finite-seed start-up artifacts
GAP_CELLS_LOG2 = 12  # birkhoff_frequencies' max_gap grid starts with ~4096 cells
MAX_GAP_CELLS = 1 << 20  # a finer one past ~1M cells: ~0.5 GiB at 1734-bit L


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


class LevelRecords(list):
    """Records of several levels in one list; ``starts`` holds the index at
    which each level's records begin, so a writer can work level by level."""

    def __init__(self, records=()) -> None:
        super().__init__(records)
        self.starts = {0}

    def add_level(self, records) -> None:
        self.starts.add(len(self))
        self.extend(records)


class _Records:
    """Records whose non-constant sides share one positive denominator ``den``.

    A side is an int n, read as the value n / den (an integer linear form in
    a level's coordinates, read over their total), a pair (n, d) of ints
    with d > 0, read as the constant n / d, or a Fraction constant.
    ``holds`` is the sign of the cross-multiplied difference, an integer.
    With ``build`` false a call returns only that verdict and builds no
    Fraction; otherwise it returns the record, whose lhs, rhs and margin are
    built as Fractions only once per distinct value.  A margin against a
    constant is lhs - rhs, whose gcds (Knuth, TAOCP 2, 4.5.1) run on the
    constant's small denominator, not on level-sized numbers; over one
    denominator Fraction(num, den) takes one big gcd, subtraction two.
    """

    def __init__(self, den: int, build: bool = True) -> None:
        self.den = den
        self.build = build
        self._values: dict[tuple[int, int], Fraction] = {}

    def _fraction(self, num: int, den: int) -> Fraction:
        q = self._values.get((num, den))
        if q is None:
            # An integer needs no gcd.
            q = Fraction(num) if den == 1 else Fraction(num, den)
            self._values[num, den] = q
        return q

    def _value(self, side, num: int, den: int) -> Fraction:
        return side if isinstance(side, Fraction) else self._fraction(num, den)

    def _side(self, side) -> tuple[int, int]:
        if type(side) is int:
            return side, self.den
        if type(side) is tuple:
            return side
        return side.numerator, side.denominator

    def __call__(self, lemma_id: str, item: str, lhs, rhs, strict: bool = True):
        ln, ld = self._side(lhs)
        rn, rd = self._side(rhs)
        same = ld == rd
        num = ln - rn if same else ln * rd - rn * ld
        holds = num > 0 if strict else num >= 0
        if not self.build:
            return holds
        lq, rq = self._value(lhs, ln, ld), self._value(rhs, rn, rd)
        margin = self._fraction(num, ld) if same else lq - rq
        return InequalityRecord(lemma_id, item, lq, rq, margin, holds, strict)


def _projective(x: Sequence) -> tuple[tuple[int, ...], int]:
    """Integer coordinates w and total s of a level vector: x = w / s.

    A vector of ints (non-negative, not all zero) is read projectively, as
    w / sum(w).  Any other vector must have non-negative coordinates summing
    to 1; it is scaled by the lcm of its denominators.
    """
    v = tuple(x)
    if len(v) != N_LABELS:
        raise ValueError(f"expected {N_LABELS} coordinates, got {len(v)}")
    projective = all(isinstance(e, int) for e in v)
    w, s = (v, sum(v)) if projective else integer_coordinates(v)
    if any(e < 0 for e in w):
        raise ValueError("coordinates must be non-negative")
    if projective and s == 0:
        raise ValueError("coordinates must not all be zero")
    if not projective and sum(w) != s:
        raise ValueError("coordinates must sum to 1")
    return w, s


def _check_triple_shape(t: PathParameters, d: Optional[int]) -> None:
    if d is not None and (t.p2 != d * t.p1 or t.p3 != d * t.p2):
        raise ValueError(
            f"parameters {t} do not satisfy p2 = d*p1, p3 = d*p2 with d = {d}"
        )


def check_lemma1(
    x: Sequence, t: PathParameters, d: Optional[int] = None
) -> list[InequalityRecord]:
    """Coordinate inequalities for the tower seeded at basis vector 7.

    ``x`` is a level vector of that tower (non-negative, sum 1, or integer
    coordinates read as w / sum(w)); ``t`` is the parameter set of the copy
    at that level; ``d`` (optional) asserts the geometric shape p2 = d*p1,
    p3 = d*p2 of ``t`` before checking.
    """
    return _lemma1(x, t, d, build=True)


def _lemma1(x, t, d, build):
    """Lemma 1's records, or with ``build`` false only whether each holds
    (see :class:`_Records`).  So do the other suites below."""
    w, s = _projective(x)
    _check_triple_shape(t, d)
    rec = _Records(s, build)
    # x1 .. x8 are integer coordinates; an int side is read over s.
    x1, x2, x3, x4, x5, x6, x7, x8 = w
    growth = sum(c * e for c, e in zip(reference_column_sums(t), w))
    return [
        rec("L1", "x7 > 1/7", x7, (1, 7)),
        rec("L1", "2*x7 > x1", 2 * x7, x1),
        rec("L1", "2*x7 > x4", 2 * x7, x4),
        rec("L1", "2*x7 > x8", 2 * x7, x8),
        rec("L1", "4*x7 > x3", 4 * x7, x3),
        rec("L1", "x7 > x5", x7, x5),
        rec("L1", "x5 < 1/10", (1, 10), x5),
        rec("L1", "x6 > x2", x6, x2),
        rec("L1", "x3 > x7", x3, x7),
        rec("L1", "x2 < 1/p1", (1, t.p1), x2),
        rec("L1", "growth > p2/2", growth, (t.p2, 2)),
        rec("L1", "growth > 2*p1", growth, (2 * t.p1, 1)),
    ]


def check_lemma2(x: Sequence, t: PathParameters) -> list[InequalityRecord]:
    """Coordinate inequalities for the tower seeded at basis vector 5.

    The record ``x6 + x7 >= x8`` is the one non-strict inequality in the
    suite (its margin vanishes in the limit direction).
    """
    return _lemma2(x, t, build=True)


def _lemma2(x, t, build):
    w, s = _projective(x)
    rec = _Records(s, build)
    x1, x2, x3, x4, x5, x6, x7, x8 = w
    growth = sum(c * e for c, e in zip(reference_column_sums(t), w))
    return [
        rec("L2", "x5 > 1/4", x5, (1, 4)),
        rec("L2", "2*x3 > x1", 2 * x3, x1),
        rec("L2", "x3 + x5 > x1", x3 + x5, x1),
        rec("L2", "3*x6 + x7 > x4", 3 * x6 + x7, x4),
        rec("L2", "x6 + x7 >= x8", x6 + x7, x8, strict=False),
        rec("L2", "x2 < 1/p1", (1, t.p1), x2),
        rec("L2", "x6 < 7/p1", (7, t.p1), x6),
        rec("L2", "x7 < 1/p1", (1, t.p1), x7),
        rec("L2", "x8 < 22/p1", (22, t.p1), x8),
        rec("L2", "x8 < 8/p1", (8, t.p1), x8),
        rec("L2", "x4 < 22/p1", (22, t.p1), x4),
        rec("L2", "growth > p1", growth, (t.p1, 1)),
    ]


def check_lemma3(
    x: Sequence, c: int = 11, t: Optional[PathParameters] = None
) -> list[InequalityRecord]:
    """Domination records c*x2 > xi for the tower seeded at basis vector 2.

    Requires c > 10.  When ``t`` is given, also records the size
    precondition p3 > 2*p1 + 4*p2 + 61 the domination argument relies on.
    """
    return _lemma3(x, c, t, build=True)


def _check_c(c: int) -> None:
    if c <= 10:
        raise ValueError(f"c must exceed 10, got {c}")


def _lemma3(x, c, t, build):
    _check_c(c)
    w, s = _projective(x)
    rec = _Records(s, build)
    records = [
        rec("L3", f"{c}*x2 > x{i}", c * w[1], w[i - 1])
        for i in (1, 3, 4, 5, 6, 7, 8)
    ]
    if t is not None:
        records.append(rec("L3", "p3 > 2*p1 + 4*p2 + 61",
                           (t.p3, 1), (2 * t.p1 + 4 * t.p2 + 61, 1)))
    return records


def check_lemma4(
    x: Sequence, b: int = 34, t: Optional[PathParameters] = None
) -> list[InequalityRecord]:
    """Lower bound x2 > 1/b for the tower seeded at basis vector 2.

    Requires b > 33.  When ``t`` is given, also records the sufficient size
    condition (b-33)*(p3-49) > 33*49.
    """
    return _lemma4(x, b, t, build=True)


def _check_b(b: int) -> None:
    if b <= 33:
        raise ValueError(f"b must exceed 33, got {b}")


def _lemma4(x, b, t, build):
    _check_b(b)
    w, s = _projective(x)
    rec = _Records(s, build)
    records = [rec("L4", f"x2 > 1/{b}", w[1], (1, b))]
    if t is not None:
        records.append(rec("L4", f"(b-33)*(p3-49) > 33*49, b={b}",
                           ((b - 33) * (t.p3 - 49), 1), (33 * 49, 1)))
    return records


def _tower(matrices: Sequence[TransitionMatrix], seed: int):
    """The integer tower recursion, from the seed level down to level 1.

    Yields ``(j, w_j, S_j)`` for j = J+1 .. 1, where J = len(matrices),
    w_(J+1) is basis vector ``seed``, w_j = M_j * w_(j+1) with M_j =
    ``matrices[j - 1]``, and S_j = sum(w_j) > 0.
    """
    w = tuple(int(k == seed) for k in range(1, N_LABELS + 1))
    j = len(matrices) + 1
    yield j, w, 1
    for matrix in reversed(matrices):
        j -= 1
        w = matrix.mat_vec(w)
        yield j, w, sum(w)


def tower_vectors(
    schedule: ParameterSchedule,
    seed: int,
    copies: int,
    family: str = "reference",
) -> dict[int, tuple[Fraction, ...]]:
    """Level vectors of the tower seeded at basis vector ``seed``.

    Returns {level j: x^(j)} for j = 1..copies+1, where x^(copies+1) is the
    seed itself and x^(j) = normalize(M_j * x^(j+1)) with M_j the copy-j
    matrix of the chosen family.  Normalizing is scale-invariant, so the
    recursion runs on the unnormalized integer vectors w_j = M_j * w_(j+1)
    and each level is emitted as w_j / sum(w_j).
    """
    if not (1 <= seed <= N_LABELS):
        raise ValueError(f"seed must be a label in 1..{N_LABELS}")
    if copies < 1:
        raise ValueError("copies must be >= 1")
    matrices = [theta_copy(schedule, j, family) for j in range(1, copies + 1)]
    return {
        j: tuple(Fraction(e, total) for e in w)
        for j, w, total in _tower(matrices, seed)
    }


def checked_levels(m: int) -> tuple[int, ...]:
    """Levels a depth-m run checks: 1..3m-2 (the last two are burn-in)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return tuple(range(1, COPIES_PER_BLOCK * m - BURN_IN_LEVELS + 1))


class TowerRecords(Mapping):
    """One tower's inequality records by level, built each time a level is read.

    Only the integer level vectors are held (``vectors``, level -> w).
    ``check(j, w)`` builds level j's records and ``verdicts(j, w)`` says
    whether each of them holds, in the same order, on integers alone.  So a
    report that is written level by level holds one level's records at a
    time.
    """

    def __init__(self, vectors: dict[int, tuple[int, ...]], check, verdicts):
        self.vectors = vectors
        self._check = check
        self._verdicts = verdicts

    def __getitem__(self, level: int) -> list[InequalityRecord]:
        return self._check(level, self.vectors[level])

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def verdicts(self, level: int) -> list[bool]:
        return self._verdicts(level, self.vectors[level])


def lemma_towers(
    schedule: ParameterSchedule,
    m: int,
    c: int = 11,
    b: int = 34,
    family: str = "reference",
) -> dict:
    """The four inequality groups on their towers down to depth m blocks.

    Returns {"lambda7": records by level, "lambda5": ..., "lambda2": ...},
    each a :class:`TowerRecords` over the checked levels, where the lambda2
    tower carries both its domination (L3) and lower-bound (L4) records,
    and additionally the level-1 vectors under "vectors".  The checks read
    each level's integer vector w_j directly, as w_j / S_j.
    """
    levels = checked_levels(m)
    _check_c(c)
    _check_b(b)
    matrices = [theta_copy(schedule, j, family)
                for j in range(1, COPIES_PER_BLOCK * m + 1)]
    # The recursion runs from the seed level down; a tower reads upward.
    t7, t5, t2 = (
        dict(reversed([(j, w) for j, w, _ in _tower(matrices, seed)
                       if j in levels]))
        for seed in (7, 5, 2)
    )
    p, d = schedule.params, schedule.d
    return {
        "lambda7": TowerRecords(
            t7,
            lambda j, w: check_lemma1(w, p(j), d),
            lambda j, w: _lemma1(w, p(j), d, build=False),
        ),
        "lambda5": TowerRecords(
            t5,
            lambda j, w: check_lemma2(w, p(j)),
            lambda j, w: _lemma2(w, p(j), build=False),
        ),
        "lambda2": TowerRecords(
            t2,
            lambda j, w: check_lemma3(w, c, p(j)) + check_lemma4(w, b, p(j)),
            lambda j, w: (_lemma3(w, c, p(j), build=False)
                          + _lemma4(w, b, p(j), build=False)),
        ),
        "vectors": {
            "lambda7": normalize(t7[1]),
            "lambda5": normalize(t5[1]),
            "lambda2": normalize(t2[1]),
        },
    }


def check_separation(
    l2: Sequence, l5: Sequence, l7: Sequence, t: PathParameters
) -> list[InequalityRecord]:
    """Separation records showing the three directions are pairwise distinct.

    Four sums of the form (1 - x_k(u)) + x_k(v) are checked against 1 and
    against their supporting analytic bounds; the three pairwise L1
    distances are checked against the coordinate gaps implying them.
    ``t`` supplies the p1 appearing in the bounds (use the copy-1
    parameters of the schedule that produced the vectors).
    """
    (w2, s2), (w5, s5), (w7, s7) = (_projective(v) for v in (l2, l5, l7))
    one = Fraction(1)
    p1 = t.p1
    # A pair's sums and L1 distance are integers over the product of its totals.
    r57, r27, r25 = _Records(s5 * s7), _Records(s2 * s7), _Records(s2 * s5)
    s75 = (s5 - w5[6]) * s7 + w7[6] * s5  # coordinate 7: lambda7 vs lambda5
    s57 = (s7 - w7[4]) * s5 + w5[4] * s7  # coordinate 5: lambda5 vs lambda7
    s27 = (s7 - w7[1]) * s2 + w2[1] * s7  # coordinate 2: lambda2 vs lambda7
    s25 = (s5 - w5[1]) * s2 + w2[1] * s5  # coordinate 2: lambda2 vs lambda5
    d57 = l1_cross(w5, s5, w7, s7)
    d27 = l1_cross(w2, s2, w7, s7)
    d25 = l1_cross(w2, s2, w5, s5)
    b75 = (one - Fraction(1, p1)) + Fraction(1, 7)
    b57 = Fraction(9, 10) + Fraction(1, 4)
    b2x = (one - Fraction(1, p1)) + Fraction(1, 34)
    return [
        r57("SEP", "(1 - x7(l5)) + x7(l7) > 1", s75, one),
        r57("SEP", "(1 - x5(l7)) + x5(l5) > 1", s57, one),
        r27("SEP", "(1 - x2(l7)) + x2(l2) > 1", s27, one),
        r25("SEP", "(1 - x2(l5)) + x2(l2) > 1", s25, one),
        r57("SEP", "(1 - x7(l5)) + x7(l7) > (1 - 1/p1) + 1/7", s75, b75),
        r57("SEP", "(1 - x5(l7)) + x5(l5) > 9/10 + 1/4", s57, b57),
        r27("SEP", "(1 - x2(l7)) + x2(l2) > (1 - 1/p1) + 1/34", s27, b2x),
        r25("SEP", "(1 - x2(l5)) + x2(l2) > (1 - 1/p1) + 1/34", s25, b2x),
        r57("SEP", "L1(l5, l7) > 1/7 - 1/p1",
            d57, Fraction(1, 7) - Fraction(1, p1)),
        r57("SEP", "L1(l5, l7) > 1/4 - 1/10",
            d57, Fraction(1, 4) - Fraction(1, 10)),
        r27("SEP", "L1(l2, l7) > 1/34 - 1/p1",
            d27, Fraction(1, 34) - Fraction(1, p1)),
        r25("SEP", "L1(l2, l5) > 1/34 - 1/p1",
            d25, Fraction(1, 34) - Fraction(1, p1)),
    ]


def verify_all(
    schedule: ParameterSchedule,
    m: int,
    c: int = 11,
    b: int = 34,
    family: str = "reference",
    include_matrix_report: bool = True,
) -> dict:
    """Full verification pipeline at depth m blocks.

    Returns a report with the schedule's validity flags, every tower
    inequality record at every checked level (under "towers", one
    :class:`TowerRecords` per tower, which builds a level when it is read),
    the separation records on the level-1 vectors, the count and the list
    of failing records (a :class:`LevelRecords`, the separation's first),
    and (optionally) the matrix fidelity report.  The
    "passed" flag is True iff every record holds AND, when the fidelity
    report is included, the reference-family sum identities hold AND, at
    each fidelity parameter set, the two families are equal entry-wise or
    some entry of the computed matrix moves with p4 or p5.  That last
    condition does not check that the differing entries are among those
    moving with p4 or p5 (its flag, ``discrepancy_isolated``, is looser
    than its name).
    """
    towers = lemma_towers(schedule, m, c, b, family)
    separation = check_separation(
        towers["lambda2"].vectors[1],
        towers["lambda5"].vectors[1],
        towers["lambda7"].vectors[1],
        schedule.params(1),
    )
    # Every verdict is decided on integers first, and only a level with a
    # failing record is built here, so the totals and the failing records
    # are known before any level is written.
    total = len(separation)
    failing = LevelRecords(r for r in separation if not r.holds)
    for key in ("lambda7", "lambda5", "lambda2"):
        tower = towers[key]
        for level in tower:
            verdicts = tower.verdicts(level)
            total += len(verdicts)
            if not all(verdicts):
                failing.add_level(r for r in tower[level] if not r.holds)
    report = {
        "schedule": schedule,
        "validity": schedule.validity(b),
        "depth": m,
        "family": family,
        "checked_levels": checked_levels(m),
        "towers": towers,
        "separation": separation,
        "records_total": total,
        "records_failing": failing,
    }
    matrix_ok = True
    if include_matrix_report:
        fidelity = matrix_fidelity_report()
        report["matrix_fidelity"] = fidelity
        matrix_ok = fidelity["reference_identities_hold"] and (
            fidelity["entrywise_equal"] or fidelity["discrepancy_isolated"]
        )
    report["passed"] = not report["records_failing"] and matrix_ok
    return report


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
    return tuple((lo + hi) / 2 for _, lo, hi in domain_partition(f))


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
    closed form (see :func:`fiet.core._walk`): the run's points are arithmetic
    progressions, monotone, so each is kept inside its tile, and off a
    flipped tile's left end, by its last term; a periodic orbit (delta =
    0) jumps straight to its horizon.  A run's window is walked by its own
    inner runs, to any depth.  Counts and ``max_gap`` stay exact, and the
    cost grows with the number of runs, not of steps.
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
    """
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        f = _random_fiet(rng)
        lt = f.length_of(f.comb.pi0[-1])
        lb = f.length_of(f.comb.pi1[-1])
        cut = f.total_length - min(lt, lb)
        stepped, _ = rauzy_step(f)
        try:
            returned = first_return(f, cut)
        except Exception as exc:  # noqa: BLE001 - recorded, not silenced
            failures.append({"trial": trial, "fiet": f, "error": repr(exc)})
            continue
        if stepped != returned:
            failures.append({"trial": trial, "fiet": f,
                             "stepped": stepped, "returned": returned})
    return {"trials": trials, "passes": trials - len(failures), "failures": failures}


def _random_fiet(rng: random.Random) -> Fiet:
    while True:
        n = rng.randint(2, 8)
        pi0 = list(range(1, n + 1))
        pi1 = list(range(1, n + 1))
        rng.shuffle(pi0)
        rng.shuffle(pi1)
        if pi0[-1] == pi1[-1]:
            continue
        flips = frozenset(k for k in range(1, n + 1) if rng.random() < 0.5)
        lengths = tuple(
            [Fraction(rng.randint(1, 60), rng.randint(1, 30)) for _ in range(n)]
        )
        f = Fiet(FietCombinatorics(n, tuple(pi0), tuple(pi1), flips), lengths)
        if f.length_of(pi0[-1]) != f.length_of(pi1[-1]):
            return f
