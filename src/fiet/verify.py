"""Machine verification: inequality suites, towers and separations.

The invariant-measure argument rests on four groups of coordinate
inequalities (here ``L1`` .. ``L4``) about normalized vectors produced by the
renormalization towers, plus separation sums showing the three limit
directions are distinct.  Every check is exact and never rounds.  A level
vector is carried as integers w with total S = sum(w), and each record side
is an integer linear form in w read over S, or a constant; a record holds
by the sign of a cross-multiplied integer, and its sides and margin become
``Fraction`` values only for the report.  Each level vector is also carried
as an exact decimal twin (:mod:`fiet.twins`), from which the report takes
the digits of those values.

Tower convention: with J = 3m copies scheduled, the level-j vector is the
normalized image of the seed basis vector under the copy matrices j..J
(applied right to left).  Levels J-1 and J are start-up artifacts of the
finite seed, so a depth-m run checks levels 1..3m-2.  Copy j's matrix is
its family's word threaded from the state copy j starts on
(:data:`fiet.construction.FAMILIES`), so a computed level-j vector is in
the frame of cycle state j-1: it is P^(j-1) A_j ... A_J e_seed with A_j =
M0(p_j) P.  A test walks each computed copy k on the map: with F_k the map
of cycle state k mod 3 and lengths theta_(k+1) ... theta_J (1, ..., 1),
from two points of each tile a of F_k, F_(k-1) counts column a of theta_k
and ends at F_k's image.  The reference tower passes at copy 1 only.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from typing import Optional

from .core import Record, _set
from .induction import TransitionMatrix
from .construction import (
    COPIES_PER_BLOCK,
    N_LABELS,
    ParameterSchedule,
    PathParameters,
    integer_coordinates,
    l1_cross,
    matrix_fidelity_report,
    reference_column_sums,
    theta_copy,
)
# The orbit statistics and the oracle cross-check, importable from here too.
from .orbits import (  # noqa: F401
    FrequencyReport,
    StartResult,
    _random_fiet,
    birkhoff_frequencies,
    frequency_l1_gaps,
    midpoint_starts,
    oracle_crosscheck,
)
from .twins import Twin, fraction, twin_vector, with_twins, mat_vec as decimal_mat_vec

BURN_IN_LEVELS = 2  # levels J-1, J are finite-seed start-up artifacts


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


class _Records:
    """Records whose non-constant sides share one positive denominator ``den``.

    A side is an int n, read as the value n / den (an integer linear form in
    a level's coordinates, read over their total), or a pair (n, d) of ints
    with d > 0, read as the constant n / d.
    ``holds`` is the sign of the cross-multiplied difference, an integer.
    With ``build`` false a call returns only that verdict and builds no
    Fraction; otherwise it returns the record, whose lhs, rhs and margin are
    built as Fractions only once per distinct value.  A margin against a
    constant is lhs - rhs, whose gcds (Knuth, TAOCP 2, 4.5.1) run on the
    constant's small denominator, not on level-sized numbers; over one
    denominator Fraction(num, den) takes one big gcd, subtraction two.

    When the int sides and ``den`` are :class:`~fiet.twins.Twin` values, so
    is the cross-multiplied difference, and every value read over them is a
    :class:`~fiet.twins.TwinFraction` that carries the decimal digits of its
    terms.
    """

    def __init__(self, den: int, build: bool = True) -> None:
        self.den = den
        self.build = build
        self._values: dict[tuple[int, int], Fraction] = {}

    def _fraction(self, num: int, den: int) -> Fraction:
        q = self._values.get((num, den))
        if q is None:
            # An integer needs no gcd.
            q = Fraction(num) if den == 1 else fraction(num, den)
            self._values[num, den] = q
        return q

    def _side(self, side) -> tuple[int, int]:
        return (side, self.den) if isinstance(side, int) else side

    def __call__(self, lemma_id: str, item: str, lhs, rhs, strict: bool = True):
        ln, ld = self._side(lhs)
        rn, rd = self._side(rhs)
        same = ld == rd
        num = ln - rn if same else ln * rd - rn * ld
        holds = num > 0 if strict else num >= 0
        if not self.build:
            return holds
        lq, rq = self._fraction(ln, ld), self._fraction(rn, rd)
        if same:
            margin = self._fraction(num, ld)
        else:
            margin = lq - rq
            if type(num) is Twin:
                margin = with_twins(margin, num, ld * rd)
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
    """The tower recursion, from the seed level down to level 1.

    Yields ``(j, w_j, dec_j)`` for j = J+1 .. 1, where J = len(matrices),
    w_(J+1) is basis vector ``seed``, w_j = M_j * w_(j+1) with M_j =
    ``matrices[j - 1]``, and dec_j is w_j's exact decimal twin, made by the
    same product (see :mod:`fiet.twins`).
    """
    w = dec = tuple(int(k == seed) for k in range(1, N_LABELS + 1))
    j = len(matrices) + 1
    yield j, w, dec
    for matrix in reversed(matrices):
        j -= 1
        w, dec = matrix.mat_vec(w), decimal_mat_vec(matrix.rows, dec)
        yield j, w, dec


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
    return {j: _normalized(w) for j, w, _ in _tower(matrices, seed)}


def _normalized(w: Sequence[int]) -> tuple[Fraction, ...]:
    """w / sum(w) for non-negative ints w, not all zero; twins give twin
    fractions."""
    s = sum(w)
    return tuple(fraction(e, s) for e in w)


def checked_levels(m: int) -> tuple[int, ...]:
    """Levels a depth-m run checks: 1..3m-2 (the last two are burn-in)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return tuple(range(1, COPIES_PER_BLOCK * m - BURN_IN_LEVELS + 1))


class TowerRecords(Mapping):
    """One tower's inequality records by level, built each time a level is read.

    Only the level vectors are held, in ``levels``: level -> (w, dec), the
    integers w and their decimal twins.  ``suite(j, w, build)`` is the
    tower's inequality suite at level j, as :class:`_Records` gives it.
    ``level(j)`` is level j's vector of :class:`~fiet.twins.Twin` values;
    ``tower[j]`` is a :class:`LevelRecords` that builds the suite's records
    on it each time it is iterated, so their values carry their digits, and
    ``verdicts(j)`` says whether each of them holds, in the same order, on
    the integers alone.  So a report that is written level by level holds
    one level's records at a time.
    """

    def __init__(self, levels: dict[int, tuple], suite):
        self.levels = levels
        self._suite = suite

    def level(self, level: int) -> tuple[Twin, ...]:
        return twin_vector(*self.levels[level])

    def __getitem__(self, level: int) -> LevelRecords:
        return LevelRecords(lambda: self._suite(level, self.level(level), True),
                            len(self.verdicts(level)))

    def __iter__(self):
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)

    def verdicts(self, level: int) -> list[bool]:
        return self._suite(level, self.levels[level][0], False)


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
    each level's integer vector w_j directly, as w_j / S_j; one recursion
    per tower makes w_j and its decimal twin.
    """
    levels = checked_levels(m)
    _check_c(c)
    _check_b(b)
    matrices = [theta_copy(schedule, j, family)
                for j in range(1, COPIES_PER_BLOCK * m + 1)]

    def checked(seed: int) -> dict:
        # The recursion runs from the seed level down; a tower reads upward.
        return dict(reversed([(j, (w, dec)) for j, w, dec in _tower(matrices, seed)
                              if j in levels]))

    # Records are built through the public checks, which a traced run counts.
    p, d = schedule.params, schedule.d
    towers = {
        "lambda7": TowerRecords(checked(7), lambda j, w, build: (
            check_lemma1(w, p(j), d) if build else _lemma1(w, p(j), d, build))),
        "lambda5": TowerRecords(checked(5), lambda j, w, build: (
            check_lemma2(w, p(j)) if build else _lemma2(w, p(j), build))),
        "lambda2": TowerRecords(checked(2), lambda j, w, build: (
            check_lemma3(w, c, p(j)) + check_lemma4(w, b, p(j)) if build
            else _lemma3(w, c, p(j), build) + _lemma4(w, b, p(j), build))),
    }
    towers["vectors"] = {key: _normalized(tower.level(1))
                         for key, tower in towers.items()}
    return towers


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
    one = (1, 1)
    b75 = (8 * p1 - 7, 7 * p1)  # (1 - 1/p1) + 1/7
    b57 = (23, 20)  # 9/10 + 1/4
    b2x = (35 * p1 - 34, 34 * p1)  # (1 - 1/p1) + 1/34
    return [
        r57("SEP", "(1 - x7(l5)) + x7(l7) > 1", s75, one),
        r57("SEP", "(1 - x5(l7)) + x5(l5) > 1", s57, one),
        r27("SEP", "(1 - x2(l7)) + x2(l2) > 1", s27, one),
        r25("SEP", "(1 - x2(l5)) + x2(l2) > 1", s25, one),
        r57("SEP", "(1 - x7(l5)) + x7(l7) > (1 - 1/p1) + 1/7", s75, b75),
        r57("SEP", "(1 - x5(l7)) + x5(l5) > 9/10 + 1/4", s57, b57),
        r27("SEP", "(1 - x2(l7)) + x2(l2) > (1 - 1/p1) + 1/34", s27, b2x),
        r25("SEP", "(1 - x2(l5)) + x2(l2) > (1 - 1/p1) + 1/34", s25, b2x),
        r57("SEP", "L1(l5, l7) > 1/7 - 1/p1", d57, (p1 - 7, 7 * p1)),
        r57("SEP", "L1(l5, l7) > 1/4 - 1/10", d57, (3, 20)),
        r27("SEP", "L1(l2, l7) > 1/34 - 1/p1", d27, (p1 - 34, 34 * p1)),
        r25("SEP", "L1(l2, l5) > 1/34 - 1/p1", d25, (p1 - 34, 34 * p1)),
    ]


def _failing(tower: TowerRecords, level: int):
    """A callable that builds the failing records of one tower level."""
    return lambda: [r for r in tower[level] if not r.holds]


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
    of failing records (a :class:`LevelRecords`, the separation's first,
    then each tower level's, built when read),
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
        towers["lambda2"].level(1),
        towers["lambda5"].level(1),
        towers["lambda7"].level(1),
        schedule.params(1),
    )
    # Every verdict is decided on integers first, so the totals and the
    # number of failing records are known before any level is built; a
    # level with a failing record is built again whenever the failing list
    # is read, so those records are never held.
    total = len(separation)
    failing = LevelRecords(r for r in separation if not r.holds)
    for key in ("lambda7", "lambda5", "lambda2"):
        tower = towers[key]
        for level in tower:
            verdicts = tower.verdicts(level)
            total += len(verdicts)
            if not all(verdicts):
                failing.add_level(_failing(tower, level), verdicts.count(False))
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
