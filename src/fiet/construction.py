"""The explicit 8-interval construction and its renormalization matrices.

The base datum is an 8-interval FIET combinatorics with six flipped labels.
A parameterized induction path ``gamma(p1..p5)`` (30 fixed letters plus five
parameter-length runs) ends on the base state relabelled by
sigma = (2->4, 4->3, 3->2).  sigma has order three, so three consecutive
applications return exactly to the base state, and blocks of three form a
closed renormalization scheme.

A matrix family is one entry of :data:`FAMILIES`: a word, and whether copy
j starts on cycle state (j-1) mod 3 or on the base state.  Copy j's matrix
is its word threaded from the state the copy starts on, evaluated at copy
j's parameters.  :func:`base_copy` threads each (word, start state) pair
once per process, with its parameters as symbols, by the run rule of
:func:`fiet.induction.thread_runs`.  Each parameter run must start on a
state its letter fixes, so the end state does not depend on the parameters
and the polynomial is multilinear; gamma's from the base state, M0, has
nine terms: 1, p1..p5, p1*p2, p1*p3 and p4*p5.  A step never looks at label
names, so from cycle state k (the base relabelled by sigma^k) gamma gives
P^k M0 P^-k with P e_j = e_sigma(j), and a computed block is the product of
M0(p_j) P over its three copies.

The **computed** family, (gamma, cycle state), drives length-driven
induction along the path letter for letter and gives the limit lengths,
simulation and contraction; a test checks each of its copies on the map
(see :mod:`fiet.verify`).  The **reference** family, (gamma_ref(p1, p2,
p3), base state), gives the expansion coefficients of the inequality suite
in :mod:`fiet.verify`, which uses it by default; its tower is the map's at
copy 1 only.  The families differ entry-wise; :func:`matrix_fidelity_report`
reports how, exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .core import FietCombinatorics, FietError, Record, exact_int
from .induction import RauzyPath, TransitionMatrix, apply_path, thread_runs

N_LABELS = 8
BASE_PI0 = (1, 2, 3, 4, 5, 6, 7, 8)
BASE_PI1 = (4, 5, 6, 7, 2, 1, 8, 3)
BASE_FLIPS = frozenset({2, 3, 4, 5, 6, 7})

COPIES_PER_BLOCK = 3


class ConstructionBrokenError(FietError):
    """The path did not return the combinatorics to the expected state."""


class ResourceLimitError(FietError):
    """A computation would exceed the configured size budget.

    ``partial`` carries whatever report was completed before the limit hit
    (or None).
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


def base_datum() -> FietCombinatorics:
    """The 8-interval combinatorics the construction starts from."""
    return FietCombinatorics(N_LABELS, BASE_PI0, BASE_PI1, BASE_FLIPS)


class PathParameters(Record):
    """Run lengths (p1..p5) of the five parameterized runs of the path."""

    p1: int
    p2: int
    p3: int
    p4: int
    p5: int

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "p3", "p4", "p5"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")


# The induction word as (letter, count) runs; a str count names a parameter.
PATH_RUNS = (
    ("a", 4), ("b", 2), ("a", 1), ("b", 2), ("a", 1), ("b", 1), ("a", "p1"),
    ("b", 1), ("a", 1), ("b", "p2"), ("a", 1), ("b", 2), ("a", "p3"),
    ("b", 1), ("a", 4), ("b", "p4"), ("a", 1), ("b", 2), ("a", 1), ("b", 2),
    ("a", "p5"), ("b", 2), ("a", 1),
)

# The reference word gamma_ref: 38 fixed letters and runs p1, p2, p3.
REFERENCE_RUNS = (
    ("a", 4), ("b", 2), ("a", 5), ("b", 3), ("a", 3), ("b", 1), ("a", "p1"),
    ("b", 1), ("a", 3), ("b", 1), ("a", 5), ("b", 3), ("a", "p2"), ("b", 1),
    ("a", 2), ("b", 1), ("a", 1), ("b", 1), ("a", 1), ("b", "p3"),
)


def build_path(t: PathParameters) -> RauzyPath:
    """The parameterized induction word, run-length encoded.

    Expanded, it reads ``aaaabbabbab a^p1 ba b^p2 abb a^p3 baaaa b^p4
    abbabb a^p5 bba`` (30 fixed letters plus the five parameter runs).
    """
    return RauzyPath(tuple((letter, getattr(t, run) if isinstance(run, str) else run)
                           for letter, run in PATH_RUNS))


def theta_gamma_p(
    t: PathParameters, start: Optional[FietCombinatorics] = None
) -> tuple[FietCombinatorics, TransitionMatrix]:
    """Thread the path from ``start`` (default: base datum); returns (state, matrix)."""
    return apply_path(start if start is not None else base_datum(), build_path(t))


def polynomial_at(poly: Mapping, t: PathParameters) -> TransitionMatrix:
    """The matrix of a copy polynomial evaluated at the run lengths ``t``."""
    terms = [(math.prod(getattr(t, p) for p in m), cols) for m, cols in poly.items()]
    return TransitionMatrix(tuple(
        tuple(sum(c * cols[j][i] for c, cols in terms) for j in range(N_LABELS))
        for i in range(N_LABELS)
    ))


def _relabel(state: FietCombinatorics, s: Sequence[int]) -> FietCombinatorics:
    """``state`` with each label a renamed s[a - 1]."""
    return FietCombinatorics(state.n, tuple(s[a - 1] for a in state.pi0),
                             tuple(s[a - 1] for a in state.pi1),
                             frozenset(s[a - 1] for a in state.flips))


def _power(sigma: Sequence[int], k: int) -> tuple[int, ...]:
    """sigma^k (k >= 0) as the images of labels 1..n."""
    out = tuple(range(1, len(sigma) + 1))
    for _ in range(k):
        out = tuple(sigma[a - 1] for a in out)
    return out


# Each matrix family: its word, and whether copy j starts on cycle state
# (j - 1) mod 3 (True) or on the base state (False).
FAMILIES = {"computed": (PATH_RUNS, True), "reference": (REFERENCE_RUNS, False)}


@lru_cache(maxsize=4)  # the (word, start state) pairs of FAMILIES
def base_copy(
    runs: Sequence, start: FietCombinatorics
) -> tuple[Mapping, tuple[int, ...]]:
    """(M, sigma): the copy polynomial of ``runs`` threaded from ``start``
    and its relabelling.

    M is read-only: it maps each monomial (a sorted tuple of parameter
    names) to its integer coefficient columns.  sigma, as the images of
    labels 1..8, is read off the end state: sigma(start.pi0[i]) =
    end.pi0[i].  A step never looks at label names, so "the end state is
    the start relabelled by sigma, and sigma^3 = id" is "three copies
    return to the start state"; a failure, or a parameter run that starts
    on a state its letter moves, raises :class:`ConstructionBrokenError`.
    """
    try:
        end, poly = thread_runs(start, runs)
    except ValueError as exc:
        raise ConstructionBrokenError(str(exc)) from None
    image = dict(zip(start.pi0, end.pi0))
    sigma = tuple(image[a] for a in range(1, N_LABELS + 1))
    if _relabel(start, sigma) != end:
        raise ConstructionBrokenError("the end state is not a relabelled start state")
    if _power(sigma, COPIES_PER_BLOCK) != _power(sigma, 0):
        raise ConstructionBrokenError("three copies did not return to the start state")
    return MappingProxyType({m: tuple(map(tuple, c)) for m, c in poly.items()}), sigma


def cycle_states() -> tuple[FietCombinatorics, ...]:
    """The three states visited by consecutive path applications: the base
    state relabelled by sigma^k for k = 0, 1, 2 (see :func:`base_copy`)."""
    sigma = base_copy(PATH_RUNS, base_datum())[1]
    return tuple(_relabel(base_datum(), _power(sigma, k))
                 for k in range(COPIES_PER_BLOCK))


def reference_theta(t: PathParameters) -> TransitionMatrix:
    """The reference matrix: the copy polynomial of gamma_ref at (p1, p2, p3).

    Its column sums are the eight expansion coefficients consumed by the
    inequality suite; p4 and p5 do not appear.
    """
    return polynomial_at(base_copy(FAMILIES["reference"][0], base_datum())[0], t)


def reference_column_sums(t: PathParameters) -> tuple[int, ...]:
    """Closed-form column sums of the reference matrix (expansion coefficients)."""
    p1, p2, p3 = t.p1, t.p2, t.p3
    return (32, 32 * p3 + 27, 3 * p1 + 12, 49, 3 * p1 + 15,
            6 * p2 + 21, 6 * p2 + 27, 32)


def reference_row_sums(t: PathParameters) -> tuple[int, ...]:
    """Closed-form row sums of the reference matrix."""
    p1, p2, p3 = t.p1, t.p2, t.p3
    return (
        8 * p3 + 2 * p1 + 2 * p2 + 59,
        p3 + 5,
        9 * p3 + 2 * p1 + 4 * p2 + 61,
        6 * p3 + 2 * p2 + 41,
        2 * p1 + 1,
        4 * p3 + 25,
        2 * p2 + 1,
        4 * p3 + 2 * p2 + 22,
    )


# The parameters the runs p4 and p5 may copy: the choices of a schedule's
# p4_rule and p5_rule.
RULES = ("p1", "p2", "p3")

# The named schedules: each label's own d, p1_1 and rules.
NAMED_SCHEDULES = {
    "relaxed": {"d": 128, "p1_1": 256, "p4_rule": "p2", "p5_rule": "p1"},
    "strict": {"d": 125001, "p1_1": 125002, "p4_rule": "p2", "p5_rule": "p1"},
}


class ParameterSchedule(Record):
    """Geometric growth schedule for the per-copy parameters.

    Copy j (1-based) uses p1 = p1_1 * d**(3*(j-1)), p2 = d * p1, p3 = d * p2,
    so consecutive copies satisfy p1^(j+1) = d * p3^(j).  The runs p4 and p5
    are tied to the others by ``p4_rule`` / ``p5_rule`` (one of
    :data:`RULES`); they influence the dynamics but not the reference matrices.
    ``mode`` is "custom" or the name of the :data:`NAMED_SCHEDULES` entry
    whose values the schedule has.
    """

    d: int
    p1_1: int
    p4_rule: str
    p5_rule: str
    mode: str

    def __init__(self, d: int, p1_1: int, p4_rule: str = "p2",
                 p5_rule: str = "p1", mode: str = "custom") -> None:
        d = exact_int(d, "d")
        p1_1 = exact_int(p1_1, "p1_1")
        if d < 2:
            raise ValueError("d must be >= 2")
        if p1_1 < 1:
            raise ValueError("p1_1 must be >= 1")
        values = {"d": d, "p1_1": p1_1, "p4_rule": p4_rule, "p5_rule": p5_rule}
        for name in ("p4_rule", "p5_rule"):
            if values[name] not in RULES:
                raise ValueError(f"{name} must be one of "
                                 f"{', '.join(map(repr, RULES))}")
        if mode != "custom" and NAMED_SCHEDULES.get(mode) != values:
            raise ValueError(
                f"mode must be 'custom', or a name in {sorted(NAMED_SCHEDULES)} "
                f"with that schedule's values; got {mode!r} with {values}"
            )
        for name, value in zip(self._fields, (d, p1_1, p4_rule, p5_rule, mode)):
            object.__setattr__(self, name, value)

    @classmethod
    def relaxed(cls) -> "ParameterSchedule":
        """Small parameters: fast exact runs; two size conditions unmet (reported)."""
        return cls(**NAMED_SCHEDULES["relaxed"], mode="relaxed")

    @classmethod
    def strict(cls) -> "ParameterSchedule":
        """Parameters satisfying every recorded size condition, d > 50**3."""
        return cls(**NAMED_SCHEDULES["strict"], mode="strict")

    def p_triple(self, j: int) -> tuple[int, int, int]:
        """(p1, p2, p3) for copy j (1-based)."""
        if j < 1:
            raise ValueError("copy index is 1-based")
        p1 = self.p1_1 * self.d ** (3 * (j - 1))
        return (p1, self.d * p1, self.d * self.d * p1)

    def params(self, j: int) -> PathParameters:
        p, rule = self.p_triple(j), RULES.index
        return PathParameters(*p, p[rule(self.p4_rule)], p[rule(self.p5_rule)])

    def validity(self, b: int = 34) -> dict[str, bool]:
        """Each named size condition used by the inequality suite, evaluated

        at its weakest point (copy 1, where the parameters are smallest),
        with ``b`` the lower-bound denominator of the lambda2 tower.
        Unmet conditions do not stop any computation; they are reported so a
        run can state exactly which supporting constants its schedule lacks.
        """
        p1, p2, p3 = self.p_triple(1)
        return {
            "d > 5": self.d > 5,
            "d > 56": self.d > 56,
            "d > 72": self.d > 72,
            "d > 110": self.d > 110,
            "d > 231": self.d > 231,
            "d > 50^3": self.d > 50**3,
            "p1 > 45": p1 > 45,
            "p2 - 1 > 30": p2 - 1 > 30,
            "p2 - 3 > 58": p2 - 3 > 58,
            "p3 > 2*p1 + 4*p2 + 61": p3 > 2 * p1 + 4 * p2 + 61,
            "(b-33)*(p3-49) > 33*49": (b - 33) * (p3 - 49) > 33 * 49,
        }


def theta_copy(
    schedule: ParameterSchedule, j: int, family: str = "computed"
) -> TransitionMatrix:
    """Transition matrix of copy j under the schedule: the family's word
    threaded from the state copy j starts on (see :data:`FAMILIES`) at copy
    j's parameters.  A computed copy starts on cycle state k = (j-1) mod 3,
    so its matrix is P^k M0 P^-k."""
    try:
        runs, relabel = FAMILIES[family]
    except KeyError:
        raise ValueError(f"family must be {' or '.join(map(repr, FAMILIES))}, "
                         f"got {family!r}") from None
    start = cycle_states()[(j - 1) % COPIES_PER_BLOCK if relabel else 0]
    return polynomial_at(base_copy(runs, start)[0], schedule.params(j))


def theta_block(
    schedule: ParameterSchedule, i: int, family: str = "computed"
) -> TransitionMatrix:
    """Product matrix of block i = copies 3i-2, 3i-1, 3i (returns to base state).

    For the computed family, P^3 = I makes this the product of M0(p_j) P over
    the block's three copies j.
    """
    if i < 1:
        raise ValueError("block index is 1-based")
    first = COPIES_PER_BLOCK * (i - 1) + 1
    total = TransitionMatrix.identity(N_LABELS)
    for j in range(first, first + COPIES_PER_BLOCK):
        total = total @ theta_copy(schedule, j, family)
    return total


def integer_coordinates(vec: Sequence) -> tuple[tuple[int, ...], int]:
    """(w, D) with vec = w / D, where D is the lcm of the denominators."""
    fr = tuple(Fraction(v) for v in vec)
    den = math.lcm(*(q.denominator for q in fr))
    return tuple(q.numerator * (den // q.denominator) for q in fr), den


def normalize(vec: Sequence) -> tuple[Fraction, ...]:
    """Scale a non-negative, non-zero vector to sum 1 (exact)."""
    w, _ = integer_coordinates(vec)
    if any(e < 0 for e in w):
        raise ValueError("vector has a negative entry")
    s = sum(w)
    if s == 0:
        raise ValueError("vector is zero")
    return tuple(Fraction(e, s) for e in w)


def l1_distance(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum((abs(Fraction(a) - Fraction(b)) for a, b in zip(u, v)), Fraction(0))


def l1_cross(u: Sequence[int], su: int, v: Sequence[int], sv: int) -> int:
    """The L1 distance of u/su and v/sv, times su*sv (integers, su, sv > 0).

    It is sv * sum(+-a) - su * sum(+-b), each sign that of a*sv - b*su as
    plain ints, so for integers that carry a decimal twin
    (:class:`fiet.twins.Twin`) only two twin products are taken.
    """
    isu, isv = int(su), int(sv)
    pu = pv = 0
    for a, b in zip(u, v):
        if int(a) * isv >= int(b) * isu:
            pu, pv = pu + a, pv + b
        else:
            pu, pv = pu - a, pv - b
    return pu * sv - pv * su


class LimitReport(Record):
    """Normalized images of the three seed directions after m blocks."""

    m: int
    family: str
    lambda2: tuple[Fraction, ...]
    lambda5: tuple[Fraction, ...]
    lambda7: tuple[Fraction, ...]
    alpha: tuple[Fraction, ...]
    contraction_diameter: Fraction


SEED_LABELS = (2, 5, 7)


def limit_vectors(
    schedule: ParameterSchedule,
    m: int,
    family: str = "computed",
    max_entry_bits: int = 4_000_000,
) -> LimitReport:
    """Normalized columns 2, 5, 7 and the image of the all-ones direction
    after m blocks.

    ``lambdaK`` is the normalized image of the K-th basis vector under the
    product of the first 3m copy matrices; ``alpha`` is the normalized image
    of (1, ..., 1), the product's row sums.  ``contraction_diameter`` is the
    largest pairwise L1 distance between the eight normalized columns — the
    exact diameter of the image of the whole simplex.

    Raises :class:`ResourceLimitError` (carrying a partial report over the
    blocks completed so far) if any matrix entry would exceed
    ``max_entry_bits`` bits.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    total = theta_block(schedule, 1, family)
    for i in range(2, m + 1):
        bits = max(e.bit_length() for row in total.rows for e in row)
        if bits > max_entry_bits:
            raise ResourceLimitError(
                f"matrix entries reached {bits} bits after block {i - 1} "
                f"(budget {max_entry_bits}); partial report attached",
                partial=_report_from_product(total, i - 1, family),
            )
        total = total @ theta_block(schedule, i, family)
    return _report_from_product(total, m, family)


def _report_from_product(
    total: TransitionMatrix, m: int, family: str
) -> LimitReport:
    cols = [total.column(j) for j in range(1, N_LABELS + 1)]
    sums = total.column_sums()
    # L1(c_i/s_i, c_j/s_j) = n / (s_i*s_j) with n = l1_cross(...); the pairs
    # are compared by cross-multiplying, and only the largest becomes a Fraction.
    best_num, best_den = 0, 1
    for i in range(N_LABELS):
        for j in range(i + 1, N_LABELS):
            num = l1_cross(cols[i], sums[i], cols[j], sums[j])
            den = sums[i] * sums[j]
            if num * best_den > best_num * den:
                best_num, best_den = num, den
    return LimitReport(
        m=m,
        family=family,
        lambda2=normalize(cols[1]),
        lambda5=normalize(cols[4]),
        lambda7=normalize(cols[6]),
        alpha=normalize(total.row_sums()),
        contraction_diameter=Fraction(best_num, best_den),
    )


_DEFAULT_FIDELITY_PARAMS = (
    PathParameters(2, 3, 4, 3, 2),
    PathParameters(3, 5, 7, 5, 3),
    PathParameters(10, 20, 40, 20, 10),
)


def matrix_fidelity_report(
    params_list: Sequence[PathParameters] = _DEFAULT_FIDELITY_PARAMS,
) -> dict:
    """Exact comparison of the computed and reference families, per parameter set.

    For each parameter set (from the base state) the report carries both
    matrices, whether they agree entry-wise, the differing entries, both
    column-sum vectors, whether the reference column and row sums match their
    closed-form formulas, and the computed entries that move with p4 and with
    p5: those with a p4 (p5) term in the non-negative copy polynomial.
    """
    poly = base_copy(FAMILIES["computed"][0], base_datum())[0]
    end = cycle_states()[1]
    dependent = {p: tuple(
        (i + 1, j + 1) for i in range(N_LABELS) for j in range(N_LABELS)
        if any(cols[j][i] for mono, cols in poly.items() if p in mono)
    ) for p in ("p4", "p5")}
    cases = []
    for t in params_list:
        computed = polynomial_at(poly, t)
        reference = reference_theta(t)
        diffs = tuple(
            (i + 1, j + 1, computed.rows[i][j], reference.rows[i][j])
            for i in range(N_LABELS)
            for j in range(N_LABELS)
            if computed.rows[i][j] != reference.rows[i][j]
        )
        cases.append({
            "params": t,
            "end_state": end,
            "computed": computed,
            "reference": reference,
            "entrywise_equal": not diffs,
            "differing_entries": diffs,
            "computed_column_sums": computed.column_sums(),
            "reference_column_sums": reference.column_sums(),
            "reference_column_sums_match_formula":
                reference.column_sums() == reference_column_sums(t),
            "reference_row_sums_match_formula":
                reference.row_sums() == reference_row_sums(t),
            "p4_dependent_entries": dependent["p4"],
            "p5_dependent_entries": dependent["p5"],
        })
    return {
        "cases": cases,
        "entrywise_equal": all(c["entrywise_equal"] for c in cases),
        "reference_identities_hold": all(
            c["reference_column_sums_match_formula"]
            and c["reference_row_sums_match_formula"]
            for c in cases
        ),
        "discrepancy_isolated": all(
            c["entrywise_equal"]
            or (c["p4_dependent_entries"] or c["p5_dependent_entries"])
            for c in cases
        ),
    }
