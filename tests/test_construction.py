"""Tests for the 8-interval construction, its schedules, and matrix families."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiet import (
    ConstructionBrokenError,
    Fiet,
    FietCombinatorics,
    ParameterSchedule,
    PathParameters,
    RauzyPath,
    ResourceLimitError,
    SEED_LABELS,
    TransitionMatrix,
    apply_path,
    base_datum,
    build_path,
    cycle_states,
    is_irreducible,
    l1_distance,
    length_driven_letters,
    limit_vectors,
    matrix_fidelity_report,
    normalize,
    reference_column_sums,
    reference_row_sums,
    reference_theta,
    symbolic_step,
    theta_block,
    theta_copy,
    theta_gamma_p,
)
import fiet.construction as construction
from fiet.construction import (
    PATH_RUNS,
    REFERENCE_RUNS,
    base_copy,
    copy_polynomial,
    polynomial_at,
)

ONES = PathParameters(1, 1, 1, 1, 1)

# Expanded path word for unit run lengths: the 30 fixed letters with each
# parameterized run contributing one letter.
WORD_ALL_ONES = (
    "aaaabbabbab" "a" "ba" "b" "abb" "a" "baaaa" "b" "abbabb" "a" "bba"
)

# Combinatorial states visited by consecutive path applications.
STATE_1 = FietCombinatorics(
    8,
    (1, 4, 2, 3, 5, 6, 7, 8),
    (3, 5, 6, 7, 4, 1, 8, 2),
    frozenset({2, 3, 4, 5, 6, 7}),
)
STATE_2 = FietCombinatorics(
    8,
    (1, 3, 4, 2, 5, 6, 7, 8),
    (2, 5, 6, 7, 3, 1, 8, 4),
    frozenset({2, 3, 4, 5, 6, 7}),
)

# The relabelling sigma = (2->4, 4->3, 3->2) as the images of labels 1..8.
SIGMA = (1, 4, 2, 3, 5, 6, 7, 8)

# Rows restricted to labels {2, 3, 4} at each cycle state.
BRACKETS = {
    0: ((2, 3, 4), (4, 2, 3)),
    1: ((4, 2, 3), (3, 4, 2)),
    2: ((3, 4, 2), (2, 3, 4)),
}

FIDELITY_TRIPLES = (
    PathParameters(2, 3, 4, 3, 2),
    PathParameters(3, 5, 7, 5, 3),
    PathParameters(10, 20, 40, 20, 10),
)

# Entries of the computed matrix that move when p4 / p5 moves (1-based).
P4_ENTRIES = tuple(
    (i, j) for i in (3, 4, 8) for j in (1, 2, 4, 8)
)
P5_ENTRIES = tuple(
    (i, j) for i in (1, 2, 3, 4, 8) for j in (1, 4, 8)
)

# Monomials of the copy polynomial at each cycle state.
NINE_TERMS = {
    (), ("p1",), ("p2",), ("p3",), ("p4",), ("p5",),
    ("p1", "p2"), ("p1", "p3"), ("p4", "p5"),
}

# Run lengths in any order, up to 10**40.
path_parameters_st = st.builds(
    PathParameters, *[st.integers(min_value=1, max_value=10**40)] * 5
)


def finite_difference_entries(t, which):
    """Entries (row, col), 1-based, of the threaded matrix that move with ``which``."""
    _, m0 = theta_gamma_p(t)
    bumped = {f"p{k}": getattr(t, f"p{k}") for k in range(1, 6)}
    bumped[which] += 1
    _, m1 = theta_gamma_p(PathParameters(**bumped))
    return tuple(
        (i + 1, j + 1)
        for i in range(8)
        for j in range(8)
        if m0.rows[i][j] != m1.rows[i][j]
    )


class TestBaseDatum:
    def test_shape(self):
        c = base_datum()
        assert c.n == 8
        assert c.pi0 == (1, 2, 3, 4, 5, 6, 7, 8)
        assert c.pi1 == (4, 5, 6, 7, 2, 1, 8, 3)
        assert c.flips == frozenset({2, 3, 4, 5, 6, 7})

    def test_is_irreducible(self):
        assert is_irreducible(base_datum())

    def test_rightmost_labels_distinct(self):
        c = base_datum()
        assert c.rightmost_domain_label != c.rightmost_range_label


class TestPathParameters:
    @pytest.mark.parametrize("bad", [0, -1, Fraction(1, 2), "3", True])
    def test_rejects_non_positive_or_non_integer(self, bad):
        with pytest.raises(ValueError):
            PathParameters(1, 1, bad, 1, 1)


class TestBuildPath:
    def test_word_with_unit_runs(self):
        assert build_path(ONES).word() == WORD_ALL_ONES

    def test_length_is_thirty_plus_run_sum(self):
        t = PathParameters(7, 11, 13, 17, 19)
        assert build_path(t).length == 30 + (7 + 11 + 13 + 17 + 19)

    def test_huge_runs_do_not_expand(self):
        big = 10**15
        t = PathParameters(big, big, big, big, big)
        assert build_path(t).length == 30 + 5 * big


class TestCycleStates:
    def test_period_three(self):
        states = cycle_states()
        assert len(states) == 3
        assert states[0] == base_datum()
        assert states[1] == STATE_1
        assert states[2] == STATE_2

    def test_restrictions_to_middle_labels(self):
        for idx, state in enumerate(cycle_states()):
            assert state.restrict((2, 3, 4)) == BRACKETS[idx]

    def test_end_state_independent_of_parameters(self):
        for t in FIDELITY_TRIPLES:
            end, _ = theta_gamma_p(t)
            assert end == STATE_1

    def test_parameter_runs_start_on_states_their_letter_fixes(self):
        # So a parameter run p only adds p * col_winner to col_loser.
        t = PathParameters(101, 102, 103, 104, 105)
        for state in cycle_states():
            parameter_runs = 0
            for letter, count in build_path(t).runs:
                if count > 100:
                    parameter_runs += 1
                    assert symbolic_step(state, letter).new_comb == state
                state, _ = apply_path(state, RauzyPath(((letter, count),)))
            assert parameter_runs == 5

    def test_three_applications_return_to_base(self):
        state = base_datum()
        for _ in range(3):
            state, _ = theta_gamma_p(ONES, state)
        assert state == base_datum()


class TestReferenceTheta:
    def test_frozen_rows(self):
        t = PathParameters(2, 3, 4, 3, 2)
        m = reference_theta(t)
        assert m.rows[1] == (1, t.p3 + 1, 0, 2, 0, 0, 0, 1)
        assert m.rows[4] == (0, 0, t.p1, 0, t.p1 + 1, 0, 0, 0)
        assert m.rows[6] == (0, 0, 0, 0, 0, t.p2, t.p2 + 1, 0)

    @pytest.mark.parametrize("t", FIDELITY_TRIPLES, ids=lambda t: f"p1={t.p1}")
    def test_column_sums_match_formula(self, t):
        assert reference_theta(t).column_sums() == reference_column_sums(t)

    @pytest.mark.parametrize("t", FIDELITY_TRIPLES, ids=lambda t: f"p1={t.p1}")
    def test_row_sums_match_formula(self, t):
        assert reference_theta(t).row_sums() == reference_row_sums(t)

    def test_column_sum_formula_values(self):
        t = PathParameters(2, 3, 4, 3, 2)
        assert reference_column_sums(t) == (32, 155, 18, 49, 21, 39, 45, 32)

    @pytest.mark.parametrize("t", FIDELITY_TRIPLES, ids=lambda t: f"p1={t.p1}")
    def test_unimodular(self, t):
        assert reference_theta(t).det() == 1

    def test_entries_non_negative(self):
        m = reference_theta(PathParameters(1, 1, 1, 1, 1))
        assert all(e >= 0 for row in m.rows for e in row)

    def test_independent_of_p4_p5(self):
        a = reference_theta(PathParameters(2, 3, 4, 3, 2))
        b = reference_theta(PathParameters(2, 3, 4, 30, 20))
        assert a == b


class TestComputedTheta:
    @pytest.mark.parametrize("t", FIDELITY_TRIPLES, ids=lambda t: f"p1={t.p1}")
    def test_unimodular(self, t):
        _, m = theta_gamma_p(t)
        assert m.det() == 1

    def test_frozen_column_sums(self):
        _, m = theta_gamma_p(PathParameters(2, 3, 4, 3, 2))
        assert m.column_sums() == (65, 20, 46, 68, 56, 42, 34, 65)

    def test_differs_from_reference(self):
        t = PathParameters(2, 3, 4, 3, 2)
        _, computed = theta_gamma_p(t)
        assert computed != reference_theta(t)


class TestCopyPolynomial:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((0, 1, 2)), path_parameters_st)
    def test_evaluates_to_the_threaded_matrix(self, k, t):
        states = cycle_states()
        end, poly = copy_polynomial(states[k])
        assert end == states[(k + 1) % 3]
        assert (end, polynomial_at(poly, t)) == theta_gamma_p(t, states[k])

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_nine_terms(self, k):
        _, poly = copy_polynomial(cycle_states()[k])
        assert set(poly) == NINE_TERMS

    def test_run_on_a_state_its_letter_moves_raises(self):
        start = base_datum().swapped()
        state, _ = apply_path(start, RauzyPath(PATH_RUNS[:6]))
        assert symbolic_step(state, "a").new_comb != state
        with pytest.raises(ConstructionBrokenError, match="p1"):
            copy_polynomial(start)


def sigma_power(k):
    s = tuple(range(1, 9))
    for _ in range(k):
        s = tuple(SIGMA[a - 1] for a in s)
    return s


def relabelled(state, s):
    return FietCombinatorics(8, tuple(s[a - 1] for a in state.pi0),
                             tuple(s[a - 1] for a in state.pi1),
                             frozenset(s[a - 1] for a in state.flips))


# P e_j = e_sigma(j), and P^-1 = P^2.
P = TransitionMatrix(tuple(tuple(int(SIGMA[j] == i + 1) for j in range(8))
                           for i in range(8)))
NAMED = [ParameterSchedule.relaxed(), ParameterSchedule.strict()]


class TestRelabelling:
    def test_sigma(self):
        _, sigma = base_copy()
        assert sigma == SIGMA
        assert [a for a in range(1, 9) if sigma[a - 1] == a] == [1, 5, 6, 7, 8]
        assert sigma_power(3) == tuple(range(1, 9))
        assert P.power(3) == TransitionMatrix.identity(8)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_cycle_state_is_the_relabelled_base(self, k):
        assert cycle_states()[k] == relabelled(base_datum(), sigma_power(k))

    @pytest.mark.parametrize("schedule", NAMED, ids=lambda s: s.mode)
    @pytest.mark.parametrize("j", range(1, 7))
    def test_copy_is_m0_in_the_frame_of_its_start_state(self, schedule, j):
        k = (j - 1) % 3
        t = schedule.params(j)
        m0 = polynomial_at(base_copy()[0], t)
        expected = P.power(k) @ m0 @ P.power(3 - k)
        assert theta_copy(schedule, j) == expected
        # The same matrix threaded symbolically from cycle state k.
        start = cycle_states()[k]
        assert polynomial_at(copy_polynomial(start)[1], t) == expected

    @pytest.mark.parametrize("schedule", NAMED, ids=lambda s: s.mode)
    @pytest.mark.parametrize("i", [1, 2])
    def test_block_is_the_product_of_m0_p(self, schedule, i):
        m0 = base_copy()[0]
        expected = TransitionMatrix.identity(8)
        for j in range(3 * i - 2, 3 * i + 1):
            expected = expected @ polynomial_at(m0, schedule.params(j)) @ P
        assert theta_block(schedule, i) == expected


class TestBaseCopyChecks:
    @pytest.fixture(autouse=True)
    def fresh_derivation(self):
        base_copy.cache_clear()
        yield
        base_copy.cache_clear()

    @pytest.mark.parametrize("end, match", [
        (FietCombinatorics(8, (1, 4, 2, 3, 5, 6, 7, 8), (4, 5, 6, 7, 2, 1, 8, 3),
                           frozenset({2, 3, 4, 5, 6, 7})), "not a relabelled"),
        (FietCombinatorics(8, (1, 4, 2, 3, 5, 6, 7, 8), (3, 5, 6, 7, 4, 1, 8, 2),
                           frozenset({2, 3, 4, 5, 6})), "not a relabelled"),
        # sigma = (2 3) has order two: three copies would end on state 1.
        (relabelled(base_datum(), (1, 3, 2, 4, 5, 6, 7, 8)), "three copies"),
    ], ids=["pi1", "flips", "order-two"])
    def test_end_state_checks(self, monkeypatch, end, match):
        poly = copy_polynomial(base_datum())[1]
        monkeypatch.setattr(construction, "copy_polynomial", lambda start, runs: (end, poly))
        with pytest.raises(ConstructionBrokenError, match=match):
            base_copy()


def typed_reference(t):
    """The reference matrix written out entry by entry in (p1, p2, p3)."""
    p1, p2, p3 = t.p1, t.p2, t.p3
    return TransitionMatrix((
        (9, 8 * p3 + 7, p1 + 4, 13, p1 + 5, p2 + 6, p2 + 7, 8),
        (1, p3 + 1, 0, 2, 0, 0, 0, 1),
        (9, 9 * p3 + 8, p1 + 3, 14, p1 + 4, 2 * p2 + 6, 2 * p2 + 8, 9),
        (6, 6 * p3 + 5, 3, 9, 3, p2 + 4, p2 + 5, 6),
        (0, 0, p1, 0, p1 + 1, 0, 0, 0),
        (4, 4 * p3 + 3, 1, 6, 1, 3, 3, 4),
        (0, 0, 0, 0, 0, p2, p2 + 1, 0),
        (3, 4 * p3 + 3, 1, 5, 1, p2 + 2, p2 + 3, 4),
    ))


def reference_path(t):
    """gamma_ref with its parameter runs set to t's lengths."""
    return RauzyPath(tuple((letter, getattr(t, run) if isinstance(run, str) else run)
                           for letter, run in REFERENCE_RUNS))


# Affinely independent (p1, p2, p3): both sides being affine, agreement at
# these four points is agreement everywhere.
AFFINE_BASIS = (
    PathParameters(2, 3, 4, 1, 1),
    PathParameters(3, 5, 7, 1, 1),
    PathParameters(10, 20, 40, 1, 1),
    PathParameters(5, 11, 13, 1, 1),
)


class TestReferenceWord:
    def test_four_non_negative_terms(self):
        _, poly = copy_polynomial(base_datum(), REFERENCE_RUNS)
        assert set(poly) == {(), ("p1",), ("p2",), ("p3",)}
        assert all(e >= 0 for cols in poly.values() for col in cols for e in col)

    def test_same_end_state_and_sigma_as_the_path(self):
        end, _ = copy_polynomial(base_datum(), REFERENCE_RUNS)
        assert end == cycle_states()[1]
        assert base_copy(REFERENCE_RUNS)[1] == base_copy()[1] == SIGMA

    def test_is_the_typed_table(self):
        o = AFFINE_BASIS[0]
        steps = tuple((q.p1 - o.p1, q.p2 - o.p2, q.p3 - o.p3) for q in AFFINE_BASIS[1:])
        assert TransitionMatrix(steps).det() != 0
        for t in AFFINE_BASIS:
            assert reference_theta(t) == typed_reference(t)
            assert reference_theta(t).column_sums() == reference_column_sums(t)
            assert reference_theta(t).row_sums() == reference_row_sums(t)

    @settings(max_examples=60, deadline=None)
    @given(path_parameters_st)
    def test_evaluates_to_the_threaded_matrix(self, t):
        end, m = apply_path(base_datum(), reference_path(t))
        assert end == cycle_states()[1]
        assert m == reference_theta(t)


class TestReferenceComposition:
    """Three gamma_ref copies thread as R(p1) P R(p2) P R(p3) P; the
    reference tower multiplies R(p_j) with no P between copies."""

    @pytest.mark.parametrize("schedule", [
        ParameterSchedule.relaxed(), ParameterSchedule(d=3, p1_1=2),
    ], ids=["relaxed", "d3"])
    def test_threaded_block_is_r_p_not_the_reference_block(self, schedule):
        state, threaded = base_datum(), TransitionMatrix.identity(8)
        expected = TransitionMatrix.identity(8)
        for j in (1, 2, 3):
            t = schedule.params(j)
            state, m = apply_path(state, reference_path(t))
            threaded = threaded @ m
            expected = expected @ reference_theta(t) @ P
        assert state == base_datum()
        assert threaded == expected
        assert threaded != theta_block(schedule, 1, "reference")


class TestParameterDependence:
    @settings(max_examples=40, deadline=None)
    @given(path_parameters_st)
    def test_entries_are_the_finite_differences(self, t):
        case = matrix_fidelity_report([t])["cases"][0]
        assert case["p4_dependent_entries"] == finite_difference_entries(t, "p4")
        assert case["p5_dependent_entries"] == finite_difference_entries(t, "p5")

    def test_p4_entries(self, fidelity):
        assert fidelity["cases"][0]["p4_dependent_entries"] == P4_ENTRIES

    def test_p5_entries(self, fidelity):
        assert fidelity["cases"][0]["p5_dependent_entries"] == P5_ENTRIES

    def test_same_entries_at_other_parameters(self, fidelity):
        assert fidelity["cases"][1]["p4_dependent_entries"] == P4_ENTRIES
        assert fidelity["cases"][1]["p5_dependent_entries"] == P5_ENTRIES


@pytest.fixture(scope="module")
def fidelity():
    return matrix_fidelity_report()


class TestFidelityReport:
    @pytest.fixture
    def report(self, fidelity):
        return fidelity

    def test_gates(self, report):
        assert report["entrywise_equal"] is False
        assert report["reference_identities_hold"] is True
        assert report["discrepancy_isolated"] is True

    def test_every_case_reports_differences(self, report):
        for case in report["cases"]:
            assert not case["entrywise_equal"]
            assert case["differing_entries"]
            assert case["reference_column_sums_match_formula"]
            assert case["reference_row_sums_match_formula"]

    def test_case_column_sums(self, report):
        case = report["cases"][0]
        assert case["computed_column_sums"] == (65, 20, 46, 68, 56, 42, 34, 65)
        assert case["reference_column_sums"] == (32, 155, 18, 49, 21, 39, 45, 32)


class TestParameterSchedule:
    def test_geometric_relations(self):
        s = ParameterSchedule(d=3, p1_1=5)
        for j in (1, 2, 3):
            p1, p2, p3 = s.p_triple(j)
            assert p2 == s.d * p1
            assert p3 == s.d * p2
        assert s.p_triple(2)[0] == s.d * s.p_triple(1)[2]

    def test_default_rules(self):
        s = ParameterSchedule(d=3, p1_1=5)
        t = s.params(1)
        assert (t.p4, t.p5) == (t.p2, t.p1)

    def test_custom_rules(self):
        s = ParameterSchedule(d=3, p1_1=5, p4_rule="p3", p5_rule="p2")
        t = s.params(2)
        assert (t.p4, t.p5) == (t.p3, t.p2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d": 1, "p1_1": 5},
            {"d": 3, "p1_1": 0},
            {"d": 3, "p1_1": 5, "p4_rule": "p6"},
            {"d": 3, "p1_1": 5, "p5_rule": "q1"},
            {"d": 3.5, "p1_1": 5},
            {"d": 128, "p1_1": 256, "mode": "strict"},
            {"d": 128, "p1_1": 256, "p4_rule": "p3", "mode": "relaxed"},
            {"d": 128, "p1_1": 256, "mode": "banana"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ParameterSchedule(**kwargs)

    @pytest.mark.parametrize("d", [float("inf"), float("-inf"), float("nan"), 1e400],
                             ids=["inf", "-inf", "nan", "1e400"])
    def test_non_finite_d_is_a_value_error(self, d):
        with pytest.raises(ValueError, match=f"d must be an integer, got {d!r}"):
            ParameterSchedule(d=d, p1_1=256)

    def test_named_values_keep_their_label(self):
        assert ParameterSchedule(d=128, p1_1=256, mode="relaxed") == (
            ParameterSchedule.relaxed()
        )

    def test_copy_index_is_one_based(self):
        with pytest.raises(ValueError):
            ParameterSchedule(d=3, p1_1=5).p_triple(0)

    def test_relaxed_validity(self):
        v = ParameterSchedule.relaxed().validity()
        unmet = {name for name, ok in v.items() if not ok}
        assert unmet == {"d > 231", "d > 50^3"}

    def test_strict_validity(self):
        v = ParameterSchedule.strict().validity()
        assert all(v.values())

    def test_small_schedule_fails_size_conditions(self):
        v = ParameterSchedule(d=2, p1_1=2).validity()
        assert not v["p1 > 45"]
        assert not v["d > 5"]


class TestThetaCopyAndBlock:
    SMALL = ParameterSchedule(d=2, p1_1=2)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            theta_copy(self.SMALL, 1, family="closed-form")

    def test_block_index_validation(self):
        with pytest.raises(ValueError):
            theta_block(self.SMALL, 0)

    def test_families_differ(self):
        assert theta_copy(self.SMALL, 1, "computed") != theta_copy(
            self.SMALL, 1, "reference"
        )

    @pytest.mark.parametrize("family", ["computed", "reference"])
    def test_block_is_unimodular(self, family):
        assert theta_block(self.SMALL, 1, family).det() == 1

    def test_block_is_product_of_copies(self):
        expected = (
            theta_copy(self.SMALL, 1)
            @ theta_copy(self.SMALL, 2)
            @ theta_copy(self.SMALL, 3)
        )
        assert theta_block(self.SMALL, 1) == expected

    def test_block_entries_strictly_positive(self):
        m = theta_block(self.SMALL, 1)
        assert all(e > 0 for row in m.rows for e in row)


class TestNormalize:
    def test_scales_to_sum_one(self):
        v = normalize((1, 2, 5))
        assert sum(v) == 1
        assert v == (Fraction(1, 8), Fraction(2, 8), Fraction(5, 8))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize((1, -1, 2))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            normalize((0, 0))

    def test_l1_distance(self):
        assert l1_distance((1, 0), (0, 1)) == 2
        assert l1_distance((Fraction(1, 2), Fraction(1, 2)), (1, 0)) == 1

    def test_l1_distance_dimension_mismatch(self):
        with pytest.raises(ValueError):
            l1_distance((1,), (1, 2))


class TestLimitVectors:
    SMALL = ParameterSchedule(d=2, p1_1=2)

    def test_seed_labels(self):
        assert SEED_LABELS == (2, 5, 7)

    def test_report_vectors_are_stochastic(self):
        rep = limit_vectors(self.SMALL, 2)
        for vec in (rep.lambda2, rep.lambda5, rep.lambda7, rep.alpha):
            assert sum(vec) == 1
            assert all(x > 0 for x in vec)
        assert rep.m == 2
        assert rep.family == "computed"

    def test_contraction_diameter_decreases(self):
        diameters = [
            limit_vectors(self.SMALL, m).contraction_diameter for m in (1, 2, 3)
        ]
        assert diameters[0] > diameters[1] > diameters[2] > 0

    def test_custom_direction(self):
        rep = limit_vectors(self.SMALL, 1, v=(0, 0, 1, 0, 0, 0, 0, 0))
        total = theta_block(self.SMALL, 1)
        assert rep.alpha == normalize(total.column(3))

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            limit_vectors(self.SMALL, 0)

    def test_resource_limit_carries_partial_report(self):
        with pytest.raises(ResourceLimitError) as exc_info:
            limit_vectors(self.SMALL, 3, max_entry_bits=10)
        partial = exc_info.value.partial
        assert partial is not None
        assert partial.m < 3
        assert sum(partial.alpha) == 1

    def test_partial_report_equals_report_at_its_depth(self):
        with pytest.raises(ResourceLimitError) as exc_info:
            limit_vectors(self.SMALL, 3, max_entry_bits=10)
        partial = exc_info.value.partial
        assert partial == limit_vectors(self.SMALL, partial.m)

    def test_reference_family_supported(self):
        rep = limit_vectors(self.SMALL, 1, family="reference")
        assert rep.family == "reference"
        assert sum(rep.alpha) == 1


class TestLengthDrivenDynamics:
    """The computed family's vectors drive induction along the path exactly."""

    SMALL = ParameterSchedule(d=2, p1_1=2)

    def test_computed_direction_follows_the_path(self):
        rep = limit_vectors(self.SMALL, 1, family="computed")
        word = build_path(self.SMALL.params(1)).word()
        f = Fiet(base_datum(), rep.alpha)
        assert length_driven_letters(f, len(word)) == tuple(word)

    def test_reference_direction_leaves_the_path(self):
        rep = limit_vectors(self.SMALL, 1, family="reference")
        word = build_path(self.SMALL.params(1)).word()
        f = Fiet(base_datum(), rep.alpha)
        letters = length_driven_letters(f, len(word))
        agree = 0
        for got, want in zip(letters, word):
            if got != want:
                break
            agree += 1
        assert agree < len(word)
