"""Tests for the inequality suites, towers, separation, and simulation."""

import hashlib
import math
import os
import platform
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiet
from conftest import subtractive_steps
from fiet import (
    Fiet,
    FietCombinatorics,
    InequalityRecord,
    ParameterSchedule,
    PathParameters,
    Tower,
    base_datum,
    birkhoff_frequencies,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_separation,
    checked_levels,
    first_return,
    frequency_l1_gaps,
    iterate,
    l1_distance,
    lemma_towers,
    limit_vectors,
    midpoint_starts,
    normalize,
    oracle_crosscheck,
    reference_column_sums,
    theta_copy,
    tower_vectors,
    verify_all,
)
from fiet.orbits import _random_fiet
from fiet.verify import BURN_IN_LEVELS

UNIFORM = tuple(Fraction(1, 8) for _ in range(8))
E2 = tuple(Fraction(1 if k == 2 else 0) for k in range(1, 9))
E5 = tuple(Fraction(1 if k == 5 else 0) for k in range(1, 9))
E7 = tuple(Fraction(1 if k == 7 else 0) for k in range(1, 9))

GEOMETRIC = PathParameters(2, 4, 8, 4, 2)
SMALL = ParameterSchedule(d=2, p1_1=2)

# Two flipped intervals implementing x -> 3 - x on [0, 3); the orbit of any
# interior point reaches a flip discontinuity in at most two steps.
REFLECTION = Fiet(
    FietCombinatorics(2, (1, 2), (2, 1), frozenset({1, 2})),
    (Fraction(1), Fraction(2)),
)

# Two unflipped swapped intervals (a rotation); every orbit is infinite.
ROTATION = Fiet(
    FietCombinatorics(2, (1, 2), (2, 1), frozenset()),
    (Fraction(1), Fraction(2)),
)


class TestRecordSemantics:
    def test_strict_record_fails_at_zero_margin(self):
        recs = check_lemma1(E7, GEOMETRIC)
        by_item = {r.item: r for r in recs}
        winner = by_item["x7 > 1/7"]
        assert winner.holds and winner.margin == Fraction(6, 7)
        tie = by_item["x6 > x2"]  # both coordinates are zero at this seed
        assert not tie.holds and tie.margin == 0 and tie.strict

    def test_uniform_vector_fails_the_coordinate_bound(self):
        recs = check_lemma1(UNIFORM, GEOMETRIC)
        r = {r.item: r for r in recs}["x7 > 1/7"]
        assert not r.holds
        assert r.margin == Fraction(-1, 56)
        assert (r.lhs, r.rhs) == (Fraction(1, 8), Fraction(1, 7))

    def test_non_strict_record_holds_at_zero_margin(self):
        recs = [r for r in check_lemma2(E5, GEOMETRIC) if not r.strict]
        assert len(recs) == 1
        r = recs[0]
        assert r.item == "x6 + x7 >= x8"
        assert r.holds and r.margin == 0

    def test_margin_is_lhs_minus_rhs(self):
        for r in check_lemma2(UNIFORM, GEOMETRIC):
            assert r.margin == r.lhs - r.rhs


class TestInputValidation:
    def test_vector_must_have_eight_coordinates(self):
        with pytest.raises(ValueError):
            check_lemma3((Fraction(1),) * 7 + (Fraction(0),) * 0)

    def test_vector_must_be_non_negative(self):
        bad = (Fraction(-1, 8),) + (Fraction(9, 56),) * 7
        with pytest.raises(ValueError):
            check_lemma3(bad)

    def test_vector_must_sum_to_one(self):
        with pytest.raises(ValueError):
            check_lemma3((Fraction(1, 8),) * 7 + (Fraction(0),))

    def test_lemma1_validates_geometric_shape(self):
        with pytest.raises(ValueError):
            check_lemma1(UNIFORM, PathParameters(2, 3, 4, 3, 2), d=2)
        check_lemma1(UNIFORM, GEOMETRIC, d=2)  # consistent shape accepted

    def test_lemma3_requires_c_above_ten(self):
        with pytest.raises(ValueError):
            check_lemma3(E2, c=10)

    def test_lemma4_requires_b_above_thirty_three(self):
        with pytest.raises(ValueError):
            check_lemma4(E2, b=33)


class TestDominationAndLowerBound:
    def test_seed_vector_dominates(self):
        recs = check_lemma3(E2, c=11)
        assert len(recs) == 7
        assert all(r.holds for r in recs)
        assert {r.item for r in recs} == {
            f"11*x2 > x{i}" for i in (1, 3, 4, 5, 6, 7, 8)
        }

    def test_size_precondition_reported_when_parameters_given(self):
        recs = check_lemma3(E2, c=11, t=PathParameters(2, 3, 4, 3, 2))
        assert len(recs) == 8
        size = recs[-1]
        assert size.item == "p3 > 2*p1 + 4*p2 + 61"
        assert not size.holds  # 4 is far below the required size

    def test_lower_bound_records(self):
        recs = check_lemma4(E2, b=34)
        assert len(recs) == 1
        assert recs[0].holds and recs[0].lhs == 1

    def test_lower_bound_size_condition(self):
        strict_t = ParameterSchedule.strict().params(1)
        recs = check_lemma4(E2, b=34, t=strict_t)
        assert len(recs) == 2
        assert all(r.holds for r in recs)


class TestIntegerInput:
    @pytest.mark.parametrize("w", [(0,) * 8, (1, -1, 0, 0, 0, 0, 0, 1)])
    def test_integer_vector_must_be_non_negative_and_non_zero(self, w):
        with pytest.raises(ValueError):
            check_lemma4(w)


def _reference_record(lemma_id, item, lhs, rhs, strict=True):
    """Reference record: lhs, rhs and margin by Fraction arithmetic."""
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    margin = lhs - rhs
    holds = margin > 0 if strict else margin >= 0
    return InequalityRecord(lemma_id, item, lhs, rhs, margin, holds, strict)


def _reference_lemmas(v, t, c, b):
    """check_lemma1..4 on a simplex vector, evaluated on Fractions."""
    rec = _reference_record
    x1, x2, x3, x4, x5, x6, x7, x8 = v
    growth = sum(k * e for k, e in zip(reference_column_sums(t), v))
    lemma1 = [
        rec("L1", "x7 > 1/7", x7, Fraction(1, 7)),
        rec("L1", "2*x7 > x1", 2 * x7, x1),
        rec("L1", "2*x7 > x4", 2 * x7, x4),
        rec("L1", "2*x7 > x8", 2 * x7, x8),
        rec("L1", "4*x7 > x3", 4 * x7, x3),
        rec("L1", "x7 > x5", x7, x5),
        rec("L1", "x5 < 1/10", Fraction(1, 10), x5),
        rec("L1", "x6 > x2", x6, x2),
        rec("L1", "x3 > x7", x3, x7),
        rec("L1", "x2 < 1/p1", Fraction(1, t.p1), x2),
        rec("L1", "growth > p2/2", growth, Fraction(t.p2, 2)),
        rec("L1", "growth > 2*p1", growth, 2 * t.p1),
    ]
    lemma2 = [
        rec("L2", "x5 > 1/4", x5, Fraction(1, 4)),
        rec("L2", "2*x3 > x1", 2 * x3, x1),
        rec("L2", "x3 + x5 > x1", x3 + x5, x1),
        rec("L2", "3*x6 + x7 > x4", 3 * x6 + x7, x4),
        rec("L2", "x6 + x7 >= x8", x6 + x7, x8, strict=False),
        rec("L2", "x2 < 1/p1", Fraction(1, t.p1), x2),
        rec("L2", "x6 < 7/p1", Fraction(7, t.p1), x6),
        rec("L2", "x7 < 1/p1", Fraction(1, t.p1), x7),
        rec("L2", "x8 < 22/p1", Fraction(22, t.p1), x8),
        rec("L2", "x8 < 8/p1", Fraction(8, t.p1), x8),
        rec("L2", "x4 < 22/p1", Fraction(22, t.p1), x4),
        rec("L2", "growth > p1", growth, t.p1),
    ]
    lemma3 = [
        rec("L3", f"{c}*x2 > x{i}", c * x2, v[i - 1]) for i in (1, 3, 4, 5, 6, 7, 8)
    ] + [rec("L3", "p3 > 2*p1 + 4*p2 + 61", t.p3, 2 * t.p1 + 4 * t.p2 + 61)]
    lemma4 = [
        rec("L4", f"x2 > 1/{b}", x2, Fraction(1, b)),
        rec("L4", f"(b-33)*(p3-49) > 33*49, b={b}", (b - 33) * (t.p3 - 49), 33 * 49),
    ]
    return lemma1, lemma2, lemma3, lemma4


def _reference_separation(v2, v5, v7, t):
    """check_separation on simplex vectors, evaluated on Fractions."""
    rec = _reference_record
    one = Fraction(1)
    p1 = t.p1
    s75 = (one - v5[6]) + v7[6]
    s57 = (one - v7[4]) + v5[4]
    s27 = (one - v7[1]) + v2[1]
    s25 = (one - v5[1]) + v2[1]
    b75 = (one - Fraction(1, p1)) + Fraction(1, 7)
    b57 = Fraction(9, 10) + Fraction(1, 4)
    b2x = (one - Fraction(1, p1)) + Fraction(1, 34)
    return [
        rec("SEP", "(1 - x7(l5)) + x7(l7) > 1", s75, one),
        rec("SEP", "(1 - x5(l7)) + x5(l5) > 1", s57, one),
        rec("SEP", "(1 - x2(l7)) + x2(l2) > 1", s27, one),
        rec("SEP", "(1 - x2(l5)) + x2(l2) > 1", s25, one),
        rec("SEP", "(1 - x7(l5)) + x7(l7) > (1 - 1/p1) + 1/7", s75, b75),
        rec("SEP", "(1 - x5(l7)) + x5(l5) > 9/10 + 1/4", s57, b57),
        rec("SEP", "(1 - x2(l7)) + x2(l2) > (1 - 1/p1) + 1/34", s27, b2x),
        rec("SEP", "(1 - x2(l5)) + x2(l2) > (1 - 1/p1) + 1/34", s25, b2x),
        rec("SEP", "L1(l5, l7) > 1/7 - 1/p1",
            l1_distance(v5, v7), Fraction(1, 7) - Fraction(1, p1)),
        rec("SEP", "L1(l5, l7) > 1/4 - 1/10",
            l1_distance(v5, v7), Fraction(1, 4) - Fraction(1, 10)),
        rec("SEP", "L1(l2, l7) > 1/34 - 1/p1",
            l1_distance(v2, v7), Fraction(1, 34) - Fraction(1, p1)),
        rec("SEP", "L1(l2, l5) > 1/34 - 1/p1",
            l1_distance(v2, v5), Fraction(1, 34) - Fraction(1, p1)),
    ]


# Small coordinates make ties (zero margins) likely; large ones exercise bigints.
coordinate_st = st.one_of(st.integers(0, 6), st.integers(0, 2**200))
integer_vector_st = st.lists(coordinate_st, min_size=8, max_size=8).filter(any)
path_parameters_st = st.builds(
    PathParameters, *(st.integers(1, 10**6) for _ in range(5))
)


def _simplex(w):
    return tuple(Fraction(e, sum(w)) for e in w)


def _assert_same_records(got, expected):
    assert got == expected
    for r in got:
        assert all(isinstance(q, Fraction) for q in (r.lhs, r.rhs, r.margin))
        assert isinstance(r.holds, bool)


class TestIntegerRecordsMatchFractionReference:
    @settings(max_examples=150, deadline=None)
    @given(integer_vector_st, path_parameters_st,
           st.integers(11, 40), st.integers(34, 2000))
    def test_lemma_records(self, w, t, c, b):
        expected = _reference_lemmas(_simplex(w), t, c, b)
        for x in (tuple(w), _simplex(w)):
            got = (
                check_lemma1(x, t),
                check_lemma2(x, t),
                check_lemma3(x, c, t),
                check_lemma4(x, b, t),
            )
            for g, e in zip(got, expected):
                _assert_same_records(g, e)

    @settings(max_examples=150, deadline=None)
    @given(integer_vector_st, integer_vector_st, integer_vector_st,
           path_parameters_st)
    def test_separation_records(self, w2, w5, w7, t):
        expected = _reference_separation(_simplex(w2), _simplex(w5), _simplex(w7), t)
        _assert_same_records(check_separation(w2, w5, w7, t), expected)
        _assert_same_records(
            check_separation(_simplex(w2), _simplex(w5), _simplex(w7), t), expected
        )

    @pytest.mark.parametrize("family", ["reference", "computed"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_contraction_diameter_is_the_largest_column_distance(self, m, family):
        schedule = ParameterSchedule.relaxed()
        # Level 1 of the recursion seeded at label j is the product's column j.
        tower = Tower(schedule, 3 * m, family)
        cols = [normalize(list(tower.levels(j))[-1][1]) for j in range(1, 9)]
        expected = max(
            l1_distance(cols[i], cols[j]) for i in range(8) for j in range(i + 1, 8)
        )
        assert limit_vectors(schedule, m, family).contraction_diameter == expected


class TestTowers:
    def test_tower_levels_and_seed(self):
        levels = tower_vectors(SMALL, seed=7, copies=3)
        assert sorted(levels) == [1, 2, 3, 4]
        assert levels[4] == E7
        for vec in levels.values():
            assert sum(vec) == 1
            assert all(x >= 0 for x in vec)

    def test_lower_levels_are_strictly_positive(self):
        levels = tower_vectors(SMALL, seed=5, copies=3, family="computed")
        assert all(x > 0 for x in levels[1])

    @pytest.mark.parametrize("seed", [0, 9])
    def test_seed_validation(self, seed):
        with pytest.raises(ValueError):
            tower_vectors(SMALL, seed=seed, copies=3)

    def test_copies_validation(self):
        with pytest.raises(ValueError):
            tower_vectors(SMALL, seed=7, copies=0)

    @pytest.mark.parametrize("family", ["reference", "computed"])
    @pytest.mark.parametrize("seed", [2, 5, 7])
    def test_equals_normalized_recursion(self, family, seed):
        schedule = ParameterSchedule.relaxed()
        vec = tuple(Fraction(int(k == seed)) for k in range(1, 9))
        expected = {7: vec}
        for j in range(6, 0, -1):
            vec = normalize(theta_copy(schedule, j, family).mat_vec(vec))
            expected[j] = vec
        assert tower_vectors(schedule, seed, 6, family) == expected

    @pytest.mark.parametrize("family", ["reference", "computed"])
    @pytest.mark.parametrize("schedule", [ParameterSchedule.relaxed(),
                                          ParameterSchedule.strict(), SMALL],
                             ids=["relaxed", "strict", "small"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_level1_vectors_are_the_limit_columns(self, m, schedule, family):
        # limit_vectors multiplies the copies from the first (a prefix
        # product); a tower recurses from its seed level down (a suffix
        # recursion).  Both give the normalized seed columns of the product,
        # and the all-ones recursion at level 1 gives its row sums.
        vectors = lemma_towers(schedule, m, family=family)["vectors"]
        report = limit_vectors(schedule, m, family)
        for key in ("lambda2", "lambda5", "lambda7"):
            assert getattr(report, key) == vectors[key], key
        ones = list(Tower(schedule, 3 * m, family).levels((1,) * 8))[-1][1]
        assert normalize(ones) == report.alpha

    def test_checked_levels(self):
        assert BURN_IN_LEVELS == 2
        assert checked_levels(1) == (1,)
        assert checked_levels(2) == (1, 2, 3, 4)
        assert checked_levels(3) == (1, 2, 3, 4, 5, 6, 7)
        with pytest.raises(ValueError):
            checked_levels(0)

    def test_lemma_towers_structure(self):
        out = lemma_towers(SMALL, 1)
        assert set(out) == {"lambda7", "lambda5", "lambda2", "vectors"}
        assert sorted(out["lambda7"]) == [1]
        assert len(out["lambda7"][1]) == 12
        assert len(out["lambda5"][1]) == 12
        assert len(out["lambda2"][1]) == 10  # 7 dominations + size + bound + size
        for vec in out["vectors"].values():
            assert sum(vec) == 1

    def test_relaxed_towers_all_hold(self):
        out = lemma_towers(ParameterSchedule.relaxed(), 1)
        for key in ("lambda7", "lambda5", "lambda2"):
            for recs in out[key].values():
                assert all(r.holds for r in recs)

    def test_a_level_builds_its_records_when_iterated(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args[1])
            return InequalityRecord(*args)

        monkeypatch.setattr(fiet.verify, "InequalityRecord", counted)
        out = lemma_towers(SMALL, 2)
        for key in ("lambda7", "lambda5", "lambda2"):
            tower = out[key]
            for level in tower:
                recs = tower[level]
                verdicts = tower.verdicts[level]
                assert len(recs) == len(verdicts)
                assert built == []
                assert [r.holds for r in recs] == verdicts
                assert len(built) == len(verdicts)
                built.clear()

    def test_a_level_is_decided_once_and_read_without_a_suite(self, monkeypatch):
        calls = []

        def counted(suite):
            def wrapper(*args, **kwargs):
                calls.append(suite.__name__)
                return suite(*args, **kwargs)
            return wrapper

        for name in ("_lemma1", "_lemma2", "_lemma3", "_lemma4"):
            monkeypatch.setattr(fiet.verify, name, counted(getattr(fiet.verify, name)))
        out = lemma_towers(SMALL, 2)
        # One pass per suite and level, when the towers are built.
        levels = len(checked_levels(2))
        assert sorted(calls) == sorted(
            ["_lemma1", "_lemma2", "_lemma3", "_lemma4"] * levels)
        calls.clear()
        for key in ("lambda7", "lambda5", "lambda2"):
            tower = out[key]
            for level in tower:
                recs = tower[level]
                assert len(recs) == len(tower.verdicts[level])
        assert calls == []


class TestSeparation:
    def test_basis_vectors_separate_maximally(self):
        t = ParameterSchedule.strict().params(1)
        recs = check_separation(E2, E5, E7, t)
        assert len(recs) == 12
        assert all(r.holds for r in recs)
        sums_vs_one = [r for r in recs if r.item.endswith("> 1")]
        assert all(r.lhs == 2 for r in sums_vs_one)

    def test_identical_vectors_fail_every_record(self):
        t = ParameterSchedule.strict().params(1)
        recs = check_separation(E2, E2, E2, t)
        assert sum(1 for r in recs if not r.holds) == 12
        first = recs[0]
        assert first.item == "(1 - x7(l5)) + x7(l7) > 1"
        assert first.margin == 0


class TestVerifyAll:
    def test_relaxed_depth_one_passes(self):
        rep = verify_all(ParameterSchedule.relaxed(), 1)
        assert rep["passed"] is True
        assert rep["records_total"] == 46
        assert rep["records_failing"] == []
        assert rep["checked_levels"] == (1,)
        assert rep["family"] == "reference"
        assert rep["matrix_fidelity"]["reference_identities_hold"]

    def test_small_schedule_fails_with_reported_records(self):
        rep = verify_all(SMALL, 1)
        assert rep["passed"] is False
        assert len(rep["records_failing"]) == 14
        items = {r.item for r in rep["records_failing"]}
        assert "x7 > 1/7" in items

    @pytest.mark.parametrize("schedule, depth", [
        (SMALL, 1), (SMALL, 2), (SMALL, 3), (ParameterSchedule.relaxed(), 3),
    ], ids=["small-1", "small-2", "small-3", "relaxed-3"])
    def test_integer_verdicts_agree_with_the_records(self, schedule, depth):
        rep = verify_all(schedule, depth, include_matrix_report=False)
        records = list(rep["separation"])
        for key in ("lambda7", "lambda5", "lambda2"):
            tower = rep["towers"][key]
            assert list(tower) == list(rep["checked_levels"])
            for level in tower:
                recs = tower[level]
                assert tower[level] == recs  # a level reads the same twice
                assert tower.verdicts[level] == [r.holds for r in recs]
                records += recs
        # A verdict is the sign of the record's exact margin.
        assert all(r.holds == (r.margin > 0 if r.strict else r.margin >= 0)
                   for r in records)
        assert rep["records_total"] == len(records)
        assert rep["records_failing"] == [r for r in records if not r.holds]

    def test_validity_flags_carried_in_report(self):
        sabotaged = ParameterSchedule(d=128, p1_1=10)
        rep = verify_all(sabotaged, 1)
        assert rep["validity"]["p1 > 45"] is False

    def test_validity_uses_the_runs_b(self):
        # p3 = 80 at copy 1: (2000-33)*(80-49) = 60977 > 33*49, but 1*31 < 33*49.
        schedule = ParameterSchedule(d=2, p1_1=20)
        key = "(b-33)*(p3-49) > 33*49"
        assert verify_all(schedule, 1, b=2000)["validity"][key] is True
        assert verify_all(schedule, 1)["validity"][key] is False

    def test_matrix_report_can_be_skipped(self):
        rep = verify_all(ParameterSchedule.relaxed(), 1, include_matrix_report=False)
        assert "matrix_fidelity" not in rep
        assert rep["passed"] is True


class TestBirkhoffFrequencies:
    def test_single_step_counts_the_starting_tile(self):
        rep = birkhoff_frequencies(ROTATION, (Fraction(1, 2), Fraction(2)), 1)
        by_start = {r.start: r for r in rep.results}
        assert by_start[Fraction(1, 2)].frequencies == (1, 0)
        assert by_start[Fraction(2)].frequencies == (0, 1)
        assert by_start[Fraction(1, 2)].max_gap == Fraction(5, 2)

    def test_counts_match_pointwise_iteration(self):
        steps = 16
        rep = birkhoff_frequencies(ROTATION, (Fraction(1, 2),), steps)
        orbit = iterate(ROTATION, Fraction(1, 2), steps)
        expected = tuple(Fraction(c, steps) for c in orbit.visit_counts)
        assert rep.results[0].frequencies == expected

    def test_orbit_reaching_a_flip_endpoint_terminates(self):
        rep = birkhoff_frequencies(REFLECTION, (Fraction(2),), 5)
        r = rep.results[0]
        assert r.terminated_at == 1
        assert r.steps_completed == 1
        assert r.frequencies == (0, 1)

    def test_termination_does_not_affect_other_starts(self):
        rep = birkhoff_frequencies(
            REFLECTION, (Fraction(2), Fraction(1, 2)), 5
        )
        by_start = {r.start: r for r in rep.results}
        # 1/2 -> 5/2 -> 1/2: a period-two orbit that never terminates.
        r = by_start[Fraction(1, 2)]
        assert r.terminated_at is None
        assert r.steps_completed == 5
        assert r.frequencies == (Fraction(3, 5), Fraction(2, 5))

    def test_multiple_horizons_share_one_pass(self):
        rep = birkhoff_frequencies(ROTATION, (Fraction(1, 2),), (1, 4, 16))
        assert rep.horizons == (1, 4, 16)
        assert [r.horizon for r in rep.results] == [1, 4, 16]
        for r in rep.results:
            assert sum(r.frequencies) == 1
            assert r.steps_completed == r.horizon

    def test_frequencies_are_exact_rationals(self):
        rep = birkhoff_frequencies(ROTATION, (Fraction(1, 2),), 7)
        assert all(isinstance(x, Fraction) for x in rep.results[0].frequencies)
        assert sum(rep.results[0].frequencies) == 1

    def test_start_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            birkhoff_frequencies(ROTATION, (Fraction(3),), 5)

    @pytest.mark.parametrize("horizons", [(), (0,), 0, (2.5, 10), True])
    def test_horizons_must_be_positive(self, horizons):
        with pytest.raises(ValueError):
            birkhoff_frequencies(ROTATION, (Fraction(1, 2),), horizons)

    @pytest.mark.parametrize("horizon", [float("inf"), float("-inf"),
                                         float("nan"), 1e400],
                             ids=["inf", "-inf", "nan", "1e400"])
    def test_non_finite_horizon_is_a_value_error(self, horizon):
        with pytest.raises(ValueError, match="horizon must be an integer, got"):
            birkhoff_frequencies(ROTATION, (Fraction(1, 2),), (horizon,))

    def test_periodic_orbit_jumps_to_the_horizon(self):
        # 1/2 -> 5/2 -> 3/2 -> 1/2: period three, once in tile 1.  Only the
        # jump of a periodic orbit straight to its horizon finishes this.
        h = 10**12
        rep = birkhoff_frequencies(ROTATION, (Fraction(1, 2),), (h, h + 1))
        for r, steps in zip(rep.results, (h, h + 1)):
            visits = (steps + 2) // 3
            assert r.steps_completed == steps
            assert r.frequencies == (
                Fraction(visits, steps), Fraction(steps - visits, steps)
            )
            assert r.max_gap == 1

    def test_midpoint_starts(self):
        assert midpoint_starts(ROTATION) == (Fraction(1, 2), Fraction(2))

    def test_memory_does_not_grow_with_the_horizon(self):
        alpha = limit_vectors(ParameterSchedule.relaxed(), 2, family="computed").alpha
        f = Fiet(base_datum(), alpha)
        start = midpoint_starts(f)[:1]
        peaks = []
        tracemalloc.start()
        try:
            for steps in (20_000, 200_000):
                tracemalloc.reset_peak()
                birkhoff_frequencies(f, start, steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_l1_gaps_between_starts(self):
        rep = birkhoff_frequencies(ROTATION, (Fraction(1, 2), Fraction(2)), 1)
        gaps = frequency_l1_gaps(rep, 1)
        assert gaps == {("1/2", "2"): 2}


class TestOracleCrosscheck:
    def test_zero_trials(self):
        out = oracle_crosscheck(0)
        assert out == {"trials": 0, "passes": 0, "failures": []}

    def test_random_trials_agree(self):
        out = oracle_crosscheck(150, seed=0)
        assert out["passes"] == 150
        assert out["failures"] == []

    def test_seed_reproducibility(self):
        assert oracle_crosscheck(25, seed=7) == oracle_crosscheck(25, seed=7)

    @staticmethod
    def lengthen_one_step_length(monkeypatch):
        # A step that returns the right rows with one length changed.
        real = fiet.orbits.rauzy_step

        def off_by_one(f):
            stepped, out = real(f)
            nums = list(stepped.nums)
            nums[0] += 1
            return Fiet.from_integers(stepped.comb, nums, stepped.den), out

        monkeypatch.setattr(fiet.orbits, "rauzy_step", off_by_one)
        return real, off_by_one

    @staticmethod
    def cut_of(f):
        lt, lb = f.length_of(f.comb.pi0[-1]), f.length_of(f.comb.pi1[-1])
        return f.total_length - min(lt, lb)

    def test_mismatch_records_step_and_return(self, monkeypatch):
        real, off_by_one = self.lengthen_one_step_length(monkeypatch)
        out = oracle_crosscheck(5, seed=2)
        assert (out["trials"], out["passes"]) == (5, 0)
        rng = random.Random(2)
        for trial, item in enumerate(out["failures"]):
            f = _random_fiet(rng)
            assert list(item) == ["trial", "fiet", "stepped", "returned"]
            assert (item["trial"], item["fiet"]) == (trial, f)
            assert item["stepped"] == off_by_one(f)[0]
            assert item["returned"] == first_return(f, self.cut_of(f))
            assert item["returned"] == real(f)[0]
        assert [item["trial"] for item in out["failures"]] == list(range(5))

    def test_exhausted_budget_records_the_error(self, monkeypatch):
        monkeypatch.setattr(fiet.core, "_MAX_APPLICATIONS", 0)
        out = oracle_crosscheck(4, seed=1)
        rng = random.Random(1)
        assert out == {"trials": 4, "passes": 0, "failures": [
            {"trial": t, "fiet": _random_fiet(rng),
             "error": "OracleInapplicable('iteration budget exhausted')"}
            for t in range(4)
        ]}

    def test_invalid_return_rows_record_the_value_error(self, monkeypatch):
        # Rows that do not make a map are recorded by the ValueError they
        # raise; only a failing trial builds the returned map's objects.
        self.lengthen_one_step_length(monkeypatch)

        def reject(*args):
            raise ValueError("rows rejected")

        monkeypatch.setattr(fiet.core, "FietCombinatorics", reject)
        out = oracle_crosscheck(3, seed=1)
        rng = random.Random(1)
        assert out == {"trials": 3, "passes": 0, "failures": [
            {"trial": t, "fiet": _random_fiet(rng), "error": "ValueError('rows rejected')"}
            for t in range(3)
        ]}

    def test_seed_draws_the_same_fiets(self):
        # Which maps a seed checks is part of its meaning: a rewrite of
        # _random_fiet must draw from the generator in the same order.
        rng = random.Random(1)
        drawn = [_random_fiet(rng) for _ in range(3)]
        assert drawn == [
            Fiet(FietCombinatorics(3, (2, 1, 3), (3, 1, 2), {1, 2}),
                 (Fraction(51, 7), Fraction(7, 16), Fraction(2, 29))),
            Fiet(FietCombinatorics(8, (3, 6, 2, 8, 1, 5, 4, 7), (8, 4, 7, 5, 6, 1, 3, 2),
                                   {2, 3, 4, 5, 6, 7, 8}),
                 (Fraction(5, 4), Fraction(15, 22), Fraction(3, 5), Fraction(3),
                  Fraction(60), Fraction(1), Fraction(59, 18), Fraction(20, 7))),
            Fiet(FietCombinatorics(2, (2, 1), (1, 2), {1, 2}),
                 (Fraction(47, 23), Fraction(11, 10))),
        ]

    def test_seed_draw_stream_in_text(self):
        # The same stream as above, pinned as text, so the pin holds whatever
        # a Fiet stores or compares: rows, flips and each length as num/den
        # for the first draws of seed 1, and a digest of the first 2,500
        # draws of each seed that the benchmark and CI check.
        def text(f):
            return (f.comb.pi0, f.comb.pi1, tuple(sorted(f.comb.flips)),
                    tuple(map(str, f.lengths)))

        rng = random.Random(1)
        assert [text(_random_fiet(rng)) for _ in range(3)] == [
            ((2, 1, 3), (3, 1, 2), (1, 2), ("51/7", "7/16", "2/29")),
            ((3, 6, 2, 8, 1, 5, 4, 7), (8, 4, 7, 5, 6, 1, 3, 2), (2, 3, 4, 5, 6, 7, 8),
             ("5/4", "15/22", "3/5", "3", "60", "1", "59/18", "20/7")),
            ((2, 1), (1, 2), (1, 2), ("47/23", "11/10")),
        ]
        digests = {}
        for seed in (1, 2, 3, 4):
            rng, h = random.Random(seed), hashlib.sha256()
            for _ in range(2500):
                h.update(repr(text(_random_fiet(rng))).encode())
            digests[seed] = h.hexdigest()[:16]
        assert digests == {1: "f0f397c506de628a", 2: "4be9087fcbc12a7f",
                           3: "a8c29b253e4cebc6", 4: "1625337f3368afa2"}

    def test_draws_read_only_getrandbits_and_random(self, monkeypatch):
        # The draws must not lean on Random's helpers, whose streams Python
        # does not promise across versions: the pinned draws above hold
        # for a generator on which every helper raises.
        class BitsOnly(random.Random):
            def _helper(self, *args, **kwargs):
                raise AssertionError("drew through a Random helper")

            randint = randrange = shuffle = choice = sample = _randbelow = _helper

        monkeypatch.setattr(random, "Random", BitsOnly)
        self.test_seed_draws_the_same_fiets()
        self.test_seed_draw_stream_in_text()

    def test_draws_match_randint_and_shuffle(self):
        # The same maps as drawn with randint and shuffle, draw for draw,
        # and the generator left in the same state.
        def drawn_with_helpers(rng):
            while True:
                n = rng.randint(2, 8)
                pi0 = list(range(1, n + 1))
                pi1 = list(range(1, n + 1))
                rng.shuffle(pi0)
                rng.shuffle(pi1)
                if pi0[-1] == pi1[-1]:
                    continue
                flips = frozenset(k for k in range(1, n + 1) if rng.random() < 0.5)
                pairs = [(rng.randint(1, 60), rng.randint(1, 30)) for _ in range(n)]
                den = math.lcm(*[b for _, b in pairs])
                nums = [a * (den // b) for a, b in pairs]
                if nums[pi0[-1] - 1] != nums[pi1[-1] - 1]:
                    comb = FietCombinatorics(n, tuple(pi0), tuple(pi1), flips)
                    return Fiet.from_integers(comb, nums, den)

        for seed in range(20):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(3000):
                assert _random_fiet(ours) == drawn_with_helpers(theirs)
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.skipif(platform.python_implementation() != "CPython"
                        or sys.getallocatedblocks() == 0,
                        reason="needs CPython's small-object allocator")
    def test_allocated_blocks_stay_flat(self):
        # A tuple built from a generator is allocated at ten slots and
        # shrunk; when it dies it goes onto the free list of its final
        # length, which only exact-size allocations draw from.  2,500 trials
        # of such tuples filled those lists by about 13,000 blocks.  A fresh
        # interpreter keeps this suite's own free lists out of the count.
        code = (
            "import sys\n"
            "from fiet.verify import oracle_crosscheck\n"
            "oracle_crosscheck(50, 0)\n"
            "before = sys.getallocatedblocks()\n"
            "assert oracle_crosscheck(2500, 1)['passes'] == 2500\n"
            "print(sys.getallocatedblocks() - before)\n"
        )
        src = os.path.dirname(os.path.dirname(fiet.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 1000


class TestSubtractiveSteps:
    def test_trace(self):
        assert subtractive_steps(9, 5) == [
            (4, 5), (4, 1), (3, 1), (2, 1), (1, 1)
        ]

    def test_symmetric_arguments(self):
        assert subtractive_steps(5, 9) == [
            (5, 4), (1, 4), (1, 3), (1, 2), (1, 1)
        ]

    @pytest.mark.parametrize("a,b", [(3, 3), (0, 5), (5, 0), (-2, 3)])
    def test_rejects_degenerate_pairs(self, a, b):
        with pytest.raises(ValueError):
            subtractive_steps(a, b)
