"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Every criterion prints a single ``CRITERION n: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output).  All comparisons are exact integer or
rational arithmetic — no floating point anywhere.
"""

import time
from fractions import Fraction

import pytest

from conftest import subtractive_steps
from fiet import (
    Fiet,
    FietCombinatorics,
    KeaneViolation,
    ParameterSchedule,
    PathParameters,
    base_datum,
    birkhoff_frequencies,
    frequency_l1_gaps,
    limit_vectors,
    matrix_fidelity_report,
    midpoint_starts,
    oracle_crosscheck,
    rauzy_step,
    reference_column_sums,
    theta_gamma_p,
    verify_all,
)
from fiet.serialize import fraction_to_decimal

TRIPLES = (
    PathParameters(2, 3, 4, 3, 2),
    PathParameters(3, 5, 7, 5, 3),
    PathParameters(10, 20, 40, 20, 10),
)

END_STATE = FietCombinatorics(
    8,
    (1, 4, 2, 3, 5, 6, 7, 8),
    (3, 5, 6, 7, 4, 1, 8, 2),
    frozenset({2, 3, 4, 5, 6, 7}),
)

BRACKET_CYCLE = (
    ((2, 3, 4), (4, 2, 3)),
    ((4, 2, 3), (3, 4, 2)),
    ((3, 4, 2), (2, 3, 4)),
)

P4_ENTRIES = tuple((i, j) for i in (3, 4, 8) for j in (1, 2, 4, 8))
P5_ENTRIES = tuple((i, j) for i in (1, 2, 3, 4, 8) for j in (1, 4, 8))


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def relaxed_m3():
    start = time.monotonic()
    report = verify_all(ParameterSchedule.relaxed(), 3)
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def strict_m1():
    start = time.monotonic()
    report = verify_all(ParameterSchedule.strict(), 1)
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def limit_reports():
    start = time.monotonic()
    reports = {
        m: limit_vectors(ParameterSchedule.relaxed(), m) for m in (1, 2, 3, 4)
    }
    return reports, time.monotonic() - start


def test_criterion_1_path_end_states():
    """The parameterized path sends the base state to one frozen state for
    three distinct parameter sets, exactly, in under a second."""
    ok = False
    start = time.monotonic()
    try:
        for t in TRIPLES:
            end, _ = theta_gamma_p(t)
            assert end == END_STATE
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        ok = True
    finally:
        _report(1, ok, f"3 parameter sets reach the frozen end state "
                       f"in {time.monotonic() - start:.3f}s")


def test_criterion_2_period_three_and_brackets():
    """Three consecutive path applications return to the base state, and the
    rows restricted to labels {2,3,4} traverse the three bracket pairs."""
    ok = False
    try:
        state = base_datum()
        seen = []
        for _ in range(3):
            seen.append(state.restrict((2, 3, 4)))
            state, _ = theta_gamma_p(PathParameters(1, 1, 1, 1, 1), state)
        assert state == base_datum()
        assert tuple(seen) == BRACKET_CYCLE
        ok = True
    finally:
        _report(2, ok, "period 3 with the three {2,3,4}-row restrictions")


def test_criterion_3_matrix_families():
    """The computed and reference matrices differ, the discrepancy is isolated
    to the reported p4/p5-dependent entries, and the reference column sums
    equal the eight coefficient formulas (zero tolerance on integers)."""
    ok = False
    try:
        fid = matrix_fidelity_report(TRIPLES)
        # The families do not agree entry-wise; the report must say so
        # rather than hide it, and must isolate exactly which computed
        # entries move with p4 and p5.
        assert fid["entrywise_equal"] is False
        assert fid["discrepancy_isolated"] is True
        assert fid["reference_identities_hold"] is True
        for case, t in zip(fid["cases"], TRIPLES):
            assert case["differing_entries"]
            assert case["p4_dependent_entries"] == P4_ENTRIES
            assert case["p5_dependent_entries"] == P5_ENTRIES
            sums = case["reference_column_sums"]
            assert sums == reference_column_sums(t)
            assert sums[1] == 32 * t.p3 + 27  # column 2 coefficient
            assert sums[0] == 32 and sums[7] == 32
            assert sums[2] == 3 * t.p1 + 12
            assert sums[4] == 3 * t.p1 + 15
            assert sums[5] == 6 * t.p2 + 21
            assert sums[6] == 6 * t.p2 + 27
            assert sums[3] == 49
        ok = True
    finally:
        _report(3, ok, "discrepancy isolated to p4/p5 entries; reference "
                       "column sums match the coefficient formulas exactly")


def test_criterion_4_tower_inequalities(relaxed_m3, strict_m1):
    """Every tower inequality holds with strictly positive margin at every
    checked level: relaxed schedule to depth 3 in under 30 s, strict schedule
    one block in under 10 min."""
    ok = False
    relaxed, relaxed_s = relaxed_m3
    strict, strict_s = strict_m1
    try:
        sched = relaxed["schedule"]
        assert (sched.d, sched.p1_1) == (128, 256)
        assert sched.p1_1 >= 2 * sched.d
        assert relaxed["checked_levels"] == (1, 2, 3, 4, 5, 6, 7)
        assert relaxed["records_total"] == 250
        assert relaxed["records_failing"] == []
        assert relaxed["passed"] is True

        strict_sched = strict["schedule"]
        assert (strict_sched.d, strict_sched.p1_1) == (125001, 125002)
        assert all(strict_sched.validity().values())
        assert strict["records_total"] == 46
        assert strict["records_failing"] == []
        assert strict["passed"] is True

        min_margin = None
        for report in (relaxed, strict):
            for key in ("lambda7", "lambda5", "lambda2"):
                for recs in report["towers"][key].values():
                    for r in recs:
                        assert r.margin > 0, (r.lemma_id, r.item)
                        if min_margin is None or r.margin < min_margin:
                            min_margin = r.margin
        assert relaxed_s < 30.0
        assert strict_s < 600.0
        ok = True
        detail = (f"relaxed m=3 in {relaxed_s:.2f}s, strict m=1 in "
                  f"{strict_s:.2f}s; min margin "
                  f"{fraction_to_decimal(min_margin, 45)}")
    finally:
        if not ok:
            detail = "tower inequalities"
        _report(4, ok, detail)


def test_criterion_5_limit_direction_separation(relaxed_m3):
    """The three level-1 directions satisfy the frozen coordinate bounds and
    the four separation sums exceed 1, all exactly."""
    ok = False
    report, _ = relaxed_m3
    try:
        vecs = report["towers"]["vectors"]
        l7, l5, l2 = vecs["lambda7"], vecs["lambda5"], vecs["lambda2"]
        assert l7[6] > Fraction(1, 7)
        assert l5[4] > Fraction(1, 4)
        assert l2[1] > Fraction(1, 34)
        assert l7[4] < Fraction(1, 10)

        sep = report["separation"]
        sums_vs_one = [r for r in sep if r.item.endswith("> 1")]
        assert len(sums_vs_one) == 4
        for r in sums_vs_one:
            assert r.holds and r.lhs > 1
        rendered = [fraction_to_decimal(r.lhs, 6) for r in sums_vs_one]
        assert rendered == ["1.165222", "1.318982", "1.031045", "1.030436"]
        bounded = [r for r in sep if not r.item.endswith("> 1")]
        assert all(r.holds for r in bounded)
        ok = True
        detail = f"separation sums {', '.join(rendered)} all exceed 1"
    finally:
        if not ok:
            detail = "limit direction separation"
        _report(5, ok, detail)


def test_criterion_6_induction_against_independent_oracles():
    """1000 randomized induction steps agree exactly with independently
    computed first-return maps, and the two-interval flip-free map reproduces
    the subtractive gcd trace."""
    ok = False
    try:
        summary = oracle_crosscheck(1000, seed=0)
        assert summary["passes"] == 1000
        assert summary["failures"] == []

        f = Fiet(
            FietCombinatorics(2, (1, 2), (2, 1), frozenset()),
            (Fraction(9), Fraction(5)),
        )
        trace = []
        while True:
            try:
                f, _ = rauzy_step(f)
            except KeaneViolation:
                break
            trace.append((int(f.lengths[0]), int(f.lengths[1])))
        assert trace == subtractive_steps(9, 5)
        assert f.lengths == (Fraction(1), Fraction(1))
        ok = True
    finally:
        _report(6, ok, "1000/1000 random steps match the return map; "
                       "two-interval induction follows subtractive gcd")


def test_criterion_7_distinct_visit_frequencies(limit_reports):
    """Orbits of horizon 100000 from the eight midpoints produce at least two
    starts whose visit-frequency vectors differ by more than 0.1 in L1."""
    ok = False
    reports, _ = limit_reports
    start = time.monotonic()
    try:
        f = Fiet(base_datum(), reports[3].alpha)
        horizon = 100_000
        freq = birkhoff_frequencies(f, midpoint_starts(f), horizon)
        assert all(r.terminated_at is None for r in freq.results)
        gaps = frequency_l1_gaps(freq, horizon)
        max_gap = max(gaps.values())
        assert max_gap > Fraction(1, 10)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        ok = True
        detail = (f"max pairwise L1 gap {fraction_to_decimal(max_gap, 4)} "
                  f"at horizon {horizon} in {elapsed:.2f}s")
    finally:
        if not ok:
            detail = "visit frequency separation"
        _report(7, ok, detail)


def test_criterion_8_contraction_is_monotone(limit_reports):
    """The exact simplex-image diameter strictly shrinks from each block
    depth to the next, for depths 1 through 4."""
    ok = False
    reports, elapsed = limit_reports
    try:
        diameters = [reports[m].contraction_diameter for m in (1, 2, 3, 4)]
        for m in (1, 2, 3):
            assert diameters[m] < diameters[m - 1], f"no contraction at m={m}"
        assert all(d > 0 for d in diameters)
        ok = True
        rendered = ", ".join(fraction_to_decimal(d, 6) for d in diameters)
        detail = f"diameters {rendered} strictly decrease (built in {elapsed:.2f}s)"
    finally:
        if not ok:
            detail = "contraction monotonicity"
        _report(8, ok, detail)
