"""Induction steps, transition matrices, and path threading."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import combinatorics_st, det_fraction_elimination, steppable_fiets_st
from fiet import (
    Fiet,
    FietCombinatorics,
    KeaneViolation,
    RauzyPath,
    TransitionMatrix,
    apply_path,
    base_datum,
    first_return,
    is_irreducible,
    length_driven_letters,
    rauzy_step,
    symbolic_step,
)


def fs(*labels):
    return frozenset(labels)


class TestSymbolicStep:
    def test_domain_winner_unflipped_inserts_after(self):
        c = FietCombinatorics(3, (1, 2, 3), (3, 2, 1), fs())
        out = symbolic_step(c, "b")
        assert (out.winner, out.loser, out.case_tag, out.letter) == (3, 1, "a1", "b")
        assert out.new_comb.pi1 == (3, 1, 2)
        assert out.new_comb.pi0 == c.pi0
        assert out.new_comb.flips == fs()

    def test_domain_winner_flipped_inserts_before_and_toggles(self):
        c = FietCombinatorics(3, (1, 2, 3), (3, 2, 1), fs(3))
        out = symbolic_step(c, "b")
        assert out.case_tag == "a2"
        assert out.new_comb.pi1 == (1, 3, 2)
        assert out.new_comb.flips == fs(1, 3)

    def test_range_winner_unflipped(self):
        c = FietCombinatorics(3, (1, 2, 3), (3, 2, 1), fs())
        out = symbolic_step(c, "a")
        assert (out.winner, out.loser, out.case_tag) == (1, 3, "b1")
        assert out.new_comb.pi0 == (1, 3, 2)
        assert out.new_comb.pi1 == c.pi1

    def test_range_winner_flipped(self):
        c = FietCombinatorics(3, (1, 2, 3), (3, 2, 1), fs(1))
        out = symbolic_step(c, "a")
        assert out.case_tag == "b2"
        assert out.new_comb.pi0 == (3, 1, 2)
        assert out.new_comb.flips == fs(1, 3)

    def test_bad_letter_rejected(self):
        with pytest.raises(ValueError):
            symbolic_step(base_datum(), "c")

    def test_coinciding_rightmost_labels_rejected(self):
        c = FietCombinatorics(3, (1, 2, 3), (2, 1, 3), fs())
        with pytest.raises(KeaneViolation):
            symbolic_step(c, "a")

    def test_step_matrix_is_elementary(self):
        out = symbolic_step(base_datum(), "a")
        assert out.matrix == TransitionMatrix.elementary(8, out.winner, out.loser)

    @given(combinatorics_st())
    def test_flips_stay_within_labels(self, c):
        for letter in "ab":
            try:
                out = symbolic_step(c, letter)
            except KeaneViolation:
                continue
            assert out.new_comb.flips <= set(range(1, c.n + 1))
            assert out.new_comb.n == c.n


class TestRauzyStep:
    def test_tie_is_rejected_with_lengths(self):
        f = Fiet(FietCombinatorics(2, (1, 2), (2, 1), fs()), (F(3), F(3)))
        with pytest.raises(KeaneViolation):
            rauzy_step(f)

    @settings(deadline=None)
    @given(steppable_fiets_st())
    def test_matrix_sends_new_lengths_to_old(self, f):
        f2, out = rauzy_step(f)
        assert out.matrix.mat_vec(f2.lengths) == f.lengths

    @settings(deadline=None)
    @given(steppable_fiets_st())
    def test_letter_matches_which_side_won(self, f):
        _, out = rauzy_step(f)
        if out.letter == "b":
            assert out.winner == f.comb.pi0[-1]
            assert out.case_tag.startswith("a")
        else:
            assert out.winner == f.comb.pi1[-1]
            assert out.case_tag.startswith("b")
        assert out.case_tag.endswith("2" if out.winner in f.comb.flips else "1")

    @settings(max_examples=60, deadline=None)
    @given(steppable_fiets_st())
    def test_agrees_with_first_return(self, f):
        cut = f.total_length - min(
            f.length_of(f.comb.pi0[-1]), f.length_of(f.comb.pi1[-1])
        )
        f2, _ = rauzy_step(f)
        assert first_return(f, cut) == f2


class TestTransitionMatrix:
    def test_identity_and_elementary(self):
        e = TransitionMatrix.elementary(3, 2, 1)
        assert e.rows == ((1, 0, 0), (1, 1, 0), (0, 0, 1))
        i3 = TransitionMatrix.identity(3)
        assert i3 @ e == e @ i3 == e

    def test_elementary_power_matches_repeated_product(self):
        e = TransitionMatrix.elementary(4, 3, 2)
        prod = TransitionMatrix.identity(4)
        for _ in range(7):
            prod = prod @ e
        assert prod == TransitionMatrix.elementary_power(4, 3, 2, 7)

    def test_power(self):
        m = TransitionMatrix(((1, 1), (1, 0)))
        assert m.power(0) == TransitionMatrix.identity(2)
        assert m.power(5) == m @ m @ m @ m @ m

    def test_mat_vec_and_sums(self):
        m = TransitionMatrix(((1, 2), (3, 4)))
        assert m.mat_vec((F(1), F(1, 2))) == (F(2), F(5))
        assert m.column_sums() == (4, 6)
        assert m.row_sums() == (3, 7)
        assert m.column(1) == (1, 3)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            TransitionMatrix(((1, 2), (3,)))


class TestRauzyPath:
    def test_from_word_round_trip(self):
        p = RauzyPath.from_word("aaabba")
        assert p.runs == (("a", 3), ("b", 2), ("a", 1))
        assert p.word() == "aaabba"
        assert p.length == 6

    def test_adjacent_runs_merge(self):
        p = RauzyPath((("a", 2), ("a", 3), ("b", 1), ("b", 0)))
        assert p.runs == (("a", 5), ("b", 1))

    def test_repeat(self):
        p = RauzyPath.from_word("ab")
        assert p.repeat(3).word() == "ababab"
        assert RauzyPath.from_word("a").repeat(2).runs == (("a", 2),)

    def test_word_expansion_guard(self):
        p = RauzyPath((("a", 10**9),))
        with pytest.raises(ValueError):
            p.word()
        assert p.length == 10**9

    def test_invalid_letters_rejected(self):
        with pytest.raises(ValueError):
            RauzyPath((("x", 1),))
        with pytest.raises(ValueError):
            RauzyPath((("a", -1),))


class TestApplyPath:
    def test_empty_path_is_identity(self):
        c = base_datum()
        end, m = apply_path(c, RauzyPath(()))
        assert end == c
        assert m == TransitionMatrix.identity(8)

    @settings(max_examples=60, deadline=None)
    @given(combinatorics_st(), st.lists(st.tuples(
        st.sampled_from("ab"), st.integers(1, 6)), max_size=8))
    def test_matches_naive_stepping(self, c, runs):
        path = RauzyPath(tuple(runs))
        try:
            cur = c
            total = TransitionMatrix.identity(c.n)
            for letter in path.word():
                out = symbolic_step(cur, letter)
                cur, total = out.new_comb, total @ out.matrix
        except KeaneViolation:
            with pytest.raises(KeaneViolation):
                apply_path(c, path)
            return
        end, m = apply_path(c, path)
        assert end == cur
        assert m == total

    def test_long_run_on_fixed_state_compresses_exactly(self):
        # Two swapped unflipped intervals are fixed by either step type, so a
        # run of length K has matrix I + K*e without iterating K times.
        c = FietCombinatorics(2, (1, 2), (2, 1), fs())
        big = 10**12
        end, m = apply_path(c, RauzyPath((("b", big),)))
        assert end == c
        assert m == TransitionMatrix.elementary_power(2, 2, 1, big)

    # Under repeated 'a' steps the unflipped winner 1 stays put and the three
    # labels after it rotate, so the states have period 3 and a long run
    # needs both the quotient and the remainder of its count by the period.
    CYCLING = FietCombinatorics(4, (1, 2, 3, 4), (4, 3, 2, 1), frozenset({2}))

    def test_long_run_on_cycling_states(self):
        c = self.CYCLING
        count = 23
        end_direct = c
        total = TransitionMatrix.identity(4)
        for _ in range(count):
            out = symbolic_step(end_direct, "a")
            end_direct, total = out.new_comb, total @ out.matrix
        end, m = apply_path(c, RauzyPath((("a", count),)))
        assert (end, m) == (end_direct, total)

    def test_long_run_splits_multiplicatively(self):
        # The cycle has period 3, so a run of 10002 'a' steps returns to its
        # start state after 5001 steps and the product factors exactly.
        c = self.CYCLING
        half = RauzyPath((("a", 5001),))
        mid, m_half = apply_path(c, half)
        assert mid == c
        end, m_full = apply_path(c, RauzyPath((("a", 10002),)))
        assert end == c
        assert m_full == m_half @ m_half
        assert det_fraction_elimination(m_full.rows) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40))
    def test_path_determinant_is_one(self, ln):
        word = ("ab" * ln)[:ln]
        _, m = apply_path(base_datum(), RauzyPath.from_word(word))
        assert det_fraction_elimination(m.rows) == 1

    def test_power_threads_repeatedly(self):
        path = RauzyPath.from_word("aab")
        c = base_datum()
        end1, m1 = apply_path(c, path)
        end2, m2 = apply_path(end1, path)
        end_p, m_p = apply_path(c, path.repeat(2))
        assert end_p == end2
        assert m_p == m1 @ m2
        end0, m0 = apply_path(c, path.repeat(0))
        assert end0 == c
        assert m0 == TransitionMatrix.identity(8)


class TestInducedSubpermutation:
    def test_full_label_set_returns_rows(self):
        c = base_datum()
        assert c.restrict(range(1, 9)) == (c.pi0, c.pi1)

    def test_restriction_keeps_relative_order(self):
        c = base_datum()
        assert c.restrict((2, 3, 4)) == ((2, 3, 4), (4, 2, 3))

    def test_unknown_labels_rejected(self):
        c = base_datum()
        with pytest.raises(ValueError):
            c.restrict((0, 9))


class TestLengthDriven:
    def test_letters_follow_subtractive_comparisons(self):
        # Lengths (9, 5): label 1 wins (9 > 5, letter 'a'), then label 2 wins
        # (5 > 4, letter 'b'), then label 1 again (4 > 1, letter 'a') —
        # mirroring which side of the subtractive gcd pair shrinks.
        f = Fiet(FietCombinatorics(2, (1, 2), (2, 1), fs()), (F(9), F(5)))
        assert length_driven_letters(f, 3) == ("a", "b", "a")


def cycle_power_run(c, letter, count):
    """Reference run algorithm: matrix products, and a power of the cycle matrix.

    Steps one letter until a state repeats, then multiplies by the cycle
    matrix raised to the number of whole cycles left and steps the rest.
    """
    seen, states, mats = {c: 0}, [c], []
    total = TransitionMatrix.identity(c.n)
    t = 0
    while t < count:
        out = symbolic_step(states[-1], letter)
        mats.append(out.matrix)
        total = total @ out.matrix
        t += 1
        if out.new_comb in seen:
            i = seen[out.new_comb]
            q, r = divmod(count - t, t - i)
            cycle = TransitionMatrix.identity(c.n)
            for m in mats[i:]:
                cycle = cycle @ m
            total = total @ cycle.power(q)
            for m in mats[i:i + r]:
                total = total @ m
            return states[i + r], total
        seen[out.new_comb] = t
        states.append(out.new_comb)
    return states[-1], total


def cycle_power_path(c, path):
    total = TransitionMatrix.identity(c.n)
    for letter, count in path.runs:
        c, m = cycle_power_run(c, letter, count)
        total = total @ m
    return c, total


irreducible_st = combinatorics_st(max_n=8).filter(is_irreducible)


class TestOneLetterRun:
    """The premise of apply_path's run rule, on reducible combinatorics too."""

    @settings(max_examples=300, deadline=None)
    @given(combinatorics_st(max_n=8), st.sampled_from("ab"))
    def test_winner_fixed_and_state_returns_within_n_steps(self, c, letter):
        cur, winners = c, set()
        for _ in range(c.n):
            try:
                out = symbolic_step(cur, letter)
            except KeaneViolation:
                break
            winners.add(out.winner)
            cur = out.new_comb
            if cur == c:
                break
        else:
            pytest.fail(f"{c.n} {letter!r} steps neither returned nor stopped")
        assert len(winners) <= 1


class TestColumnThreading:
    @settings(max_examples=80, deadline=None)
    @given(irreducible_st, st.lists(st.tuples(
        st.sampled_from("ab"), st.integers(1, 12)), max_size=6))
    def test_equals_product_of_step_matrices(self, c, runs):
        path = RauzyPath(tuple(runs))
        try:
            cur = c
            total = TransitionMatrix.identity(c.n)
            for letter in path.word():
                out = symbolic_step(cur, letter)
                cur, total = out.new_comb, total @ out.matrix
        except KeaneViolation:
            with pytest.raises(KeaneViolation):
                apply_path(c, path)
            return
        assert apply_path(c, path) == (cur, total)

    @settings(max_examples=60, deadline=None)
    @given(combinatorics_st(max_n=8), st.lists(st.tuples(
        st.sampled_from("ab"), st.integers(1, 10**40)), max_size=5))
    def test_huge_runs_match_cycle_powers(self, c, runs):
        path = RauzyPath(tuple(runs))
        try:
            expected = cycle_power_path(c, path)
        except KeaneViolation:
            with pytest.raises(KeaneViolation):
                apply_path(c, path)
            return
        assert apply_path(c, path) == expected

    def test_period_three_cycle_with_huge_count(self):
        c = TestApplyPath.CYCLING
        count = 10**40 + 1  # 2 mod the period 3: the run ends mid-cycle
        end, m = apply_path(c, RauzyPath((("a", count),)))
        assert (end, m) == cycle_power_run(c, "a", count)
        assert end != c
        assert det_fraction_elimination(m.rows) == 1

    def test_fixed_state_run_is_one_update(self):
        c = FietCombinatorics(2, (1, 2), (2, 1), fs())
        count = 10**40
        end, m = apply_path(c, RauzyPath((("a", count), ("b", count))))
        assert end == c
        assert m == (TransitionMatrix.elementary_power(2, 1, 2, count)
                     @ TransitionMatrix.elementary_power(2, 2, 1, count))
