"""Exact map evaluation, orbits, partitions, and the first-return oracle."""

import functools
import math
import signal
import types
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fiet
from conftest import combinatorics_st, fiets_st, steppable_fiets_st
from fiet import core, orbits, verify, window
from fiet.core import Record, _Tiles, replace
from fiet import (
    DomainError,
    Fiet,
    FietCombinatorics,
    FlipDiscontinuityError,
    InequalityRecord,
    OracleInapplicable,
    OrbitPoint,
    OrbitTerminated,
    ParameterSchedule,
    PathParameters,
    RauzyPath,
    ResourceLimitError,
    StepOutcome,
    TransitionMatrix,
    base_datum,
    birkhoff_frequencies,
    cycle_states,
    domain_partition,
    evaluate,
    first_return,
    is_irreducible,
    iterate,
    limit_vectors,
    midpoint_starts,
    range_partition,
    rauzy_step,
    theta_copy,
)


def fs(*labels):
    return frozenset(labels)


# Three-interval map with two reflected labels; its two sample values below
# are worked examples for the flipped evaluation formula.
FLIPPY = Fiet(
    FietCombinatorics(3, (1, 2, 3), (2, 3, 1), fs(1, 3)),
    (F(1), F(5), F(4)),
)

# A rotation whose orbit from 0 is dense: see the max_gap tests below.
DENSE_ROTATION = Fiet(
    FietCombinatorics(2, (1, 2), (2, 1), fs()),
    (F(1), F(1618033, 1000000)),
)


class TestPartitions:
    def test_domain_tiles(self):
        assert domain_partition(FLIPPY) == [
            (1, F(0), F(1)),
            (2, F(1), F(6)),
            (3, F(6), F(10)),
        ]

    def test_range_tiles(self):
        assert range_partition(FLIPPY) == [
            (2, F(0), F(5)),
            (3, F(5), F(9)),
            (1, F(9), F(10)),
        ]

    @given(fiets_st())
    def test_tiles_cover_interval_exactly(self, f):
        for tiles in (domain_partition(f), range_partition(f)):
            assert tiles[0][1] == 0
            for (_, _, hi), (_, lo, _) in zip(tiles, tiles[1:]):
                assert hi == lo
            assert tiles[-1][2] == f.total_length
            assert sorted(t[0] for t in tiles) == list(range(1, f.n + 1))


class TestEvaluate:
    def test_reflected_label_formula(self):
        assert evaluate(FLIPPY, F(1, 2)) == F(19, 2)

    def test_translated_label_formula(self):
        assert evaluate(FLIPPY, 2) == 1

    def test_single_interval_identity(self):
        f = Fiet(FietCombinatorics(1, (1,), (1,), fs()), (F(5),))
        assert evaluate(f, F(7, 3)) == F(7, 3)

    def test_single_interval_reflection(self):
        f = Fiet(FietCombinatorics(1, (1,), (1,), fs(1)), (F(5),))
        assert evaluate(f, 2) == 3
        with pytest.raises(FlipDiscontinuityError):
            evaluate(f, 0)

    @pytest.mark.parametrize("x", [-1, 10, F(21, 2), 100])
    def test_outside_interval_rejected(self, x):
        with pytest.raises(DomainError):
            evaluate(FLIPPY, x)

    def test_flipped_left_endpoints_are_discontinuities(self):
        for label, lo, _ in domain_partition(FLIPPY):
            if label in FLIPPY.comb.flips:
                with pytest.raises(FlipDiscontinuityError) as exc:
                    evaluate(FLIPPY, lo)
                assert exc.value.label == label
            else:
                evaluate(FLIPPY, lo)  # defined

    @given(fiets_st())
    def test_image_stays_in_interval(self, f):
        for _, lo, hi in domain_partition(f):
            x = (lo + hi) / 2
            assert 0 <= evaluate(f, x) < f.total_length

    @given(fiets_st())
    def test_isometry_on_each_tile(self, f):
        for _, lo, hi in domain_partition(f):
            x = lo + (hi - lo) / 4
            y = lo + 3 * (hi - lo) / 4
            assert abs(evaluate(f, x) - evaluate(f, y)) == y - x

    @given(fiets_st())
    def test_midpoint_images_are_distinct(self, f):
        images = [evaluate(f, (lo + hi) / 2) for _, lo, hi in domain_partition(f)]
        assert len(set(images)) == len(images)

    @given(fiets_st())
    def test_inverse_returns_every_midpoint(self, f):
        g = f.inverse()
        for _, lo, hi in domain_partition(f):
            x = (lo + hi) / 2
            assert evaluate(g, evaluate(f, x)) == x


class TestIterate:
    def test_zero_steps(self):
        pt = iterate(FLIPPY, 2, 0)
        assert pt.position == 2
        assert pt.visit_counts == (0, 0, 0)

    def test_counts_match_replay(self):
        steps = 25
        pt = iterate(FLIPPY, F(1, 2), steps)
        x = F(1, 2)
        counts = [0, 0, 0]
        for _ in range(steps):
            for label, lo, hi in domain_partition(FLIPPY):
                if lo <= x < hi:
                    counts[label - 1] += 1
                    break
            x = evaluate(FLIPPY, x)
        assert pt.position == x
        assert pt.visit_counts == tuple(counts)
        assert sum(pt.visit_counts) == steps

    def test_termination_carries_step_and_partial_counts(self):
        # x -> 3 - x on [0, 3); starting at 2 reaches the undefined point 1
        # after one step.
        f = Fiet(FietCombinatorics(2, (1, 2), (2, 1), fs(1, 2)), (F(1), F(2)))
        with pytest.raises(OrbitTerminated) as exc:
            iterate(f, 2, 10)
        assert exc.value.step == 1
        assert exc.value.position == 1
        assert exc.value.visit_counts == (0, 1)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            iterate(FLIPPY, 0, -1)

    def test_start_outside_rejected(self):
        with pytest.raises(DomainError):
            iterate(FLIPPY, 11, 1)


def reference_orbit(f, x, steps):
    """Positions x_0.. and labels of up to ``steps`` steps, by the Fraction
    formula of the map; stops at a flipped left endpoint (no image)."""
    left = {label: lo for label, lo, _ in range_partition(f)}
    tiles = domain_partition(f)
    xs, labels = [F(x)], []
    for _ in range(steps):
        label, u, hi = next(t for t in tiles if t[1] <= xs[-1] < t[2])
        if label in f.comb.flips and xs[-1] == u:
            break
        d = hi - xs[-1] if label in f.comb.flips else xs[-1] - u
        xs.append(left[label] + d)
        labels.append(label)
    return xs, labels


def label_counts(f, labels):
    return tuple(labels.count(k) for k in range(1, f.n + 1))


def reference_max_gap(f, xs, done):
    """Largest gap the sorted points x_0 .. x_{done-1} (x_0 alone when
    done == 0) leave in [0, L)."""
    visited = sorted(xs[: max(done, 1)])
    gaps = [visited[0], f.total_length - visited[-1]]
    gaps += [b - a for a, b in zip(visited, visited[1:])]
    return max(gaps)


def check_birkhoff(f, start, horizons):
    """Every row of birkhoff_frequencies from one start, and iterate to each
    row's horizon, against the reference orbit; returns the report."""
    xs, labels = reference_orbit(f, start, max(horizons))
    rep = birkhoff_frequencies(f, (start,), horizons)
    for r in rep.results:
        done = min(r.horizon, len(labels))
        assert r.steps_completed == done
        assert r.terminated_at == (None if done == r.horizon else done)
        counts = label_counts(f, labels[:done])
        assert r.frequencies == tuple(
            F(c, done) if done else F(0) for c in counts
        )
        assert r.max_gap == reference_max_gap(f, xs, done)
        if done == r.horizon:
            pt = iterate(f, start, r.horizon)
            assert (pt.position, pt.visit_counts) == (xs[done], counts)
        else:
            with pytest.raises(OrbitTerminated) as exc:
                iterate(f, start, r.horizon)
            assert exc.value.step == done
            assert (exc.value.position, exc.value.visit_counts) == (xs[done], counts)
    return rep


@st.composite
def fiet_and_start_st(draw):
    """An FIET and a start j/29 in [0, L): 29 divides no length denominator."""
    f = draw(fiets_st())
    j = draw(st.integers(0, int(f.total_length * 29) - 1))
    return f, F(j, 29)


class TestKernelAgainstReference:
    STEPS = 30

    @settings(max_examples=60, deadline=None)
    @given(fiet_and_start_st())
    def test_iterate_and_evaluate_step_by_step(self, fx):
        f, x = fx
        xs, labels = reference_orbit(f, x, self.STEPS)
        for k in range(len(labels) + 1):
            pt = iterate(f, x, k)
            assert pt.position == xs[k]
            assert pt.visit_counts == label_counts(f, labels[:k])
        for a, b in zip(xs, xs[1:]):
            assert evaluate(f, a) == b
        if len(labels) < self.STEPS:
            with pytest.raises(OrbitTerminated) as exc:
                iterate(f, x, self.STEPS)
            assert exc.value.step == len(labels)
            assert exc.value.position == xs[-1]
            assert exc.value.visit_counts == label_counts(f, labels)
            with pytest.raises(FlipDiscontinuityError):
                evaluate(f, xs[-1])

    @settings(max_examples=60, deadline=None)
    @given(fiet_and_start_st())
    def test_birkhoff_counts_step_by_step(self, fx):
        check_birkhoff(*fx, range(1, self.STEPS + 1))

    # FLIPPY's flipped left endpoints 0 and 6 are terminal at step 0, and 5
    # reaches 0 after five steps (5 -> 4 -> 3 -> 2 -> 1 -> 0).
    @pytest.mark.parametrize("start, steps", [(F(5), 5), (F(6), 0)])
    def test_birkhoff_max_gap_around_termination(self, start, steps):
        rep = check_birkhoff(FLIPPY, start, (1, 4, 5, 6, 9))
        assert rep.results[-1].terminated_at == steps

    def test_birkhoff_max_gap_of_a_dense_rotation(self):
        # Gaps finer than the starting grid's cells force a second, finer
        # walk.  At 15359 and 18553 points the longest gap is unique and lies
        # inside one cell of the starting grid, so only that walk finds it.
        f = DENSE_ROTATION
        horizons = (1000, 15359, 18553, 20000)
        xs, _ = reference_orbit(f, F(0), max(horizons))
        rep = birkhoff_frequencies(f, (F(0),), horizons)
        for r in rep.results:
            assert r.max_gap == reference_max_gap(f, xs, r.horizon)
        assert rep.results[-1].max_gap < f.total_length / 4096

    def test_finer_grid_over_the_cell_limit_is_refused(self, monkeypatch):
        # The finer walk of the dense rotation needs more cells than the
        # starting grid's; under a limit of that many, it is refused before
        # it allocates, and only the starting grid was walked.
        walks = []
        walk = orbits._walk
        monkeypatch.setattr(orbits, "_walk", lambda *a: walks.append(a) or walk(*a))
        monkeypatch.setattr(orbits, "MAX_GAP_CELLS", 1 << orbits.GAP_CELLS_LOG2)
        with pytest.raises(ResourceLimitError, match="grid cells"):
            birkhoff_frequencies(DENSE_ROTATION, (F(0),), (1000, 20000))
        assert len(walks) == 1

    @given(fiets_st())
    def test_flipped_left_endpoint_terminates_at_step_zero(self, f):
        for label, u, _ in domain_partition(f):
            if label not in f.comb.flips:
                continue
            assert reference_orbit(f, u, 1) == ([u], [])
            with pytest.raises(FlipDiscontinuityError):
                evaluate(f, u)
            with pytest.raises(OrbitTerminated) as exc:
                iterate(f, u, 5)
            assert (exc.value.step, exc.value.position) == (0, u)
            assert exc.value.visit_counts == (0,) * f.n
            (r,) = birkhoff_frequencies(f, (u,), 5).results
            assert (r.terminated_at, r.steps_completed) == (0, 0)
            assert r.frequencies == (F(0),) * f.n

    def test_constructed_alpha_midpoints(self):
        alpha = limit_vectors(ParameterSchedule.relaxed(), 2, family="computed").alpha
        f = Fiet(base_datum(), alpha)
        starts = midpoint_starts(f)
        rep = birkhoff_frequencies(f, starts, 2000)
        for start, r in zip(starts, rep.results):
            xs, labels = reference_orbit(f, start, 2000)
            assert (r.steps_completed, r.terminated_at) == (2000, None)
            assert r.frequencies == tuple(
                F(c, 2000) for c in label_counts(f, labels)
            )
            assert r.max_gap == reference_max_gap(f, xs, 2000)


@st.composite
def small_fiet_and_start_st(draw):
    """An FIET with lengths k/q, q <= 3, and a start j/(2q): its orbits are
    eventually periodic and cross translation runs within a few thousand
    steps."""
    c = draw(combinatorics_st(min_n=2, max_n=4))
    q = draw(st.sampled_from((1, 2, 3)))
    f = Fiet(c, tuple(F(draw(st.integers(1, 40)), q) for _ in range(c.n)))
    j = draw(st.integers(0, int(f.total_length * 2 * q) - 1))
    return f, F(j, 2 * q)


@pytest.fixture
def jumps(monkeypatch):
    """(p, steps allowed, windows crossed, displacement) of each crossing."""
    taken = []
    crossed = window.crossed

    def record(tiles, cuts, y, delta, p, k):
        crossings = crossed(tiles, cuts, y, delta, p, k)
        if crossings:
            taken.append((p, k * p, crossings, delta))
        return crossings

    monkeypatch.setattr(window, "crossed", record)
    return taken


def swap(flips, lengths):
    """The two-interval exchange (1, 2)/(2, 1) with these flips."""
    return Fiet(FietCombinatorics(2, (1, 2), (2, 1), flips), lengths)


class TestJumpAhead:
    """The orbit walk crosses translation runs in closed form; every row
    must still equal the step-by-step reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        small_fiet_and_start_st(),
        st.lists(st.integers(1, 3000), min_size=1, max_size=3),
    )
    def test_against_the_reference(self, fx, horizons):
        check_birkhoff(*fx, horizons)

    def test_horizon_inside_a_run(self, jumps):
        # 1/2 -> 61/2 -> 59/2 -> ...: a run of x -> x - 1, period 31.
        f = swap(fs(), (F(1), F(30)))
        check_birkhoff(f, F(1, 2), (10, 20, 31, 45, 100))
        assert any(k == left // p for p, left, k, _ in jumps)
        assert any(delta for *_, delta in jumps)

    def test_termination_right_after_a_run(self, jumps):
        # 29 -> 28 -> ... -> 0, the left end of the flipped tile: the run
        # jumped at step 7 ends on the terminal point at step 29.  iterate
        # walks to one horizon at a time: to 100, its jump at step 2 stops
        # on that point too.
        f = swap(fs(1), (F(1), F(30)))
        rep = check_birkhoff(f, F(29), (5, 29, 30, 100))
        assert [r.terminated_at for r in rep.results] == [None, None, 29, 29]
        assert jumps[1] == (1, 22, 22, -2)
        assert jumps[-1] == (1, 98, 27, -2)

    def test_run_ending_on_a_flipped_left_end(self):
        # Every tile is flipped, so two steps make a translation: tile 3
        # sees 13, 15, 17 while tile 2 sees 6, 4, 2, its own left end,
        # where the orbit stops at step 11.  No jump may step onto it.
        f = Fiet(
            FietCombinatorics(3, (1, 2, 3), (3, 1, 2), fs(1, 2, 3)),
            (F(2), F(5), F(12)),
        )
        rep = check_birkhoff(f, F(14), (5, 12, 200))
        assert [r.terminated_at for r in rep.results] == [None, 11, 11]

    def test_orientation_reversing_window_is_not_crossed(self):
        # 6 -> 1 -> 5 -> 2 -> 6: T^2 is x -> 3 - x near 1 and sends 1 to 2,
        # so 1, 2, 3, ... is no orbit progression.
        check_birkhoff(swap(fs(2), (F(3), F(4))), F(6), (3, 50))

    @settings(max_examples=40, deadline=None)
    @given(
        small_fiet_and_start_st(),
        st.lists(st.integers(1, 3000), min_size=1, max_size=3),
        st.integers(0, 10),
    )
    # 0 -> 2 -> 4 -> ... -> 8 -> 10 -> 1 -> ... -> 9: runs whose terms fall
    # on the first point of a cell (scale 2, cells of width 8).
    @example((swap(fs(2), (F(9), F(2))), F(0)), [20], 3)
    def test_walk_on_any_grid(self, fx, horizons, s):
        check_walk(*fx, horizons, s)

    def test_periodic_orbit_reversing_orientation(self):
        # 11 -> 7 -> 3 -> 23 -> 19 -> 15 -> 11 crosses the flipped tile once,
        # so T^6 is x -> 22 - x near 11: the orbit is periodic, and its
        # windows alternate in orientation all the way to the horizon.
        f = Fiet(FietCombinatorics(3, (1, 2, 3), (2, 3, 1), fs(1)), (F(4), F(12), F(10)))
        check_walk(f, F(11), (5, 13, 300), 0)
        pt = iterate(f, F(11), 10**12)
        assert pt == OrbitPoint(F(19), (166666666667, 500000000000, 333333333333))

    def test_refused_crossings_back_off(self, monkeypatch):
        # The golden-mean rotation's tiles come back at repeating gaps of 1
        # and 2, but no window of them is ever crossed.  Each refusal
        # doubles the tile's wait, so 10**5 steps try a few dozen crossings
        # instead of one every few steps.
        calls = []
        crossed = window.crossed
        monkeypatch.setattr(window, "crossed", lambda *a: calls.append(a) or crossed(*a))
        f = swap(fs(), (F(1), F(1618033, 1000000)))
        assert iterate(f, F(0), 10**5).visit_counts == (38197, 61803)
        assert len(calls) <= 100

    def test_coarse_to_fine_rewalk(self, jumps):
        # One period visits every half-integer of [0, 10001): gaps of 1,
        # narrower than a cell of the starting grid, so the start is
        # walked again on a finer one.
        f = swap(fs(), (F(1), F(10000)))
        rep = check_birkhoff(f, F(1, 2), (5000, 10001, 12000))
        assert rep.results[-1].max_gap == 1 < f.total_length / 4096
        assert jumps


def check_walk(f, start, horizons, s):
    """The rows of ``core._walk`` from ``start`` on cells of width 2**s
    against the step-by-step reference: steps done, counts, end point and
    the largest gap between the per-cell extremes of the visited points."""
    horizons = tuple(sorted(set(horizons)))
    kernel = _Tiles(f, (start,))
    rows = core._walk(kernel, int(start * kernel.scale), horizons, s)
    xs, labels = reference_orbit(f, start, horizons[-1])
    for h, (done, counts, gap, x) in zip(horizons, rows):
        assert done == min(h, len(labels))
        assert counts == label_counts(f, labels[:done])
        assert x == xs[done] * kernel.scale
        cells = {}
        for v in xs[: max(done, 1)]:
            v = int(v * kernel.scale)
            lo, hi = cells.get(v >> s, (v, v))
            cells[v >> s] = (min(lo, v), max(hi, v))
        want = prev = 0
        for cell in sorted(cells):
            want = max(want, cells[cell][0] - prev)
            prev = cells[cell][1]
        assert gap == max(want, kernel.L - prev)


@st.composite
def nested_fiet_and_start_st(draw):
    """An FIET with lengths k/q, q up to 997, a start j/(2q) and a grid
    width 2**s: long periods whose jump windows hold inner runs."""
    c = draw(combinatorics_st(min_n=2, max_n=6))
    q = draw(st.sampled_from((1, 2, 3, 7, 60, 997)))
    f = Fiet(c, tuple(F(draw(st.integers(1, 40 * q)), q) for _ in range(c.n)))
    start = F(draw(st.integers(0, int(f.total_length * 2 * q) - 1)), 2 * q)
    s = draw(st.integers(0, _Tiles(f, (start,)).L.bit_length()))
    return f, start, s


# f maps [0, 2/3) by +7/2 and [2/3, 25/6) by -2/3.  From 19/6 the orbit
# steps down tile 2 five or six times between visits to tile 1, so its
# jump windows (p = 6, delta = 1/6) each hold a run of tile-2 steps.
NESTED_SWAP = swap(fs(), (F(2, 3), F(7, 2)))


# Every tile is flipped: the orbit from 14 reaches 2, tile 2's left end,
# at step 11 and stops there.
ALL_FLIPPED = Fiet(
    FietCombinatorics(3, (1, 2, 3), (3, 1, 2), fs(1, 2, 3)),
    (F(2), F(5), F(12)),
)


def walk_by_segments(kernel, x, p):
    """(steps in the segments, steps walked, point reached, orientation)
    of the walk ``window.segments`` makes from the scaled point x up to
    step p."""
    walk = window.segments(kernel.tiles, kernel.cuts, x, p)
    steps = 0
    while True:
        try:
            steps += next(walk)[5]
        except StopIteration as stop:
            done, end, e, _ = stop.value
            return steps, done, end, e


class TestNestedRuns:
    """A jump window is walked by segments, each a step or an inner run
    crossed in closed form; every row must still equal the step-by-step
    reference."""

    @settings(max_examples=25, deadline=None)
    @given(
        nested_fiet_and_start_st(),
        st.lists(st.integers(1, 20000), min_size=1, max_size=3),
    )
    @example((NESTED_SWAP, F(19, 6), 2), [50, 300, 2000])
    def test_walk_against_the_reference(self, fxs, horizons):
        f, start, s = fxs
        check_walk(f, start, horizons, s)

    @pytest.mark.parametrize("s", [0, 2, 4, 6])
    def test_jump_window_with_an_inner_run(self, monkeypatch, s):
        # The jump writes each inner run as one box of two dimensions: the
        # run's own steps (-2/3, scaled -8) and the windows crossed (+1/6).
        boxes = []
        write = core.write

        def record(lo, hi, width, z, dims):
            boxes.append(dims)
            write(lo, hi, width, z, dims)

        monkeypatch.setattr(core, "write", record)
        check_walk(NESTED_SWAP, F(19, 6), (50, 300, 2000), s)
        assert ((-8, 3), (2, 2)) in boxes

    @settings(max_examples=40, deadline=None)
    @given(nested_fiet_and_start_st(), st.integers(1, 3000))
    def test_segments_are_the_window(self, fxs, p):
        # Every point of every segment's box, with its tile's label and its
        # orientation, is one step of the orbit, and there are p of them.
        f, start, _ = fxs
        xs, labels = reference_orbit(f, start, p)
        assume(len(labels) == p)
        kernel = _Tiles(f, (start,))
        want, e = [], 1
        for x, label in zip(xs, labels):
            want.append((int(x * kernel.scale), label, e))
            e = -e if label in f.comb.flips else e
        got = []
        for tile, z, orientation, a, b, n, dims in window.segments(
            kernel.tiles, kernel.cuts, int(start * kernel.scale), p
        ):
            points = [z]
            for D, r in dims:
                points = [v + i * D for v in points for i in range(r)]
            assert (len(points), min(points), max(points)) == (n, a, b)
            got += [(v, tile[0], orientation) for v in points]
        assert sorted(got) == sorted(want)

    @settings(max_examples=40, deadline=None)
    @given(nested_fiet_and_start_st(), st.integers(1, 3000))
    @example((ALL_FLIPPED, F(14), 0), 200)
    # A periodic window that reverses orientation, crossed an odd number of
    # times: the walk goes on at the opposite orientation.
    @example((Fiet(FietCombinatorics(4, (1, 2, 3, 4), (2, 3, 4, 1), fs(1, 2)),
                   (F(4), F(1), F(3), F(35))), F(43, 2), 0), 1363)
    def test_segments_return_where_the_walk_stops(self, fxs, p):
        # Run as the top-level walk, segments stops at step p or before a
        # flipped tile's left end, and returns the steps it walked, the
        # point it reached and the orientation there.
        f, start, _ = fxs
        xs, labels = reference_orbit(f, start, p)
        kernel = _Tiles(f, (start,))
        steps, done, end, e = walk_by_segments(kernel, int(start * kernel.scale), p)
        assert steps == done == len(labels)
        assert end == xs[done] * kernel.scale
        assert e == (-1) ** sum(label in f.comb.flips for label in labels)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 12)), max_size=3),
        st.integers(0, 7),
    )
    def test_write_keeps_the_extremes_of_every_point(self, dims, s):
        points = [0]
        for D, r in dims:
            points = [v + i * D for v in points for i in range(r)]
        z = -min(points)
        size = ((max(points) + z) >> s) + 1
        lo, hi = [size << s] * size, [-1] * size
        want_lo, want_hi = lo[:], hi[:]
        window.write(lo, hi, s, z, tuple(dims))
        for v in points:
            cell = (v + z) >> s
            want_lo[cell] = min(want_lo[cell], v + z)
            want_hi[cell] = max(want_hi[cell], v + z)
        assert (lo, hi) == (want_lo, want_hi)


def certificate_tower(schedule, depth, family):
    """(thetas, maps) of a depth-m tower with J = 3m copies.

    thetas[k] is copy k's matrix (k = 1..J) and maps[k] is F_k =
    Fiet(cycle state k mod 3, lambda_k) with the integer lengths
    lambda_k = theta_(k+1) ... theta_J (1, ..., 1), so lambda_(k-1) =
    theta_k lambda_k and nothing is solved.
    """
    copies = 3 * depth
    thetas = [None] + [theta_copy(schedule, k, family) for k in range(1, copies + 1)]
    lengths = [(1,) * 8]
    for theta in reversed(thetas[1:]):
        lengths.insert(0, theta.mat_vec(lengths[0]))
    return thetas, [Fiet(cycle_states()[k % 3], lam) for k, lam in enumerate(lengths)]


def walk_copy(thetas, maps, k, labels=range(1, 9)):
    """For each tile of F_k with a label in ``labels``, from its midpoint
    and from the first third of it: walk F_(k-1) for column-sum steps of
    that label's column of theta_k.  Yields (counts ok, end point ok)."""
    for label, lo, hi in domain_partition(maps[k]):
        if label in labels:
            column = thetas[k].column(label)
            for x in ((lo + hi) / 2, lo + (hi - lo) / 3):
                pt = iterate(maps[k - 1], x, sum(column))
                yield pt.visit_counts == column, pt.position == evaluate(maps[k], x)


class TestTowerCertificate:
    """Over one return to F_k's interval, the Birkhoff sum of an orbit of
    F_(k-1) from F_k's tile a is column a of theta_k, and it ends at F_k's
    image: copy k of the tower, checked on the map itself."""

    @pytest.fixture(autouse=True)
    def time_limit(self):
        # A copy that is not a return of the map can walk for hours instead
        # of failing; these walks take milliseconds.
        def expire(signum, frame):
            raise TimeoutError("a tower walk ran past 30 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 30)
        yield
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("schedule, depth", [
        (ParameterSchedule.relaxed(), 3), (ParameterSchedule.strict(), 2),
    ], ids=["relaxed-3", "strict-2"])
    def test_every_computed_copy_on_the_map(self, schedule, depth):
        # 144 and 96 walks; the relaxed depth-3 heights pass 1e108.
        thetas, maps = certificate_tower(schedule, depth, "computed")
        results = [r for k in range(1, 3 * depth + 1) for r in walk_copy(thetas, maps, k)]
        assert results == [(True, True)] * (48 * depth)

    def test_reference_tower_is_not_the_maps_after_copy_one(self):
        thetas, maps = certificate_tower(ParameterSchedule.relaxed(), 1, "reference")
        assert list(walk_copy(thetas, maps, 1)) == [(True, True)] * 16
        # Over copy 2 the tiles labelled 1, 4 and 8 count another column
        # and end elsewhere.  The other five tiles' walks did not finish
        # within 3 s each, so they are not walked.
        results = list(walk_copy(thetas, maps, 2, labels=(1, 4, 8)))
        assert results == [(False, False)] * 6


class TestFirstReturn:
    def test_full_interval_returns_same_map(self):
        assert first_return(FLIPPY, FLIPPY.total_length) == FLIPPY

    @given(fiets_st())
    def test_full_interval_returns_the_map_itself(self, f):
        assert first_return(f, sum(f.lengths, F(0))) is f

    def test_cut_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            first_return(FLIPPY, 0)
        with pytest.raises(DomainError):
            first_return(FLIPPY, 11)

    @given(
        fiets_st(),
        st.fractions(min_value=0, max_value=5, max_denominator=30),
        st.booleans(),
        st.sampled_from([int, str, F]),
    )
    def test_cut_out_of_range_message(self, f, excess, above, form):
        # A cut <= 0 or > L is refused with one text, whatever its type.
        total = sum(f.lengths, F(0))
        cut = total + 1 + excess if above else -excess
        if form is int:
            cut = F(math.ceil(cut) if above else math.floor(cut))
        with pytest.raises(DomainError) as exc:
            first_return(f, form(cut))
        assert str(exc.value) == f"cut {cut} outside (0, {total}]"

    def test_shortens_longer_rightmost_domain_interval(self):
        f = Fiet(FietCombinatorics(3, (1, 2, 3), (3, 2, 1), fs()), (F(1), F(2), F(4)))
        r = first_return(f, 6)
        assert r.comb.pi0 == (1, 2, 3)
        assert r.comb.pi1 == (3, 1, 2)
        assert r.comb.flips == fs()
        assert r.lengths == (F(1), F(2), F(3))

    def test_reflected_winner_reinserts_before_and_toggles_flip(self):
        f = Fiet(FietCombinatorics(3, (1, 2, 3), (3, 2, 1), fs(3)), (F(1), F(2), F(4)))
        r = first_return(f, 6)
        assert r.comb.pi1 == (1, 3, 2)
        assert r.comb.flips == fs(1, 3)
        assert r.lengths == (F(1), F(2), F(3))

    def test_reflected_range_winner(self):
        f = Fiet(FietCombinatorics(3, (1, 2, 3), (3, 2, 1), fs(1)), (F(4), F(2), F(1)))
        r = first_return(f, 6)
        assert r.comb.pi0 == (3, 1, 2)
        assert r.comb.flips == fs(1, 3)
        assert r.lengths == (F(3), F(2), F(1))

    def test_generic_cut_with_more_pieces_is_inapplicable(self):
        # Rotation by 3 on [0, 5): returning to [0, 4) needs three pieces,
        # which is not a 2-interval exchange.
        f = Fiet(FietCombinatorics(2, (1, 2), (2, 1), fs()), (F(2), F(3)))
        with pytest.raises(OracleInapplicable):
            first_return(f, 4)

    @pytest.mark.parametrize("pi0, pi1, flips, lengths, cut, message", [
        ((1, 2), (2, 1), fs(), (1, 5000), 1, "iteration budget exhausted"),
        ((1, 2), (1, 2), fs(2), (1, 3), 3, "return map has 3 pieces, expected 2"),
        ((1, 2), (2, 1), fs(1), (3, 1), 2,
         "cannot assign labels: equal return times in a doubled tile"),
        ((1, 2, 3), (2, 1, 3), fs(), (4, 2, 1), 3,
         "cannot assign labels: tile 1 holds 3 pieces with 2 labels missing"),
    ], ids=["budget", "piece-count", "equal-return-times", "tile-holds-three"])
    def test_inapplicable_message(self, pi0, pi1, flips, lengths, cut, message):
        f = Fiet(FietCombinatorics(len(pi0), pi0, pi1, flips), tuple(map(F, lengths)))
        with pytest.raises(OracleInapplicable) as exc:
            first_return(f, cut)
        assert str(exc.value) == message

    @settings(max_examples=300, deadline=None)
    @given(fiets_st(), st.integers(0, 2), st.data())
    def test_agrees_with_iterating_the_map(self, f, kind, data):
        # Any cut the oracle accepts: a fraction of L, L minus one length, or
        # a domain breakpoint.  Each returned tile's midpoint, iterated under
        # f until it lands below the cut, lands where the result sends it.
        total = f.total_length
        if kind == 0:
            cut = total * data.draw(st.fractions(0, 1, max_denominator=12))
        elif kind == 1:
            cut = total - data.draw(st.sampled_from(f.lengths))
        else:
            cut = data.draw(st.sampled_from(domain_partition(f)))[2]
        if not 0 < cut < total:
            return
        try:
            r = first_return(f, cut)
        except OracleInapplicable:
            return
        for _, lo, hi in domain_partition(r):
            mid = (lo + hi) / 2
            x = evaluate(f, mid)
            while x >= cut:
                x = evaluate(f, x)
            assert evaluate(r, mid) == x

    @settings(max_examples=150, deadline=None)
    @given(steppable_fiets_st())
    def test_matches_induction_step(self, f):
        cut = f.total_length - min(
            f.length_of(f.comb.pi0[-1]), f.length_of(f.comb.pi1[-1])
        )
        stepped, _ = rauzy_step(f)
        assert first_return(f, cut) == stepped

    @settings(max_examples=150, deadline=None)
    @given(steppable_fiets_st(), st.integers(0, 2))
    def test_row_verdict_matches_map_verdict(self, f, change):
        # The oracle decides a trial on the return map's integer rows at the
        # scale of f's tiles: they match a map exactly when the map that
        # first_return builds from them equals it.  The step is correct, so
        # a length or a flip changed in it shows the other side.
        loser = min(f.nums[f.comb.pi0[-1] - 1], f.nums[f.comb.pi1[-1] - 1])
        kernel = _Tiles(f)
        assert kernel.scale == 2 * f.den
        rows = core._return_rows(kernel, 2 * (sum(f.nums) - loser))
        returned = first_return(f, F(sum(f.nums) - loser, f.den))
        assert returned == core._fiet_from_rows(rows, kernel.scale)
        g, _ = rauzy_step(f)
        if change == 1:
            g = Fiet.from_integers(g.comb, [v + (k == 0) for k, v in enumerate(g.nums)],
                                   g.den)
        elif change == 2:
            c = g.comb
            g = Fiet.from_integers(FietCombinatorics(c.n, c.pi0, c.pi1,
                                                     c.flips ^ {c.pi0[0]}),
                                   g.nums, g.den)
        assert orbits._rows_match(rows, kernel.scale, g) == (returned == g)
        assert (returned == g) == (change == 0)


class TestIrreducible:
    def test_full_cycle_is_irreducible(self):
        assert is_irreducible(FietCombinatorics(2, (1, 2), (2, 1), fs()))

    def test_split_exchange_is_reducible(self):
        assert not is_irreducible(FietCombinatorics(3, (1, 2, 3), (2, 1, 3), fs()))

    def test_prefix_block_is_reducible(self):
        assert not is_irreducible(
            FietCombinatorics(4, (2, 1, 3, 4), (1, 2, 4, 3), fs())
        )

    def test_single_interval_is_irreducible(self):
        assert is_irreducible(FietCombinatorics(1, (1,), (1,), fs()))


class TestValidation:
    def test_rows_must_be_permutations(self):
        with pytest.raises(ValueError):
            FietCombinatorics(3, (1, 2, 2), (1, 2, 3), fs())
        with pytest.raises(ValueError):
            FietCombinatorics(3, (1, 2, 3), (0, 1, 2), fs())

    def test_flips_must_be_labels(self):
        with pytest.raises(ValueError):
            FietCombinatorics(2, (1, 2), (2, 1), fs(3))

    @given(fiets_st())
    def test_total_length_is_the_sum(self, f):
        assert f.total_length == sum(f.lengths, F(0))
        assert type(f.total_length) is F

    @given(fiets_st(), st.integers(min_value=0, max_value=3))
    def test_every_length_form_gives_the_same_fractions(self, f, places):
        class Sub(F):
            pass

        # Numerators over 10**places, which every form below holds exactly.
        want = tuple(F(q.numerator, 10**places) for q in f.lengths)
        forms = [str, F, Sub, lambda q: Decimal(q.numerator) / q.denominator]
        if places == 0:
            forms.append(int)
        for form in forms:
            g = Fiet(f.comb, tuple(form(q) for q in want))
            assert g.lengths == want
            assert all(type(q) is F for q in g.lengths)

    @pytest.mark.parametrize("form", [int, str, Decimal, F, type("Sub", (F,), {})])
    @pytest.mark.parametrize("bad", [0, -2])
    def test_nonpositive_length_rejected_in_every_form(self, form, bad):
        c = FietCombinatorics(2, (1, 2), (2, 1), fs())
        with pytest.raises(ValueError, match="positive"):
            Fiet(c, (F(1), form(bad)))

    def test_lengths_positive_and_complete(self):
        c = FietCombinatorics(2, (1, 2), (2, 1), fs())
        with pytest.raises(ValueError):
            Fiet(c, (F(1),))
        with pytest.raises(ValueError):
            Fiet(c, (F(1), F(0)))
        with pytest.raises(ValueError):
            Fiet(c, (F(1), F(-2)))


def combinatorics_by_the_plain_rule(n, pi0, pi1, flips):
    """``(n, pi0, pi1, flips)`` as FietCombinatorics stores them, checked
    the plain way: each row's set equals the label set, and values of any
    type but int are converted."""
    def ints(values):
        if set(map(type, values)) <= {int}:
            return values
        return type(values)(map(int, values))

    def permutation(images, labels, name):
        images = tuple(images)
        if len(images) != len(labels) or set(images) != labels:
            raise ValueError(
                f"{name} must be a permutation of 1..{len(labels)}, got {images}"
            )
        return ints(images)

    if n < 1:
        raise ValueError("n must be >= 1")
    labels = frozenset(range(1, n + 1))
    pi0 = permutation(pi0, labels, "pi0")
    pi1 = permutation(pi1, labels, "pi1")
    flips = frozenset(flips)
    if not flips <= labels:
        raise ValueError(f"flips {set(flips)} not a subset of 1..{n}")
    return n, pi0, pi1, ints(flips)


@st.composite
def label_value_st(draw, k):
    """The value k as an int, a float, a Fraction, or a bool where one is k."""
    forms = [int, float, F] + ([bool] if k in (0, 1) else [])
    return draw(st.sampled_from(forms))(k)


@st.composite
def label_row_st(draw, n):
    """A row of 1..n in any order, in mixed forms, often spoiled: a label
    doubled, replaced by 0 or n + 1, dropped, or an extra one added."""
    row = draw(st.permutations(range(1, n + 1)))
    spoil = draw(st.sampled_from(["none"] * 4 + ["double", "zero", "over", "drop", "add"]))
    i = draw(st.integers(0, n - 1))
    if spoil == "double":
        row[i] = row[(i + 1) % n]
    elif spoil in ("zero", "over"):
        row[i] = 0 if spoil == "zero" else n + 1
    elif spoil == "drop":
        del row[i]
    elif spoil == "add":
        row.append(draw(st.integers(0, n + 1)))
    return [draw(label_value_st(k)) for k in row]


@st.composite
def combinatorics_args_st(draw):
    n = draw(st.integers(1, 8))
    flips = draw(st.lists(st.integers(1, n), max_size=n))
    if draw(st.integers(0, 3)) == 0:
        flips.append(draw(st.sampled_from([0, n + 1])))
    return (n, draw(label_row_st(n)), draw(label_row_st(n)),
            [draw(label_value_st(k)) for k in flips])


class TestCombinatoricsRule:
    @given(combinatorics_args_st())
    @example((3, (1, True, 3.0), (F(3), 1, 2), [True, 2.0]))
    @example((2, (1, 2), (2, 1), [0]))
    @example((2, (1, 2), (2, 1), [F(3)]))
    @example((3, (1, 2, 2), (1, 2, 3), []))
    @example((3, (1, 2), (1, 2, 3), []))
    @example((3, (1, 2, 3), (1, 2, 3, 1), []))
    @example((3, (1, 2, 3), (0, 1, 2), []))
    @example((3, (1, 2, 3), (1, 2, 4), []))
    @example((3, (1, 2, 2.5), (1, 2, 3), []))
    @settings(max_examples=400)
    def test_same_verdicts_messages_and_stored_ints(self, args):
        try:
            want = combinatorics_by_the_plain_rule(*args)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                FietCombinatorics(*args)
            assert str(got.value) == str(exc)
            return
        c = FietCombinatorics(*args)
        assert (c.n, c.pi0, c.pi1, c.flips) == want
        assert (type(c.pi0), type(c.pi1), type(c.flips)) == (tuple, tuple, frozenset)
        assert all(type(v) is int for v in (*c.pi0, *c.pi1, *c.flips))


def is_canonical(f):
    """Lengths stored as positive integers over a positive denominator, in
    lowest terms, that read back as the same Fractions."""
    return (f.den > 0 and min(f.nums) > 0 and math.gcd(f.den, *f.nums) == 1
            and f.lengths == tuple(F(v, f.den) for v in f.nums))


@st.composite
def lengths_in_a_form_st(draw):
    """Combinatorics, lengths as (a, b) pairs, and the same lengths given in
    one form Fraction() accepts: a Fraction, an int, an unreduced "num/den"
    string or an exact Decimal."""
    c = draw(combinatorics_st())
    form = draw(st.sampled_from(["Fraction", "int", "str", "Decimal"]))
    dens = {"int": [1], "Decimal": [1, 2, 4, 5, 8, 10, 20, 25, 100]}.get(form)
    pairs = [(draw(st.integers(1, 60)),
              draw(st.sampled_from(dens) if dens else st.integers(1, 24)))
             for _ in range(c.n)]
    k = draw(st.integers(2, 9))
    given_as = {"Fraction": lambda a, b: F(a, b), "int": lambda a, b: a,
                "str": lambda a, b: f"{k * a}/{k * b}",
                "Decimal": lambda a, b: Decimal(a) / b}[form]
    return c, pairs, tuple(given_as(a, b) for a, b in pairs)


@functools.cache
def deep_alpha(mode):
    """Depth-3 limit lengths: denominators of 1,732 bits (relaxed) and
    4,138 bits (strict)."""
    return limit_vectors(getattr(ParameterSchedule, mode)(), 3).alpha


class TestIntegerLengths:
    """A Fiet stores its lengths as integers over one denominator."""

    def check_both_constructors_agree(self, c, want, g):
        # The integer constructor gets an unreduced common denominator.
        den = 6 * math.lcm(*[q.denominator for q in want])
        nums = [q.numerator * (den // q.denominator) for q in want]
        h = Fiet.from_integers(c, nums, den)
        assert repr(Fiet.from_integers(c, nums, den)) == repr(g)
        assert g.lengths == h.lengths == want
        assert all(type(q) is F for q in g.lengths + h.lengths)
        assert g == h and hash(g) == hash(h)
        assert g.total_length == h.total_length == sum(want)
        assert type(h.total_length) is F
        assert replace(h) == h == replace(g)
        assert replace(h, comb=c.swapped()) == g.inverse() == h.inverse()
        assert replace(h, lengths=want[::-1]) == replace(g, lengths=want[::-1])
        assert is_canonical(g) and is_canonical(h)
        assert g.den == math.lcm(*[q.denominator for q in want])

    @given(lengths_in_a_form_st())
    def test_every_form_and_the_integer_constructor_agree(self, data):
        c, pairs, lengths = data
        want = tuple(F(a, b) for a, b in pairs)
        self.check_both_constructors_agree(c, want, Fiet(c, lengths))

    @pytest.mark.parametrize("mode", ["relaxed", "strict"])
    def test_deep_alpha(self, mode):
        alpha = deep_alpha(mode)
        assert max(q.denominator for q in alpha).bit_length() > 1700
        self.check_both_constructors_agree(base_datum(), alpha, Fiet(base_datum(), alpha))

    def test_unequal_lengths_are_unequal_maps(self):
        c = FLIPPY.comb
        assert Fiet(c, (1, 5, 4)) != Fiet(c, (2, 10, 8))
        assert Fiet(c, (1, 5, 4)) != Fiet(c.swapped(), (1, 5, 4))

    @pytest.mark.parametrize("nums, den, message", [
        ((1, 2), 1, "lengths must have one entry per label"),
        ((1, 2, 0), 1, "all lengths must be positive"),
        ((1, -2, 3), 1, "all lengths must be positive"),
        ((1, 2, 3), 0, "all lengths must be positive"),
        ((-1, -2, -3), -1, "all lengths must be positive"),
    ])
    def test_integer_constructor_validates(self, nums, den, message):
        with pytest.raises(ValueError) as err:
            Fiet.from_integers(FLIPPY.comb, nums, den)
        assert str(err.value) == message

    def check_step_and_return(self, f):
        stepped, out = rauzy_step(f)
        # The Fraction rule of the step, computed here on f's Fractions.
        want = list(f.lengths)
        want[out.winner - 1] = f.lengths[out.winner - 1] - f.lengths[out.loser - 1]
        assert stepped.lengths == tuple(want)
        assert is_canonical(stepped)
        rightmost = (f.length_of(f.comb.pi0[-1]), f.length_of(f.comb.pi1[-1]))
        returned = first_return(f, f.total_length - min(rightmost))
        assert is_canonical(returned)
        assert returned == stepped

    @given(steppable_fiets_st())
    def test_step_and_return_are_canonical(self, f):
        self.check_step_and_return(f)

    @pytest.mark.parametrize("mode", ["relaxed", "strict"])
    def test_deep_step_and_return_are_canonical(self, mode):
        self.check_step_and_return(Fiet(base_datum(), deep_alpha(mode)))

    @given(fiets_st(), st.data())
    def test_any_return_is_canonical(self, f, data):
        cut = data.draw(st.sampled_from(domain_partition(f)))[2]
        try:
            returned = first_return(f, cut)
        except OracleInapplicable:
            return
        assert is_canonical(returned)

    def test_lengths_are_made_on_first_read(self):
        f = Fiet.from_integers(FLIPPY.comb, [2, 10, 8], 2)
        assert "lengths" not in vars(f)
        assert (f.den, f.nums) == (1, (1, 5, 4))
        assert f == FLIPPY and f.total_length == 10
        assert "lengths" not in vars(f)
        assert f.lengths is f.lengths == FLIPPY.lengths
        with pytest.raises(AttributeError, match="'Fiet' object has no attribute 'area'"):
            f.area


class TestRecord:
    """The immutable-record base that every value type of the package uses."""

    REC = InequalityRecord("L1", "x7 > 1/7", F(1, 3), F(1, 7), F(4, 21), True)

    class Generic(Record):
        """InequalityRecord's fields, bound by the generic constructor."""

        lemma_id: str
        item: str
        lhs: F
        rhs: F
        margin: F
        holds: bool
        strict: bool = True

    def test_positional_keyword_and_default_construction_agree(self):
        values = ("L1", "x7 > 1/7", F(1, 3), F(1, 7), F(4, 21), True)
        fields = ("lemma_id", "item", "lhs", "rhs", "margin", "holds")
        records = [
            InequalityRecord(*values),
            InequalityRecord(*values, True),
            InequalityRecord(**dict(zip(fields, values))),
            InequalityRecord(*values[:3], strict=True, **dict(zip(fields[3:], values[3:]))),
        ]
        assert all(r == records[0] for r in records)
        assert len({hash(r) for r in records}) == 1
        assert records[0].strict is True
        assert InequalityRecord(*values, False) != records[0]

    @pytest.mark.parametrize("args, kwargs, message", [
        (("L1", "x"), {}, "missing required argument"),
        (("L1", "x", 1, 2, 3, True, True, 9), {}, "positional arguments"),
        (("L1", "x", 1, 2, 3, True), {"weight": 1}, "unexpected keyword argument 'weight'"),
        (("L1", "x", 1, 2, 3, True), {"item": "y"}, "multiple values for argument 'item'"),
    ])
    def test_missing_unknown_or_repeated_field_is_a_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            self.Generic(*args, **kwargs)

    @pytest.mark.parametrize("cls, args", [
        (FietCombinatorics, (2, (1, 2))),
        (FietCombinatorics, (2, (1, 2), (2, 1), fs(), 5)),
        (Fiet, ()),
        (ParameterSchedule, (3,)),
    ])
    def test_own_constructors_bind_as_before(self, cls, args):
        with pytest.raises(TypeError):
            cls(*args)

    def test_step_outcome_binds_as_a_signature(self):
        values = (FLIPPY.comb, 1, 2, "a1", "a")
        kwargs = dict(zip(StepOutcome._fields, values))
        assert StepOutcome(*values) == StepOutcome(**kwargs) == StepOutcome(
            FLIPPY.comb, 1, loser=2, case_tag="a1", letter="a")
        for args, extra, message in [
            (values[:4], {}, "missing 1 required positional argument: 'letter'"),
            (values, {"weight": 1}, "unexpected keyword argument 'weight'"),
            (values, {"winner": 1}, "multiple values for argument 'winner'"),
            ((*values, 9), {}, "positional arguments"),
        ]:
            with pytest.raises(TypeError, match=message):
                StepOutcome(*args, **extra)

    def test_inequality_record_binds_as_a_signature(self):
        values = ("L1", "x7 > 1/7", F(1, 3), F(1, 7), F(4, 21), True)
        kwargs = dict(zip(InequalityRecord._fields, values))
        assert InequalityRecord(*values) == InequalityRecord(**kwargs) == InequalityRecord(
            "L1", "x7 > 1/7", F(1, 3), rhs=F(1, 7), margin=F(4, 21), holds=True, strict=True)
        for args, extra, message in [
            (values[:5], {}, "missing 1 required positional argument: 'holds'"),
            (values[:2], {}, "missing 4 required positional arguments"),
            (values, {"weight": 1}, "unexpected keyword argument 'weight'"),
            (values, {"item": "y"}, "multiple values for argument 'item'"),
            ((*values, True, 9), {}, "positional arguments"),
        ]:
            with pytest.raises(TypeError, match=message):
                InequalityRecord(*args, **extra)
        rec = InequalityRecord(*values)
        assert rec.strict is True and rec._values == (*values, True)

    @pytest.mark.parametrize("record", [REC, FLIPPY, FLIPPY.comb, PathParameters(2, 3, 4, 3, 2),
                                        ParameterSchedule.relaxed()],
                             ids=lambda r: type(r).__name__)
    def test_assignment_and_deletion_raise(self, record):
        field = record._fields[0]
        before = getattr(record, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, before)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
            record.other = 1
        assert getattr(record, field) is before

    def test_unequal_to_a_tuple_or_another_class(self):
        values = tuple(getattr(self.REC, k) for k in self.REC._fields)
        assert self.REC != values and values != self.REC
        twin = self.Generic(*values)
        assert twin != self.REC and self.REC != twin
        assert hash(twin) == hash(self.REC) == hash(values)
        assert OrbitPoint(F(1), (1,)) != (F(1), (1,))

    def test_fields_are_the_own_annotations_in_order(self):
        assert InequalityRecord._fields == (
            "lemma_id", "item", "lhs", "rhs", "margin", "holds", "strict")
        assert ParameterSchedule._fields == ("d", "p1_1", "p4_rule", "p5_rule", "mode")
        assert TransitionMatrix._fields == ("rows",)
        assert PathParameters.__match_args__ == ("p1", "p2", "p3", "p4", "p5")

    def test_replace_runs_validation_again(self):
        s = ParameterSchedule.relaxed()
        assert replace(s, d=3, mode="custom") == ParameterSchedule(3, 256)
        assert replace(s) == s
        with pytest.raises(ValueError, match="mode must be 'custom'"):
            replace(s, d=3)
        with pytest.raises(ValueError, match="must be one of 'p1', 'p2', 'p3'"):
            replace(s, p4_rule="p6", mode="custom")
        with pytest.raises(TypeError):
            replace(s, dd=3)
        with pytest.raises(ValueError, match="p3 must be a positive integer, got 0"):
            replace(PathParameters(2, 3, 4, 3, 2), p3=0)

    @pytest.mark.parametrize("record, text", [
        (PathParameters(2, 3, 4, 3, 2), "PathParameters(p1=2, p2=3, p3=4, p4=3, p5=2)"),
        (FLIPPY, "Fiet(comb=FietCombinatorics(n=3, pi0=(1, 2, 3), pi1=(2, 3, 1), "
                 "flips=frozenset({1, 3})), "
                 "lengths=(Fraction(1, 1), Fraction(5, 1), Fraction(4, 1)))"),
        (ParameterSchedule(3, 5), "ParameterSchedule(d=3, p1_1=5, p4_rule='p2', "
                                  "p5_rule='p1', mode='custom')"),
        (TransitionMatrix(((1, 2), (3, 4))), "TransitionMatrix(rows=((1, 2), (3, 4)))"),
        (RauzyPath.from_word("aab"), "RauzyPath(runs=(('a', 2), ('b', 1)))"),
        (OrbitPoint(F(1, 2), (1, 0)), "OrbitPoint(position=Fraction(1, 2), visit_counts=(1, 0))"),
        (REC, "InequalityRecord(lemma_id='L1', item='x7 > 1/7', lhs=Fraction(1, 3), "
              "rhs=Fraction(1, 7), margin=Fraction(4, 21), holds=True, strict=True)"),
        (StepOutcome(FLIPPY.comb, 1, 2, "a1", "a"),
         "StepOutcome(new_comb=FietCombinatorics(n=3, pi0=(1, 2, 3), pi1=(2, 3, 1), "
         "flips=frozenset({1, 3})), winner=1, loser=2, case_tag='a1', letter='a')"),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Record) else "")
    def test_repr_is_the_dataclass_text(self, record, text):
        assert repr(record) == text

    def test_triple_shape_message_prints_the_parameters(self):
        with pytest.raises(ValueError) as err:
            verify.check_lemma1((1,) * 8, PathParameters(2, 3, 4, 3, 2), d=2)
        assert str(err.value) == (
            "parameters PathParameters(p1=2, p2=3, p3=4, p4=3, p5=2) do not "
            "satisfy p2 = d*p1, p3 = d*p2 with d = 2"
        )

    @pytest.mark.parametrize("build, message", [
        (lambda: FietCombinatorics(0, (), (), fs()), "n must be >= 1"),
        (lambda: FietCombinatorics(3, (1, 2, 2), (1, 2, 3), fs()),
         "pi0 must be a permutation of 1..3, got (1, 2, 2)"),
        (lambda: FietCombinatorics(3, (1, 2, 3), [0, 1, 2], fs()),
         "pi1 must be a permutation of 1..3, got (0, 1, 2)"),
        (lambda: FietCombinatorics(3, (1, 2, 3), (1, 2, 3), [4]), "flips {4} not a subset of 1..3"),
        (lambda: Fiet(FLIPPY.comb, (1, 2)), "lengths must have one entry per label"),
        (lambda: Fiet(FLIPPY.comb, (1, 2, 0)), "all lengths must be positive"),
        (lambda: TransitionMatrix(((1, 2), (3,))), "matrix must be square and non-empty"),
        (lambda: TransitionMatrix(()), "matrix must be square and non-empty"),
        (lambda: RauzyPath((("x", 1),)), "invalid letter 'x'"),
        (lambda: RauzyPath((("a", -1),)), "run counts must be >= 0"),
        (lambda: ParameterSchedule(1, 5), "d must be >= 2"),
        (lambda: ParameterSchedule(3, 0), "p1_1 must be >= 1"),
        (lambda: ParameterSchedule(3, "5"), "p1_1 must be an integer, got '5'"),
        (lambda: ParameterSchedule(3, 5, p5_rule="q1"), "p5_rule must be one of 'p1', 'p2', 'p3'"),
        (lambda: ParameterSchedule(128, 256, mode="strict"),
         "mode must be 'custom', or a name in ['relaxed', 'strict'] with that "
         "schedule's values; got 'strict' with {'d': 128, 'p1_1': 256, "
         "'p4_rule': 'p2', 'p5_rule': 'p1'}"),
        (lambda: PathParameters(1, 1, True, 1, 1), "p3 must be a positive integer, got True"),
    ])
    def test_validation_messages(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_normalized_fields_are_stored_once_converted(self):
        c = FietCombinatorics(3, [1, 2, 3], [2, 3, 1], {1, 3})
        assert c == FLIPPY.comb and type(c.pi0) is tuple and type(c.flips) is frozenset
        assert TransitionMatrix([[True, 2], [3, 4]]).rows == ((1, 2), (3, 4))
        s = ParameterSchedule(d=F(128), p1_1=256.0, mode="relaxed")
        assert s == ParameterSchedule.relaxed() and type(s.d) is int and type(s.p1_1) is int

    @given(fiets_st())
    def test_keyword_positional_and_inverse_round_trips(self, f):
        c = f.comb
        keyword = Fiet(comb=FietCombinatorics(n=c.n, pi0=c.pi0, pi1=c.pi1, flips=c.flips),
                       lengths=f.lengths)
        assert keyword == f == Fiet(FietCombinatorics(c.n, c.pi0, c.pi1, c.flips), f.lengths)
        assert hash(keyword) == hash(f)
        assert repr(keyword) == repr(f)
        assert f.inverse().inverse() == f
        assert hash(f.inverse().inverse()) == hash(f)
        assert f.inverse().comb == FietCombinatorics(c.n, c.pi1, c.pi0, c.flips)
        assert replace(f, comb=c.swapped()) == f.inverse()


class TestExports:
    def test_the_export_list_is_the_imported_public_names(self):
        names = fiet.__all__
        assert len(names) == len(set(names))
        assert names[-1] == "__version__"
        for name in names:
            assert not isinstance(getattr(fiet, name), types.ModuleType), name
        public = {name for name, value in vars(fiet).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert public == set(names) - {"__version__"}

    def test_star_import_binds_exactly_the_export_list(self):
        namespace = {}
        exec("from fiet import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(fiet.__all__)

    def test_the_readme_import_works(self):
        namespace = {}
        exec("from fiet import Fiet, FietCombinatorics, evaluate, iterate", namespace)
        assert namespace["iterate"] is iterate
