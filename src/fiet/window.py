"""A translation run's window, walked by segments: the jump of the orbit walk.

:func:`fiet.core._walk` crosses a translation run of the map by walking its
window, the p steps from y_0 that T^p moves by delta, twice: once to find
how many windows K the run crosses, once to write them.  This module walks
a window by segments instead of steps.  A segment is either one step or an
inner translation run of the window, found by the walk's own rule and
crossed in closed form, the same way, to any depth.  So the cost of a
window grows with the number of runs in it, not with p.

A segment is ``(tile, z, e, a, b, n, dims)``: n steps in one domain tile,
all at orientation e (of the window's steps before them, +1 or -1), whose
points are the box z + sum(i_j * D_j), 0 <= i_j < r_j, over ``dims =
((D_j, r_j), ...)``, with smallest point a and largest b.  A step is the
box of one point, ``dims = ()``.  The tiles are those of
:class:`fiet.core._Tiles`: ``(label, u, lam, c, flipped)``.

The module imports nothing from ``fiet``.  It is kept out of ``core`` so
that compiling ``core``, which every process does when it runs from
source, costs no more memory than the largest module's compile.
"""

from __future__ import annotations

from bisect import bisect_right

_UNSEEN = (-1, 0, 0, 0, 0)


def segments(tiles, cuts, y, p):
    """The p steps of the orbit from y, by segments (see the module).

    Per tile the walk keeps the step, point and orientation of the last
    visit, its gap q from the visit before and that visit's point, as
    :func:`fiet.core._walk` keeps the last two visits.  When a visit comes
    q steps after the last, x_1, at the same orientation, and its
    displacement D = y - x_1 repeats the one before, T^q keeps orientation
    near x_1 and is y -> y + D wherever the q steps from x_1 + z stay in
    their tiles.  The walk then crosses r repetitions of that inner window
    at once, r as large as :func:`crossed` allows within the window's p
    steps, and yields each segment of the inner window's own walk with one
    more dimension: a segment at orientation f relative to x_1 moves by f*D
    per repetition.  Inner windows are walked the same way, so runs nest
    to any depth.
    """
    # A tile not yet visited has a gap of 0, which no visit repeats.  In the
    # last two steps a crossing could take only one or two single steps,
    # which walking them does as cheaply, so no visit is looked up or kept.
    last = {}
    t, e = 0, 1
    while t < p:
        i = bisect_right(cuts, y) - 1
        if t < p - 2:
            t1, x1, e1, q1, x0 = last.get(i, _UNSEEN)
            q = t - t1
            if q == q1 and e == e1 and (D := y - x1) == x1 - x0:
                r = crossed(tiles, cuts, x1, D, q, (p - t) // q)
                if r:
                    for tile, z, f, a, b, n, dims in segments(tiles, cuts, x1, q):
                        d = f * D
                        yield (tile, z + d, e * f, a + min(d, r * d), b + max(d, r * d),
                               n * r, (*dims, (d, r)))
                    t += r * q
                    y += r * D
                    continue
            last[i] = t, y, e, q, x1
        tile = tiles[i]
        yield tile, y, e, y, y, 1, ()
        if tile[4]:
            y, e = tile[3] - y, -e
        else:
            y += tile[3]
        t += 1


def crossed(tiles, cuts, y, delta, p, k):
    """How many of the next k windows of the run y -> y + delta the orbit
    crosses: the windows of p steps from y + m*delta, m = 1..K.

    Each segment's box moves by e*delta per window and is monotone, so its
    largest point (moving right) or its smallest (moving left) decides how
    far it stays in its tile, and for a flipped tile strictly right of its
    left end, where T is undefined.  K is the least of those bounds and k,
    and 0 when T^p reverses orientation with delta != 0.  When delta = 0
    the orbit is periodic whatever the orientation, and K = k.
    """
    if not k:
        return 0
    flips = 0
    for (_, u, lam, _, flipped), _, e, a, b, n, _ in segments(tiles, cuts, y, p):
        d = e * delta
        if d:
            m = (u + lam - 1 - b) // d if d > 0 else (a - u - flipped) // -d
            if m < k:
                k = m
        if flipped:
            flips += n
    return 0 if flips & 1 and delta else k


def write(lo, hi, s, z, dims) -> None:
    """Write the box z + sum(i_j * D_j), 0 <= i_j < r_j, over ``dims`` into
    the per-cell extremes ``lo`` and ``hi`` of cells of width ``2**s``.

    A box inside one cell is one update, from its smallest and largest
    point.  A progression is written one non-empty cell at a time, so term
    by term, with no division, when its terms lie a cell or more apart.
    A larger box is written as rows along its densest dimension, the one
    with the fewest cells per point, one row per point of the others.
    """
    a = b = z
    for D, r in dims:
        if D < 0:
            a += (r - 1) * D
        else:
            b += (r - 1) * D
    cell = a >> s
    if cell == b >> s:
        if a < lo[cell]:
            lo[cell] = a
        if b > hi[cell]:
            hi[cell] = b
    elif len(dims) == 1:
        step = abs(dims[0][0])
        if step >> s:
            for v in range(a, b + 1, step):
                cell = v >> s
                if v < lo[cell]:
                    lo[cell] = v
                if v > hi[cell]:
                    hi[cell] = v
            return
        # Every cell from a's to b's holds a term.  w is the last term in
        # the cell that ends at `end`: past the first cell, a lies less than
        # one step past the cell's start, so w is a + span or one step less.
        end = (((a >> s) + 1) << s) - 1
        w = a + (end - a) // step * step
        span = ((1 << s) - 1) // step * step
        for cell in range(a >> s, b >> s):
            if a < lo[cell]:
                lo[cell] = a
            if w > hi[cell]:
                hi[cell] = w
            a = w + step
            end += 1 << s
            w = a + span
            if w > end:
                w -= step
        cell = b >> s
        if a < lo[cell]:
            lo[cell] = a
        if b > hi[cell]:
            hi[cell] = b
    else:
        # Rows along the dimension with the fewest cells per point (r points
        # touch at most 1 + (r - 1)*|D| / 2**s cells), one per point of the
        # others; the widest of those is looped over first.
        j = min(range(len(dims)),
                key=lambda j: ((((dims[j][1] - 1) * abs(dims[j][0])) >> s) + 1) / dims[j][1])
        k = max((i for i in range(len(dims)) if i != j),
                key=lambda i: (dims[i][1] - 1) * abs(dims[i][0]))
        D, r = dims[k]
        rest = dims[:k] + dims[k + 1:]
        for i in range(r):
            write(lo, hi, s, z + i * D, rest)
