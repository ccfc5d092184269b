"""Exact interval exchange transformations with flips (FIETs).

An FIET is a triple (lengths, (pi0, pi1), flips): the interval [0, L) is cut
into n subintervals whose left-to-right label order is ``pi0`` in the domain
and ``pi1`` in the range; the map sends the subinterval labeled k onto the
range subinterval labeled k, translating when ``k not in flips`` and
reflecting when ``k in flips``.

All arithmetic is exact.  A :class:`Fiet` keeps its lengths as positive
integers over one denominator; a map built from integers makes their
``Fraction`` values only when they are first read.  Points are
``fractions.Fraction`` at the API boundary only: :func:`evaluate`,
:func:`iterate`, :func:`first_return` and
:func:`fiet.verify.birkhoff_frequencies` share one
map compiled into integer tiles at a common scale (``_Tiles``).  Orbits are
stepped by one walker, :func:`fiet.window.segments`, which crosses
translation runs in closed form by one rule at every depth, the orbit's
and those nested in their windows; :func:`_walk` adds up its segments
into counts and per-cell extremes.  ``first_return`` pushes
intervals through the tiles on its own, as the independent oracle of
induction.  Domain subintervals are closed on the left and open on the
right.  For a flipped label the left endpoint of its domain subinterval has
no image under this convention; it is declared a discontinuity and orbits
reaching it terminate with :class:`OrbitTerminated`.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Sequence

from .record import Record, _set, replace
from .window import segments, write


class FietError(Exception):
    """Base class for errors raised by this package."""


class DomainError(FietError):
    """A point lies outside the interval [0, L)."""


class FlipDiscontinuityError(FietError):
    """The map is undefined at the left endpoint of a flipped subinterval."""

    def __init__(self, position: Fraction, label: int):
        super().__init__(
            f"map undefined at {position}: left endpoint of flipped interval {label}"
        )
        self.position = position
        self.label = label


class OrbitTerminated(FietError):
    """An orbit reached a point where the map is undefined.

    Carries the 0-based index of the step that could not be performed, the
    terminal position, and the visit counts accumulated so far.
    """

    def __init__(self, step: int, position: Fraction, visit_counts: tuple[int, ...]):
        super().__init__(f"orbit terminated at step {step} (position {position})")
        self.step = step
        self.position = position
        self.visit_counts = visit_counts


class OracleInapplicable(FietError):
    """first_return could not represent the return map as an n-interval FIET."""


def exact_int(v, name: str) -> int:
    """``v`` as an int; raises ValueError unless its value is an integer.

    A bool is rejected too: JSON ``true`` is not the label or count 1, and
    so is an infinity or a NaN, which ``int`` cannot convert.
    """
    try:
        i = int(v)
    except (OverflowError, ValueError):
        i = None
    if i is None or i != v or isinstance(v, bool):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return i


@lru_cache(typed=True)
def _labels(n: int) -> frozenset[int]:
    """The labels 1..n, built once per n."""
    return frozenset(range(1, n + 1))


_INT = frozenset({int})


def _ints(values):
    """A tuple or frozenset of ints: ``values`` itself when every value is
    an int already, else a converted copy."""
    if _INT.issuperset(map(type, values)):
        return values
    return type(values)(map(int, values))


def _check_permutation(
    images: Sequence[int], labels: frozenset[int], name: str
) -> tuple[int, ...]:
    """``images`` as a tuple of ints; raises unless its values order ``labels``.

    ``len(labels)`` values that cover ``labels`` are each label once.
    """
    images = tuple(images)
    if len(images) != len(labels) or labels.difference(images):
        raise ValueError(
            f"{name} must be a permutation of 1..{len(labels)}, got {images}"
        )
    return _ints(images)


class FietCombinatorics(Record):
    """Discrete part of an FIET: label orders (pi0, pi1) and the flip set."""

    n: int
    pi0: tuple[int, ...]
    pi1: tuple[int, ...]
    flips: frozenset[int]

    def __init__(self, n: int, pi0, pi1, flips) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        labels = _labels(n)
        pi0 = _check_permutation(pi0, labels, "pi0")
        pi1 = _check_permutation(pi1, labels, "pi1")
        flips = frozenset(flips)
        if not flips <= labels:
            raise ValueError(f"flips {set(flips)} not a subset of 1..{n}")
        _set(self, "n", n)
        _set(self, "pi0", pi0)
        _set(self, "pi1", pi1)
        _set(self, "flips", _ints(flips))

    def restrict(self, labels: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Both label rows restricted to ``labels``, preserving relative order."""
        keep = set(labels)
        if not keep <= set(range(1, self.n + 1)):
            raise ValueError(f"labels {sorted(keep)} not a subset of 1..{self.n}")
        return (
            tuple(v for v in self.pi0 if v in keep),
            tuple(v for v in self.pi1 if v in keep),
        )

    def swapped(self) -> "FietCombinatorics":
        """Combinatorics of the inverse map: domain and range rows exchange."""
        return FietCombinatorics(self.n, self.pi1, self.pi0, self.flips)


class Fiet(Record):
    """A full FIET: combinatorics plus positive exact lengths (indexed by label).

    The lengths are stored once, as positive integers ``nums`` over one
    positive denominator ``den`` with ``gcd(den, *nums) == 1``, so two maps
    are equal, and hash alike, exactly when their ``(comb, den, nums)``
    are.  ``Fiet(comb, lengths)`` takes anything ``Fraction()`` does and
    keeps the ``Fraction`` values; :meth:`from_integers` makes them on the
    first read of ``lengths``.
    """

    comb: FietCombinatorics
    lengths: tuple[Fraction, ...]
    _values = property(attrgetter("comb", "den", "nums"))

    def __init__(self, comb: FietCombinatorics, lengths) -> None:
        # A Fraction is already normalized; anything else (a subclass too) is
        # converted once.  Over the lcm of the reduced denominators the
        # numerators are already in lowest terms.  Tuples built once per
        # object are built from a list, at their exact size: a tuple built
        # from a generator is allocated at ten slots and shrunk, so it is
        # never taken from, only added to, the interpreter's free list of
        # its final length.
        lengths = [v if type(v) is Fraction else Fraction(v) for v in lengths]
        den = lcm(*[q.denominator for q in lengths])
        self._store(comb, [q.numerator * (den // q.denominator) for q in lengths], den)
        _set(self, "lengths", tuple(lengths))

    @classmethod
    def from_integers(cls, comb: FietCombinatorics, nums, den: int) -> "Fiet":
        """The FIET whose label k has length ``nums[k - 1] / den``, for
        integers ``nums`` and ``den``; no ``Fraction`` is made."""
        f = cls.__new__(cls)
        f._store(comb, nums, den)
        return f

    def _store(self, comb: FietCombinatorics, nums, den: int) -> None:
        """Validate the lengths ``nums / den`` and store them in lowest
        terms, reduced by one gcd."""
        if len(nums) != comb.n:
            raise ValueError("lengths must have one entry per label")
        if den <= 0 or min(nums) <= 0:
            raise ValueError("all lengths must be positive")
        g = gcd(den, *nums)
        _set(self, "comb", comb)
        _set(self, "den", den // g)
        _set(self, "nums", tuple([v // g for v in nums]))

    def __getattr__(self, name: str):
        # Called only for a missing attribute: the lengths of a map built
        # from integers, until they are first read.
        if name != "lengths":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        _set(self, name, tuple([Fraction(v, self.den) for v in self.nums]))
        return self.lengths

    @property
    def n(self) -> int:
        return self.comb.n

    @property
    def total_length(self) -> Fraction:
        return Fraction(sum(self.nums), self.den)

    def length_of(self, label: int) -> Fraction:
        return self.lengths[label - 1]

    def inverse(self) -> "Fiet":
        return Fiet.from_integers(self.comb.swapped(), self.nums, self.den)


class OrbitPoint(Record):
    """Result of iterating an orbit: final position and per-label visit counts."""

    position: Fraction
    visit_counts: tuple[int, ...]


def domain_partition(f: Fiet) -> list[tuple[int, Fraction, Fraction]]:
    """Half-open domain tiles [(label, lo, hi), ...] tiling [0, L) left to
    right: the tiles of :class:`_Tiles`, each end a ``Fraction``."""
    kernel = _Tiles(f)
    return [(label, Fraction(u, kernel.scale), Fraction(u + lam, kernel.scale))
            for label, u, lam, _, _ in kernel.tiles]


def range_partition(f: Fiet) -> list[tuple[int, Fraction, Fraction]]:
    """Half-open range tiles [(label, lo, hi), ...] tiling [0, L) left to
    right: the domain tiles of the inverse map."""
    return domain_partition(f.inverse())


class _Tiles:
    """The map compiled once into integer tiles at a common scale.

    ``scale`` is twice the lcm of the map's denominator and those of
    ``points``, so tile ends, the given points and reflected images
    (x -> a + b - x) are all integers.  ``tiles[i] = (label, u, lam, c,
    flipped)``: domain tile i is [u, u + lam) and maps x to its image offset
    plus or minus x, ``c + x`` or, when flipped, ``c - x``; ``cuts`` holds
    the u's and ``L`` the scaled total length.  These are the map's only
    tiles: :func:`domain_partition`, :func:`range_partition` and
    :func:`fiet.orbits.midpoint_starts` read their ``Fraction`` ends off
    them.
    """

    def __init__(self, f: Fiet, points: Iterable[Fraction] = ()):
        self.scale = scale = 2 * lcm(f.den, *[q.denominator for q in points])
        comb, lam = f.comb, [v * (scale // f.den) for v in f.nums]
        left, L = {}, 0
        for label in comb.pi1:
            left[label] = L
            L += lam[label - 1]
        tiles, cuts, u = [], [], 0
        for label in comb.pi0:
            w = lam[label - 1]
            cuts.append(u)
            tiles.append((label, u, w, left[label] + u + w, True)
                         if label in comb.flips
                         else (label, u, w, left[label] - u, False))
            u += w
        self.tiles, self.cuts, self.L = tiles, cuts, L


def _walk(
    kernel: _Tiles, x: int, horizons: tuple[int, ...], s: int
) -> list[tuple[int, tuple[int, ...], int, int]]:
    """Walk one orbit from x to its last horizon on cells of width ``2**s``.

    One ``(steps done, visit counts, largest gap, position)`` per horizon,
    where the largest gap is taken between the per-cell extremes of the
    visited points (the exact ``max_gap`` when it is at least ``2**s``).
    The orbit is walked by :func:`fiet.window.segments`, which crosses
    translation runs in closed form and stops where the map is undefined;
    each segment adds its steps to its tile's count and writes its box of
    points into the per-cell extremes (:func:`fiet.window.write`).  The
    walk to one horizon continues into the next with its per-tile memory.
    """
    tiles, cuts, L = kernel.tiles, kernel.cuts, kernel.L
    lo = [L] * (((L - 1) >> s) + 1)
    hi = [-1] * len(lo)
    counts = [0] * len(tiles)
    rows = []
    t, e, last = 0, 1, None
    for h in horizons:
        walk = segments(tiles, cuts, x, h, t, e, last)
        while True:
            try:
                tile, z, _, _, _, n, dims = next(walk)
            except StopIteration as stop:
                t, x, e, last = stop.value
                break
            counts[tile[0] - 1] += n
            if dims:
                write(lo, hi, s, z, dims)
            else:  # one step, the commonest segment, written in place
                cell = z >> s
                if z < lo[cell]:
                    lo[cell] = z
                if z > hi[cell]:
                    hi[cell] = z
        if t == 0:
            lo[x >> s] = hi[x >> s] = x
        gap = prev = 0
        for a, b in zip(lo, hi):
            if b >= 0:
                gap = max(gap, a - prev)
                prev = b
        rows.append((t, tuple(counts), max(gap, L - prev), x))
    return rows


def _check_point(f: Fiet, x) -> Fraction:
    x = Fraction(x)
    if x < 0 or x >= f.total_length:
        raise DomainError(f"{x} outside [0, {f.total_length})")
    return x


def evaluate(f: Fiet, x: Fraction) -> Fraction:
    """Apply the map to a point of [0, L); exact.

    Raises :class:`DomainError` outside [0, L) and
    :class:`FlipDiscontinuityError` at the left endpoint of a flipped
    subinterval (where the closed-left convention leaves no image).
    """
    x = _check_point(f, x)
    tiles = _Tiles(f, (x,))
    x = int(x * tiles.scale)
    label, u, _, c, flipped = tiles.tiles[bisect_right(tiles.cuts, x) - 1]
    if flipped and x == u:
        raise FlipDiscontinuityError(Fraction(x, tiles.scale), label)
    return Fraction(c - x if flipped else c + x, tiles.scale)


def iterate(f: Fiet, x0: Fraction, steps: int) -> OrbitPoint:
    """Apply the map ``steps`` times from ``x0``.

    ``visit_counts[k-1]`` counts the iterates x_0 .. x_{steps-1} lying in the
    domain subinterval of label k (the final point is not counted).  If the
    orbit reaches an undefined point, raises :class:`OrbitTerminated` carrying
    the step index and partial counts.  The orbit is walked by :func:`_walk`
    on one cell, so translation runs are crossed in closed form.
    """
    if exact_int(steps, "steps") < 0:
        raise ValueError("steps must be >= 0")
    x0 = _check_point(f, x0)
    tiles = _Tiles(f, (x0,))
    [(done, counts, _, x)] = _walk(
        tiles, int(x0 * tiles.scale), (steps,), tiles.L.bit_length()
    )
    if done < steps:
        raise OrbitTerminated(done, Fraction(x, tiles.scale), counts)
    return OrbitPoint(Fraction(x, tiles.scale), counts)


def is_irreducible(c: FietCombinatorics) -> bool:
    """True iff no proper prefix of domain labels fills a prefix of range positions."""
    seen0: set[int] = set()
    seen1: set[int] = set()
    for k in range(c.n - 1):
        seen0.add(c.pi0[k])
        seen1.add(c.pi1[k])
        if seen0 == seen1:
            return False
    return True


_MAX_APPLICATIONS = 4096


def _tile_exactly(spans: list[tuple], end: int) -> bool:
    """True iff sorted half-open spans [s[0], s[1]) tile [0, end) exactly."""
    return [s[0] for s in spans] + [end] == [0] + [s[1] for s in spans]


def first_return(f: Fiet, cut: Fraction) -> Fiet:
    """First-return map of f to [0, cut) as an FIET — the induction oracle.

    Independent of any induction case analysis: the map's rows are those
    :func:`_return_rows` assembles on the map's integer tiles, and the
    returned map is built from them.  Raises :class:`DomainError` unless
    0 < cut <= L, returns ``f`` itself at cut = L, and raises
    :class:`OracleInapplicable` whenever the data does not assemble into
    an n-interval exchange, or after 4096 applications of the map.
    """
    q = Fraction(cut)
    kernel = _Tiles(f, (q,))
    cut = q.numerator * (kernel.scale // q.denominator)
    if cut == kernel.L:
        return f
    if not (0 < cut < kernel.L):
        raise DomainError(f"cut {q} outside (0, {Fraction(kernel.L, kernel.scale)}]")
    return _fiet_from_rows(_return_rows(kernel, cut), kernel.scale)


def _fiet_from_rows(rows, scale: int) -> Fiet:
    """The validated FIET of the rows ``(pi0, pi1, flips, widths)``, whose
    widths are integers at ``scale``."""
    pi0, pi1, flips, widths = rows
    return Fiet.from_integers(FietCombinatorics(len(widths), pi0, pi1, flips),
                              widths, scale)


def _return_rows(kernel: _Tiles, cut: int):
    """The rows of the first-return map of ``kernel``'s map to [0, cut).

    ``cut`` is an integer at the kernel's scale, with 0 < cut < L.
    Subintervals of [0, cut) are walked exactly through the tiles, each
    carried as one isometry x -> ±x + c, until every piece has returned,
    then reassembled into an n-interval exchange.  Labels are inherited
    from the original domain tile containing each piece; when a tile holds
    two pieces (one label was pushed out beyond the cut), the piece with
    the larger return time inherits the missing label.

    Returns ``(pi0, pi1, flips, widths)``: the label rows as tuples, the
    flip set as a frozenset and ``widths[k - 1]``, label k's width at the
    kernel's scale; nothing is validated or reduced.  Raises
    :class:`OracleInapplicable` whenever the data does not assemble into
    an n-interval exchange under these rules, or after ``_MAX_APPLICATIONS``
    applications of the map.
    """
    tiles, cuts = kernel.tiles, kernel.cuts
    n = len(tiles)

    # A piece is (lo, hi, sign, shift, rtime, home): after rtime applications
    # of the map its points sit in [lo, hi), a point x of [0, cut) at
    # sign * x + shift, and home labels the domain tile it started in.
    # Coordinates are integers at the scale of the map's _Tiles.
    pieces = []
    for label, u, lam, _, _ in tiles:
        if u >= cut:
            break
        pieces.append((u, min(u + lam, cut), 1, 0, 0, label))

    done = []
    budget = _MAX_APPLICATIONS
    while pieces:
        if budget <= 0:
            raise OracleInapplicable("iteration budget exhausted")
        lo, hi, sign, shift, rtime, home = p = pieces.pop()
        if rtime > 0 and hi <= cut:
            done.append(p)
            continue
        # Split at the cut, or else at the end of the domain tile holding lo;
        # a piece inside one domain tile is mapped.
        if lo < cut < hi:
            mid = cut
        else:
            _, u, lam, c, flipped = tiles[bisect_right(cuts, lo) - 1]
            mid = u + lam
            if hi <= mid:
                budget -= 1
                if flipped:
                    pieces.append((c - hi, c - lo, -sign, c - shift, rtime + 1, home))
                else:
                    pieces.append((c + lo, c + hi, sign, c + shift, rtime + 1, home))
                continue
        pieces.append((lo, mid, sign, shift, rtime, home))
        pieces.append((mid, hi, sign, shift, rtime, home))

    if len(done) != n:
        raise OracleInapplicable(f"return map has {len(done)} pieces, expected {n}")

    # Each piece's domain, read off its isometry; exact tilings of [0, cut)
    # in both domain and final positions.
    domains = []
    for p in done:
        lo, hi, sign, shift, _, _ = p
        domains.append((lo - shift, hi - shift, p) if sign == 1
                       else (shift - hi, shift - lo, p))
    domains.sort()
    if not _tile_exactly(domains, cut):
        raise OracleInapplicable("domain pieces do not tile the cut interval")
    done.sort()
    if not _tile_exactly(done, cut):
        raise OracleInapplicable("returned pieces do not tile the cut interval")

    # Label assignment: inherit the home tile's label; one doubled tile hands
    # the missing label to its later-returning piece.  The tilings make each
    # piece's position lo a key.
    by_home: dict[int, list[tuple]] = {}
    for _, _, p in domains:
        by_home.setdefault(p[5], []).append(p)
    missing = [k for k in range(1, n + 1) if k not in by_home]
    labels: dict[int, int] = {}
    for home, ps in by_home.items():
        if len(ps) == 1:
            labels[ps[0][0]] = home
        elif len(ps) == 2 and len(missing) == 1:
            a, b = ps
            if a[4] == b[4]:
                raise OracleInapplicable(
                    "cannot assign labels: equal return times in a doubled tile"
                )
            late, early = (a, b) if a[4] > b[4] else (b, a)
            labels[early[0]] = home
            labels[late[0]] = missing[0]
        else:
            raise OracleInapplicable(
                f"cannot assign labels: tile {home} holds {len(ps)} pieces "
                f"with {len(missing)} labels missing"
            )

    # Exact-size tuples, as in Fiet.__init__.
    widths = [0] * n
    for p in done:
        widths[labels[p[0]] - 1] = p[1] - p[0]
    return (tuple([labels[p[0]] for _, _, p in domains]),
            tuple([labels[p[0]] for p in done]),
            frozenset([labels[p[0]] for p in done if p[2] == -1]),
            widths)
