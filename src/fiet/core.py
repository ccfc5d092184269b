"""Exact interval exchange transformations with flips (FIETs).

An FIET is a triple (lengths, (pi0, pi1), flips): the interval [0, L) is cut
into n subintervals whose left-to-right label order is ``pi0`` in the domain
and ``pi1`` in the range; the map sends the subinterval labeled k onto the
range subinterval labeled k, translating when ``k not in flips`` and
reflecting when ``k in flips``.

All arithmetic is exact.  Lengths and points are ``fractions.Fraction`` at
the API boundary only: :func:`evaluate`, :func:`iterate`,
:func:`first_return` and :func:`fiet.verify.birkhoff_frequencies` share one
map compiled into integer tiles at a common scale (``_Tiles``).  Orbits are
stepped by one walk, :func:`_walk`, which crosses translation runs in
closed form; ``first_return`` pushes intervals through the tiles on its own,
as the independent oracle of induction.  Domain subintervals are
closed on the left and open on the right.  For a flipped label the left
endpoint of its domain subinterval has no image under this convention; it is
declared a discontinuity and orbits reaching it terminate with
:class:`OrbitTerminated`.

Every value type of the package (an FIET, a path, a matrix, a report) is an
immutable :class:`Record`, and :func:`replace` copies one with some fields
changed.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import attrgetter
from typing import Iterable, Sequence

_set = object.__setattr__


class Record:
    """An immutable record: the fields of a frozen dataclass, without its cost.

    A subclass's fields are its own annotated names, in order, and a
    class-level value is that field's default.  Records compare equal when
    they are of one class and their field values are equal, hash as the
    tuple of those values, and print as ``Name(field=value, ...)``;
    assigning or deleting an attribute raises ``AttributeError``.

    The generic constructor binds positional and keyword arguments to the
    fields as a function signature would, stores them and calls
    :meth:`__post_init__`.  A subclass that normalizes a field, or that is
    built once per induction step, defines its own ``__init__`` instead,
    which validates and stores each field once with
    ``object.__setattr__``.  Nothing is generated or compiled per
    class, so defining a record costs no more than defining a class.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = cls.__match_args__ = tuple(cls.__annotations__)
        cls._defaults = {k: vars(cls)[k] for k in fields if k in vars(cls)}
        # The tuple of field values, read in C when there are two or more.
        cls._values = property(attrgetter(*fields) if len(fields) > 1
                               else lambda r: tuple(getattr(r, k) for k in fields))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values the arguments give, in field order."""
        fields, name = cls._fields, f"{cls.__qualname__}.__init__()"
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields) + 1} positional arguments "
                            f"but {len(args) + 1} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name} got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name} got multiple values for argument {key!r}")
            values[key] = value
        missing = [k for k in fields if k not in values and k not in cls._defaults]
        if missing:
            raise TypeError(f"{name} missing required argument(s) "
                            + ", ".join(map(repr, missing)))
        return [values[k] if k in values else cls._defaults[k] for k in fields]

    def __post_init__(self) -> None:
        """Validate the stored fields; a subclass overrides it."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, **changes) -> Record:
    """A copy of ``record`` with ``changes``, built by its constructor, so the
    new values are validated as any others are."""
    values = {k: getattr(record, k) for k in record._fields}
    values.update(changes)
    return type(record)(**values)


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


def _ints(values):
    """A tuple or frozenset of ints: ``values`` itself when every value is
    an int already, else a converted copy."""
    if set(map(type, values)) <= {int}:
        return values
    return type(values)(map(int, values))


def _check_permutation(
    images: Sequence[int], labels: frozenset[int], name: str
) -> tuple[int, ...]:
    """``images`` as a tuple of ints; raises unless its values order ``labels``."""
    images = tuple(images)
    if len(images) != len(labels) or set(images) != labels:
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

    @property
    def rightmost_domain_label(self) -> int:
        return self.pi0[-1]

    @property
    def rightmost_range_label(self) -> int:
        return self.pi1[-1]

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
    """A full FIET: combinatorics plus positive exact lengths (indexed by label)."""

    comb: FietCombinatorics
    lengths: tuple[Fraction, ...]

    def __init__(self, comb: FietCombinatorics, lengths) -> None:
        # A Fraction is already normalized; anything else (a subclass too) is
        # converted once.  Its denominator is positive, so the sign is the
        # numerator's.  Tuples built once per object are built from a list,
        # at their exact size: a tuple built from a generator is allocated
        # at ten slots and shrunk, so it is never taken from, only added
        # to, the interpreter's free list of its final length.
        lengths = tuple([v if type(v) is Fraction else Fraction(v) for v in lengths])
        if len(lengths) != comb.n:
            raise ValueError("lengths must have one entry per label")
        if any(v.numerator <= 0 for v in lengths):
            raise ValueError("all lengths must be positive")
        _set(self, "comb", comb)
        _set(self, "lengths", lengths)

    @property
    def n(self) -> int:
        return self.comb.n

    @property
    def total_length(self) -> Fraction:
        den = lcm(*[q.denominator for q in self.lengths])
        return Fraction(
            sum(q.numerator * (den // q.denominator) for q in self.lengths), den
        )

    def length_of(self, label: int) -> Fraction:
        return self.lengths[label - 1]

    def inverse(self) -> "Fiet":
        return Fiet(self.comb.swapped(), self.lengths)


class OrbitPoint(Record):
    """Result of iterating an orbit: final position and per-label visit counts."""

    position: Fraction
    visit_counts: tuple[int, ...]


def _partition(order: Sequence[int], lengths: Sequence, lo=Fraction(0)):
    """Tiles [(label, lo, hi), ...] for the given label order, from ``lo``."""
    tiles = []
    for label in order:
        hi = lo + lengths[label - 1]
        tiles.append((label, lo, hi))
        lo = hi
    return tiles


def domain_partition(f: Fiet) -> list[tuple[int, Fraction, Fraction]]:
    """Half-open domain tiles [(label, lo, hi), ...] tiling [0, L) left to right."""
    return _partition(f.comb.pi0, f.lengths)


def range_partition(f: Fiet) -> list[tuple[int, Fraction, Fraction]]:
    """Half-open range tiles [(label, lo, hi), ...] tiling [0, L) left to right."""
    return _partition(f.comb.pi1, f.lengths)


class _Tiles:
    """The map compiled once into integer tiles at a common scale.

    ``scale`` is twice the lcm of the denominators of the lengths and of
    ``points``, so tile ends, the given points and reflected images
    (x -> a + b - x) are all integers.  ``tiles[i] = (label, u, lam, c,
    flipped)``: domain tile i is [u, u + lam) and maps x to its image offset
    plus or minus x, ``c + x`` or, when flipped, ``c - x``; ``cuts`` holds
    the u's and ``L`` the scaled total length.
    """

    def __init__(self, f: Fiet, points: Iterable[Fraction] = ()):
        self.scale = scale = 2 * lcm(*[q.denominator for q in (*f.lengths, *points)])
        lam = [q.numerator * (scale // q.denominator) for q in f.lengths]
        left = {label: v for label, v, _ in _partition(f.comb.pi1, lam, 0)}
        self.tiles = [
            (label, u, hi - u, left[label] + hi, True)
            if label in f.comb.flips
            else (label, u, hi - u, left[label] - u, False)
            for label, u, hi in _partition(f.comb.pi0, lam, 0)
        ]
        self.cuts = [t[1] for t in self.tiles]
        self.L = sum(lam)

    def locate(self, x: int) -> tuple[int, int, int, int, bool]:
        return self.tiles[bisect_right(self.cuts, x) - 1]


def _walk(
    kernel: _Tiles, x: int, horizons: tuple[int, ...], s: int
) -> list[tuple[int, tuple[int, ...], int, int]]:
    """Walk one orbit from x to its last horizon on cells of width ``2**s``.

    One ``(steps done, visit counts, largest gap, position)`` per horizon,
    where the largest gap is taken between the per-cell extremes of the
    visited points (the exact ``max_gap`` when it is at least ``2**s``).

    Translation runs are crossed in closed form, so the cost grows with
    the number of runs, not the number of steps.  Each tile keeps the steps
    and points of the last two visits the loop stepped through.  When the
    visit at step t repeats them, p steps after the last one, y_0, with the
    same displacement delta = x - y_0, :func:`_jump` walks the p steps from
    y_0 again for each step's point y_i, its tile and e_i, the orientation
    of T^i near y_0.  Since T is c + x or c - x on each tile, T^i(y_0 + z)
    = y_i + e_i*z as long as each T^j(y_0 + z), j < i, lies in the tile of
    y_j, and for a flipped tile right of its left end, where T is
    undefined.  If T^p preserves orientation there, it is y -> y + delta,
    so the orbit point at step t + (m - 1)*p + i is y_i + e_i*m*delta for m
    = 1..K, where K is the largest number of windows whose points all meet
    that condition.  Each progression y_i + e_i*m*delta is monotone in m,
    so its last term decides: K is the least of p floor divisions, capped
    so that the horizon is not crossed.  When delta = 0 the orbit is
    periodic whatever the orientation, and K runs to the horizon.  The jump
    adds K to the count of each window label, writes each progression into
    the per-cell extremes one non-empty cell at a time, in closed form (so
    term by term when its terms lie a cell or more apart), and moves t by
    K*p and x by K*delta.  Each jump certifies a translation cylinder of
    the map: an interval on which T^p is the translation by delta.
    """
    tiles, cuts, L = kernel.tiles, kernel.cuts, kernel.L
    lo = [L] * (((L - 1) >> s) + 1)
    hi = [-1] * len(lo)
    counts = [0] * len(tiles)
    # Per tile: steps and points of the last visit and of the one before.
    # A jump uses only the last, a true orbit point, so the placeholders
    # of a tile not yet visited twice decide only when one is tried.
    t1 = [-1] * len(tiles)
    t2 = t1[:]
    x1 = [0] * len(tiles)
    x2 = x1[:]
    rows = []
    t = 0
    for h in horizons:
        # A terminated orbit stays at its terminal point, so every later
        # horizon breaks at once on the same step.
        while t < h:
            # _Tiles.locate inlined: the call cost 10-15% of this loop's time.
            i = bisect_right(cuts, x) - 1
            label, u, _, c, flipped = tiles[i]
            if flipped and x == u:
                break
            p = t - t1[i]
            if p == t1[i] - t2[i] and x - x1[i] == x1[i] - x2[i]:
                k = _jump(tiles, cuts, x1[i], x, p, h - t, counts, lo, hi, s)
                if k:
                    t += k * p
                    x += k * (x - x1[i])
                    continue
            t2[i], t1[i] = t1[i], t
            x2[i], x1[i] = x1[i], x
            counts[label - 1] += 1
            cell = x >> s
            if x < lo[cell]:
                lo[cell] = x
            if x > hi[cell]:
                hi[cell] = x
            x = c - x if flipped else c + x
            t += 1
        if t == 0:
            lo[x >> s] = hi[x >> s] = x
        gap = prev = 0
        for a, b in zip(lo, hi):
            if b >= 0:
                gap = max(gap, a - prev)
                prev = b
        rows.append((t, tuple(counts), max(gap, L - prev), x))
    return rows


def _jump(tiles, cuts, y, x, p, left, counts, lo, hi, s) -> int:
    """Cross the windows of a translation run; the number K crossed.

    ``y`` is the orbit's point p steps before ``x`` and ``left`` the number
    of steps before the horizon.  Returns 0, and changes nothing, unless
    at least one whole window fits (see :func:`_walk`).  The window is
    walked twice, to find K and then to write it, so that no orbit
    stretch is held in memory.
    """
    k = left // p
    if not k:
        return 0
    delta = x - y
    flips = 0
    for _, u, lam, flipped, z, d in _window(tiles, cuts, y, delta, p):
        if d > 0:
            k = min(k, (u + lam - 1 - z) // d)
        elif d < 0:
            k = min(k, (z - u - flipped) // -d)
        flips += flipped
    if (flips & 1 and delta) or not k:
        return 0
    for label, _, _, _, z, d in _window(tiles, cuts, y, delta, p):
        counts[label - 1] += k
        if not d:
            continue
        # The K terms z + m*d, m = 1..K, from the smallest v to the largest
        # b, one non-empty cell at a time: w is the cell's last term.
        step = abs(d)
        v = min(z + d, z + k * d)
        b = v + (k - 1) * step
        while v <= b:
            cell = v >> s
            w = min(b, v + ((((cell + 1) << s) - 1 - v) // step) * step)
            if v < lo[cell]:
                lo[cell] = v
            if w > hi[cell]:
                hi[cell] = w
            v = w + step
    return k


def _window(tiles, cuts, y, delta, p):
    """The p steps of the orbit from y: for each, its tile's label, left
    end, length and flip, its point, and its progression step e*delta,
    where e is the orientation of the steps before it."""
    e = 1
    for _ in range(p):
        label, u, lam, c, flipped = tiles[bisect_right(cuts, y) - 1]
        yield label, u, lam, flipped, y, e * delta
        if flipped:
            y, e = c - y, -e
        else:
            y = c + y


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
    label, u, _, c, flipped = tiles.locate(x)
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

    Independent of any induction case analysis: subintervals of [0, cut) are
    walked exactly through the map's integer tiles, each carried as one
    isometry x -> ±x + c, until every piece has returned, then reassembled
    into an n-interval FIET.  Labels are inherited from the original domain
    tile containing each piece; when a tile holds two pieces (one label was
    pushed out beyond the cut), the piece with the larger return time inherits
    the missing label.  Raises :class:`OracleInapplicable` whenever the data
    does not assemble into an n-interval exchange under these rules, or after
    4096 applications of the map.
    """
    q = Fraction(cut)
    tiles = _Tiles(f, (q,))
    scale = tiles.scale
    cut = q.numerator * (scale // q.denominator)
    if cut == tiles.L:
        return f
    if not (0 < cut < tiles.L):
        raise DomainError(f"cut {q} outside (0, {Fraction(tiles.L, scale)}]")

    # A piece is (lo, hi, sign, shift, rtime, home): after rtime applications
    # of the map its points sit in [lo, hi), a point x of [0, cut) at
    # sign * x + shift, and home labels the domain tile it started in.
    # Coordinates are integers at the scale of the map's _Tiles.
    pieces = []
    for label, u, lam, _, _ in tiles.tiles:
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
            _, u, lam, c, flipped = tiles.locate(lo)
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

    if len(done) != f.n:
        raise OracleInapplicable(f"return map has {len(done)} pieces, expected {f.n}")

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
    missing = [k for k in range(1, f.n + 1) if k not in by_home]
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
    new_pi0 = tuple([labels[p[0]] for _, _, p in domains])
    new_pi1 = tuple([labels[p[0]] for p in done])
    new_flips = frozenset(labels[p[0]] for p in done if p[2] == -1)
    lengths = {labels[p[0]]: Fraction(p[1] - p[0], scale) for p in done}
    comb = FietCombinatorics(f.n, new_pi0, new_pi1, new_flips)
    return Fiet(comb, tuple([lengths[k] for k in range(1, f.n + 1)]))
