"""Exact interval exchange transformations with flips (FIETs).

An FIET is a triple (lengths, (pi0, pi1), flips): the interval [0, L) is cut
into n subintervals whose left-to-right label order is ``pi0`` in the domain
and ``pi1`` in the range; the map sends the subinterval labeled k onto the
range subinterval labeled k, translating when ``k not in flips`` and
reflecting when ``k in flips``.

All arithmetic is exact.  Lengths and points are ``fractions.Fraction`` at
the API boundary only: the four orbit walks (:func:`evaluate`,
:func:`iterate`, :func:`first_return` and
:func:`fiet.verify.birkhoff_frequencies`) share one map compiled into
integer tiles at a common scale (``_Tiles``).  Domain subintervals are
closed on the left and open on the right.  For a flipped label the left
endpoint of its domain subinterval has no image under this convention; it is
declared a discontinuity and orbits reaching it terminate with
:class:`OrbitTerminated`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


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

    A bool is rejected too: JSON ``true`` is not the label or count 1.
    """
    i = int(v)
    if i != v or isinstance(v, bool):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return i


def _check_permutation(
    images: Sequence[int], labels: set[int], name: str
) -> tuple[int, ...]:
    """``images`` as a tuple of ints; raises unless its values order ``labels``."""
    images = tuple(images)
    if len(images) != len(labels) or set(images) != labels:
        raise ValueError(
            f"{name} must be a permutation of 1..{len(labels)}, got {images}"
        )
    return tuple(map(int, images))


@dataclass(frozen=True)
class FietCombinatorics:
    """Discrete part of an FIET: label orders (pi0, pi1) and the flip set."""

    n: int
    pi0: tuple[int, ...]
    pi1: tuple[int, ...]
    flips: frozenset[int]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        labels = set(range(1, self.n + 1))
        object.__setattr__(self, "pi0", _check_permutation(self.pi0, labels, "pi0"))
        object.__setattr__(self, "pi1", _check_permutation(self.pi1, labels, "pi1"))
        flips = frozenset(self.flips)
        if not flips <= labels:
            raise ValueError(f"flips {set(flips)} not a subset of 1..{self.n}")
        object.__setattr__(self, "flips", frozenset(map(int, flips)))

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


@dataclass(frozen=True)
class Fiet:
    """A full FIET: combinatorics plus positive exact lengths (indexed by label)."""

    comb: FietCombinatorics
    lengths: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # A Fraction is already normalized; anything else (a subclass too) is
        # converted once.  Its denominator is positive, so the sign is the
        # numerator's.
        lengths = tuple(
            v if type(v) is Fraction else Fraction(v) for v in self.lengths
        )
        object.__setattr__(self, "lengths", lengths)
        if len(lengths) != self.comb.n:
            raise ValueError("lengths must have one entry per label")
        if any(v.numerator <= 0 for v in lengths):
            raise ValueError("all lengths must be positive")

    @property
    def n(self) -> int:
        return self.comb.n

    @property
    def total_length(self) -> Fraction:
        den = lcm(*(q.denominator for q in self.lengths))
        return Fraction(
            sum(q.numerator * (den // q.denominator) for q in self.lengths), den
        )

    def length_of(self, label: int) -> Fraction:
        return self.lengths[label - 1]

    def inverse(self) -> "Fiet":
        return Fiet(self.comb.swapped(), self.lengths)


@dataclass(frozen=True)
class OrbitPoint:
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
        self.scale = scale = 2 * lcm(*(q.denominator for q in (*f.lengths, *points)))
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

    def step(self, x: int) -> tuple[int, int]:
        """(label of x's tile, image of x), both at this scale."""
        label, u, _, c, flipped = self.locate(x)
        if not flipped:
            return label, c + x
        if x == u:
            raise FlipDiscontinuityError(Fraction(x, self.scale), label)
        return label, c - x


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
    return Fraction(tiles.step(int(x * tiles.scale))[1], tiles.scale)


def iterate(f: Fiet, x0: Fraction, steps: int) -> OrbitPoint:
    """Apply the map ``steps`` times from ``x0``.

    ``visit_counts[k-1]`` counts the iterates x_0 .. x_{steps-1} lying in the
    domain subinterval of label k (the final point is not counted).  If the
    orbit reaches an undefined point, raises :class:`OrbitTerminated` carrying
    the step index and partial counts.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    x0 = _check_point(f, x0)
    tiles = _Tiles(f, (x0,))
    x = int(x0 * tiles.scale)
    counts = [0] * f.n
    for t in range(steps):
        try:
            label, x_next = tiles.step(x)
        except FlipDiscontinuityError:
            raise OrbitTerminated(t, Fraction(x, tiles.scale), tuple(counts)) from None
        counts[label - 1] += 1
        x = x_next
    return OrbitPoint(Fraction(x, tiles.scale), tuple(counts))


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


class _Piece:
    """A subinterval of the induced domain being tracked through the map.

    ``dom`` is its place in [0, cut) (the induced FIET's domain); ``pos`` is
    where its points currently sit; ``sign`` is +1 if orientation is
    preserved, -1 if reversed; ``rtime`` counts applications of the map;
    ``home`` is the label of the original domain tile containing ``dom``.
    Coordinates are integers at the scale of the map's :class:`_Tiles`.
    """

    __slots__ = ("dom_lo", "dom_hi", "pos_lo", "pos_hi", "sign", "rtime", "home")

    def __init__(self, dom_lo, dom_hi, pos_lo, pos_hi, sign, rtime, home):
        self.dom_lo = dom_lo
        self.dom_hi = dom_hi
        self.pos_lo = pos_lo
        self.pos_hi = pos_hi
        self.sign = sign
        self.rtime = rtime
        self.home = home

    def split_at(self, c: int) -> tuple["_Piece", "_Piece"]:
        """Split at position-space point c in (pos_lo, pos_hi); returns (left, right)."""
        if self.sign == 1:
            mid = self.dom_lo + (c - self.pos_lo)
            left = _Piece(self.dom_lo, mid, self.pos_lo, c, 1, self.rtime, self.home)
            right = _Piece(mid, self.dom_hi, c, self.pos_hi, 1, self.rtime, self.home)
        else:
            mid = self.dom_hi - (c - self.pos_lo)
            left = _Piece(mid, self.dom_hi, self.pos_lo, c, -1, self.rtime, self.home)
            right = _Piece(self.dom_lo, mid, c, self.pos_hi, -1, self.rtime, self.home)
        return left, right


def first_return(f: Fiet, cut: Fraction, max_applications: int = 4096) -> Fiet:
    """First-return map of f to [0, cut) as an FIET — the induction oracle.

    Independent of any induction case analysis: subintervals of [0, cut) are
    tracked geometrically through the map until every piece has returned, then
    reassembled into an n-interval FIET.  Labels are inherited from the
    original domain tile containing each piece; when a tile holds two pieces
    (one label was pushed out beyond the cut), the piece with the larger
    return time inherits the missing label.  Raises
    :class:`OracleInapplicable` whenever the data does not assemble into an
    n-interval exchange under these rules.
    """
    q = Fraction(cut)
    tiles = _Tiles(f, (q,))
    scale = tiles.scale
    cut = q.numerator * (scale // q.denominator)
    if cut == tiles.L:
        return f
    if not (0 < cut < tiles.L):
        raise DomainError(f"cut {q} outside (0, {Fraction(tiles.L, scale)}]")

    # Initial pieces: [0, cut) split at the original domain breakpoints.
    pieces: list[_Piece] = []
    for label, u, lam, _, _ in tiles.tiles:
        if u >= cut:
            break
        hi = min(u + lam, cut)
        pieces.append(_Piece(u, hi, u, hi, 1, 0, label))

    done: list[_Piece] = []
    budget = max_applications
    while pieces:
        if budget <= 0:
            raise OracleInapplicable("iteration budget exhausted")
        p = pieces.pop()
        if p.rtime > 0 and p.pos_hi <= cut:
            done.append(p)
            continue
        if p.pos_lo < cut < p.pos_hi:
            left, right = p.split_at(cut)
            pieces.extend((left, right))
            continue
        # Apply the map to a piece lying in a single domain tile (split if not).
        label, u, lam, c, flipped = tiles.locate(p.pos_lo)
        if p.pos_hi > u + lam:
            left, right = p.split_at(u + lam)
            pieces.extend((left, right))
            continue
        budget -= 1
        if flipped:
            p.pos_lo, p.pos_hi = c - p.pos_hi, c - p.pos_lo
            p.sign = -p.sign
        else:
            p.pos_lo, p.pos_hi = c + p.pos_lo, c + p.pos_hi
        p.rtime += 1
        pieces.append(p)

    if len(done) != f.n:
        raise OracleInapplicable(
            f"return map has {len(done)} pieces, expected {f.n}"
        )

    done.sort(key=lambda p: p.dom_lo)
    # Exact tilings of [0, cut) in both domain and final positions.
    lo = 0
    for p in done:
        if p.dom_lo != lo:
            raise OracleInapplicable("domain pieces do not tile the cut interval")
        lo = p.dom_hi
    if lo != cut:
        raise OracleInapplicable("domain pieces do not tile the cut interval")
    lo = 0
    for p in sorted(done, key=lambda p: p.pos_lo):
        if p.pos_lo != lo:
            raise OracleInapplicable("returned pieces do not tile the cut interval")
        lo = p.pos_hi
    if lo != cut:
        raise OracleInapplicable("returned pieces do not tile the cut interval")

    # Label assignment: inherit the home tile's label; one doubled tile hands
    # the missing label to its later-returning piece.
    by_home: dict[int, list[_Piece]] = {}
    for p in done:
        by_home.setdefault(p.home, []).append(p)
    missing = [k for k in range(1, f.n + 1) if k not in by_home]
    labels: dict[int, int] = {}
    for home, ps in by_home.items():
        if len(ps) == 1:
            labels[id(ps[0])] = home
        elif len(ps) == 2 and len(missing) == 1:
            a, b = ps
            if a.rtime == b.rtime:
                raise OracleInapplicable(
                    "cannot assign labels: equal return times in a doubled tile"
                )
            late, early = (a, b) if a.rtime > b.rtime else (b, a)
            labels[id(early)] = home
            labels[id(late)] = missing[0]
        else:
            raise OracleInapplicable(
                f"cannot assign labels: tile {home} holds {len(ps)} pieces "
                f"with {len(missing)} labels missing"
            )

    new_pi0 = tuple(labels[id(p)] for p in done)
    new_pi1 = tuple(labels[id(p)] for p in sorted(done, key=lambda p: p.pos_lo))
    new_flips = frozenset(labels[id(p)] for p in done if p.sign == -1)
    new_lengths = [Fraction(0)] * f.n
    for p in done:
        new_lengths[labels[id(p)] - 1] = Fraction(p.dom_hi - p.dom_lo, scale)
    comb = FietCombinatorics(f.n, new_pi0, new_pi1, new_flips)
    return Fiet(comb, tuple(new_lengths))
