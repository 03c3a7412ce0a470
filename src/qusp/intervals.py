"""Exact rational interval sets inside the open unit interval.

A `RationalIntervalSet` is a normalized finite union of rational-endpoint
intervals: sorted, pairwise disjoint, never mergeable across a shared
endpoint, and clamped to (0, 1), which is the ambient ground for the whole
countable layer.  Membership is membership of a rational in one of the
listed intervals.

Endpoint bookkeeping uses three-valued cuts (value, tweak) with tweak in
{-1, 0, +1}, ordered lexicographically: the closed endpoint v is the cut
(v, 0), an open lower endpoint starts just above its value at (v, +1), an
open upper endpoint stops just below at (v, -1).  Two intervals merge
exactly when no rational cut fits strictly between the first upper cut and
the second lower cut; over the dense rationals that happens only when the
cuts share their value and the missing tweak pattern leaves no room, e.g.
(a, b) followed by [b, c] merges while (a, b) followed by (b, c) leaves
the single rational b out and must stay split.

Inside this module a cut is an integer triple (numerator, denominator,
tweak), reduced, with a positive denominator and zero written as (0, 1),
so two cuts are equal exactly when their triples are.  Cuts are ordered by
cross-multiplication, a*d' against a'*d, and then by tweak; every set
operation, the image widening and the stratum sweeps run on these
integers alone, since `Fraction` arithmetic normalizes and dispatches on
every comparison and dominated the countable layer's run time.  `Fraction`
stays at the edges: the constructors' arguments, `Interval.lo`/`hi`, the
public cuts ``Interval.lower_cut``/``upper_cut`` as (Fraction, tweak)
pairs, the points the sets hand out, and the widening amounts.  No other
module looks inside a triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Iterable

from .serialize import _exact, parse_frac

Cut = tuple[Fraction, int]

# A cut as reduced integers (numerator, denominator, tweak); see the module docstring.
_Cut = tuple[int, int, int]

_FLOOR: _Cut = (0, 1, 1)
_CEIL: _Cut = (1, 1, -1)


def _lt(a: _Cut, b: _Cut) -> bool:
    x, y = a[0] * b[1], b[0] * a[1]
    return x < y or x == y and a[2] < b[2]


def _le(a: _Cut, b: _Cut) -> bool:
    x, y = a[0] * b[1], b[0] * a[1]
    return x < y or x == y and a[2] <= b[2]


def _cmp(a: _Cut, b: _Cut) -> int:
    x, y = a[0] * b[1], b[0] * a[1]
    return (x > y) - (x < y) or a[2] - b[2]


_by_cut = cmp_to_key(_cmp)


def _value_str(cut: _Cut) -> str:
    return str(cut[0]) if cut[1] == 1 else f"{cut[0]}/{cut[1]}"


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Interval:
    """One interval inside [0, 1] with rational endpoints, open or closed at each.

    Holds its two cuts as integer triples (``lower``, ``upper``); the
    `Fraction` endpoints are computed on access.  `dataclasses` supplies
    the value semantics: frozen fields, equality and hashing on the two
    cuts, and copy and pickle support; the constructor validates, and
    `_cut_interval` builds one from trusted cuts.
    """

    lower: _Cut
    upper: _Cut

    def __init__(self, lo, hi, lo_open: bool = True, hi_open: bool = True) -> None:
        lo = _exact(lo, "interval endpoint")
        hi = _exact(hi, "interval endpoint")
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        if ln < 0 or hn > hd:
            raise ValueError("interval endpoints must lie within [0, 1]")
        if ln * hd > hn * ld:
            raise ValueError("interval lower endpoint exceeds upper endpoint")
        object.__setattr__(self, "lower", (ln, ld, 1 if lo_open else 0))
        object.__setattr__(self, "upper", (hn, hd, -1 if hi_open else 0))

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lower[0], self.lower[1])

    @property
    def hi(self) -> Fraction:
        return Fraction(self.upper[0], self.upper[1])

    @property
    def lo_open(self) -> bool:
        return self.lower[2] == 1

    @property
    def hi_open(self) -> bool:
        return self.upper[2] == -1

    @property
    def lower_cut(self) -> Cut:
        return (self.lo, self.lower[2])

    @property
    def upper_cut(self) -> Cut:
        return (self.hi, self.upper[2])

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo!r}, hi={self.hi!r}, lo_open={self.lo_open!r}, hi_open={self.hi_open!r})"

    def to_json(self) -> dict:
        return {
            "lo": f"{self.lower[0]}/{self.lower[1]}",
            "hi": f"{self.upper[0]}/{self.upper[1]}",
            "lo_open": self.lo_open,
            "hi_open": self.hi_open,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Interval":
        return cls(parse_frac(data["lo"]), parse_frac(data["hi"]), data["lo_open"], data["hi_open"])

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{_value_str(self.lower)},{_value_str(self.upper)}{right}"


def _cut_interval(lower: _Cut, upper: _Cut) -> Interval:
    """The interval between two cuts, skipping validation.

    Callers pass reduced, ordered cuts inside the ground, with a lower tweak
    of 0 or 1 and an upper tweak of -1 or 0: cuts of validated intervals, of
    the ground, or shifted and reduced from them.
    """
    out = object.__new__(Interval)
    object.__setattr__(out, "lower", lower)
    object.__setattr__(out, "upper", upper)
    return out


def _mergeable(upper: _Cut, lower: _Cut) -> bool:
    """No rational sits strictly between the cuts, so the pieces join up."""
    if _le(lower, upper):
        return True
    if lower[:2] != upper[:2]:
        return False
    return (upper[2], lower[2]) in {(-1, 0), (0, 1)}


def _flip_up(cut: _Cut) -> _Cut:
    """Lower cut of the region just above an upper cut."""
    return (cut[0], cut[1], cut[2] + 1)


def _flip_down(cut: _Cut) -> _Cut:
    """Upper cut of the region just below a lower cut."""
    return (cut[0], cut[1], cut[2] - 1)


def _reduced(num: int, den: int, tweak: int) -> _Cut:
    g = gcd(num, den)
    return (num // g, den // g, tweak)


@dataclass(frozen=True)
class RationalIntervalSet:
    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", _normalize(self.intervals))

    @classmethod
    def of(cls, *intervals: Interval) -> "RationalIntervalSet":
        return cls(tuple(intervals))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def __contains__(self, q: Fraction) -> bool:
        q = _exact(q, "point")
        cut = (q.numerator, q.denominator, 0)
        return any(_le(piece.lower, cut) and _le(cut, piece.upper) for piece in self.intervals)

    def __or__(self, other: "RationalIntervalSet") -> "RationalIntervalSet":
        return RationalIntervalSet(self.intervals + other.intervals)

    @classmethod
    def _trusted(cls, intervals: tuple[Interval, ...]) -> "RationalIntervalSet":
        """Wrap intervals that are already normalized, skipping `_normalize`.

        For the set operations below, whose output is normalized by
        construction; every other way of building a set normalizes.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "intervals", intervals)
        return out

    def __and__(self, other: "RationalIntervalSet") -> "RationalIntervalSet":
        """Intersection in one two-pointer merge over both sorted interval lists.

        Relies on normalized inputs: each list is sorted and disjoint, so the
        overlap of the current pair is the next output piece and whichever
        piece ends first cannot meet anything later in the other list.  A
        rational sits in every gap between two pieces of one input, hence
        between any two output pieces, so the output is already normalized.
        """
        mine, theirs = self.intervals, other.intervals
        pieces = []
        i = j = 0
        while i < len(mine) and j < len(theirs):
            if _lt(mine[i].upper, theirs[j].upper):
                first, later = mine[i], theirs[j]
                i += 1
            else:
                first, later = theirs[j], mine[i]
                j += 1
            # The overlap ends where ``first`` ends.
            if _le(later.lower, first.lower):
                pieces.append(first)
            elif _le(later.lower, first.upper):
                pieces.append(_cut_interval(later.lower, first.upper))
        return RationalIntervalSet._trusted(tuple(pieces))

    def complement(self) -> "RationalIntervalSet":
        """Complement within the ground (0, 1).

        Relies on a normalized input: its pieces are sorted and nonempty, so
        the gaps come out sorted and each pair of them is split by a piece
        that holds a rational, which leaves the output normalized.
        """
        pieces = []
        cursor = _FLOOR
        for piece in self.intervals:
            upper = _flip_down(piece.lower)
            if _le(cursor, upper):
                pieces.append(_cut_interval(cursor, upper))
            cursor = _flip_up(piece.upper)
        if _le(cursor, _CEIL):
            pieces.append(_cut_interval(cursor, _CEIL))
        return RationalIntervalSet._trusted(tuple(pieces))

    def __sub__(self, other: "RationalIntervalSet") -> "RationalIntervalSet":
        return self & other.complement()

    def __le__(self, other: "RationalIntervalSet") -> bool:
        """Subset test in one merge pass over both sorted interval lists.

        Relies on normalization: the intervals of ``other`` are sorted and no
        two of them can merge, so a rational sits in every gap between them
        and each interval of ``self`` must lie inside a single interval of
        ``other``.  Stops at the first interval that does not.
        """
        theirs = other.intervals
        j = 0
        for piece in self.intervals:
            lower = piece.lower
            while j < len(theirs) and _lt(theirs[j].upper, lower):
                j += 1
            if j == len(theirs) or _lt(lower, theirs[j].lower) or _lt(theirs[j].upper, piece.upper):
                return False
        return True

    def widened(self, below: Fraction, above: Fraction) -> "RationalIntervalSet":
        """Union of the open intervals (lo - below, hi + above) over the pieces, clamped to (0, 1).

        ``below`` and ``above`` are positive; 1, the width of the ground,
        stretches every piece to the ground's edge on that side, and the
        merge pass then joins all of them into one piece.  Every piece is
        shifted by the same amounts, so a normalized input gives pieces
        sorted by lower cut, and one `_merged` pass joins the neighbours that
        overlap; two open ends that meet leave the shared point out and stay
        split.
        """
        pairs = []
        for piece in self.intervals:
            n, d, _ = piece.lower
            num, den = n * below.denominator - below.numerator * d, d * below.denominator
            lower = _reduced(num, den, 1) if num > 0 else _FLOOR
            n, d, _ = piece.upper
            num, den = n * above.denominator + above.numerator * d, d * above.denominator
            pairs.append((lower, _reduced(num, den, -1) if num < den else _CEIL))
        return RationalIntervalSet._trusted(_merged(pairs))

    def pick_point(self) -> Fraction:
        """A canonical member: endpoint when closed, midpoint otherwise."""
        if self.is_empty:
            raise ValueError("cannot pick a point from the empty set")
        iv = self.intervals[0]
        if not iv.lo_open:
            return iv.lo
        return (iv.lo + iv.hi) / 2

    def to_json(self) -> dict:
        return {"intervals": [iv.to_json() for iv in self.intervals]}

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        return " u ".join(str(iv) for iv in self.intervals)


def _merged(pairs: Iterable[tuple[_Cut, _Cut]]) -> tuple[Interval, ...]:
    """The intervals of (lower, upper) cut pairs sorted by lower cut, `_mergeable` neighbours joined.

    Pairs with equal lower cuts always merge, so their order among themselves does not matter.
    """
    merged: list[list[_Cut]] = []
    for lower, upper in pairs:
        if merged and _mergeable(merged[-1][1], lower):
            if _lt(merged[-1][1], upper):
                merged[-1][1] = upper
        else:
            merged.append([lower, upper])
    return tuple(_cut_interval(lower, upper) for lower, upper in merged)


def _normalize(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    clamped: list[tuple[_Cut, _Cut]] = []
    for piece in intervals:
        lower = piece.lower if _le(_FLOOR, piece.lower) else _FLOOR
        upper = piece.upper if _le(piece.upper, _CEIL) else _CEIL
        if _le(lower, upper):
            clamped.append((lower, upper))
    clamped.sort(key=lambda pair: _by_cut(pair[0]))
    return _merged(clamped)


EMPTY = RationalIntervalSet(())
GROUND = RationalIntervalSet((Interval(Fraction(0), Fraction(1)),))


def iv(lo, hi, lo_open: bool = True, hi_open: bool = True) -> RationalIntervalSet:
    """One-interval set; endpoints accept ints, strings, or Fractions."""
    return RationalIntervalSet((Interval(lo, hi, lo_open, hi_open),))


def point(q) -> RationalIntervalSet:
    q = _exact(q, "point")
    return RationalIntervalSet((Interval(q, q, lo_open=False, hi_open=False),))


def rational_grid(count: int) -> tuple[Fraction, ...]:
    """Evenly spaced rationals i / (count + 1) strictly inside (0, 1)."""
    return tuple(Fraction(i, count + 1) for i in range(1, count + 1))


def tagged_pieces(sets: Iterable[RationalIntervalSet]) -> tuple[tuple[Interval, int], ...]:
    """Every piece of pairwise disjoint sets as (piece, position of its set), sorted.

    Disjoint pieces sorted by lower cut are sorted by upper cut as well, which
    `overlapping_tags` and `tags_of_sorted` rely on.
    """
    tagged = [(piece, n) for n, s in enumerate(sets) for piece in s.intervals]
    tagged.sort(key=lambda item: _by_cut(item[0].lower))
    return tuple(tagged)


def overlapping_tags(
    first: tuple[tuple[Interval, int], ...], second: tuple[tuple[Interval, int], ...]
) -> list[tuple[int, int]]:
    """Every tag pair (s, t) of overlapping pieces of two `tagged_pieces` lists, sorted.

    A two-pointer sweep advances whichever piece ends first and meets only
    pieces that overlap: linear in the number of pieces.
    """
    pairs = set()
    i = j = 0
    while i < len(first) and j < len(second):
        (a, s), (b, t) = first[i], second[j]
        lower = a.lower if _le(b.lower, a.lower) else b.lower
        if _lt(a.upper, b.upper):
            upper = a.upper
            i += 1
        else:
            upper = b.upper
            j += 1
        if _le(lower, upper):
            pairs.add((s, t))
    return sorted(pairs)


def tags_of_sorted(tagged: tuple[tuple[Interval, int], ...], points: Iterable[Fraction]) -> list[int | None]:
    """The tag of the piece holding each point of an ascending sequence, or None.

    One forward pointer over the sorted, disjoint `tagged_pieces` list
    locates every point.
    """
    out: list[int | None] = []
    p = 0
    for x in points:
        cut = (x.numerator, x.denominator, 0)
        while p < len(tagged) and _lt(tagged[p][0].upper, cut):
            p += 1
        out.append(tagged[p][1] if p < len(tagged) and _le(tagged[p][0].lower, cut) else None)
    return out
