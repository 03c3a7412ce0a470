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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .serialize import frac_str, parse_frac

Cut = tuple[Fraction, int]

GROUND_LOWER: Cut = (Fraction(0), 1)
GROUND_UPPER: Cut = (Fraction(1), -1)


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self) -> None:
        lo = Fraction(self.lo)
        hi = Fraction(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo < 0 or hi > 1:
            raise ValueError("interval endpoints must lie within [0, 1]")
        if lo > hi:
            raise ValueError("interval lower endpoint exceeds upper endpoint")

    @classmethod
    def _trusted(cls, lo: Fraction, hi: Fraction, lo_open: bool, hi_open: bool) -> "Interval":
        """Build from `Fraction` endpoints already known to satisfy 0 <= lo <= hi <= 1.

        For `_cut_interval`, whose cuts come from validated intervals or the
        ground and are checked to be ordered; every other way of building an
        interval validates.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "lo", lo)
        object.__setattr__(out, "hi", hi)
        object.__setattr__(out, "lo_open", lo_open)
        object.__setattr__(out, "hi_open", hi_open)
        return out

    @property
    def lower_cut(self) -> Cut:
        return (self.lo, 1 if self.lo_open else 0)

    @property
    def upper_cut(self) -> Cut:
        return (self.hi, -1 if self.hi_open else 0)

    def to_json(self) -> dict:
        return {
            "lo": frac_str(self.lo),
            "hi": frac_str(self.hi),
            "lo_open": self.lo_open,
            "hi_open": self.hi_open,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Interval":
        return cls(parse_frac(data["lo"]), parse_frac(data["hi"]), data["lo_open"], data["hi_open"])

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo},{self.hi}{right}"


def _cut_interval(lower: Cut, upper: Cut) -> Interval:
    """The interval between two cuts; callers pass ordered cuts inside the ground."""
    return Interval._trusted(lower[0], upper[0], lower[1] == 1, upper[1] == -1)


def _mergeable(upper: Cut, lower: Cut) -> bool:
    """No rational sits strictly between the cuts, so the pieces join up."""
    if lower <= upper:
        return True
    if lower[0] != upper[0]:
        return False
    return (upper[1], lower[1]) in {(-1, 0), (0, 1)}


def _flip_up(cut: Cut) -> Cut:
    """Lower cut of the region just above an upper cut."""
    return (cut[0], cut[1] + 1)


def _flip_down(cut: Cut) -> Cut:
    """Upper cut of the region just below a lower cut."""
    return (cut[0], cut[1] - 1)


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

    @property
    def inf_cut(self) -> Cut | None:
        return self.intervals[0].lower_cut if self.intervals else None

    @property
    def sup_cut(self) -> Cut | None:
        return self.intervals[-1].upper_cut if self.intervals else None

    def __contains__(self, q: Fraction) -> bool:
        cut = (Fraction(q), 0)
        return any(iv.lower_cut <= cut <= iv.upper_cut for iv in self.intervals)

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
            a_upper, b_upper = mine[i].upper_cut, theirs[j].upper_cut
            lower = max(mine[i].lower_cut, theirs[j].lower_cut)
            upper = min(a_upper, b_upper)
            if lower <= upper:
                pieces.append(_cut_interval(lower, upper))
            if a_upper < b_upper:
                i += 1
            else:
                j += 1
        return RationalIntervalSet._trusted(tuple(pieces))

    def complement(self) -> "RationalIntervalSet":
        """Complement within the ground (0, 1).

        Relies on a normalized input: its pieces are sorted and nonempty, so
        the gaps come out sorted and each pair of them is split by a piece
        that holds a rational, which leaves the output normalized.
        """
        pieces = []
        cursor = GROUND_LOWER
        for iv in self.intervals:
            upper = _flip_down(iv.lower_cut)
            if cursor <= upper:
                pieces.append(_cut_interval(cursor, upper))
            cursor = _flip_up(iv.upper_cut)
        if cursor <= GROUND_UPPER:
            pieces.append(_cut_interval(cursor, GROUND_UPPER))
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
            lower, upper = piece.lower_cut, piece.upper_cut
            while j < len(theirs) and theirs[j].upper_cut < lower:
                j += 1
            if j == len(theirs) or lower < theirs[j].lower_cut or theirs[j].upper_cut < upper:
                return False
        return True

    def proper_subset_of(self, other: "RationalIntervalSet") -> bool:
        return self <= other and self != other

    def pick_point(self) -> Fraction:
        """A canonical member: endpoint when closed, midpoint otherwise."""
        if self.is_empty:
            raise ValueError("cannot pick a point from the empty set")
        iv = self.intervals[0]
        if not iv.lo_open:
            return iv.lo
        return (iv.lo + iv.hi) / 2

    def point_near_inf(self, margin: Fraction) -> Fraction:
        """A member within ``margin`` above the infimum."""
        if self.is_empty:
            raise ValueError("empty set has no points")
        iv = self.intervals[0]
        if not iv.lo_open:
            return iv.lo
        step = min(margin, iv.hi - iv.lo) / 2
        if step <= 0:
            raise ValueError("margin must be positive")
        return iv.lo + step

    def point_near_sup(self, margin: Fraction) -> Fraction:
        """A member within ``margin`` below the supremum."""
        if self.is_empty:
            raise ValueError("empty set has no points")
        iv = self.intervals[-1]
        if not iv.hi_open:
            return iv.hi
        step = min(margin, iv.hi - iv.lo) / 2
        if step <= 0:
            raise ValueError("margin must be positive")
        return iv.hi - step

    def to_json(self) -> dict:
        return {"intervals": [iv.to_json() for iv in self.intervals]}

    @classmethod
    def from_json(cls, data: dict) -> "RationalIntervalSet":
        return cls(tuple(Interval.from_json(item) for item in data["intervals"]))

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        return " u ".join(str(iv) for iv in self.intervals)


def _normalize(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    clamped: list[tuple[Cut, Cut]] = []
    for iv in intervals:
        lower = max(iv.lower_cut, GROUND_LOWER)
        upper = min(iv.upper_cut, GROUND_UPPER)
        if lower <= upper:
            clamped.append((lower, upper))
    clamped.sort()
    merged: list[tuple[Cut, Cut]] = []
    for lower, upper in clamped:
        if merged and _mergeable(merged[-1][1], lower):
            prev_lower, prev_upper = merged[-1]
            merged[-1] = (prev_lower, max(prev_upper, upper))
        else:
            merged.append((lower, upper))
    return tuple(_cut_interval(lower, upper) for lower, upper in merged)


EMPTY = RationalIntervalSet(())
GROUND = RationalIntervalSet((Interval(Fraction(0), Fraction(1)),))


def iv(lo, hi, lo_open: bool = True, hi_open: bool = True) -> RationalIntervalSet:
    """One-interval set; endpoints accept ints, strings, or Fractions."""
    return RationalIntervalSet((Interval(Fraction(lo), Fraction(hi), lo_open, hi_open),))


def point(q) -> RationalIntervalSet:
    q = Fraction(q)
    return RationalIntervalSet((Interval(q, q, lo_open=False, hi_open=False),))


def rational_grid(count: int) -> tuple[Fraction, ...]:
    """Evenly spaced rationals i / (count + 1) strictly inside (0, 1)."""
    return tuple(Fraction(i, count + 1) for i in range(1, count + 1))
