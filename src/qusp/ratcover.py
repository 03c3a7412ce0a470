"""Certified cover constructions on the rational ground (0, 1).

This is the countable layer: the ground set is (0, 1) with rational points,
subsets are `RationalIntervalSet`s, and entourages come from one of three
metric oracles at rational scales.  Everything a certificate asserts is
either decided exactly on interval sets (images, containments, smallness,
witness points) or explicitly recorded as holding only up to the cover's
truncation depth.  Certificates record what was checked; they are not
proofs about the unmaterialized tail.

An `OmegaCover` is a strictly increasing sequence of nonempty interval
sets together with a ladder of entourage scales: scale(n, 0) pushes the
n-th set into its successor, and scale(n, m + 1) = scale(n, m) / 2, so the
per-set entourage families are normal sequences and decrease along the
cover.  Only order type omega is supported; index arithmetic never runs
past the truncation depth silently.

The central relation of the layer sends a point to the successor of the
smallest cover element containing it (`cover_successor_of_point`).  Its
square evaluates in closed form: on the stratum of points first appearing
in set k, the double successor is exactly set k + 2, which is what makes
the star-cover normality certificates exact rather than sampled.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .intervals import (
    GROUND,
    Interval,
    RationalIntervalSet,
    iv,
    overlapping_tags,
    point,
    rational_grid,
    tagged_pieces,
    tags_of_sorted,
)
from .serialize import _exact, _positive, frac_str

DEFAULT_TRUNCATION_DEPTH = 64
DEFAULT_GRID = 1 << 10
MAX_PROBE_WITNESSES = 12
MAX_CHOP_PIECES = 100_000


class CoverError(ValueError):
    """A cover construction or certificate could not be completed."""


@dataclass(frozen=True)
class MetricOracle:
    """One of three exact quasi-pseudometrics on the rational ground.

    euclid: d(x, y) = |x - y|        (the symmetric base case)
    upper:  q(x, y) = max(y - x, 0)  (only moving up costs)
    lower:  q(x, y) = max(x - y, 0)  (only moving down costs)

    The image of an interval set under the scale-eps entourage
    {(x, y) : q(x, y) < eps} is again an interval set and is computed
    exactly, endpoint flags included.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("euclid", "upper", "lower"):
            raise ValueError(f"unknown oracle kind {self.kind!r}")

    def dist(self, x: Fraction, y: Fraction) -> Fraction:
        if self.kind == "euclid":
            return abs(y - x)
        if self.kind == "upper":
            return max(y - x, Fraction(0))
        return max(x - y, Fraction(0))

    def conjugate(self) -> "MetricOracle":
        if self.kind == "upper":
            return MetricOracle("lower")
        if self.kind == "lower":
            return MetricOracle("upper")
        return self

    def image(self, eps: Fraction, a: RationalIntervalSet) -> RationalIntervalSet:
        """Exact {y : some x in a has q(x, y) < eps}, clamped to the ground.

        Each piece [lo, hi] of a, open or closed, maps to the open interval
        (lo - eps, hi + eps) under euclid, (0, hi + eps) under upper and
        (lo - eps, 1) under lower.  The one-sided oracles widen by 1, the
        width of the ground, on the unbounded side, which stretches every
        piece to the ground's edge.
        """
        eps = _positive(eps, "entourage scale")
        if self.kind == "euclid":
            return a.widened(eps, eps)
        if self.kind == "upper":
            return a.widened(1, eps)
        return a.widened(eps, 1)

    def inv_image(self, eps: Fraction, a: RationalIntervalSet) -> RationalIntervalSet:
        """Exact {x : some y in a has q(x, y) < eps}."""
        return self.conjugate().image(eps, a)

    def is_small(self, a: RationalIntervalSet, eps: Fraction) -> bool:
        """Every ordered pair of members lies strictly below eps.

        The span sup a - inf a decides it under all three oracles: the
        distances inside a come arbitrarily close to the span (upward pairs
        under upper, downward pairs under lower, either under euclid) and
        reach it only when both extreme ends are closed.  So a nonempty a is
        small iff its span is below eps, or equals eps with an open extreme.
        """
        eps = _positive(eps, "smallness scale")
        if a.is_empty:
            return True
        first, last = a.intervals[0], a.intervals[-1]
        span = last.hi - first.lo
        return span < eps or span == eps and (first.lo_open or last.hi_open)


EUCLID = MetricOracle("euclid")
UPPER = MetricOracle("upper")
LOWER = MetricOracle("lower")

@dataclass(frozen=True)
class OmegaCover:
    """Materialized front of an omega-indexed proximally well-monotone cover.

    ``sets[n]`` for n up to the truncation depth: interval sets, nonempty,
    strictly increasing and never equal to the ground.  ``base_scales[n]``
    is the positive scale whose entourage maps ``sets[n]`` into
    ``sets[n + 1]``, nonincreasing in n.  scale(n, m) halves in m.
    Construction verifies all of this exactly and is the one place that
    does; ``base_scales[depth]`` has no materialized successor, so its
    entourage is not verified.

    The strata and the stratum index are computed on first use and kept
    for the life of the cover; the sets never change after construction.
    So is ``_stratum_images``, the memo of stratum-wide successor
    containments that `_stratum_successor_checks` fills, one entry per
    inner scale and stratum, on first use.  Like the strata it lives in the
    instance ``__dict__``, so equality and repr do not see it.
    """

    oracle: MetricOracle
    sets: tuple[RationalIntervalSet, ...]
    base_scales: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sets", tuple(self.sets))
        object.__setattr__(self, "base_scales", tuple(_exact(s, "ladder scale") for s in self.base_scales))
        if len(self.sets) < 2:
            raise CoverError("a cover needs at least two materialized sets")
        if len(self.base_scales) != len(self.sets):
            raise CoverError("one ladder scale per materialized set required")
        for n, s in enumerate(self.sets):
            if not isinstance(s, RationalIntervalSet):
                raise CoverError(f"cover set {n} is not an interval set")
            if s.is_empty:
                raise CoverError(f"cover set {n} is empty")
            if s == GROUND:
                raise CoverError(f"cover set {n} equals the ground (maximal element)")
        for n, scale in enumerate(self.base_scales):
            if scale <= 0:
                raise CoverError(f"ladder scale {n} is not positive")
            if n and scale > self.base_scales[n - 1]:
                raise CoverError(f"ladder scales increase at n={n}")
        for n in range(len(self.sets) - 1):
            if not (self.sets[n] <= self.sets[n + 1] and self.sets[n] != self.sets[n + 1]):
                raise CoverError(f"not strictly increasing at n={n}")
            img = self.oracle.image(self.base_scales[n], self.sets[n])
            if not img <= self.sets[n + 1]:
                bad = (img - self.sets[n + 1]).intervals[0]
                raise CoverError(f"≪ witness fails at n={n}: image spills {bad}")

    @property
    def truncation_depth(self) -> int:
        return len(self.sets) - 1

    def scale(self, n: int, m: int = 0) -> Fraction:
        return self.base_scales[n] / (1 << m)

    def _first_index(self, holds) -> int | None:
        """Smallest n with ``holds(sets[n])``, or None, by bisection.

        Precondition: ``holds`` is monotone along the cover, false up to some
        index and true from there on.  Each caller's test is, because the
        sets are nested, which construction checks:

        - the three ``min_index_*`` methods: holding a point, holding a set
          and meeting a set all pass from a set to its supersets;
        - `cert_boundedhaus`, every complement piece small: each piece of a
          larger set's complement lies inside one piece of a smaller set's,
          and a subset of a small interval is small (no larger span, and an
          equal span keeps the open end);
        - `cert_monotonehaus`, its hypothesis: ``a & s`` only grows and
          ``a - s`` only shrinks along the cover, ``inv_image`` is monotone
          in its set and the deep pool is fixed.  It wants an index below
          the truncation depth, so it reads a result equal to it as none.
        """
        n = bisect_left(self.sets, True, key=holds)
        return n if n < len(self.sets) else None

    def min_index_of(self, x: Fraction) -> int | None:
        """Smallest n with x in ``sets[n]``; bisects, so needs nested sets."""
        return self._first_index(lambda s: x in s)

    def min_index_containing(self, a: RationalIntervalSet) -> int | None:
        """Smallest n with a inside ``sets[n]``; bisects, so needs nested sets."""
        return self._first_index(lambda s: a <= s)

    def min_index_intersecting(self, a: RationalIntervalSet) -> int | None:
        """Smallest n with ``sets[n]`` meeting a; bisects, so needs nested sets."""
        return self._first_index(lambda s: not (a & s).is_empty)

    @cached_property
    def strata(self) -> tuple[RationalIntervalSet, ...]:
        """``strata[n]`` holds the points whose smallest containing set is ``sets[n]``."""
        rest = (self.sets[n] - self.sets[n - 1] for n in range(1, len(self.sets)))
        return (self.sets[0], *rest)

    @cached_property
    def stratum_index(self) -> tuple[tuple[Interval, int], ...]:
        """Every stratum interval as (piece, n), sorted (`tagged_pieces`).

        With nested sets the strata are pairwise disjoint, so this list,
        sorted by lower cut, is sorted by upper cut too, which the sweeps
        `overlapping_tags` and `tags_of_sorted` need.  A point lies in
        stratum n exactly when ``sets[n]`` is the first set containing it,
        so ``tags_of_sorted(stratum_index, points)`` is `min_index_of` for
        each point of an ascending sequence, in one pass.
        """
        return tagged_pieces(self.strata)

    @cached_property
    def _stratum_images(self) -> dict[Fraction, dict[int, bool]]:
        """Scale s -> {n: whether the scale-s image of ``strata[n]`` lies in ``sets[n + 1]``}."""
        return {}


@dataclass(frozen=True)
class StarTower:
    """Iterated star covers and their normal-sequence certificate.

    ``covers[0]`` is the original cover; each later entry is the star cover
    of its predecessor, so the induced successor relations form a normal
    sequence for the first one.  ``certificate`` carries the exact checks
    performed.
    """

    covers: tuple[OmegaCover, ...]
    certificate: dict

    def prefix(self, depth: int) -> "StarTower":
        """The bare normal sequence cut after ``depth`` star steps.

        ``star_cover`` is deterministic and each pair certificate depends
        only on its two covers, so the prefix equals what
        ``cover_normal_sequence(covers[0], depth, grid_size)`` would build.
        """
        if not 0 <= depth < len(self.covers):
            raise CoverError(f"no normal-sequence prefix of depth {depth} in this tower")
        cert = _normal_sequence_certificate(self.certificate["grid_size"], self.certificate["pairs"][:depth])
        return StarTower(self.covers[: depth + 1], cert)


def _normal_sequence_certificate(grid_size: int, pairs: list[dict]) -> dict:
    """The certificate of a tower whose consecutive covers were checked in ``pairs``, coarsest first."""
    return {
        "kind": "normal_sequence",
        "covers": len(pairs) + 1,
        "grid_size": grid_size,
        "pairs": pairs,
        "passed": all(p["passed"] for p in pairs),
    }


def cover_successor_of_point(c: OmegaCover, x: Fraction) -> RationalIntervalSet:
    """Successor of the smallest cover element containing x (the layer's relation)."""
    x = _exact(x, "point")
    if not 0 < x < 1:
        raise CoverError(f"point {frac_str(x)} lies outside the ground (0, 1)")
    n = c.min_index_of(x)
    if n is None:
        raise CoverError(f"point {frac_str(x)} is not covered within truncation depth {c.truncation_depth}")
    if n + 1 > c.truncation_depth:
        raise CoverError(f"successor of index {n} exceeds truncation depth {c.truncation_depth}")
    return c.sets[n + 1]


def connectivity_certificate(oracle: MetricOracle, eps: Fraction, probes: list[RationalIntervalSet]) -> dict:
    """Look for a probe that its own scale-eps image fixes.

    The image always contains the set (zero self-distance), so a fixed set
    is one whose image adds nothing; on the interval subclass that requires
    every frontier to absorb an exact eps-expansion, which only the empty
    set and the full ground manage, so those two are skipped.  By the same
    frontier argument, a nonempty set's scale-eps image equals its
    scale-2eps image only when both are the ground.
    """
    eps = _positive(eps, "connectivity scale")
    fixed = next((p for p in probes if not p.is_empty and p != GROUND and oracle.image(eps, p) == p), None)
    return {
        "kind": "uniform_connectivity",
        "rule": "frontier expansion on the interval subclass",
        "scale": frac_str(eps),
        "probes_checked": len(probes),
        "fixed_set": None if fixed is None else fixed.to_json(),
        "passed": fixed is None,
    }


def star_cover(c: OmegaCover) -> OmegaCover:
    """Interleave the cover with half-scale images of its sets.

    The new sets are G_0, img_0, G_1, img_1, ... with img_n the image of
    G_n at scale(n, 1); squaring the half scale lands back in the original
    ladder, so the interleaved cover's successor relation squares into the
    original one.  Re-indexing by omega keeps the order type.  The result
    always passes validation: img_n lies between G_n and the full-scale
    image, which lies inside G_{n+1}; img_n equal to G_n, or to G_{n+1}
    and so to the full-scale image, would make img_n the ground under
    every oracle (see `connectivity_certificate`), and no cover set is.
    """
    depth = c.truncation_depth
    new_sets: list[RationalIntervalSet] = []
    new_scales: list[Fraction] = []
    for n in range(depth):
        half = c.scale(n, 1)
        img = c.oracle.image(half, c.sets[n])
        new_sets.extend((c.sets[n], img))
        new_scales.extend((half, half))
    new_sets.append(c.sets[depth])
    new_scales.append(c.scale(depth, 1))
    return OmegaCover(c.oracle, tuple(new_sets), tuple(new_scales))


def _double_successor_containments(fine: OmegaCover, coarse: OmegaCover, fine_tags: list, coarse_tags: list) -> dict:
    """Exact and sampled checks that fine's squared relation sits in coarse's.

    On the stratum of points first appearing in fine set k, the squared
    successor is exactly fine.sets[k + 2]; the check compares it against
    coarse.sets[n + 1] wherever the stratum meets the coarse stratum n.
    Only the meeting pairs are visited, in (k, n) order: a two-pointer sweep
    over the two stratum indices (`overlapping_tags`) meets only intervals
    that overlap, linear in the number of stratum intervals.  Stratum pairs
    whose indices would run past a truncation depth are counted as skipped,
    not assumed.  Each pair is decided once, by ``holds``, which both parts
    read.  The grid check's independent part is locating the points, which
    the caller does: ``fine_tags`` and ``coarse_tags`` name the stratum of
    each cover holding each point of one ascending grid (`tags_of_sorted`),
    and the check reads the verdict of that pair, one the sweep has met,
    since the point lies in both strata.  Both parts rely on each cover's
    strata being disjoint, which holds for the nested sets validation checks.
    """

    @cache
    def holds(k: int, n: int) -> bool | None:
        if k + 2 > fine.truncation_depth or n + 1 > coarse.truncation_depth:
            return None
        return fine.sets[k + 2] <= coarse.sets[n + 1]

    exact = [(k, n, holds(k, n)) for k, n in overlapping_tags(fine.stratum_index, coarse.stratum_index)]
    failures = [{"fine_stratum": k, "coarse_stratum": n} for k, n, ok in exact if ok is False]
    sampled = [holds(k, n) for k, n in zip(fine_tags, coarse_tags) if k is not None and n is not None]
    return {
        "exact_stratum_checks": sum(ok is not None for _, _, ok in exact),
        "exact_failures": failures,
        "boundary_skipped": sum(ok is None for _, _, ok in exact),
        "grid_points": sum(ok is not None for ok in sampled),
        "grid_violations": sampled.count(False),
        "passed": not failures and False not in sampled,
    }


def cover_normal_sequence(c: OmegaCover, depth: int, grid_size: int = DEFAULT_GRID) -> StarTower:
    """Iterate the star construction ``depth`` times and certify normality.

    Produces covers 0..depth where cover 0 is the input; for each
    consecutive pair the squared successor relation of the finer cover is
    certified inside the coarser one, exactly on strata and on a rational
    grid.  The grid is built once and located once in each cover, which
    serves both of its pairs; depth 0 has no pair and does neither.
    """
    if depth < 0:
        raise CoverError("star iteration depth must be nonnegative")
    covers = [c]
    for _ in range(depth):
        covers.append(star_cover(covers[-1]))
    tags = []
    if depth:
        grid = rational_grid(grid_size)
        tags = [tags_of_sorted(cov.stratum_index, grid) for cov in covers]
    pairs = [
        {"finer": j + 1, "coarser": j, **_double_successor_containments(covers[j + 1], covers[j], tags[j + 1], tags[j])}
        for j in range(depth)
    ]
    return StarTower(tuple(covers), _normal_sequence_certificate(grid_size, pairs))


def _cofinal_in_cover(c: OmegaCover, a: RationalIntervalSet) -> bool:
    """Detect that no cover set will ever contain a: its infimum is the ground's.

    Sound because every materialized set keeps a positive infimum, so any
    set with infimum zero escapes all of them; covers whose sets dip to the
    ground's infimum are not detectable and must fail loudly instead.  The
    sets are nested, which construction checks, so the deepest set's
    infimum is the least and is the only one read.  Sets are clamped to
    (0, 1), so a lower end at 0 is always open.
    """
    return a.intervals[0].lo == 0 and c.sets[-1].intervals[0].lo > 0


def _contained_too_deep(c: OmegaCover, index: int) -> CoverError:
    """The refusal for a subset whose smallest containing set has no materialized successor."""
    return CoverError(
        f"subset is contained only in the deepest materialized set {index}, whose successor lies beyond "
        f"truncation depth {c.truncation_depth}; truncation depth {index + 1} would decide it"
    )


def probe_indices(c: OmegaCover, a: RationalIntervalSet) -> tuple[int, int | None]:
    """Smallest meeting and smallest containing index of a probe subset.

    The containing index is None for a probe that escapes every cover set
    (detected by `_cofinal_in_cover`).  Raises `CoverError` when deciding
    the probe would need a cover set beyond the truncation depth, with one
    text per cause: a subset contained only in the deepest set (the text
    names the depth that would decide it), a subset contained in no set
    that cannot be told cofinal, and a smallest meeting set with no
    successor.
    """
    if a.is_empty:
        raise ValueError("probe subset must be nonempty")
    n1 = c.min_index_intersecting(a)
    if n1 is None:
        raise CoverError("no materialized cover element meets the subset (truncation too shallow)")
    n2 = c.min_index_containing(a)
    depth = c.truncation_depth
    if n2 is not None and n2 + 1 > depth:
        raise _contained_too_deep(c, n2)
    if n2 is None and not _cofinal_in_cover(c, a):
        raise CoverError("subset exceeds truncation depth without being cofinal-detectable")
    if n1 + 1 > depth:
        raise CoverError("smallest meeting index has no materialized successor")
    return n1, n2


def cert_monotonecover(c: OmegaCover, a: RationalIntervalSet) -> dict:
    """Witness that the cover's successor relation is hyperspace-admissible at a.

    With G1 the smallest set meeting a and G2 the smallest containing it,
    one scale serves both branches: scale(G2, 0), or scale(G1, 0) when no
    set contains a.  Its entourage maps a point of a meeting G1 into the
    successor of G1, inside every successor the relation assigns on a.
    Bounded: it also maps a into the successor of G2.  Cofinal: the
    relation's image of a is the ground, witnessed per materialized index,
    so the image check holds trivially.  Both checks are exact.
    """
    n1, n2 = probe_indices(c, a)
    scale = c.scale(n1 if n2 is None else n2, 0)
    y = (a & c.sets[n1]).pick_point()
    y_ok = c.oracle.image(scale, point(y)) <= c.sets[n1 + 1]
    image_ok = n2 is None or c.oracle.image(scale, a) <= c.sets[n2 + 1]
    if n2 is None:
        branch = {
            "branch": "cofinal",
            "relation_image": "ground",
            "escape_witnesses": [frac_str((a - s).pick_point()) for s in c.sets],
        }
    else:
        branch = {"branch": "bounded", "smallest_containing": n2, "relation_image": "successor_of_smallest_containing"}
    return {
        "kind": "monotone_cover_membership",
        "smallest_meeting": n1,
        "witness_point": frac_str(y),
        "witness_point_check": y_ok,
        "entourage_scale": frac_str(scale),
        "image_check": image_ok,
        **branch,
        "passed": image_ok and y_ok,
    }


def _stratum_successor_checks(c: OmegaCover, s: Fraction, a: RationalIntervalSet, last: int) -> list[dict]:
    """Whether the scale-s image of a's part in stratum n stays in ``sets[n + 1]``, n <= last.

    The piece ``a & strata[n]`` lies inside ``strata[n]`` and every oracle's
    image is monotone in its set, so when the whole stratum's image stays in
    ``sets[n + 1]`` the piece's does too.  That stratum-wide verdict is
    decided once per cover, scale and stratum (``c._stratum_images``); only
    where it is false is the piece's own image checked.  The result is the
    exact per-piece check for any s.
    """
    wholes = c._stratum_images.setdefault(s, {})
    checks = []
    for n in range(last + 1):
        piece = a & c.strata[n]
        if piece.is_empty:
            continue
        whole = wholes.get(n)
        if whole is None:
            whole = wholes[n] = c.oracle.image(s, c.strata[n]) <= c.sets[n + 1]
        checks.append({"stratum": n, "holds": whole or c.oracle.image(s, piece) <= c.sets[n + 1]})
    return checks


def cert_monotonehaus(c: OmegaCover, v_scale: Fraction, a: RationalIntervalSet) -> dict:
    """Hypothesis witnesses and hyperspace admissibility for the intersected relation.

    For U at half the requested scale, takes one cover index G: the smallest
    set containing a, or else the first G such that every point of a
    outside G sees a member of a inside G within U, and is seen within U
    from a member of a beyond the deepest materialized set.  Both
    quantifiers over the (infinite) probe set reduce to exact interval
    containments.  Both branches check a's strata up to G, each stratum's
    whole image decided once per cover and inner scale; the unbounded
    one adds per-point witnesses for up to `MAX_PROBE_WITNESSES` components
    of a outside G, for audit, and its pool and escape checks.
    When no index works the report says so instead of raising.
    """
    if a.is_empty:
        raise ValueError("probe subset must be nonempty")
    v = _positive(v_scale, "entourage scale")
    delta = v / 2
    depth = c.truncation_depth
    index = c.min_index_containing(a)
    contained = index is not None
    if contained:
        if index + 1 > depth:
            raise _contained_too_deep(c, index)
    else:
        deep_pool = a - c.sets[depth]

        def hypothesis(s: RationalIntervalSet) -> bool:
            inside, outside = a & s, a - s
            near = not inside.is_empty and outside <= c.oracle.inv_image(delta, inside)
            return near and outside <= c.oracle.image(delta, deep_pool)

        index = c._first_index(hypothesis)
        if index is None or index == depth:
            return {
                "kind": "monotone_haus_membership",
                "branch": "unbounded",
                "scale": frac_str(v),
                "passed": False,
                "reason": "hypothesis fails for this A",
            }

    s = min(c.scale(index, 0), delta)
    checks = _stratum_successor_checks(c, s, a, index)
    cert = {
        "kind": "monotone_haus_membership",
        "branch": "contained" if contained else "unbounded",
        "scale": frac_str(v),
        "inner_scale": frac_str(s),
        "stratum_checks": checks,
        "passed": all(ch["holds"] for ch in checks),
    }
    if contained:
        cert["containing_index"] = index
        return cert

    inside, outside = a & c.sets[index], a - c.sets[index]
    probes = []
    for comp in outside.intervals[:MAX_PROBE_WITNESSES]:
        x = RationalIntervalSet.of(comp).pick_point()
        near = (inside & c.oracle.image(delta, point(x))).pick_point()
        deep = (deep_pool & c.oracle.inv_image(delta, point(x))).pick_point()
        probes.append({"x": frac_str(x), "inside_witness": frac_str(near), "deep_witness": frac_str(deep)})
    pool_check = c.oracle.image(s, inside) <= c.sets[index + 1]
    outside_check = c.oracle.image(s, outside) <= c.oracle.image(v, deep_pool)
    cert.update(
        hypothesis_index=index,
        hypothesis_exact=True,
        probe_witnesses=probes,
        inside_pool_check=pool_check,
        outside_escape_check=outside_check,
        beyond_truncation="successor containments past the deepest set follow from cover nesting",
        passed=cert["passed"] and pool_check and outside_check,
    )
    return cert


def _chop_small(comp: Interval, eps: Fraction) -> list[Interval]:
    """Split one interval into pieces that are exactly small at scale eps."""
    pieces: list[Interval] = []
    start, start_open = comp.lo, comp.lo_open
    while True:
        end = start + eps
        if end > comp.hi or (end == comp.hi and (comp.hi_open or start_open)):
            pieces.append(Interval(start, comp.hi, start_open, comp.hi_open))
            break
        if end == comp.hi:
            mid = (start + comp.hi) / 2
            pieces.append(Interval(start, mid, start_open, False))
            pieces.append(Interval(mid, comp.hi, True, comp.hi_open))
            break
        pieces.append(Interval(start, end, start_open, True))
        start, start_open = end, False
    return pieces


def _chop_count(comp: Interval, eps: Fraction) -> int:
    """How many pieces `_chop_small` cuts comp into, from its length alone.

    One per whole eps step and one for any rest.  Steps that end exactly at
    a closed upper end take one more piece, the halved last step, unless a
    single step spans comp from an open lower end.
    """
    steps, rest = divmod(comp.hi - comp.lo, eps)
    if rest or not steps:
        return steps + 1
    return steps if comp.hi_open or (steps == 1 and comp.lo_open) else steps + 1


def cert_boundedhaus(c: OmegaCover, u_scale: Fraction) -> dict:
    """Finite small decomposition of some cover set's complement, exactly.

    Prefers the first index whose complement components are already small
    at the requested scale; otherwise chops the deepest complement into
    finitely many small pieces.  Every piece is re-verified small and the
    pieces are re-verified to reunite to the complement.  The pieces are
    counted before any is cut, and a scale that needs more than
    `MAX_CHOP_PIECES` of them is refused with a `ValueError`.
    """
    eps = _positive(u_scale, "entourage scale")

    def pieces_small(s: RationalIntervalSet) -> bool:
        return all(c.oracle.is_small(RationalIntervalSet.of(p), eps) for p in s.complement().intervals)

    found = c._first_index(pieces_small)
    chopped = found is None
    chosen = c.truncation_depth if chopped else found
    comp = c.sets[chosen].complement()
    if chopped and (count := sum(_chop_count(p, eps) for p in comp.intervals)) > MAX_CHOP_PIECES:
        raise ValueError(
            f"scale {frac_str(eps)} would chop the complement of cover set {chosen} into {count} pieces,"
            f" more than the cap of {MAX_CHOP_PIECES}"
        )
    pieces = [p for comp_iv in comp.intervals for p in _chop_small(comp_iv, eps)] if chopped else list(comp.intervals)
    union = RationalIntervalSet(tuple(pieces))
    all_small = all(c.oracle.is_small(RationalIntervalSet.of(p), eps) for p in pieces)
    return {
        "kind": "complement_small_cover",
        "scale": frac_str(eps),
        "index": chosen,
        "chopped": chopped,
        "pieces": [p.to_json() for p in pieces],
        "piece_count": len(pieces),
        "union_matches": union == comp,
        "all_small": all_small,
        "passed": all_small and union == comp,
    }


def cert_not_entourage(c: OmegaCover, probe_scales: list[Fraction]) -> dict:
    """Exact points escaping the successor relation at each probed metric scale.

    For each scale, finds x and y with q(x, y) below the scale while y lies
    outside the successor of the smallest set containing x; such a pair
    shows the successor relation contains no metric entourage at that
    scale.  A missing witness is reported, not suppressed.
    """
    if not probe_scales:
        raise ValueError("need at least one probe scale")
    witnesses = []
    ok = True
    for eps_raw in probe_scales:
        eps = _positive(eps_raw, "probe scale")
        found = None
        for n in range(c.truncation_depth):
            stratum = c.strata[n]
            if stratum.is_empty:
                continue
            escape = c.oracle.image(eps, stratum) - c.sets[n + 1]
            if escape.is_empty:
                continue
            y = escape.pick_point()
            x = (stratum & c.oracle.inv_image(eps, point(y))).pick_point()
            dist_ok = c.oracle.dist(x, y) < eps
            outside_ok = y not in cover_successor_of_point(c, x)
            found = {
                "scale": frac_str(eps),
                "stratum": n,
                "x": frac_str(x),
                "y": frac_str(y),
                "dist_below_scale": dist_ok,
                "outside_successor": outside_ok,
            }
            ok = ok and dist_ok and outside_ok
            break
        if found is None:
            ok = False
            witnesses.append({"scale": frac_str(eps), "found": False})
        else:
            witnesses.append(found)
    return {"kind": "not_entourage", "witnesses": witnesses, "passed": ok}


def refined_base(
    tower: StarTower,
    background_scales: list[Fraction],
    probes: list[RationalIntervalSet],
) -> dict:
    """The full certificate bundle of the refined quasi-uniformity base.

    ``tower`` comes from `cover_normal_sequence` (or is a `StarTower.prefix`
    of a deeper one), so a tower that was already built and certified is not
    built again.  The base intersects each of its covers' successor
    relations with each background metric scale.  Construction aborts on
    the first failing certificate, quoting its witness.
    """
    scales = [_exact(s, "background scale") for s in background_scales]
    if not scales:
        raise ValueError("need at least one background scale")
    if not tower.certificate["passed"]:
        raise CoverError(f"normal sequence certificate failed: {tower.certificate}")
    bounded = []
    membership = []
    for j, cov in enumerate(tower.covers):
        for s in scales:
            bc = cert_boundedhaus(cov, s)
            bc.update({"cover": j})
            if not bc["passed"]:
                raise CoverError(f"complement small cover failed for cover {j} at scale {frac_str(s)}")
            bounded.append(bc)
            for k, probe in enumerate(probes):
                mc = cert_monotonehaus(cov, s, probe)
                mc.update({"cover": j, "probe": k})
                if not mc["passed"]:
                    raise CoverError(
                        f"membership certificate failed for cover {j}, scale {frac_str(s)}, probe {k}: "
                        f"{mc.get('reason', mc)}"
                    )
                membership.append(mc)
    return {
        "kind": "refined_base",
        "base": [
            {"cover": j, "scale": frac_str(s)} for j in range(len(tower.covers)) for s in scales
        ],
        "normal_sequence": tower.certificate,
        "bounded": bounded,
        "membership": membership,
        "passed": True,
    }


def dense_scenario(
    eps: Fraction,
    depth: int = DEFAULT_TRUNCATION_DEPTH,
    bounded_scales: tuple[Fraction, ...] = (),
) -> tuple[OmegaCover, dict]:
    """The flagship witness on (0, 1): points farther than eps/(n+1) from zero.

    Builds the chain G_n = (eps / (n + 1), 1) under the symmetric oracle,
    with the consecutive gaps as scale witnesses.  The certificate records
    strict growth, the exact chain witnesses, that no materialized set is
    the whole ground, a connectivity check, and small decompositions of the
    complements at any requested scales.
    """
    eps = _positive(eps, "radius")
    if eps >= 1:
        raise ValueError("radius covers the whole ground: need eps < 1")
    sets = tuple(iv(eps / (n + 1), 1) for n in range(depth + 1))
    gaps = tuple(eps / (n + 1) - eps / (n + 2) for n in range(depth + 1))
    cover = OmegaCover(EUCLID, sets, gaps)
    conn = connectivity_certificate(EUCLID, cover.scale(0, 0), list(cover.sets[:8]))
    bounded = [cert_boundedhaus(cover, s) for s in bounded_scales]
    cert = {
        "kind": "dense_witness_construction",
        "eps": frac_str(eps),
        "truncation_depth": depth,
        "strictly_increasing": True,
        "chain_witness_scales": [frac_str(g) for g in gaps[: min(depth, 8)]],
        "no_set_is_ground": True,
        "connectivity": conn,
        "bounded": bounded,
        "passed": conn["passed"] and all(b["passed"] for b in bounded),
    }
    return cover, cert


def random_interval_sets(seed: int, count: int) -> list[RationalIntervalSet]:
    """Seeded probe family: unions of up to three intervals on a rational grid."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        pieces = []
        for _ in range(rng.randint(1, 3)):
            a, b = sorted(rng.sample(range(1, 64), 2))
            pieces.append(
                Interval(
                    Fraction(a, 64),
                    Fraction(b, 64),
                    rng.random() < 0.5,
                    rng.random() < 0.5,
                )
            )
        out.append(RationalIntervalSet(tuple(pieces)))
    return out
