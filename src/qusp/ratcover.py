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
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import cached_property

from .intervals import (
    GROUND,
    GROUND_LOWER,
    Cut,
    Interval,
    RationalIntervalSet,
    iv,
    point,
    rational_grid,
)
from .serialize import frac_str

DEFAULT_TRUNCATION_DEPTH = 64
DEFAULT_GRID = 1 << 10


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
        """Exact {y : some x in a has q(x, y) < eps}, clamped to the ground."""
        if eps <= 0:
            raise ValueError("entourage scale must be positive")
        pieces = []
        for piece in a.intervals:
            if self.kind == "euclid":
                lo, hi = piece.lo - eps, piece.hi + eps
            elif self.kind == "upper":
                lo, hi = Fraction(0), piece.hi + eps
            else:
                lo, hi = piece.lo - eps, Fraction(1)
            pieces.append(Interval(max(lo, Fraction(0)), min(hi, Fraction(1))))
        return RationalIntervalSet(tuple(pieces))

    def inv_image(self, eps: Fraction, a: RationalIntervalSet) -> RationalIntervalSet:
        """Exact {x : some y in a has q(x, y) < eps}."""
        return self.conjugate().image(eps, a)

    def inf_dist_to(self, a: RationalIntervalSet, y: Fraction) -> Fraction:
        """inf over x in a of q(x, y); membership in images tests this against eps."""
        if a.is_empty:
            raise ValueError("empty set has no distance")
        best = None
        for piece in a.intervals:
            if self.kind == "euclid":
                if piece.lo <= y <= piece.hi:
                    val = Fraction(0)
                else:
                    val = piece.lo - y if y < piece.lo else y - piece.hi
            elif self.kind == "upper":
                val = max(y - piece.hi, Fraction(0))
            else:
                val = max(piece.lo - y, Fraction(0))
            best = val if best is None else min(best, val)
        return best

    def is_small(self, a: RationalIntervalSet, eps: Fraction) -> bool:
        """Every ordered pair of members lies strictly below eps."""
        witness = self.small_violation(a, eps)
        return witness is None

    def small_violation(self, a: RationalIntervalSet, eps: Fraction) -> tuple[Fraction, Fraction] | None:
        """An exact member pair at distance >= eps, or None when a is small."""
        if a.is_empty or len(a.intervals) == 1 and a.intervals[0].lo == a.intervals[0].hi:
            return None
        lo_cut = a.inf_cut
        hi_cut = a.sup_cut
        span = hi_cut[0] - lo_cut[0]
        attained = lo_cut[1] == 0 and hi_cut[1] == 0
        if span < eps or (span == eps and not attained):
            return None
        if span == eps:
            low, high = lo_cut[0], hi_cut[0]
        else:
            margin = (span - eps) / 2
            low = a.point_near_inf(margin)
            high = a.point_near_sup(margin)
        if self.kind == "lower":
            return (high, low)
        return (low, high)

    def to_json(self) -> dict:
        return {"kind": self.kind}


EUCLID = MetricOracle("euclid")
UPPER = MetricOracle("upper")
LOWER = MetricOracle("lower")

_ORACLES = {"euclid": EUCLID, "upper": UPPER, "lower": LOWER}


def oracle_by_kind(kind: str) -> MetricOracle:
    try:
        return _ORACLES[kind]
    except KeyError:
        raise ValueError(f"unknown oracle kind {kind!r}") from None


@dataclass(frozen=True)
class OmegaCover:
    """Materialized front of an omega-indexed proximally well-monotone cover.

    ``sets[n]`` for n up to the truncation depth, strictly increasing and
    never equal to the ground; ``base_scales[n]`` is the scale whose
    entourage maps ``sets[n]`` into ``sets[n + 1]`` (verified exactly at
    construction), nonincreasing in n.  scale(n, m) halves in m.

    The strata and the stratum index are computed on first use and kept
    for the life of the cover; the sets never change after construction.
    """

    oracle: MetricOracle
    sets: tuple[RationalIntervalSet, ...]
    base_scales: tuple[Fraction, ...]
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        object.__setattr__(self, "sets", tuple(self.sets))
        object.__setattr__(self, "base_scales", tuple(Fraction(s) for s in self.base_scales))
        if not validate:
            return
        if len(self.sets) < 2:
            raise CoverError("a cover needs at least two materialized sets")
        if len(self.base_scales) != len(self.sets):
            raise CoverError("one ladder scale per materialized set required")
        for n, s in enumerate(self.sets):
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
            if not self.sets[n].proper_subset_of(self.sets[n + 1]):
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
        sets are nested, which validation checks.  On a cover built with
        ``validate=False`` whose sets are not nested the answer is undefined.
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

    def stratum(self, n: int) -> RationalIntervalSet:
        """Points whose smallest containing set is ``sets[n]``."""
        return self.strata[n]

    @cached_property
    def stratum_index(self) -> tuple[tuple[Cut, Cut, int], ...]:
        """Every stratum interval as (lower cut, upper cut, n), sorted.

        With nested sets the strata are pairwise disjoint, so this list,
        sorted by lower cut, is sorted by upper cut too.
        """
        return tuple(
            sorted((piece.lower_cut, piece.upper_cut, n) for n, s in enumerate(self.strata) for piece in s.intervals)
        )

    def min_indices_of_sorted(self, points: tuple[Fraction, ...]) -> list[int | None]:
        """``min_index_of`` for each point of an ascending sequence, in one sweep.

        A point lies in stratum n exactly when ``sets[n]`` is the first set
        containing it, so one forward pointer over the sorted, disjoint
        stratum intervals locates every point.  Needs nested sets.
        """
        index = self.stratum_index
        out: list[int | None] = []
        p = 0
        for x in points:
            cut = (x, 0)
            while p < len(index) and index[p][1] < cut:
                p += 1
            out.append(index[p][2] if p < len(index) and index[p][0] <= cut else None)
        return out

    def to_json(self) -> dict:
        return {
            "oracle": self.oracle.to_json(),
            "truncation_depth": self.truncation_depth,
            "sets": [s.to_json() for s in self.sets],
            "base_scales": [frac_str(s) for s in self.base_scales],
        }


@dataclass(frozen=True)
class RefinedBase:
    """Iterated star covers, optionally intersected with background scales.

    ``covers[0]`` is the original cover; each later entry is the star cover
    of its predecessor, so the induced successor relations form a normal
    sequence for the first one.  ``background_scales`` lists the metric
    scales intersected into the refined base (empty for a bare normal
    sequence).  ``certificate`` carries the exact checks performed.
    """

    covers: tuple[OmegaCover, ...]
    background_scales: tuple[Fraction, ...]
    certificate: dict

    def prefix(self, depth: int) -> "RefinedBase":
        """The bare normal sequence cut after ``depth`` star steps.

        ``star_cover`` is deterministic and each pair certificate depends
        only on its two covers, so the prefix equals what
        ``cover_normal_sequence(covers[0], depth, grid_size)`` would build.
        """
        if not 0 <= depth < len(self.covers):
            raise CoverError(f"no normal-sequence prefix of depth {depth} in this tower")
        pairs = self.certificate["pairs"][:depth]
        cert = {
            **self.certificate,
            "covers": depth + 1,
            "pairs": pairs,
            "passed": all(p["passed"] for p in pairs),
        }
        return RefinedBase(self.covers[: depth + 1], (), cert)


def chain_cover_from_sequence(oracle, sets_fn, witness_scales_fn, depth: int = DEFAULT_TRUNCATION_DEPTH) -> OmegaCover:
    """Build a cover from a strictly increasing chain with explicit scale witnesses.

    Materializes indices 0..depth, verifies exactly that the scale-n
    entourage maps set n into set n + 1, and lays the ladder down as the
    running minimum of the witness scales (so it is nonincreasing).
    """
    if depth < 1:
        raise CoverError("truncation depth must be at least 1")
    sets = []
    witness = []
    for n in range(depth + 2):
        s = sets_fn(n)
        if not isinstance(s, RationalIntervalSet):
            raise CoverError(f"set generator returned a non interval set at n={n}")
        if s.is_empty:
            raise CoverError(f"cover set {n} is empty")
        sets.append(s)
        witness.append(Fraction(witness_scales_fn(n)))
        if witness[-1] <= 0:
            raise CoverError(f"witness scale {n} is not positive")
    for n in range(depth + 1):
        if not sets[n].proper_subset_of(sets[n + 1]):
            raise CoverError(f"not strictly increasing at n={n}")
        img = oracle.image(witness[n], sets[n])
        if not img <= sets[n + 1]:
            bad = (img - sets[n + 1]).intervals[0]
            raise CoverError(f"≪ witness fails at n={n}: image spills {bad}")
    scales = []
    running = witness[0]
    for n in range(depth + 1):
        running = min(running, witness[n])
        scales.append(running)
    return OmegaCover(oracle, tuple(sets[: depth + 1]), tuple(scales))


def cover_successor_of_point(c: OmegaCover, x: Fraction) -> RationalIntervalSet:
    """Successor of the smallest cover element containing x (the layer's relation)."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise CoverError(f"point {frac_str(x)} lies outside the ground (0, 1)")
    n = c.min_index_of(x)
    if n is None:
        raise CoverError(f"point {frac_str(x)} is not covered within truncation depth {c.truncation_depth}")
    if n + 1 > c.truncation_depth:
        raise CoverError(f"successor of index {n} exceeds truncation depth {c.truncation_depth}")
    return c.sets[n + 1]


def uniformly_isolated_witness(oracle: MetricOracle, eps: Fraction, a: RationalIntervalSet) -> RationalIntervalSet | None:
    """The set itself when the scale-eps image fixes it, else None.

    The image always contains the set (zero self-distance), so a fixed set
    is one whose image adds nothing; on the interval subclass that requires
    every frontier to absorb an exact eps-expansion, which only the empty
    set and the full ground manage.
    """
    img = oracle.image(eps, a)
    return a if img == a else None


def connectivity_certificate(oracle: MetricOracle, eps: Fraction, probes: list[RationalIntervalSet]) -> dict:
    fixed = None
    for p in probes:
        if p.is_empty or p == GROUND:
            continue
        w = uniformly_isolated_witness(oracle, eps, p)
        if w is not None:
            fixed = w
            break
    return {
        "kind": "uniform_connectivity",
        "rule": "frontier expansion on the interval subclass",
        "scale": frac_str(Fraction(eps)),
        "probes_checked": len(probes),
        "fixed_set": None if fixed is None else fixed.to_json(),
        "passed": fixed is None,
    }


def star_cover(c: OmegaCover) -> OmegaCover:
    """Interleave the cover with half-scale images of its sets.

    The new sets are G_0, img_0, G_1, img_1, ... with img_n the image of
    G_n at scale(n, 1); squaring the half scale lands back in the original
    ladder, so the interleaved cover's successor relation squares into the
    original one.  Re-indexing by omega keeps the order type.  Fails when
    some image collides with the successor set (which would make that
    successor uniformly isolated) or when a connectivity probe finds a
    fixed set.
    """
    depth = c.truncation_depth
    conn = connectivity_certificate(c.oracle, c.scale(0, 1), list(c.sets))
    if not conn["passed"]:
        raise CoverError(f"connectivity certificate fails: fixed set {conn['fixed_set']}")
    new_sets: list[RationalIntervalSet] = []
    new_scales: list[Fraction] = []
    for n in range(depth):
        half = c.scale(n, 1)
        img = c.oracle.image(half, c.sets[n])
        if img == c.sets[n + 1]:
            raise CoverError(
                f"image collides with successor at n={n}: the successor would be uniformly isolated"
            )
        new_sets.extend((c.sets[n], img))
        new_scales.extend((half, half))
    new_sets.append(c.sets[depth])
    new_scales.append(c.scale(depth, 1))
    return OmegaCover(c.oracle, tuple(new_sets), tuple(new_scales))


def _meeting_strata(fine: OmegaCover, coarse: OmegaCover) -> list[tuple[int, int]]:
    """Every pair (k, n) whose fine stratum k meets coarse stratum n, sorted.

    Relies on the strata of one cover being pairwise disjoint (nested sets),
    so each cover's `OmegaCover.stratum_index` is sorted by upper cut as well
    as by lower cut.  A two-pointer sweep then advances whichever interval
    ends first and meets only intervals that overlap: linear in the number
    of stratum intervals, where the all-pairs scan intersected every fine
    stratum with every coarse one.
    """
    fine_ivs, coarse_ivs = fine.stratum_index, coarse.stratum_index
    pairs = set()
    i = j = 0
    while i < len(fine_ivs) and j < len(coarse_ivs):
        f_lower, f_upper, k = fine_ivs[i]
        c_lower, c_upper, n = coarse_ivs[j]
        if max(f_lower, c_lower) <= min(f_upper, c_upper):
            pairs.add((k, n))
        if f_upper < c_upper:
            i += 1
        else:
            j += 1
    return sorted(pairs)


def _double_successor_containments(fine: OmegaCover, coarse: OmegaCover, grid_size: int) -> dict:
    """Exact and sampled checks that fine's squared relation sits in coarse's.

    On the stratum of points first appearing in fine set k, the squared
    successor is exactly fine.sets[k + 2]; the check compares it against
    coarse.sets[n + 1] wherever the stratum meets the coarse stratum n.
    Only the meeting pairs are visited (`_meeting_strata`), in (k, n) order.
    Stratum pairs whose indices would run past a truncation depth are
    counted as skipped, not assumed.  The grid check stays an independent
    sample: it locates each grid point in each cover's stratum index
    (`OmegaCover.min_indices_of_sorted`, one sweep over the ascending grid)
    and repeats the containment for it.  Both parts rely on each cover's
    strata being disjoint, which holds for the nested sets validation checks.
    """
    exact_checked = 0
    skipped = 0
    failures: list[dict] = []
    for k, n in _meeting_strata(fine, coarse):
        if k + 2 > fine.truncation_depth or n + 1 > coarse.truncation_depth:
            skipped += 1
            continue
        exact_checked += 1
        if not fine.sets[k + 2] <= coarse.sets[n + 1]:
            failures.append({"fine_stratum": k, "coarse_stratum": n})
    grid_checked = 0
    grid_violations = 0
    grid = rational_grid(grid_size)
    for k, n in zip(fine.min_indices_of_sorted(grid), coarse.min_indices_of_sorted(grid)):
        if k is None or n is None or k + 2 > fine.truncation_depth or n + 1 > coarse.truncation_depth:
            continue
        grid_checked += 1
        if not fine.sets[k + 2] <= coarse.sets[n + 1]:
            grid_violations += 1
    return {
        "exact_stratum_checks": exact_checked,
        "exact_failures": failures,
        "boundary_skipped": skipped,
        "grid_points": grid_checked,
        "grid_violations": grid_violations,
        "passed": not failures and grid_violations == 0,
    }


def cover_normal_sequence(c: OmegaCover, depth: int, grid_size: int = DEFAULT_GRID) -> RefinedBase:
    """Iterate the star construction ``depth`` times and certify normality.

    Produces covers 0..depth where cover 0 is the input; for each
    consecutive pair the squared successor relation of the finer cover is
    certified inside the coarser one, exactly on strata and on a rational
    grid.
    """
    if depth < 0:
        raise CoverError("star iteration depth must be nonnegative")
    covers = [c]
    for _ in range(depth):
        covers.append(star_cover(covers[-1]))
    pair_reports = [_double_successor_containments(covers[j + 1], covers[j], grid_size) for j in range(depth)]
    cert = {
        "kind": "normal_sequence",
        "covers": depth + 1,
        "grid_size": grid_size,
        "pairs": [{"finer": j + 1, "coarser": j, **rep} for j, rep in enumerate(pair_reports)],
        "passed": all(rep["passed"] for rep in pair_reports),
    }
    return RefinedBase(tuple(covers), (), cert)


def _cofinal_in_cover(c: OmegaCover, a: RationalIntervalSet) -> bool:
    """Detect that no cover set will ever contain a: its infimum is the ground's.

    Sound because every materialized set keeps a positive infimum, so any
    set with infimum zero escapes all of them; covers whose sets dip to the
    ground's infimum are not detectable and must fail loudly instead.
    """
    if a.inf_cut != GROUND_LOWER:
        return False
    return all(s.inf_cut > GROUND_LOWER for s in c.sets)


def probe_indices(c: OmegaCover, a: RationalIntervalSet) -> tuple[int, int | None]:
    """Smallest meeting and smallest containing index of a probe subset.

    The containing index is None for a probe that escapes every cover set
    (detected by `_cofinal_in_cover`).  Raises `CoverError` when deciding
    the probe would need a cover set beyond the truncation depth.
    """
    if a.is_empty:
        raise ValueError("probe subset must be nonempty")
    n1 = c.min_index_intersecting(a)
    if n1 is None:
        raise CoverError("no materialized cover element meets the subset (truncation too shallow)")
    n2 = c.min_index_containing(a)
    depth = c.truncation_depth
    if n2 is not None and n2 + 1 > depth:
        raise CoverError("subset exceeds truncation depth without being cofinal-detectable")
    if n2 is None and not _cofinal_in_cover(c, a):
        raise CoverError("subset exceeds truncation depth without being cofinal-detectable")
    if n1 + 1 > depth:
        raise CoverError("smallest meeting index has no materialized successor")
    return n1, n2


def cert_monotonecover(c: OmegaCover, a: RationalIntervalSet) -> dict:
    """Witness that the cover's successor relation is hyperspace-admissible at a.

    Bounded branch: with G1 the smallest set meeting a and G2 the smallest
    containing it, the scale(G2, 0) entourage maps a into the successor of
    G2 and maps a point of a meeting G1 into the successor of G1, which
    sits inside every successor the relation assigns on a.  Cofinal branch:
    the relation's image of a is the whole ground, witnessed per
    materialized index.  Both checks are exact.
    """
    n1, n2 = probe_indices(c, a)
    depth = c.truncation_depth
    meet = a & c.sets[n1]
    y = meet.pick_point()
    y_ok = c.oracle.image(c.scale(n1 if n2 is None else n2, 0), point(y)) <= c.sets[n1 + 1]
    cert: dict = {
        "kind": "monotone_cover_membership",
        "smallest_meeting": n1,
        "witness_point": frac_str(y),
        "witness_point_check": y_ok,
    }
    if n2 is not None:
        scale = c.scale(n2, 0)
        img_ok = c.oracle.image(scale, a) <= c.sets[n2 + 1]
        cert.update(
            {
                "branch": "bounded",
                "smallest_containing": n2,
                "entourage_scale": frac_str(scale),
                "image_check": img_ok,
                "relation_image": "successor_of_smallest_containing",
                "passed": img_ok and y_ok,
            }
        )
        return cert
    escapes = []
    for n in range(depth + 1):
        out = a - c.sets[n]
        escapes.append(frac_str(out.pick_point()))
    cert.update(
        {
            "branch": "cofinal",
            "entourage_scale": frac_str(c.scale(n1, 0)),
            "relation_image": "ground",
            "escape_witnesses": escapes,
            "image_check": True,
            "passed": y_ok,
        }
    )
    return cert


def cert_monotonehaus(c: OmegaCover, v_scale: Fraction, a: RationalIntervalSet, probe_limit: int = 12) -> dict:
    """Hypothesis witnesses and hyperspace admissibility for the intersected relation.

    For U at half the requested scale, searches a cover index G such that
    every point of a outside G sees a member of a inside G within U, and is
    seen within U from a member of a beyond the deepest materialized set.
    Both quantifiers over the (infinite) probe set reduce to exact interval
    containments; a handful of per-point witnesses is extracted for audit.
    When no index works the report says so instead of raising.
    """
    if a.is_empty:
        raise ValueError("probe subset must be nonempty")
    v = Fraction(v_scale)
    if v <= 0:
        raise ValueError("entourage scale must be positive")
    delta = v / 2
    depth = c.truncation_depth
    n_cont = c.min_index_containing(a)
    if n_cont is not None:
        if n_cont + 1 > depth:
            raise CoverError("subset exceeds truncation depth without being cofinal-detectable")
        s = min(c.scale(n_cont, 0), delta)
        checks = []
        ok = True
        for n in range(n_cont + 1):
            piece = a & c.stratum(n)
            if piece.is_empty:
                continue
            holds = c.oracle.image(s, piece) <= c.sets[n + 1]
            ok = ok and holds
            checks.append({"stratum": n, "holds": holds})
        return {
            "kind": "monotone_haus_membership",
            "branch": "contained",
            "containing_index": n_cont,
            "scale": frac_str(v),
            "inner_scale": frac_str(s),
            "stratum_checks": checks,
            "passed": ok,
        }

    deep_pool = a - c.sets[depth]
    found = None
    for m in range(depth):
        inside = a & c.sets[m]
        if inside.is_empty:
            continue
        outside = a - c.sets[m]
        cond_near = outside <= c.oracle.inv_image(delta, inside)
        cond_deep = outside <= c.oracle.image(delta, deep_pool)
        if cond_near and cond_deep:
            found = m
            break
    if found is None:
        return {
            "kind": "monotone_haus_membership",
            "branch": "unbounded",
            "scale": frac_str(v),
            "passed": False,
            "reason": "hypothesis fails for this A",
        }

    inside = a & c.sets[found]
    outside = a - c.sets[found]
    probes = []
    for comp in outside.intervals[:probe_limit]:
        x = RationalIntervalSet.of(comp).pick_point()
        near = (inside & c.oracle.image(delta, point(x))).pick_point()
        deep = (deep_pool & c.oracle.inv_image(delta, point(x))).pick_point()
        probes.append(
            {
                "x": frac_str(x),
                "inside_witness": frac_str(near),
                "deep_witness": frac_str(deep),
            }
        )
    s = min(c.scale(found, 0), delta)
    inner_checks = []
    ok = True
    for n in range(found + 1):
        piece = a & c.stratum(n)
        if piece.is_empty:
            continue
        holds = c.oracle.image(s, piece) <= c.sets[n + 1]
        ok = ok and holds
        inner_checks.append({"stratum": n, "holds": holds})
    pool_check = c.oracle.image(s, inside) <= c.sets[found + 1]
    outside_check = c.oracle.image(s, outside) <= c.oracle.image(v, deep_pool)
    ok = ok and pool_check and outside_check
    return {
        "kind": "monotone_haus_membership",
        "branch": "unbounded",
        "scale": frac_str(v),
        "inner_scale": frac_str(s),
        "hypothesis_index": found,
        "hypothesis_exact": True,
        "probe_witnesses": probes,
        "stratum_checks": inner_checks,
        "inside_pool_check": pool_check,
        "outside_escape_check": outside_check,
        "beyond_truncation": "successor containments past the deepest set follow from cover nesting",
        "passed": ok,
    }


def _chop_small(oracle: MetricOracle, comp: Interval, eps: Fraction) -> list[Interval]:
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


def cert_boundedhaus(c: OmegaCover, u_scale: Fraction) -> dict:
    """Finite small decomposition of some cover set's complement, exactly.

    Prefers the first index whose complement components are already small
    at the requested scale; otherwise chops the deepest complement into
    finitely many small pieces.  Every piece is re-verified small and the
    pieces are re-verified to reunite to the complement.
    """
    eps = Fraction(u_scale)
    if eps <= 0:
        raise ValueError("entourage scale must be positive")
    chosen = None
    pieces: list[Interval] = []
    for n in range(c.truncation_depth + 1):
        comp = c.sets[n].complement()
        if all(c.oracle.is_small(RationalIntervalSet.of(p), eps) for p in comp.intervals):
            chosen, pieces, chopped = n, list(comp.intervals), False
            break
    if chosen is None:
        chosen = c.truncation_depth
        comp = c.sets[chosen].complement()
        pieces = [p for comp_iv in comp.intervals for p in _chop_small(c.oracle, comp_iv, eps)]
        chopped = True
    comp = c.sets[chosen].complement()
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
        eps = Fraction(eps_raw)
        if eps <= 0:
            raise ValueError("probe scales must be positive")
        found = None
        for n in range(c.truncation_depth):
            stratum = c.stratum(n)
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
    seq: RefinedBase,
    background_scales: list[Fraction],
    probes: list[RationalIntervalSet],
) -> RefinedBase:
    """Refined quasi-uniformity base with its full certificate bundle.

    ``seq`` is the star-cover tower from `cover_normal_sequence` (or a
    `RefinedBase.prefix` of a deeper one), so a tower that was already built
    and certified is not built again.  The base intersects each of its
    covers' successor relations with each background metric scale.
    Construction aborts on the first failing certificate, quoting its
    witness.
    """
    scales = [Fraction(s) for s in background_scales]
    if not scales:
        raise ValueError("need at least one background scale")
    if not seq.certificate["passed"]:
        raise CoverError(f"normal sequence certificate failed: {seq.certificate}")
    bounded = []
    membership = []
    for j, cov in enumerate(seq.covers):
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
    cert = {
        "kind": "refined_base",
        "base": [
            {"cover": j, "scale": frac_str(s)} for j in range(len(seq.covers)) for s in scales
        ],
        "normal_sequence": seq.certificate,
        "bounded": bounded,
        "membership": membership,
        "passed": True,
    }
    return RefinedBase(seq.covers, tuple(scales), cert)


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
    eps = Fraction(eps)
    if eps >= 1:
        raise ValueError("radius covers the whole ground: need eps < 1")
    if eps <= 0:
        raise ValueError("need a positive radius")

    def sets_fn(n: int) -> RationalIntervalSet:
        return iv(eps / (n + 1), 1)

    def scales_fn(n: int) -> Fraction:
        return eps / (n + 1) - eps / (n + 2)

    cover = chain_cover_from_sequence(EUCLID, sets_fn, scales_fn, depth)
    conn = connectivity_certificate(EUCLID, cover.scale(0, 0), list(cover.sets[:8]))
    bounded = [cert_boundedhaus(cover, s) for s in bounded_scales]
    cert = {
        "kind": "dense_witness_construction",
        "eps": frac_str(eps),
        "truncation_depth": depth,
        "strictly_increasing": True,
        "chain_witness_scales": [frac_str(scales_fn(n)) for n in range(min(depth, 8))],
        "no_set_is_ground": all(s != GROUND for s in cover.sets),
        "connectivity": conn,
        "bounded": bounded,
        "passed": conn["passed"] and all(b["passed"] for b in bounded),
    }
    return cover, cert


def random_interval_sets(seed: int, count: int, denominator: int = 64) -> list[RationalIntervalSet]:
    """Seeded probe family: unions of up to three intervals on a rational grid."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pieces = []
        for _ in range(rng.randint(1, 3)):
            a, b = sorted(rng.sample(range(1, denominator), 2))
            pieces.append(
                Interval(
                    Fraction(a, denominator),
                    Fraction(b, denominator),
                    rng.random() < 0.5,
                    rng.random() < 0.5,
                )
            )
        candidate = RationalIntervalSet(tuple(pieces))
        if not candidate.is_empty:
            out.append(candidate)
    return out
