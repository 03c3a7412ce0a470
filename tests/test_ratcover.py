from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qusp.ratcover as ratcover
from qusp.intervals import (
    EMPTY,
    GROUND,
    Interval,
    RationalIntervalSet,
    iv,
    overlapping_tags,
    point,
    rational_grid,
    tags_of_sorted,
)
from qusp.ratcover import (
    EUCLID,
    LOWER,
    UPPER,
    CoverError,
    MetricOracle,
    OmegaCover,
    cert_boundedhaus,
    cert_monotonecover,
    cert_monotonehaus,
    cert_not_entourage,
    connectivity_certificate,
    cover_normal_sequence,
    cover_successor_of_point,
    dense_scenario,
    probe_indices,
    random_interval_sets,
    refined_base,
    star_cover,
)
from qusp.ratcover import (
    _chop_count,
    _chop_small,
    _cofinal_in_cover,
    _double_successor_containments,
    _stratum_successor_checks,
)
from qusp.serialize import frac_str, parse_frac

PROBE_POINTS = [F(i, 101) for i in range(1, 101)]


def flagship(depth=64):
    cover, cert = dense_scenario(F(1, 2), depth)
    assert cert["passed"]
    return cover


def ref_inf_dist(kind, piece, y):
    lo, hi = piece.lo, piece.hi
    if kind == "euclid":
        return max(lo - y, y - hi, F(0))
    if kind == "upper":
        return max(y - hi, F(0))
    return max(lo - y, F(0))


class TestOracleImages:
    def test_upper_halfline(self):
        assert UPPER.image(F(1, 4), iv(0, F(1, 2))) == iv(0, F(3, 4))

    def test_euclid_point(self):
        assert EUCLID.image(F(1, 4), point(F(1, 2))) == iv(F(1, 4), F(3, 4))

    def test_empty(self):
        for oracle in (EUCLID, UPPER, LOWER):
            assert oracle.image(F(1, 4), EMPTY) == EMPTY

    def test_lower_halfline(self):
        assert LOWER.image(F(1, 8), iv(F(1, 2), F(3, 4))) == iv(F(3, 8), 1)

    @given(st.sampled_from(["euclid", "upper", "lower"]), st.integers(1, 40), st.integers(1, 23))
    @settings(max_examples=60)
    def test_pointwise_against_reference(self, kind, eps_num, spread):
        oracle = MetricOracle(kind)
        eps = F(eps_num, 40)
        a = iv(F(spread, 25), F(spread + 1, 25), lo_open=spread % 2 == 0) | point(F(1, 2))
        img = oracle.image(eps, a)
        for y in PROBE_POINTS:
            truth = min(ref_inf_dist(kind, piece, y) for piece in a.intervals) < eps
            assert (y in img) == truth, (kind, eps, y)

    @given(st.sampled_from(["euclid", "upper", "lower"]), st.integers(1, 16), st.integers(1, 16))
    @settings(max_examples=40)
    def test_image_composition_bound(self, kind, e1, e2):
        oracle = MetricOracle(kind)
        a = iv(F(1, 3), F(2, 5)) | iv(F(1, 2), F(5, 8), hi_open=False)
        eps, delta = F(e1, 32), F(e2, 32)
        twice = oracle.image(delta, oracle.image(eps, a))
        assert twice <= oracle.image(eps + delta, a)

    def test_monotone_in_radius_and_set(self):
        a = iv(F(1, 4), F(1, 2))
        b = a | iv(F(2, 3), F(3, 4))
        for oracle in (EUCLID, UPPER, LOWER):
            assert oracle.image(F(1, 16), a) <= oracle.image(F(1, 8), a)
            assert oracle.image(F(1, 16), a) <= oracle.image(F(1, 16), b)

    def test_inverse_image_duality(self):
        a = iv(F(1, 3), F(1, 2))
        assert UPPER.inv_image(F(1, 8), a) == LOWER.image(F(1, 8), a)
        assert LOWER.inv_image(F(1, 8), a) == UPPER.image(F(1, 8), a)
        assert EUCLID.inv_image(F(1, 8), a) == EUCLID.image(F(1, 8), a)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MetricOracle("manhattan")


# Sets against the scale 1/4, each with its verdict: the span decides,
# and a span of exactly 1/4 is small unless both extreme ends are closed.
SMALLNESS_CASES = {
    "empty": (EMPTY, True),
    "closed_point": (point(F(1, 2)), True),
    "span_below": (iv(F(1, 4), F(3, 8), lo_open=False, hi_open=False), True),
    "span_equal_closed_closed": (iv(F(1, 4), F(1, 2), lo_open=False, hi_open=False), False),
    "span_equal_open_closed": (iv(F(1, 4), F(1, 2), lo_open=True, hi_open=False), True),
    "span_equal_closed_open": (iv(F(1, 4), F(1, 2), lo_open=False, hi_open=True), True),
    "span_equal_open_open": (iv(F(1, 4), F(1, 2)), True),
    "span_above": (iv(F(1, 4), F(5, 8)), False),
    "components_closed_extremes": (iv(F(1, 4), F(5, 16), lo_open=False) | iv(F(7, 16), F(1, 2), hi_open=False), False),
    "components_open_bottom": (iv(F(1, 4), F(5, 16), hi_open=False) | iv(F(7, 16), F(1, 2), False, False), True),
    "components_open_top": (iv(F(1, 4), F(5, 16), False, False) | iv(F(7, 16), F(1, 2), lo_open=False), True),
}
ORACLE_KINDS = pytest.mark.parametrize("oracle", [EUCLID, UPPER, LOWER], ids=lambda o: o.kind)


class TestSmallness:
    def test_half_open_at_exact_scale(self):
        assert EUCLID.is_small(iv(0, F(1, 4)), F(1, 4))
        assert EUCLID.is_small(iv(F(1, 4), F(1, 2), lo_open=False), F(1, 4))
        assert not EUCLID.is_small(iv(F(1, 4), F(1, 2), lo_open=False, hi_open=False), F(1, 4))

    def test_multi_component_span(self):
        a = iv(F(1, 8), F(1, 4)) | iv(F(3, 4), F(7, 8))
        assert not EUCLID.is_small(a, F(1, 2))
        assert EUCLID.is_small(a, F(7, 8))

    @ORACLE_KINDS
    @pytest.mark.parametrize("a, small", SMALLNESS_CASES.values(), ids=SMALLNESS_CASES.keys())
    def test_span_decides(self, oracle, a, small):
        assert oracle.is_small(a, F(1, 4)) is small


class TestCofinality:
    def test_probe_reaching_zero_escapes_every_set(self):
        cover = flagship(depth=8)
        assert probe_indices(cover, iv(0, F(3, 4))) == (0, None)
        assert probe_indices(cover, iv(F(1, 8), F(3, 4))) == (0, 3)

    def test_cover_dipping_to_zero_cannot_tell(self):
        cover = OmegaCover(EUCLID, (iv(0, F(1, 4)), iv(0, F(1, 2)), iv(0, F(3, 4))), (F(1, 8),) * 3)
        with pytest.raises(CoverError, match="cofinal"):
            probe_indices(cover, iv(0, F(7, 8)))

    def test_only_the_deepest_set_dipping_to_zero_cannot_tell(self):
        # The nested sets make the deepest one's infimum the least, so it is the one read.
        cover = OmegaCover(EUCLID, (iv(F(1, 4), F(1, 2)), iv(F(1, 8), F(3, 4)), iv(0, F(7, 8))), (F(1, 16),) * 3)
        assert _cofinal_in_cover(cover, iv(0, F(15, 16))) is False
        with pytest.raises(CoverError, match="cofinal"):
            probe_indices(cover, iv(0, F(15, 16)))


class TestChainCover:
    def test_flagship_sets(self):
        cover = flagship()
        assert cover.sets[0] == iv(F(1, 2), 1)
        assert cover.sets[1] == iv(F(1, 4), 1)
        assert cover.truncation_depth == 64

    def test_constant_sets_rejected(self):
        with pytest.raises(CoverError, match="strictly increasing"):
            OmegaCover(EUCLID, (iv(F(1, 2), 1),) * 5, (F(1, 8),) * 5)

    def test_oversized_scales_rejected(self):
        with pytest.raises(CoverError, match="witness fails at n="):
            OmegaCover(EUCLID, tuple(iv(F(1, n + 2), 1) for n in range(5)), (F(1, 2),) * 5)

    def test_non_interval_set_rejected(self):
        with pytest.raises(CoverError, match="cover set 0 is not an interval set"):
            OmegaCover(EUCLID, tuple((F(1, n + 2), 1) for n in range(5)), (F(1, 100),) * 5)

    def test_upper_oracle_chain(self):
        sets = tuple(iv(0, 1 - F(1, n + 2)) for n in range(17))
        cover = OmegaCover(UPPER, sets, tuple(F(1, n + 2) - F(1, n + 3) for n in range(17)))
        assert cover.sets[0] == iv(0, F(1, 2))

    def test_lower_oracle_chain(self):
        sets = tuple(iv(F(1, n + 2), 1) for n in range(17))
        cover = OmegaCover(LOWER, sets, tuple(F(1, n + 2) - F(1, n + 3) for n in range(17)))
        assert cover.sets[0] == iv(F(1, 2), 1)

    def test_cover_construction_validates_ladder_and_witnesses(self):
        cover = flagship(depth=16)
        with pytest.raises(CoverError, match="ladder scales increase at n=1"):
            OmegaCover(cover.oracle, cover.sets[:4], (F(1, 8), F(1, 4), F(1, 8), F(1, 16)))
        with pytest.raises(CoverError, match="witness fails at n=0"):
            OmegaCover(cover.oracle, cover.sets[:2], (F(1, 2), F(1, 2)))
        with pytest.raises(CoverError, match="at least two"):
            OmegaCover(EUCLID, (iv(F(1, 2), 1),), (F(1, 8),))

    def test_ladder_scales_nonincreasing_and_halving(self):
        cover = flagship()
        for n in range(cover.truncation_depth):
            assert cover.base_scales[n + 1] <= cover.base_scales[n]
            assert cover.scale(n, 1) == cover.scale(n, 0) / 2


class TestSuccessor:
    def test_first_set_maps_to_second(self):
        cover = flagship()
        assert cover_successor_of_point(cover, F(3, 4)) == cover.sets[1]

    def test_boundary_point(self):
        cover = flagship()
        # 1/2 first appears in set 1, so its successor is set 2
        assert cover_successor_of_point(cover, F(1, 2)) == cover.sets[2]

    def test_nested_successors(self):
        cover = flagship()
        # deeper point, shallower point: successor sets are nested
        deep = cover_successor_of_point(cover, F(1, 100))
        shallow = cover_successor_of_point(cover, F(3, 4))
        assert shallow <= deep

    def test_outside_ground(self):
        with pytest.raises(CoverError, match="outside the ground"):
            cover_successor_of_point(flagship(), F(3, 2))

    def test_beyond_truncation(self):
        cover = flagship(depth=8)
        with pytest.raises(CoverError, match="not covered within truncation"):
            cover_successor_of_point(cover, F(1, 1000))


class TestStarCover:
    def test_interleaving_order(self):
        cover = flagship(depth=16)
        star = star_cover(cover)
        assert star.truncation_depth == 2 * 16
        for n in range(16):
            img = EUCLID.image(cover.scale(n, 1), cover.sets[n])
            assert star.sets[2 * n] == cover.sets[n]
            assert star.sets[2 * n + 1] == img
            assert cover.sets[n] <= img and cover.sets[n] != img
            assert img <= cover.sets[n + 1]

    def test_double_star_keeps_omega_shape(self):
        cover = flagship(depth=8)
        twice = star_cover(star_cover(cover))
        assert twice.truncation_depth == 2 * (2 * 8)
        for n in range(twice.truncation_depth):
            assert twice.sets[n] <= twice.sets[n + 1] and twice.sets[n] != twice.sets[n + 1]

    def test_squared_relation_containment_on_grid(self):
        cover = flagship(depth=32)
        star = star_cover(cover)
        for x in PROBE_POINTS:
            kx = star.min_index_of(x)
            nx = cover.min_index_of(x)
            if kx is None or nx is None:
                continue
            if kx + 2 > star.truncation_depth or nx + 1 > cover.truncation_depth:
                continue
            # the squared successor image is exactly the set two steps up
            assert star.sets[kx + 2] <= cover.sets[nx + 1]


class TestNormalSequence:
    def test_depth_zero_is_base_alone(self):
        cover = flagship(depth=8)
        rb = cover_normal_sequence(cover, 0)
        assert len(rb.covers) == 1 and rb.covers[0] is cover
        assert rb.certificate["passed"] and rb.certificate["pairs"] == []

    def test_prefix_equals_shorter_build(self):
        cover = flagship(depth=12)
        tower = cover_normal_sequence(cover, 3, grid_size=64)
        for depth in range(4):
            short = cover_normal_sequence(cover, depth, grid_size=64)
            cut = tower.prefix(depth)
            assert cut.covers == short.covers
            assert cut.certificate == short.certificate
        with pytest.raises(CoverError, match="prefix"):
            tower.prefix(4)

    @pytest.mark.parametrize("depth, grids, locations", [(0, 0, 0), (1, 1, 2), (3, 1, 4)])
    def test_grid_built_once_and_located_once_per_cover(self, monkeypatch, depth, grids, locations):
        # Each middle cover of the tower serves two pairs but is located once.
        cover = flagship(depth=16)
        calls = {"rational_grid": 0, "tags_of_sorted": 0}
        for name in calls:

            def counted(*args, name=name, real=getattr(ratcover, name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(ratcover, name, counted)
        tower = cover_normal_sequence(cover, depth, grid_size=64)
        assert calls == {"rational_grid": grids, "tags_of_sorted": locations}
        assert tower.certificate["passed"] and len(tower.certificate["pairs"]) == depth

    def test_depth_three_certifies(self):
        cover = flagship(depth=16)
        rb = cover_normal_sequence(cover, 3, grid_size=256)
        assert len(rb.covers) == 4
        assert rb.certificate["passed"]
        for pair in rb.certificate["pairs"]:
            assert pair["exact_failures"] == []
            assert pair["grid_violations"] == 0
            assert pair["exact_stratum_checks"] > 0


# Fraction references for the integer-cut code.  They work on lists of
# public (Fraction, tweak) cut pairs, read off a set once through
# ``frac_cuts``, and never call a set operation or constructor under test.

FLOOR, CEIL = (F(0), 1), (F(1), -1)


def frac_cuts(s):
    return [(p.lower_cut, p.upper_cut) for p in s.intervals]


def frac_normalize(pairs):
    """Clamp to the ground, drop empty pairs, sort, merge what no rational separates."""
    clamped = sorted((max(lo, FLOOR), min(hi, CEIL)) for lo, hi in pairs if max(lo, FLOOR) <= min(hi, CEIL))
    merged = []
    for lo, hi in clamped:
        if merged:
            last = merged[-1][1]
            if lo <= last or lo[0] == last[0] and (last[1], lo[1]) in {(-1, 0), (0, 1)}:
                merged[-1] = (merged[-1][0], max(last, hi))
                continue
        merged.append((lo, hi))
    return merged


def frac_and(a, b):
    return frac_normalize([(max(x[0], y[0]), min(x[1], y[1])) for x in a for y in b])


def frac_complement(a):
    """Intersect the two sides of every piece, one piece at a time."""
    out = [(FLOOR, CEIL)]
    for (lo, lo_tweak), (hi, hi_tweak) in a:
        sides = [(FLOOR, (lo, lo_tweak - 1)), ((hi, hi_tweak + 1), CEIL)]
        out = frac_and(out, frac_normalize(sides))
    return out


def frac_le(a, b):
    """Each piece of a inside one piece of b (b normalized)."""
    return all(any(y[0] <= x[0] and x[1] <= y[1] for y in b) for x in a)


def frac_contains(a, q):
    return any(lo <= (q, 0) <= hi for lo, hi in a)


def frac_image(kind, eps, a):
    """The open (lo - eps, hi + eps), (0, hi + eps) or (lo - eps, 1) of each piece."""
    pieces = []
    for (lo, _), (hi, _) in a:
        low = F(0) if kind == "upper" else max(lo - eps, F(0))
        high = F(1) if kind == "lower" else min(hi + eps, F(1))
        pieces.append(((low, 1), (high, -1)))
    return frac_normalize(pieces)


def frac_json(pairs):
    """What ``to_json`` of the set with these cut pairs must print."""
    return [
        {"lo": frac_str(lo), "hi": frac_str(hi), "lo_open": lo_tweak == 1, "hi_open": hi_tweak == -1}
        for (lo, lo_tweak), (hi, hi_tweak) in pairs
    ]


def frac_strata(cover):
    sets = [frac_cuts(s) for s in cover.sets]
    return [sets[0]] + [frac_and(sets[n], frac_complement(sets[n - 1])) for n in range(1, len(sets))]


def frac_min_index(cover, x):
    """The first set holding x, by a linear scan of the sets' cut pairs."""
    return next((n for n, s in enumerate(cover.sets) if frac_contains(frac_cuts(s), x)), None)


def frac_meeting(fine, coarse):
    """Every fine stratum intersected with every coarse stratum."""
    coarse_strata = frac_strata(coarse)
    return [(k, n) for k, a in enumerate(frac_strata(fine)) for n, b in enumerate(coarse_strata) if frac_and(a, b)]


def linear_first(cover, holds):
    return next((n for n, s in enumerate(cover.sets) if holds(s)), None)


def containments(fine, coarse, grid_size):
    """`_double_successor_containments` with one grid located in each cover, as `cover_normal_sequence` does."""
    grid = rational_grid(grid_size)
    fine_tags, coarse_tags = (tags_of_sorted(c.stratum_index, grid) for c in (fine, coarse))
    return _double_successor_containments(fine, coarse, fine_tags, coarse_tags)


def reference_containments(fine, coarse, grid_size):
    """The all-pairs certificate, with linear scans for the grid points."""
    checked, skipped, failures = 0, 0, []

    def inside(k, n):
        return frac_le(frac_cuts(fine.sets[k + 2]), frac_cuts(coarse.sets[n + 1]))

    for k, n in frac_meeting(fine, coarse):
        if k + 2 > fine.truncation_depth or n + 1 > coarse.truncation_depth:
            skipped += 1
            continue
        checked += 1
        if not inside(k, n):
            failures.append({"fine_stratum": k, "coarse_stratum": n})
    grid_checked = grid_violations = 0
    for x in rational_grid(grid_size):
        k = frac_min_index(fine, x)
        n = frac_min_index(coarse, x)
        if k is None or n is None or k + 2 > fine.truncation_depth or n + 1 > coarse.truncation_depth:
            continue
        grid_checked += 1
        grid_violations += not inside(k, n)
    return {
        "exact_stratum_checks": checked,
        "exact_failures": failures,
        "boundary_skipped": skipped,
        "grid_points": grid_checked,
        "grid_violations": grid_violations,
        "passed": not failures and grid_violations == 0,
    }


DEN = 96


@st.composite
def multi_interval_sets(draw, lo=1, hi=DEN - 1, max_pieces=3):
    """Unions of up to ``max_pieces`` intervals with endpoints in [lo/96, hi/96]."""
    pieces = []
    for _ in range(draw(st.integers(1, max_pieces))):
        a = draw(st.integers(lo, hi - 1))
        b = draw(st.integers(a + 1, hi))
        pieces.append(Interval(F(a, DEN), F(b, DEN), draw(st.booleans()), draw(st.booleans())))
    return RationalIntervalSet(tuple(pieces))


@st.composite
def nested_covers(draw, oracles=(EUCLID, UPPER, LOWER)):
    """Validated covers whose sets and strata are unions of several intervals.

    Each set is the previous set's image at its ladder scale, united with a
    seeded extra piece set, so the chain witnesses hold by construction.
    Endpoints sit on a grid of 1/96 and scales are 1/48 or 1/96, so images
    often end exactly where an extra piece begins, open or closed.
    """
    oracle = draw(st.sampled_from(oracles))
    depth = draw(st.integers(2, 6))
    scales = sorted((F(1, draw(st.sampled_from((48, 96)))) for _ in range(depth + 1)), reverse=True)
    sets = [draw(multi_interval_sets(DEN // 4, 3 * DEN // 4))]
    for n in range(depth):
        extra = draw(st.one_of(st.just(EMPTY), multi_interval_sets(DEN // 8, 7 * DEN // 8, 2)))
        sets.append(oracle.image(scales[n], sets[n]) | extra)
    return OmegaCover(oracle, tuple(sets), tuple(scales))


class TestStratumSweep:
    """The sweep over meeting stratum pairs against the all-pairs scan."""

    @pytest.mark.parametrize("eps", [F(1, 2), F(3, 7)])
    def test_dense_witness_star_pairs(self, eps):
        cover, _ = dense_scenario(eps, depth=12)
        star = star_cover(cover)
        for fine, coarse in ((star, cover), (star_cover(star), star), (cover, star)):
            assert overlapping_tags(fine.stratum_index, coarse.stratum_index) == frac_meeting(fine, coarse)
            assert containments(fine, coarse, 64) == reference_containments(fine, coarse, 64)

    @given(nested_covers())
    @settings(max_examples=80, deadline=None)
    def test_multi_interval_star_pairs(self, cover):
        star = star_cover(cover)
        for fine, coarse in ((star, cover), (cover, star)):
            assert overlapping_tags(fine.stratum_index, coarse.stratum_index) == frac_meeting(fine, coarse)
            assert containments(fine, coarse, 48) == reference_containments(fine, coarse, 48)

    @given(nested_covers(), nested_covers())
    @settings(max_examples=80, deadline=None)
    def test_unrelated_covers(self, fine, coarse):
        # Unrelated covers usually fail the containments, which also checks
        # that failures come out in (k, n) order.
        assert overlapping_tags(fine.stratum_index, coarse.stratum_index) == frac_meeting(fine, coarse)
        assert containments(fine, coarse, 48) == reference_containments(fine, coarse, 48)

    def test_each_pair_decided_once(self, monkeypatch):
        # The grid revisits stratum pairs the sweep has decided; it reads
        # their verdicts instead of repeating the containment.
        cover, _ = dense_scenario(F(1, 2), depth=12)
        fine, coarse = star_cover(cover), cover
        pairs = overlapping_tags(fine.stratum_index, coarse.stratum_index)
        calls = []
        subset = RationalIntervalSet.__le__

        def counted(a, b):
            calls.append((id(a), id(b)))
            return subset(a, b)

        monkeypatch.setattr(RationalIntervalSet, "__le__", counted)
        report = containments(fine, coarse, 64)
        assert report["grid_points"] > len(pairs)
        assert len(calls) == len(set(calls)) == report["exact_stratum_checks"] <= len(pairs)

    @given(nested_covers(oracles=(UPPER, LOWER)))
    @settings(max_examples=30, deadline=None)
    def test_normal_sequence_through_star_covers(self, cover):
        seq = cover_normal_sequence(cover, 2, grid_size=32)
        for j, pair in enumerate(seq.certificate["pairs"]):
            fine, coarse = seq.covers[j + 1], seq.covers[j]
            assert {k: pair[k] for k in pair if k not in ("finer", "coarser")} == reference_containments(fine, coarse, 32)


class TestMinIndexBisection:
    """Bisected smallest-index searches against linear scans."""

    @given(nested_covers(), multi_interval_sets(), st.integers(1, 4 * DEN - 1), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_matches_linear_scan(self, cover, probe, num, starred):
        if starred:
            cover = star_cover(cover)
        x = F(num, 4 * DEN)
        assert cover.min_index_of(x) == linear_first(cover, lambda s: x in s)
        assert cover.min_index_containing(probe) == linear_first(cover, lambda s: probe <= s)
        assert cover.min_index_intersecting(probe) == linear_first(cover, lambda s: not (probe & s).is_empty)

    def test_dense_witness_endpoints(self):
        cover = flagship(depth=16)
        for n in range(17):
            edge = F(1, 2 * (n + 1))
            for x in (edge, edge + F(1, 10**6), edge - F(1, 10**6)):
                assert cover.min_index_of(x) == linear_first(cover, lambda s: x in s)
            probe = iv(edge, F(3, 4), lo_open=False)
            assert cover.min_index_containing(probe) == linear_first(cover, lambda s: probe <= s)
            assert cover.min_index_intersecting(probe) == linear_first(cover, lambda s: not (probe & s).is_empty)


def linear_bounded_index(cover, eps):
    """`cert_boundedhaus`'s ``index`` and ``chopped``, by a linear scan of the sets."""

    def pieces_small(s):
        return all(cover.oracle.is_small(RationalIntervalSet.of(p), eps) for p in s.complement().intervals)

    n = linear_first(cover, pieces_small)
    return (cover.truncation_depth, True) if n is None else (n, False)


def linear_hypothesis_index(cover, v, a):
    """The first m below the truncation depth where `cert_monotonehaus`'s hypothesis holds, by a linear scan."""
    delta = v / 2
    deep_pool = a - cover.sets[cover.truncation_depth]
    for m in range(cover.truncation_depth):
        inside, outside = a & cover.sets[m], a - cover.sets[m]
        if inside.is_empty:
            continue
        if outside <= cover.oracle.inv_image(delta, inside) and outside <= cover.oracle.image(delta, deep_pool):
            return m
    return None


# From below the covers' 1/96 grid step to past the width of the ground.
CERT_SCALES = [F(1, 192), F(1, 48), F(1, 12), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)]


class TestCertificateBisection:
    """The certificates' bisected first-index searches against linear scans."""

    @given(nested_covers(), st.sampled_from(CERT_SCALES), multi_interval_sets())
    @settings(max_examples=200, deadline=None)
    def test_indices_match_linear_scans(self, cover, scale, probe):
        bounded = cert_boundedhaus(cover, scale)
        assert (bounded["index"], bounded["chopped"]) == linear_bounded_index(cover, scale)
        n_cont = linear_first(cover, lambda s: probe <= s)
        if n_cont is not None and n_cont + 1 > cover.truncation_depth:
            with pytest.raises(CoverError):
                cert_monotonehaus(cover, scale, probe)
            return
        cert = cert_monotonehaus(cover, scale, probe)
        assert cert["branch"] == ("contained" if n_cont is not None else "unbounded")
        if n_cont is None:
            assert cert.get("hypothesis_index") == linear_hypothesis_index(cover, scale, probe)

    def test_hypothesis_first_holding_at_depth_is_not_found(self):
        # On G_n = (1/(2n + 2), 1) and A = (0, 1/2), the hypothesis at scale
        # v needs 1/(2m + 2) <= v/2: at depth 4, v = 1/5 first meets it at
        # m = 4, the deepest set, which the search does not accept.
        cover, probe = flagship(depth=4), iv(0, F(1, 2))
        assert cover._first_index(lambda s: (probe - s) <= EUCLID.inv_image(F(1, 10), probe & s)) == 4
        assert linear_hypothesis_index(cover, F(1, 5), probe) is None
        cert = cert_monotonehaus(cover, F(1, 5), probe)
        assert cert["passed"] is False and "hypothesis_index" not in cert
        assert cert_monotonehaus(cover, F(1, 4), probe)["hypothesis_index"] == 3


# Endpoints from a band of nine grid steps, so pieces of two sets often
# share an endpoint, open or closed on either side.
touching_sets = multi_interval_sets(DEN // 2 - 4, DEN // 2 + 4)
interval_sets = st.one_of(multi_interval_sets(), touching_sets)


class TestFastPathsAgainstReferences:
    """The cached strata, stratum index and grid sweep on multi-interval covers."""

    @given(nested_covers(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_cached_strata_and_index(self, cover, starred):
        if starred:
            cover = star_cover(cover)
        strata = frac_strata(cover)
        assert [frac_cuts(s) for s in cover.strata] == strata
        tagged = sorted((lo, hi, n) for n, s in enumerate(strata) for lo, hi in s)
        assert [(p.lower_cut, p.upper_cut, n) for p, n in cover.stratum_index] == tagged

    @given(nested_covers(), st.booleans(), st.integers(16, 200))
    @settings(max_examples=100, deadline=None)
    def test_grid_sweep_matches_linear_scan(self, cover, starred, grid_size):
        if starred:
            cover = star_cover(cover)
        # Every multiple of 1/384 includes every endpoint the covers can have.
        for grid in (rational_grid(grid_size), tuple(F(i, 4 * DEN) for i in range(1, 4 * DEN))):
            assert tags_of_sorted(cover.stratum_index, grid) == [frac_min_index(cover, x) for x in grid]


# Non-dyadic scales next to grid steps of 1/96, so images often end exactly
# where a piece of another set begins.
SCALES = st.sampled_from([F(1, 3), F(5, 7), F(2, 5), F(1, 96), F(1, 48), F(7, 96), F(1, 2)])
ORACLES = st.sampled_from([EUCLID, UPPER, LOWER])


@st.composite
def raw_pieces(draw):
    """One validated interval, endpoints from a narrow band or the ground's ends."""
    ends = st.sampled_from([0, DEN, *range(DEN // 2 - 4, DEN // 2 + 5)])
    a, b = sorted((draw(ends), draw(ends)))
    return Interval(F(a, DEN), F(b, DEN), draw(st.booleans()), draw(st.booleans()))


def probe_points(*sets):
    """Grid points, non-dyadic points and every endpoint of the given sets."""
    points = {F(i, 4 * DEN) for i in range(4 * DEN + 1)} | {F(1, 3), F(5, 7), F(2, 5), F(1, 7)}
    for s in sets:
        for p in s.intervals:
            points |= {p.lo, p.hi}
    return sorted(points)


# Pieces of two sets touching at 1/2 and at 5/8, open or closed on each side.
TOUCHING = [
    (iv(F(1, 4), F(1, 2), hi_open=hi_open) | iv(F(5, 8), F(3, 4)), iv(F(1, 2), F(5, 8), lo_open=lo_open, hi_open=False))
    for hi_open in (True, False)
    for lo_open in (True, False)
]


class TestIntegerCutsAgainstFractions:
    """Every integer-cut operation against the `Fraction` references above."""

    @given(st.lists(raw_pieces(), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_normalize(self, raw):
        want = frac_normalize([(p.lower_cut, p.upper_cut) for p in raw])
        assert frac_cuts(RationalIntervalSet(tuple(raw))) == want

    @given(interval_sets, interval_sets)
    @example(*TOUCHING[0])
    @example(*TOUCHING[1])
    @example(*TOUCHING[2])
    @example(*TOUCHING[3])
    @settings(max_examples=300, deadline=None)
    def test_set_algebra(self, a, b):
        cuts_a, cuts_b = frac_cuts(a), frac_cuts(b)
        assert frac_cuts(a & b) == frac_and(cuts_a, cuts_b)
        assert (b & a).intervals == (a & b).intervals
        assert frac_cuts(a.complement()) == frac_complement(cuts_a)
        assert frac_cuts(a - b) == frac_and(cuts_a, frac_complement(cuts_b))
        for sub in (a, a & b, b - a):
            assert (sub <= b) == frac_le(frac_cuts(sub), cuts_b)
            assert (b <= sub) == frac_le(cuts_b, frac_cuts(sub))

    @given(interval_sets)
    @settings(max_examples=100, deadline=None)
    def test_membership(self, a):
        cuts = frac_cuts(a)
        for q in probe_points(a):
            assert (q in a) == frac_contains(cuts, q), q

    @given(ORACLES, SCALES, interval_sets)
    @example(EUCLID, F(1, 96), iv(F(40, 96), F(45, 96)) | iv(F(47, 96), F(1, 2), lo_open=False))
    @settings(max_examples=300, deadline=None)
    def test_image(self, oracle, eps, a):
        img = oracle.image(eps, a)
        want = frac_image(oracle.kind, eps, frac_cuts(a))
        assert frac_cuts(img) == want
        assert img.to_json()["intervals"] == frac_json(want)
        assert frac_cuts(oracle.inv_image(eps, a)) == frac_image(oracle.conjugate().kind, eps, frac_cuts(a))

    @given(ORACLES, SCALES, SCALES, interval_sets, interval_sets)
    @settings(max_examples=200, deadline=None)
    def test_image_monotone_in_scale_and_set(self, oracle, s, t, a, b):
        small, large = sorted((s, t))
        assert frac_le(frac_cuts(oracle.image(small, a)), frac_cuts(oracle.image(large, a)))
        assert frac_le(frac_cuts(oracle.image(s, a & b)), frac_cuts(oracle.image(s, a)))
        assert frac_le(frac_cuts(oracle.image(s, a)), frac_cuts(oracle.image(s, a | b)))

    @pytest.mark.parametrize("eps", [F(1, 3), F(5, 7)])
    def test_dense_witness_index(self, eps):
        cover, _ = dense_scenario(eps, depth=12)
        for c in (cover, star_cover(cover), star_cover(star_cover(cover))):
            tagged = sorted((lo, hi, n) for n, s in enumerate(frac_strata(c)) for lo, hi in s)
            assert [(p.lower_cut, p.upper_cut, n) for p, n in c.stratum_index] == tagged
            grid = tuple(probe_points(*c.sets)[1:-1])
            assert tags_of_sorted(c.stratum_index, grid) == [frac_min_index(c, x) for x in grid]


class TestFloatsRejected:
    """A float is refused at every conversion into the interval and cover layer."""

    def test_interval_endpoints(self):
        with pytest.raises(TypeError, match="0.1"):
            Interval(0.1, F(1, 2))
        with pytest.raises(TypeError, match="0.5"):
            iv(F(1, 10), 0.5)

    def test_point(self):
        with pytest.raises(TypeError, match="0.25"):
            point(0.25)

    def test_membership(self):
        with pytest.raises(TypeError, match="0.3"):
            0.3 in iv(F(1, 4), F(1, 2))

    def test_oracle_scales(self):
        # `image` and `is_small` are covered by tests/test_refusals.py.
        with pytest.raises(TypeError, match="0.1"):
            UPPER.inv_image(0.1, iv(F(1, 4), F(1, 2)))

    def test_cover_base_scales(self):
        with pytest.raises(TypeError, match="0.125"):
            OmegaCover(EUCLID, (iv(F(1, 2), 1), iv(F(1, 4), 1)), (0.125, F(1, 8)))

    def test_certificate_scales(self):
        # The other certificates' scales are covered by tests/test_refusals.py.
        probe = iv(F(1, 4), F(1, 2))
        with pytest.raises(TypeError, match="0.5"):
            refined_base(cover_normal_sequence(flagship(depth=8), 0, grid_size=16), [0.5], [probe])

    def test_points_and_radius(self):
        with pytest.raises(TypeError, match="0.3"):
            cover_successor_of_point(flagship(depth=8), 0.3)
        with pytest.raises(TypeError, match="0.5"):
            dense_scenario(0.5, depth=4)


MONOTONE_COVER_KEYS = {
    "kind",
    "branch",
    "smallest_meeting",
    "witness_point",
    "witness_point_check",
    "entourage_scale",
    "relation_image",
    "image_check",
    "passed",
}
MONOTONE_HAUS_KEYS = {"kind", "branch", "scale", "inner_scale", "stratum_checks", "passed"}
UNBOUNDED_KEYS = {
    "hypothesis_index",
    "hypothesis_exact",
    "probe_witnesses",
    "inside_pool_check",
    "outside_escape_check",
    "beyond_truncation",
}


class TestMonotoneCoverCert:
    @pytest.mark.parametrize(
        "probe, branch, keys",
        [
            (iv(F(1, 4), F(1, 3)), "bounded", MONOTONE_COVER_KEYS | {"smallest_containing"}),
            (iv(0, F(1, 2)), "cofinal", MONOTONE_COVER_KEYS | {"escape_witnesses"}),
        ],
    )
    def test_branch_keys(self, probe, branch, keys):
        cert = cert_monotonecover(flagship(), probe)
        assert cert["branch"] == branch and set(cert) == keys

    def test_bounded_probe(self):
        cert = cert_monotonecover(flagship(), iv(F(1, 4), F(1, 3)))
        assert cert["passed"] and cert["branch"] == "bounded"
        assert cert["smallest_meeting"] <= cert["smallest_containing"]

    def test_point_probe_meets_equals_contains(self):
        cert = cert_monotonecover(flagship(), point(F(1, 3)))
        assert cert["passed"]
        assert cert["smallest_meeting"] == cert["smallest_containing"]

    def test_cofinal_probe(self):
        cert = cert_monotonecover(flagship(), iv(0, F(1, 2)))
        assert cert["passed"] and cert["branch"] == "cofinal"
        cover = flagship()
        for n, w in enumerate(cert["escape_witnesses"]):
            q = parse_frac(w)
            assert q in iv(0, F(1, 2)) and q not in cover.sets[n]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            cert_monotonecover(flagship(), EMPTY)

    def test_truncation_error(self):
        with pytest.raises(CoverError, match="truncation"):
            cert_monotonecover(flagship(depth=8), iv(F(1, 1000), F(1, 999)))

    def test_seeded_probe_family(self):
        cover = flagship()
        for probe in random_interval_sets(1234, 30):
            cert = cert_monotonecover(cover, probe)
            assert cert["passed"], cert


class TestMonotoneHausCert:
    @pytest.mark.parametrize(
        "scale, probe, branch, keys",
        [
            (F(1, 8), iv(F(1, 4), F(1, 3)), "contained", MONOTONE_HAUS_KEYS | {"containing_index"}),
            (F(1, 8), iv(0, F(1, 2)), "unbounded", MONOTONE_HAUS_KEYS | UNBOUNDED_KEYS),
            (F(1, 64), point(F(1, 1000)) | iv(F(1, 3), 1), "unbounded", {"kind", "branch", "scale", "passed", "reason"}),
        ],
        ids=["contained", "unbounded found", "unbounded failing"],
    )
    def test_branch_keys(self, scale, probe, branch, keys):
        cert = cert_monotonehaus(flagship(), scale, probe)
        assert cert["branch"] == branch and set(cert) == keys

    def test_contained_branch(self):
        cert = cert_monotonehaus(flagship(), F(1, 8), iv(F(1, 4), F(1, 3)))
        assert cert["passed"] and cert["branch"] == "contained"

    def test_unbounded_branch_with_witnesses(self):
        cover = flagship()
        probe = iv(0, F(1, 2))
        cert = cert_monotonehaus(cover, F(1, 8), probe)
        assert cert["passed"] and cert["branch"] == "unbounded"
        assert cert["hypothesis_exact"]
        m = cert["hypothesis_index"]
        inside = probe & cover.sets[m]
        deep = probe - cover.sets[cover.truncation_depth]
        for w in cert["probe_witnesses"]:
            x = parse_frac(w["x"])
            near = parse_frac(w["inside_witness"])
            far = parse_frac(w["deep_witness"])
            assert x in probe and x not in cover.sets[m]
            assert near in inside and EUCLID.dist(x, near) < F(1, 16)
            assert far in deep and EUCLID.dist(far, x) < F(1, 16)

    def test_hypothesis_failure_reported(self):
        probe = point(F(1, 1000)) | iv(F(1, 3), 1)
        cert = cert_monotonehaus(flagship(), F(1, 64), probe)
        assert cert["passed"] is False
        assert cert["reason"] == "hypothesis fails for this A"


def reference_stratum_checks(c, s, a, last):
    """`_stratum_successor_checks` without the memo: each piece's own image, checked directly."""
    checks = []
    for n in range(last + 1):
        piece = a & c.strata[n]
        if not piece.is_empty:
            checks.append({"stratum": n, "holds": c.oracle.image(s, piece) <= c.sets[n + 1]})
    return checks


@st.composite
def flagship_covers(draw):
    """Flagship covers of depth 2 to 16, or their star covers."""
    cover = flagship(depth=draw(st.integers(2, 16)))
    return star_cover(cover) if draw(st.booleans()) else cover


# At or below the flagship's ladder scales (1/4, 1/12, 1/24, ...) every
# stratum-wide verdict holds; from 1/2 up none does on the flagship.
MEMO_SCALES = [F(1, 96), F(1, 48), F(1, 24), F(1, 12), F(1, 4), F(1, 2), F(3, 4), F(1)]
SEEDED_PROBES = random_interval_sets(23, 40)


class TestStratumSuccessorMemo:
    """`_stratum_successor_checks` and its per-cover memo against the per-piece loop."""

    @given(
        st.one_of(flagship_covers(), nested_covers()),
        st.lists(st.sampled_from(MEMO_SCALES), min_size=1, max_size=3),
        st.lists(st.one_of(st.sampled_from(SEEDED_PROBES), multi_interval_sets()), min_size=1, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_loop(self, cover, scales, probes):
        for s in scales:
            for a in probes:
                for last in range(cover.truncation_depth):
                    assert _stratum_successor_checks(cover, s, a, last) == reference_stratum_checks(cover, s, a, last)

    def test_piece_holds_where_stratum_fails(self):
        # Stratum 0 is (1/2, 1); at 1/2, above base_scales[0] = 1/4, its
        # image is (0, 1), not inside sets[1] = (1/4, 1), but the point 3/4's
        # image (1/4, 1) is.
        cover, a = flagship(), point(F(3, 4))
        assert _stratum_successor_checks(cover, F(1, 2), a, 0) == [{"stratum": 0, "holds": True}]
        assert cover._stratum_images == {F(1, 2): {0: False}}
        assert reference_stratum_checks(cover, F(1, 2), a, 0) == [{"stratum": 0, "holds": True}]

    def test_piece_and_stratum_both_fail(self):
        # The point 11/20's image at 1/2 is (1/20, 1), which leaves sets[1].
        cover, a = flagship(), point(F(11, 20)) | point(F(3, 4))
        assert _stratum_successor_checks(cover, F(1, 2), a, 1) == [{"stratum": 0, "holds": False}]
        assert cover._stratum_images == {F(1, 2): {0: False}}
        assert reference_stratum_checks(cover, F(1, 2), a, 1) == [{"stratum": 0, "holds": False}]

    def test_memo_reused_per_cover_and_scale(self, monkeypatch):
        cover, twin = flagship(depth=16), flagship(depth=16)
        assert twin == cover and twin is not cover
        s = cover.base_scales[6]
        # a meets strata 0 to 6 (stratum 6 is (1/14, 1/12]); b meets only some of them.
        a, b = iv(F(1, 14), F(3, 4)), iv(F(1, 10), F(1, 3))
        want_a, want_b = reference_stratum_checks(cover, s, a, 6), reference_stratum_checks(cover, s, b, 6)
        assert [ch["stratum"] for ch in want_a] == list(range(7))
        calls = []
        image = MetricOracle.image

        def counting(self, eps, x):
            calls.append(x)
            return image(self, eps, x)

        monkeypatch.setattr(MetricOracle, "image", counting)
        assert _stratum_successor_checks(cover, s, a, 6) == want_a
        assert [x for x in calls if x in cover.strata] == list(cover.strata[:7])
        assert cover._stratum_images == {s: dict.fromkeys(range(7), True)}
        calls.clear()
        assert _stratum_successor_checks(cover, s, b, 6) == want_b
        assert calls == []
        assert "_stratum_images" not in twin.__dict__
        assert twin == cover and repr(twin) == repr(cover)
        assert _stratum_successor_checks(twin, s, b, 6) == want_b
        assert [x for x in calls if x in twin.strata] == [twin.strata[ch["stratum"]] for ch in want_b]

    def test_certificates_match_reference_loop(self, monkeypatch):
        def certs():
            out = []
            for cover in (flagship(), star_cover(flagship())):
                contained = [a for a in SEEDED_PROBES if cover.min_index_containing(a) is not None]
                for v in (F(1, 8), F(1, 2), F(1)):
                    out += [cert_monotonehaus(cover, v, a) for a in contained]
                out.append(cert_monotonehaus(cover, F(1, 8), iv(0, F(1, 2))))
            return out

        got = certs()
        assert got[-1]["branch"] == "unbounded" and got[-1]["passed"]
        monkeypatch.setattr(ratcover, "_stratum_successor_checks", reference_stratum_checks)
        assert certs() == got


class TestBoundedHausCert:
    def test_moderate_scale_single_piece(self):
        cert = cert_boundedhaus(flagship(), F(1, 10))
        assert cert["passed"] and cert["piece_count"] == 1 and not cert["chopped"]

    def test_huge_scale_index_zero(self):
        cert = cert_boundedhaus(flagship(), F(2))
        assert cert["passed"] and cert["index"] == 0 and cert["piece_count"] == 1

    def test_tiny_scale_chops(self):
        cover = flagship()
        cert = cert_boundedhaus(cover, F(1, 256))
        assert cert["passed"] and cert["chopped"] and cert["piece_count"] >= 2
        pieces = [Interval.from_json(p) for p in cert["pieces"]]
        union = RationalIntervalSet(tuple(pieces))
        assert union == cover.sets[cert["index"]].complement()
        for p in pieces:
            assert EUCLID.is_small(RationalIntervalSet.of(p), F(1, 256))

    def test_chop_cap_counts_before_cutting(self, monkeypatch):
        cover = flagship(depth=1)  # the complement of set 1 is (0, 1/4]
        monkeypatch.setattr(ratcover, "MAX_CHOP_PIECES", 5)
        assert cert_boundedhaus(cover, F(1, 16))["piece_count"] == 5

        def never(comp, eps):
            raise AssertionError("chopped before the pieces were counted")

        monkeypatch.setattr(ratcover, "_chop_small", never)
        with pytest.raises(ValueError, match="scale 1/20 would chop the complement of cover set 1 into 6 pieces") as info:
            cert_boundedhaus(cover, F(1, 20))
        assert info.type is ValueError and "cap of 5" in str(info.value)

    @given(
        st.integers(1, DEN - 1),
        st.integers(0, DEN - 2),
        st.booleans(),
        st.booleans(),
        st.fractions(min_value=F(1, 200), max_value=F(1, 2), max_denominator=200),
    )
    @example(24, 24, True, False, F(1, 16))  # steps end exactly at a closed upper end: one more piece
    @example(24, 24, True, False, F(1, 4))  # one step from an open lower end
    @example(24, 24, False, False, F(1, 4))  # one step between closed ends: split in two
    @example(24, 0, False, False, F(1, 4))  # a single point
    @settings(max_examples=300, deadline=None)
    def test_chop_count_matches_the_chop(self, lo, width, lo_open, hi_open, eps):
        hi = min(lo + width, DEN - 1)
        comp = Interval(F(lo, DEN), F(hi, DEN), lo_open and hi > lo, hi_open and hi > lo)
        assert _chop_count(comp, eps) == len(_chop_small(comp, eps))

    def test_lower_oracle_one_sided(self):
        sets = tuple(iv(F(1, n + 2), 1) for n in range(17))
        cover = OmegaCover(LOWER, sets, tuple(F(1, n + 2) - F(1, n + 3) for n in range(17)))
        cert = cert_boundedhaus(cover, F(1, 8))
        assert cert["passed"]
        for p in cert["pieces"]:
            assert LOWER.is_small(RationalIntervalSet.of(Interval.from_json(p)), F(1, 8))


class TestNotEntourageCert:
    def test_dyadic_scales(self):
        cover = flagship()
        cert = cert_not_entourage(cover, [F(1, 1 << k) for k in range(9)])
        assert cert["passed"]
        for w in cert["witnesses"]:
            x, y = parse_frac(w["x"]), parse_frac(w["y"])
            eps = parse_frac(w["scale"])
            assert EUCLID.dist(x, y) < eps
            assert y not in cover_successor_of_point(cover, x)

    def test_large_scale(self):
        cert = cert_not_entourage(flagship(), [F(2)])
        assert cert["passed"]

    def test_needs_scales(self):
        with pytest.raises(ValueError, match="at least one"):
            cert_not_entourage(flagship(), [])

    def test_scale_below_every_materialized_gap_fails_explicitly(self):
        # deepest consecutive gap of the depth-64 chain is 1/(2*64*65); below
        # that no materialized stratum can escape its successor
        cert = cert_not_entourage(flagship(), [F(1, 20000)])
        assert cert["passed"] is False
        assert cert["witnesses"][0] == {"scale": "1/20000", "found": False}

    def test_deeper_index_selected_for_smaller_scales(self):
        cover = flagship()
        shallow = cert_not_entourage(cover, [F(1, 4)])["witnesses"][0]["stratum"]
        deep = cert_not_entourage(cover, [F(1, 256)])["witnesses"][0]["stratum"]
        assert deep > shallow


class TestStarTower:
    def test_flagship_bundle(self):
        cover = flagship()
        probes = random_interval_sets(77, 10)
        cert = refined_base(cover_normal_sequence(cover, 2, grid_size=128), [F(1, 4), F(1, 16)], probes)
        assert cert["passed"]
        assert len(cert["base"]) == 6
        assert len(cert["membership"]) == 6 * len(probes)

    def test_trivial_scale_one(self):
        cover = flagship(depth=16)
        cert = refined_base(cover_normal_sequence(cover, 0, grid_size=64), [F(1)], [])
        assert cert["base"] == [{"cover": 0, "scale": "1/1"}]

    def test_aborts_on_failing_probe(self):
        cover = flagship(depth=16)
        bad_probe = point(F(1, 1000)) | iv(F(1, 3), 1)
        with pytest.raises(CoverError, match="membership certificate failed"):
            refined_base(cover_normal_sequence(cover, 0, grid_size=64), [F(1, 64)], [bad_probe])


class TestDenseScenario:
    def test_eps_half_instantiation(self):
        cover, cert = dense_scenario(F(1, 2), depth=16)
        for n in range(5):
            assert cover.sets[n] == iv(F(1, 2 * (n + 1)), 1)
        assert cert["no_set_is_ground"]
        assert cert["connectivity"]["passed"]

    def test_chain_witnesses_are_gaps(self):
        _, cert = dense_scenario(F(1, 2), depth=16)
        assert cert["chain_witness_scales"][0] == "1/4"
        assert cert["chain_witness_scales"][1] == "1/12"

    def test_eps_one_rejected(self):
        with pytest.raises(ValueError, match="covers the whole ground"):
            dense_scenario(F(1))

    def test_bounded_scales_included(self):
        _, cert = dense_scenario(F(1, 2), depth=16, bounded_scales=(F(1, 4),))
        assert len(cert["bounded"]) == 1 and cert["bounded"][0]["passed"]


class TestConnectivity:
    @given(st.sampled_from((EUCLID, UPPER, LOWER)), multi_interval_sets(0, DEN), st.integers(1, DEN // 2))
    @settings(max_examples=300, deadline=None)
    @example(EUCLID, iv(F(1, 4), F(1, 2)), 6)
    @example(UPPER, iv(0, F(1, 2)), 6)
    @example(LOWER, iv(F(1, 2), 1), 6)
    def test_no_interval_set_is_isolated(self, oracle, probe, num):
        # Why star_cover needs no checks of its own: a nonempty set other
        # than the ground is not its own image, and an image that doubling
        # the scale leaves unchanged is the ground.
        assume(probe != GROUND)
        eps = F(num, DEN)
        assert oracle.image(eps, probe) != probe
        img = oracle.image(eps, probe)
        assert img == GROUND or img != oracle.image(2 * eps, probe)

    def test_certificate_shape(self):
        cert = connectivity_certificate(EUCLID, F(1, 8), [iv(F(1, 4), F(1, 2))])
        assert cert["passed"] and cert["fixed_set"] is None


class TestProbeGeneration:
    def test_deterministic(self):
        assert random_interval_sets(42, 5) == random_interval_sets(42, 5)

    def test_all_nonempty_and_bounded(self):
        for probe in random_interval_sets(7, 20):
            assert not probe.is_empty
            assert probe.intervals[0].lo >= F(1, 64)
