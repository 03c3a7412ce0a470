import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qusp.intervals import (
    GROUND,
    Interval,
    RationalIntervalSet,
    iv,
    point,
    rational_grid,
)
from qusp.intervals import _cut_interval
from qusp.serialize import parse_frac


def member_of_raw(q, raw):
    """Independent membership: check the raw pieces before any normalization."""
    if not 0 < q < 1:
        return False
    for lo, hi, lo_open, hi_open in raw:
        if (lo < q or (lo == q and not lo_open)) and (q < hi or (q == hi and not hi_open)):
            return True
    return False


@st.composite
def raw_interval_lists(draw):
    k = draw(st.integers(0, 3))
    out = []
    for _ in range(k):
        a = F(draw(st.integers(0, 24)), 24)
        b = F(draw(st.integers(0, 24)), 24)
        lo, hi = min(a, b), max(a, b)
        out.append((lo, hi, draw(st.booleans()), draw(st.booleans())))
    return out


def build(raw):
    return RationalIntervalSet(tuple(Interval(*r) for r in raw))


PROBES = [F(i, 97) for i in range(98)] + [F(i, 24) for i in range(25)] + [F(1, 48), F(47, 48)]


class TestNormalization:
    def test_open_meet_closed_merges(self):
        assert iv(0, F(1, 2)) | iv(F(1, 2), 1, lo_open=False) == GROUND

    def test_open_meet_open_keeps_gap(self):
        u = iv(0, F(1, 2)) | iv(F(1, 2), 1)
        assert u != GROUND
        assert F(1, 2) not in u
        assert len(u.intervals) == 2

    def test_closed_meet_open_merges(self):
        got = iv(F(1, 4), F(1, 2), hi_open=False) | iv(F(1, 2), F(3, 4))
        assert got == iv(F(1, 4), F(3, 4))

    def test_point_fills_gap(self):
        assert iv(0, F(1, 2)) | point(F(1, 2)) | iv(F(1, 2), 1) == GROUND

    def test_degenerate_point_kept(self):
        p = point(F(1, 3))
        assert not p.is_empty and F(1, 3) in p

    def test_empty_intervals_dropped(self):
        assert RationalIntervalSet((Interval(F(1, 2), F(1, 2), True, True),)).is_empty

    def test_clamps_to_open_unit(self):
        s = RationalIntervalSet((Interval(F(0), F(1), False, False),))
        assert s == GROUND
        assert F(0) not in s and F(1) not in s

    def test_overlap_merges(self):
        got = iv(F(1, 8), F(1, 2)) | iv(F(1, 4), F(3, 4))
        assert got == iv(F(1, 8), F(3, 4))

    def test_endpoint_bounds_enforced(self):
        with pytest.raises(ValueError):
            Interval(F(-1, 2), F(1, 2))
        with pytest.raises(ValueError):
            Interval(F(1, 2), F(3, 2))
        with pytest.raises(ValueError):
            Interval(F(3, 4), F(1, 4))


class TestSetAlgebraAgainstMembership:
    @given(raw_interval_lists(), raw_interval_lists())
    @settings(max_examples=60)
    def test_union(self, raw_a, raw_b):
        a, b = build(raw_a), build(raw_b)
        u = a | b
        for q in PROBES:
            assert (q in u) == (member_of_raw(q, raw_a) or member_of_raw(q, raw_b))

    @given(raw_interval_lists(), raw_interval_lists())
    @settings(max_examples=60)
    def test_intersection(self, raw_a, raw_b):
        a, b = build(raw_a), build(raw_b)
        m = a & b
        for q in PROBES:
            assert (q in m) == (member_of_raw(q, raw_a) and member_of_raw(q, raw_b))

    @given(raw_interval_lists(), raw_interval_lists())
    @settings(max_examples=60)
    def test_difference(self, raw_a, raw_b):
        a, b = build(raw_a), build(raw_b)
        d = a - b
        for q in PROBES:
            assert (q in d) == (member_of_raw(q, raw_a) and not member_of_raw(q, raw_b))

    @given(raw_interval_lists())
    @settings(max_examples=60)
    def test_complement(self, raw):
        a = build(raw)
        c = a.complement()
        for q in PROBES:
            if 0 < q < 1:
                assert (q in c) == (not member_of_raw(q, raw))
        assert (a | c) == GROUND or a.is_empty and c == GROUND

    @given(raw_interval_lists(), raw_interval_lists())
    @settings(max_examples=60)
    def test_subset_consistency(self, raw_a, raw_b):
        a, b = build(raw_a), build(raw_b)
        if a <= b:
            for q in PROBES:
                if member_of_raw(q, raw_a):
                    assert member_of_raw(q, raw_b)
        else:
            assert not (a - b).is_empty

    @given(raw_interval_lists(), raw_interval_lists(), raw_interval_lists())
    @settings(max_examples=200)
    def test_subset_sweep_matches_difference(self, raw_a, raw_b, raw_c):
        # The merge-pass <= against the set difference it replaced.  Besides a
        # free draw, test subsets of b and subsets of b with pieces added,
        # so the containing branch and near misses at shared endpoints occur.
        a, b, c = build(raw_a), build(raw_b), build(raw_c)
        for sub in (a, a & b, (a & b) | c, b - c, b):
            assert (sub <= b) == (sub - b).is_empty
            assert (b <= sub) == (b - sub).is_empty

    @given(raw_interval_lists())
    @settings(max_examples=60)
    def test_normalization_is_canonical(self, raw):
        a = build(raw)
        again = RationalIntervalSet(a.intervals)
        assert again == a
        for first, second in zip(a.intervals, a.intervals[1:]):
            assert first.upper_cut < second.lower_cut


class TestPickPoint:
    @given(raw_interval_lists())
    @settings(max_examples=60)
    def test_membership(self, raw):
        a = build(raw)
        if a.is_empty:
            with pytest.raises(ValueError):
                a.pick_point()
        else:
            assert a.pick_point() in a


class TestMisc:
    def test_json_round_trip(self):
        a = iv(F(1, 8), F(1, 3), lo_open=False) | point(F(1, 2)) | iv(F(2, 3), F(9, 10))
        assert RationalIntervalSet(tuple(Interval.from_json(item) for item in a.to_json()["intervals"])) == a

    def test_grid_inside_ground(self):
        grid = rational_grid(16)
        assert len(grid) == 16
        assert all(q in GROUND for q in grid)

    def test_parse_frac_rejects_garbage(self):
        for text in ("1/0", "1/00", "3/0000", "0/0"):
            with pytest.raises(ValueError, match="zero denominator"):
                parse_frac(text)
        with pytest.raises(ValueError):
            parse_frac("0.5")
        assert parse_frac("3/6") == F(1, 2)
        assert parse_frac("2") == 2

    def test_parse_frac_takes_bare_strings_only(self):
        for text in ("1/2\n", " 1/2", "1/2 ", "1 /2", "+1/2", "1/-2", "\u0661/2"):
            with pytest.raises(ValueError, match="malformed rational"):
                parse_frac(text)
        assert parse_frac("-007/014") == F(-1, 2) and parse_frac("-0") == 0

    def test_interval_is_immutable_and_copies(self):
        piece = Interval(F(1, 3), F(5, 7), lo_open=False)
        with pytest.raises(FrozenInstanceError):
            piece.lower = (0, 1, 1)
        with pytest.raises(FrozenInstanceError):
            del piece.upper
        s = RationalIntervalSet.of(piece) | point(F(6, 7))
        for twin in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert twin == s and hash(twin) == hash(s) and str(twin) == str(s)
        assert repr(piece) == "Interval(lo=Fraction(1, 3), hi=Fraction(5, 7), lo_open=False, hi_open=True)"


@st.composite
def ordered_cuts(draw):
    """A lower and an upper cut inside the ground with lower <= upper."""
    a = F(draw(st.integers(0, 24)), draw(st.sampled_from((1, 3, 8, 24))))
    b = F(draw(st.integers(0, 24)), draw(st.sampled_from((1, 3, 8, 24))))
    lo, hi = sorted((min(a, F(1)), min(b, F(1))))
    lower = (lo, draw(st.sampled_from((0, 1))))
    upper = (hi, draw(st.sampled_from((-1, 0))))
    if upper < lower:  # only at lo == hi with an open side: take the point
        lower = upper = (lo, 0)
    return lower, upper


def int_cut(cut):
    """The module's integer form of a (Fraction, tweak) cut."""
    value, tweak = cut
    return (value.numerator, value.denominator, tweak)


class TestTrustedInterval:
    @given(ordered_cuts())
    @settings(max_examples=300)
    def test_cut_interval_equals_validating_constructor(self, cuts):
        lower, upper = cuts
        got = _cut_interval(int_cut(lower), int_cut(upper))
        want = Interval(lower[0], upper[0], lower[1] == 1, upper[1] == -1)
        assert got == want and hash(got) == hash(want) and str(got) == str(want)
        assert type(got.lo) is F and type(got.hi) is F
        assert (got.lower_cut, got.upper_cut) == (lower, upper)

    @given(raw_interval_lists(), raw_interval_lists())
    @settings(max_examples=100)
    def test_set_operations_build_valid_intervals(self, raw_a, raw_b):
        a, b = build(raw_a), build(raw_b)
        for result in (a & b, a.complement(), a - b, a | b):
            for piece in result.intervals:
                assert piece == Interval(piece.lo, piece.hi, piece.lo_open, piece.hi_open)

    def test_public_constructors_still_validate(self):
        with pytest.raises(ValueError, match="exceeds"):
            Interval(F(1, 2), F(1, 3))
        with pytest.raises(ValueError, match="within"):
            Interval(F(-1, 2), F(1, 3))
        with pytest.raises(ValueError, match="within"):
            iv(F(1, 2), F(3, 2))
        with pytest.raises(ValueError, match="exceeds"):
            Interval.from_json({"lo": "2/3", "hi": "1/3", "lo_open": True, "hi_open": True})
