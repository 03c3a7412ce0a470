import dataclasses
import math
import random
from fractions import Fraction as F
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qusp.metrize
from qusp.metrize import (
    FiniteQuasiPseudometric,
    _weight_units,
    check_sandwich,
    entourage_at,
    every_second_level,
    kelley_metric,
    random_normal_sequence,
)
from qusp.relcore import GroundSet, NormalSequence, Relation, compose, ground

G2 = ground("a", "b")


def two_point_ladder():
    step = Relation.from_pairs(G2, [("a", "b")], reflexive=True)
    return NormalSequence((Relation.full(G2), step, Relation.identity(G2)))


def weight_function(seq):
    """The `Fraction` view of `_weight_units`: entry (x, y) is units[x][y] / D."""
    scale, units = _weight_units(seq)
    return tuple(tuple(F(v, scale) for v in row) for row in units)


class TestWeightFunction:
    def test_constant_preorder(self):
        r = Relation.from_pairs(G2, [("a", "b")], reflexive=True)
        seq = NormalSequence((r, r, r))
        w = weight_function(seq)
        assert w[0][1] == 0  # in every level, stable tail
        assert w[1][0] == 1  # off the ladder
        assert w[0][0] == 0 and w[1][1] == 0

    def test_two_point_ladder(self):
        w = weight_function(two_point_ladder())
        assert w[0][1] == F(1, 2)  # deepest membership at level 1
        assert w[1][0] == 1  # only level 0 (the full relation)

    def test_diagonal_always_zero(self):
        for seed in range(5):
            seq = random_normal_sequence(seed, 5, 4)
            w = weight_function(seq)
            assert all(w[i][i] == 0 for i in range(5))

    def test_unstable_tail_keeps_dyadic_weight(self):
        chain = Relation.from_pairs(
            ground("a", "b", "c"), [("a", "b"), ("b", "c")], reflexive=True
        )
        top = compose(chain, chain)
        seq = NormalSequence((top, chain))
        w = weight_function(seq)
        assert w[0][1] == F(1, 2)  # not zero: tail is not transitive


class TestKelleyMetric:
    def test_constant_preorder_distances(self):
        r = Relation.from_pairs(G2, [("a", "b")], reflexive=True)
        m = kelley_metric(NormalSequence((r, r, r)))
        assert m.dist[0][1] == 0 and m.dist[1][0] == 1

    def test_two_point_ladder_distances(self):
        m = kelley_metric(two_point_ladder())
        assert m.dist[0][1] == F(1, 2) and m.dist[1][0] == 1

    def test_chain_shortcut(self):
        g = ground("a", "b", "c")
        ab = Relation.from_pairs(g, [("a", "b")], reflexive=True)
        bc = Relation.from_pairs(g, [("b", "c")], reflexive=True)
        both = ab | bc
        widest = compose(both, both) | both
        very = compose(widest, widest) | widest
        seq = NormalSequence((very, widest | ab | bc, both))
        m = kelley_metric(seq)
        # two quarter steps beat any direct weight
        assert m.dist[0][2] <= m.dist[0][1] + m.dist[1][2]

    def test_quadruple_condition_enforced(self):
        g = ground("a", "b", "c", "d", "e")
        chain = Relation.from_pairs(
            g, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")], reflexive=True
        )
        top = compose(chain, chain) | chain  # contains squares but not fourth powers
        with pytest.raises(ValueError, match="quadruple condition violated"):
            kelley_metric(NormalSequence((top, chain)))

    def test_sandwich_on_seeded_ladders(self):
        for seed in range(40):
            ladder = random_normal_sequence(seed, 2 + seed % 7, 6)
            sub = every_second_level(ladder)
            metric = kelley_metric(sub)
            report = check_sandwich(metric, sub)
            assert report["passed"], (seed, report)
            # same containments phrased on the original ladder indices
            n = ladder.ground.size
            for k in range(3):
                thr = F(1, 2**k)
                sub_rel = Relation(
                    ladder.ground,
                    tuple(
                        sum(1 << j for j in range(n) if metric.dist[i][j] < thr)
                        for i in range(n)
                    ),
                )
                assert sub_rel <= ladder.levels[2 * k]
                if 2 * k + 2 < ladder.depth:
                    assert ladder.levels[2 * k + 2] <= sub_rel

    def test_ladder_monotonicity(self):
        # widening every level by one shift produces pointwise smaller distances;
        # depth 7 keeps the identity as the subsampled bottom level, away from
        # the transitive-tail weighting edge
        for seed in range(20):
            ladder = random_normal_sequence(seed, 5, 7)
            g = ladder.ground
            sub = every_second_level(NormalSequence(ladder.levels[:-1] + (Relation.identity(g),)))
            widened = NormalSequence((Relation.full(sub.ground),) + sub.levels[:-1])
            m, mw = kelley_metric(sub), kelley_metric(widened)
            for i in range(5):
                for j in range(5):
                    assert mw.dist[i][j] <= m.dist[i][j]


class TestMetricOps:
    def test_axioms_validated(self):
        with pytest.raises(ValueError, match="triangle"):
            FiniteQuasiPseudometric(
                ground("a", "b", "c"),
                (
                    (F(0), F(1), F(3)),
                    (F(1), F(0), F(1)),
                    (F(3), F(1), F(0)),
                ),
            )
        with pytest.raises(ValueError, match="self-distance"):
            FiniteQuasiPseudometric(G2, ((F(1), F(1)), (F(1), F(0))))


class TestEverySecondLevel:
    def test_indices(self):
        ladder = random_normal_sequence(3, 4, 6)
        sub = every_second_level(ladder)
        assert sub.levels == ladder.levels[::2]

    def test_result_is_normal(self):
        for seed in range(10):
            ladder = random_normal_sequence(seed, 4, 7)
            sub = every_second_level(ladder)
            for k in range(sub.depth - 1):
                sq = compose(sub.levels[k + 1], sub.levels[k + 1])
                assert compose(sq, sq) <= sub.levels[k]


# References for the trusted ladders: the checks that `NormalSequence` and
# `kelley_metric` skip on ladders built by `random_normal_sequence` and
# `every_second_level`.


def reference_is_normal(seq):
    return all(lvl.ground == seq.ground and lvl.is_reflexive() for lvl in seq.levels) and all(
        compose(seq.levels[k + 1], seq.levels[k + 1]) <= seq.levels[k] for k in range(seq.depth - 1)
    )


def reference_meets_quadruple(seq):
    fourth = [compose(compose(lvl, lvl), compose(lvl, lvl)) for lvl in seq.levels]
    return all(fourth[k + 1] <= seq.levels[k] for k in range(seq.depth - 1))


class TestTrustedLadders:
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 8),
        depth=st.integers(1, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_trusted_ladders_pass_the_full_checks(self, seed, n, depth):
        ladder = random_normal_sequence(seed, n, depth)
        sub = every_second_level(ladder)
        for seq in (ladder, sub):
            assert reference_is_normal(seq)
            NormalSequence(seq.levels)  # the constructor's own checks
        assert reference_meets_quadruple(sub)
        assert sub._quadruple and not ladder._quadruple
        checked = NormalSequence(sub.levels)
        assert not checked._quadruple
        assert kelley_metric(sub) == kelley_metric(checked)

    def test_subsampling_equals_the_checked_construction(self):
        for seed in range(20):
            ladder = random_normal_sequence(seed, 2 + seed % 7, 1 + seed % 12)
            sub = every_second_level(ladder)
            checked = NormalSequence(ladder.levels[::2])
            assert sub == checked
            assert hash(sub) == hash(checked)
            assert repr(sub) == repr(checked)

    def test_each_level_is_built_once(self, monkeypatch):
        # Counted through either constructor: the validating one and `_trusted`.
        built = []
        check, trusted = Relation.__post_init__, Relation._trusted.__func__
        monkeypatch.setattr(Relation, "__post_init__", lambda r: built.append(r) or check(r))
        monkeypatch.setattr(
            Relation, "_trusted", classmethod(lambda cls, g, rows: built.append(r := trusted(cls, g, rows)) or r)
        )
        ladder = random_normal_sequence(3, 6, 12)
        assert len(built) == ladder.depth == 12
        assert set(built) == set(ladder.levels)

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 8), depth=st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_levels_and_draws_match_square_plus_sprinkle(self, seed, n, depth):
        # Reference: each level is the square of the one below, joined by `|` with a Relation of extras.
        rng = random.Random(seed)
        g = GroundSet(tuple(f"x{i}" for i in range(n)))

        def sprinkle(prob):
            rows = [(1 << i) | sum(1 << j for j in range(n) if j != i and rng.random() < prob) for i in range(n)]
            return Relation(g, tuple(rows))

        levels = [sprinkle(0.2)]
        for _ in range(depth - 1):
            levels.append(compose(levels[-1], levels[-1]) | sprinkle(0.08))
        made = []

        class Recording(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        with mock.patch.object(qusp.metrize, "random", SimpleNamespace(Random=Recording)):
            ladder = random_normal_sequence(seed, n, depth)
        assert ladder.levels == tuple(reversed(levels))
        assert [r.getstate() for r in made] == [rng.getstate()]

    def test_hand_built_ladders_carry_no_record(self):
        g = ground("a", "b", "c", "d", "e")
        chain = Relation.from_pairs(
            g, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")], reflexive=True
        )
        top = compose(chain, chain) | chain  # contains squares but not fourth powers
        trusted = every_second_level(NormalSequence((Relation.full(g), chain)))
        assert trusted._quadruple
        rebuilt = dataclasses.replace(trusted, levels=(top, chain))
        assert not rebuilt._quadruple
        with pytest.raises(ValueError, match="quadruple condition violated"):
            kelley_metric(rebuilt)


# References for the integer fast paths: the Fraction loops that
# `kelley_metric` and `FiniteQuasiPseudometric` ran before they moved to
# integer multiples of a common unit.


def reference_floyd_warshall(weight):
    n = len(weight)
    dist = [list(row) for row in weight]
    for mid in range(n):
        for i in range(n):
            via = dist[i][mid]
            for j in range(n):
                cand = via + dist[mid][j]
                if cand < dist[i][j]:
                    dist[i][j] = cand
    return tuple(tuple(row) for row in dist)


def reference_metric_error(n, dist):
    """The message fragment the Fraction checks fail with, or None when all hold."""
    if len(dist) != n or any(len(row) != n for row in dist):
        return "shape"
    for i in range(n):
        if dist[i][i] != 0:
            return "self-distance"
        for j in range(n):
            if dist[i][j] < 0:
                return "nonnegative"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dist[i][k] > dist[i][j] + dist[j][k]:
                    return "triangle"
    return None


def points(n):
    return GroundSet(tuple(f"x{i}" for i in range(n)))


MIXED_ENTRIES = st.builds(F, st.integers(0, 12), st.sampled_from((1, 2, 3, 4, 5, 8)))
NUDGES = (F(1, 15), F(-1, 15), F(1, 60), F(-1, 60), F(1, 3), F(-1, 3))


@st.composite
def mixed_matrices(draw, n_max=5):
    """Square matrices over thirds, fifths and dyadics, often near the boundary.

    A raw draw rarely satisfies the triangle inequality, so most draws are
    closed under shortest paths (a metric) and some of those get one entry
    nudged by a small amount, which lands just inside or just outside; a few
    get a nonzero diagonal, and nudging down may go negative.
    """
    n = draw(st.integers(1, n_max))
    m = [[F(0) if i == j else draw(MIXED_ENTRIES) for j in range(n)] for i in range(n)]
    mode = draw(st.sampled_from(("raw", "closed", "nudged", "nudged", "diagonal")))
    if mode != "raw":
        m = [list(row) for row in reference_floyd_warshall(m)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if mode == "nudged":
        m[i][j] += draw(st.sampled_from(NUDGES))
    elif mode == "diagonal":
        m[i][i] = draw(st.sampled_from((F(1, 3), F(1, 5))))
    return n, tuple(tuple(row) for row in m)


class TestIntegerFastPaths:
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 7),
        depth=st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_kelley_metric_matches_fraction_floyd_warshall(self, seed, n, depth):
        sub = every_second_level(random_normal_sequence(seed, n, depth))
        expected = reference_floyd_warshall(weight_function(sub))
        got = kelley_metric(sub).dist
        assert got == expected
        assert all(type(v) is F for row in got for v in row)

    @given(mixed_matrices())
    @settings(max_examples=400, deadline=None)
    def test_validation_accepts_what_the_fraction_checks_accept(self, drawn):
        # Both constructors: from Fractions, and `_of_units` from integers over
        # the lcm of the denominators and over twice that, a unit finer than needed.
        n, dist = drawn
        expected = reference_metric_error(n, dist)
        lcm = math.lcm(*(v.denominator for row in dist for v in row))

        def over(scale):
            return FiniteQuasiPseudometric._of_units(points(n), scale, [[int(v * scale) for v in row] for row in dist])

        for build in (lambda: FiniteQuasiPseudometric(points(n), dist), lambda: over(lcm), lambda: over(2 * lcm)):
            if expected is None:
                q = build()
                assert q.dist == dist and all(type(v) is F for row in q.dist for v in row)
                assert all(F(u, q._scale) == v for urow, row in zip(q._units, dist) for u, v in zip(urow, row))
            else:
                with pytest.raises(ValueError, match=expected):
                    build()

    @pytest.mark.parametrize("d_ac, accepted", [(F(3, 4), False), (F(2, 3), True), (F(2, 3) + F(1, 10**9), False)])
    def test_near_miss_separated_exactly(self, d_ac, accepted):
        # d(a, b) + d(b, c) = 1/3 + 1/3; every other triangle holds.
        dist = (
            (F(0), F(1, 3), d_ac),
            (F(1), F(0), F(1, 3)),
            (F(1), F(1), F(0)),
        )
        assert reference_metric_error(3, dist) == (None if accepted else "triangle")
        if accepted:
            FiniteQuasiPseudometric(ground("a", "b", "c"), dist)
        else:
            with pytest.raises(ValueError, match="triangle"):
                FiniteQuasiPseudometric(ground("a", "b", "c"), dist)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            FiniteQuasiPseudometric(G2, ((F(0), F(1)), (F(1),)))

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 7), depth=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    @example(seed=0, n=2, depth=3)
    def test_entourage_matches_fraction_comparison(self, seed, n, depth):
        # A dyadic metric: no denominator of 2/3, 1/5 or 7/9 divides its unit.
        # Every entry is a threshold too, where strict and non-strict differ.
        q = kelley_metric(every_second_level(random_normal_sequence(seed, n, depth)))
        thresholds = {F(2, 3), F(1, 5), F(7, 9)} | {v for row in q.dist for v in row if v > 0}
        for eps in thresholds:
            expected = tuple(sum(1 << j for j in range(n) if q.dist[i][j] < eps) for i in range(n))
            assert entourage_at(q, eps).rows == expected

    @given(mixed_matrices(n_max=4))
    @settings(max_examples=100, deadline=None)
    def test_entourage_on_mixed_denominators(self, drawn):
        n, dist = drawn
        if reference_metric_error(n, dist) is not None:
            return
        q = FiniteQuasiPseudometric(points(n), dist)
        for eps in {F(2, 3), F(1, 5), F(7, 9), F(1, 7)} | {v for row in dist for v in row if v > 0}:
            expected = tuple(sum(1 << j for j in range(n) if dist[i][j] < eps) for i in range(n))
            assert entourage_at(q, eps).rows == expected

    def test_integer_units_stay_out_of_equality_and_repr(self):
        a = FiniteQuasiPseudometric(G2, ((0, F(1, 2)), (1, 0)))
        b = FiniteQuasiPseudometric(G2, ((F(0), F(2, 4)), (F(3, 3), F(0))))
        assert a == b and hash(a) == hash(b)
        assert "_units" not in repr(a) and "_scale" not in repr(a)
        assert a.dist == b.dist


# References for the one-pass Kelley pipeline: the weights as the Fraction
# loop built them, and the sandwich decided one `entourage_at` per level.


def reference_weight_function(seq):
    n = seq.ground.size
    last = seq.depth - 1
    by_level = [F(1, 2**k) for k in range(seq.depth)]
    if compose(seq.levels[last], seq.levels[last]) <= seq.levels[last] and seq.levels[last].is_reflexive():
        by_level[last] = F(0)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            weight = F(0) if i == j else F(1)
            if i != j:
                for k in reversed(range(seq.depth)):
                    if seq.levels[k].has(i, j):
                        weight = by_level[k]
                        break
            row.append(weight)
        rows.append(tuple(row))
    return tuple(rows)


def reference_sandwich(metric, ladder):
    levels = []
    for k in range(ladder.depth):
        sub = entourage_at(metric, F(1, 2**k))
        left = ladder.levels[k + 1] <= sub if k + 1 < ladder.depth else None
        levels.append({"level": k, "lower_ok": left, "upper_ok": sub <= ladder.levels[k]})
    passed = all(lvl["upper_ok"] and lvl["lower_ok"] is not False for lvl in levels)
    return {"passed": passed, "levels": levels}


CHAIN3 = Relation.from_pairs(ground("a", "b", "c"), [("a", "b"), ("b", "c")], reflexive=True)
HAND_LADDERS = (
    NormalSequence((Relation.from_pairs(G2, [("a", "b")], reflexive=True),) * 3),  # transitive bottom: weight 0
    two_point_ladder(),
    NormalSequence((compose(CHAIN3, CHAIN3), CHAIN3)),  # intransitive bottom keeps its dyadic weight
)


class TestOnePassPipeline:
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 8), depth=st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    @example(seed=0, n=1, depth=1)
    @example(seed=0, n=8, depth=1)
    def test_weight_units_match_the_fraction_weights(self, seed, n, depth):
        ladder = random_normal_sequence(seed, n, depth)
        for seq in (ladder, every_second_level(ladder)) + HAND_LADDERS:
            scale, units = _weight_units(seq)
            assert scale == 2 ** (seq.depth - 1)
            expected = reference_weight_function(seq)
            assert tuple(tuple(F(u, scale) for u in row) for row in units) == expected

    @given(seed=st.integers(0, 10**6), other=st.integers(0, 10**6), n=st.integers(1, 8), depth=st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_sandwich_matches_one_entourage_per_level(self, seed, other, n, depth):
        # The metric of a subsampled ladder against that ladder (which passes), against
        # the full ladder and against another seed's ladder on the same ground (which may fail).
        ladder = random_normal_sequence(seed, n, depth)
        sub = every_second_level(ladder)
        metric = kelley_metric(sub)
        assert FiniteQuasiPseudometric(metric.ground, metric.dist) == metric
        assert check_sandwich(metric, sub)["passed"]
        for against in (sub, ladder, every_second_level(random_normal_sequence(other, n, depth))):
            assert check_sandwich(metric, against) == reference_sandwich(metric, against)

    @given(mixed_matrices(n_max=5), st.integers(0, 10**6), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_sandwich_on_mixed_denominators(self, drawn, seed, depth):
        n, dist = drawn
        if reference_metric_error(n, dist) is not None:
            return
        metric = FiniteQuasiPseudometric(points(n), dist)
        ladder = random_normal_sequence(seed, n, depth)
        for against in (ladder, every_second_level(ladder), NormalSequence((Relation.full(points(n)),) * depth)):
            assert check_sandwich(metric, against) == reference_sandwich(metric, against)

    def test_kelley_metric_checks_the_axioms_on_its_units(self, monkeypatch):
        checked = []
        check = qusp.metrize._check_axioms
        monkeypatch.setattr(qusp.metrize, "_check_axioms", lambda n, units: checked.append(units) or check(n, units))
        metric = kelley_metric(every_second_level(random_normal_sequence(4, 6, 9)))
        assert [tuple(map(tuple, units)) for units in checked] == [metric._units]


class TestFloatsRejected:
    def test_metric_entry(self):
        with pytest.raises(TypeError, match="0.3"):
            FiniteQuasiPseudometric(G2, ((F(0), 0.3), (F(1), F(0))))

    def test_entourage_threshold(self):
        q = kelley_metric(two_point_ladder())
        for eps in (0.75, -0.5, float("inf")):
            with pytest.raises(TypeError, match="threshold"):
                entourage_at(q, eps)
