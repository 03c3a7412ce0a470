import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qusp.hyper import (
    _image_table,
    enumerate_preorders,
    hausdorff_of,
    hyper_as_relation,
    hyper_h,
    hyper_minus,
    hyper_plus,
    powerset_ground,
    qh_equivalent,
    qh_local_criterion,
    qh_singular_scan,
)
from qusp.quniform import FiniteQuasiUniformity, topology_of
from qusp.relcore import GroundSet, Relation, compose, ground, image, inverse, is_preorder

G2 = ground("a", "b")
G3 = ground("a", "b", "c")


def reflexives(g):
    n = g.size
    out = []
    for bits in range(1 << (n * n - n)):
        rows = []
        k = 0
        for i in range(n):
            row = 1 << i
            for j in range(n):
                if j != i:
                    if bits >> k & 1:
                        row |= 1 << j
                    k += 1
            rows.append(row)
        out.append(Relation(g, tuple(rows)))
    return out


def naive_preorders(g):
    """Independent oracle: filter every reflexive relation by the definition."""
    return [r for r in reflexives(g) if compose(r, r) <= r]


def successor_masks(h, a):
    return {b for b in range(h.size) if h.has(a, b)}


def first_escape(u, v):
    """Lowest point x with u(x) not inside v(x), or None when u <= v."""
    return next((x for x in range(u.ground.size) if u.rows[x] & ~v.rows[x]), None)


def transitive_closure(r):
    while not compose(r, r) <= r:
        r = compose(r, r)
    return r


@st.composite
def pooled_relations(draw, n_max=6):
    """Two relations on one ground of up to n_max points, rows drawn from a small pool.

    Points that draw the same pool row give many subsets one image; empty
    rows are allowed and reflexivity is not required.
    """
    n = draw(st.integers(1, n_max))
    g = GroundSet(tuple(f"x{i}" for i in range(n)))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))
    rows = st.tuples(*[st.sampled_from(pool)] * n)
    return Relation(g, draw(rows)), Relation(g, draw(rows))


def reference_le(h1, h2):
    return all(a & ~b == 0 for a, b in zip(h1.rows, h2.rows))


def reference_and(h1, h2):
    return tuple(a & b for a, b in zip(h1.rows, h2.rows))


@st.composite
def reflexive_pairs(draw, n_max=6, closed=False):
    """(u, v) on one ground of up to n_max points; v contains u about half the time."""
    n = draw(st.integers(1, n_max))
    g = GroundSet(tuple(f"x{i}" for i in range(n)))
    row = st.integers(0, (1 << n) - 1)
    u_rows = [draw(row) | 1 << i for i in range(n)]
    base = u_rows if draw(st.booleans()) else [1 << i for i in range(n)]
    v_rows = [b | draw(row) | 1 << i for i, b in enumerate(base)]
    u, v = Relation(g, tuple(u_rows)), Relation(g, tuple(v_rows))
    if closed:
        u, v = transitive_closure(u), transitive_closure(v)
    return u, v


class TestHyperRelations:
    def test_minus_identity_is_containment(self):
        h = hyper_minus(Relation.identity(G2))
        for a in range(4):
            for b in range(4):
                assert h.has(a, b) == (a & ~b == 0)

    def test_minus_full(self):
        h = hyper_minus(Relation.full(G2))
        for a in range(4):
            for b in range(4):
                assert h.has(a, b) == (a == 0 or b != 0)

    def test_minus_empty_row(self):
        h = hyper_minus(Relation.from_pairs(G3, [("a", "b")], reflexive=True))
        assert all(h.has(0, b) for b in range(8))

    def test_plus_identity_is_reverse_containment(self):
        h = hyper_plus(Relation.identity(G2))
        for a in range(4):
            for b in range(4):
                assert h.has(a, b) == (b & ~a == 0)

    def test_plus_empty_column(self):
        h = hyper_plus(Relation.from_pairs(G3, [("a", "b")], reflexive=True))
        assert all(h.has(a, 0) for a in range(8))

    def test_plus_sierpinski(self):
        u = Relation.from_pairs(G2, [("a", "b")], reflexive=True)
        h = hyper_plus(u)
        assert h.has(G2.mask_of(["a"]), G2.full_mask)

    def test_h_of_identity_is_equality(self):
        h = hyper_h(Relation.identity(G2))
        for a in range(4):
            assert successor_masks(h, a) == {a}

    def test_h_of_full(self):
        h = hyper_h(Relation.full(G2))
        assert successor_masks(h, 0) == {0}
        for a in range(1, 4):
            assert successor_masks(h, a) == {1, 2, 3}

    def test_h_sierpinski_row(self):
        u = Relation.from_pairs(G2, [("a", "b")], reflexive=True)
        h = hyper_h(u)
        assert successor_masks(h, G2.mask_of(["a"])) == {1, 2, 3}

    def test_empty_set_row_of_h(self):
        for u in reflexives(G2):
            assert successor_masks(hyper_h(u), 0) == {0}

    def test_agreement_with_definitions_brute(self):
        # independent route: expand the set definitions pointwise
        for u in reflexives(G2):
            inv = inverse(u)
            hm, hp = hyper_minus(u), hyper_plus(u)
            for a in range(4):
                for b in range(4):
                    assert hm.has(a, b) == (a & ~image(inv, b) == 0)
                    assert hp.has(a, b) == (b & ~image(u, a) == 0)

    @given(pooled_relations())
    def test_agreement_with_definitions_pooled(self, pair):
        u, v = pair
        size = 1 << u.ground.size
        inv = inverse(u)
        img = [image(u, a) for a in range(size)]
        inv_img = [image(inv, b) for b in range(size)]
        minus = tuple(sum(1 << b for b in range(size) if a & ~inv_img[b] == 0) for a in range(size))
        plus = tuple(sum(1 << b for b in range(size) if b & ~img[a] == 0) for a in range(size))
        hm, hp, hh = hyper_minus(u), hyper_plus(u), hyper_h(u)
        assert hm.rows == minus
        assert hp.rows == plus
        assert hh.rows == tuple(m & p for m, p in zip(minus, plus))
        hypers = (hm, hp, hh, hyper_minus(v), hyper_plus(v), hyper_h(v))
        for h1 in hypers:
            for h2 in hypers:
                assert (h1 <= h2) == reference_le(h1, h2)
                assert (h1 & h2).rows == reference_and(h1, h2)

    @given(pooled_relations())
    @example((Relation(ground("a"), (1,)), Relation(ground("a"), (0,))))
    @example((Relation(ground("a"), (0,)), Relation(ground("a"), (1,))))
    def test_image_table_matches_image(self, pair):
        for u in pair:
            assert _image_table(u) == [image(u, m) for m in range(1 << u.ground.size)]

    def test_size_guard(self):
        g = GroundSet(tuple(f"x{i}" for i in range(17)))
        with pytest.raises(ValueError, match="capped"):
            hyper_h(Relation.identity(g))


class TestMonotonicityAndEmbedding:
    @given(st.integers(0, 2**6 - 1), st.integers(0, 2**6 - 1))
    def test_monotone(self, bits1, bits2):
        rels = reflexives(G3)
        u = rels[bits1]
        v_raw = rels[bits2]
        v = u | v_raw
        assert hyper_minus(u) <= hyper_minus(v)
        assert hyper_plus(u) <= hyper_plus(v)
        assert hyper_h(u) <= hyper_h(v)

    def test_singleton_embedding_exhaustive_n3(self):
        for u in reflexives(G3):
            h = hyper_h(u)
            for x in range(3):
                for y in range(3):
                    assert h.has(1 << x, 1 << y) == u.has(x, y)

    def test_preorder_preserved_n3(self):
        for r in enumerate_preorders(3):
            assert is_preorder(hyper_as_relation(hyper_h(r)))


class TestLocalCriterion:
    def test_identity_u_always_true(self):
        for v in reflexives(G2):
            for a in range(4):
                assert qh_local_criterion(Relation.identity(G2), v, a)

    def test_empty_subset_true(self):
        for u in reflexives(G2):
            for v in reflexives(G2):
                assert qh_local_criterion(u, v, 0)

    def test_image_condition_fails(self):
        u = Relation.from_pairs(G2, [("a", "b")], reflexive=True)
        assert not qh_local_criterion(u, Relation.identity(G2), G2.mask_of(["a"]))

    def test_matches_hyperspace_containment_exhaustive_n2(self):
        rels = reflexives(G2)
        hs = [hyper_h(u) for u in rels]
        for iu, u in enumerate(rels):
            for iv_, v in enumerate(rels):
                for a in range(4):
                    direct = hs[iu].rows[a] & ~hs[iv_].rows[a] == 0
                    assert qh_local_criterion(u, v, a) == direct


class TestQHComparison:
    def test_reflexive(self):
        q = FiniteQuasiUniformity.discrete(G2)
        assert qh_equivalent(q, q).finer_forward

    def test_discrete_is_finest(self):
        for r in enumerate_preorders(3):
            q = FiniteQuasiUniformity(r)
            assert qh_equivalent(FiniteQuasiUniformity.discrete(r.ground), q).finer_forward

    def test_indiscrete_not_finer_than_discrete(self):
        assert not qh_equivalent(
            FiniteQuasiUniformity.indiscrete(G2), FiniteQuasiUniformity.discrete(G2)
        ).finer_forward

    def test_equivalent_reflexive(self):
        q = FiniteQuasiUniformity.indiscrete(G2)
        verdict = qh_equivalent(q, q)
        assert verdict.equivalent and verdict.counterexample is None

    def test_counterexample_reported(self):
        verdict = qh_equivalent(
            FiniteQuasiUniformity.discrete(G2), FiniteQuasiUniformity.indiscrete(G2)
        )
        assert not verdict.equivalent
        mask, direction = verdict.counterexample
        assert direction in ("forward", "backward")
        assert 0 <= mask < 4

    def test_finer_implies_topology_comparison_n3(self):
        qs = [FiniteQuasiUniformity(r) for r in enumerate_preorders(3)]
        for q1 in qs:
            for q2 in qs:
                if qh_equivalent(q1, q2).finer_forward:
                    assert q1.min_entourage <= q2.min_entourage
                    assert topology_of(q2).is_coarser_than(topology_of(q1))

    def test_equivalence_forces_equal_topologies_n3(self):
        qs = [FiniteQuasiUniformity(r) for r in enumerate_preorders(3)]
        for q1 in qs:
            for q2 in qs:
                if qh_equivalent(q1, q2).equivalent:
                    assert topology_of(q1) == topology_of(q2)
                    assert q1 == q2  # distinct preorders never collide at this size

    @given(reflexive_pairs())
    def test_hyper_containment_is_pointwise(self, pair):
        u, v = pair
        hu, hv = hyper_h(u), hyper_h(v)
        assert (hu <= hv) == (u <= v)
        x = first_escape(u, v)
        if x is not None:
            first = next(m for m in range(hu.size) if hu.rows[m] & ~hv.rows[m])
            assert first == 1 << x

    @given(reflexive_pairs(closed=True))
    def test_verdict_follows_the_reduction(self, pair):
        u, v = pair
        verdict = qh_equivalent(
            FiniteQuasiUniformity(u), FiniteQuasiUniformity(v)
        )
        assert verdict.finer_forward == (u <= v)
        assert verdict.finer_backward == (v <= u)
        forward, backward = first_escape(u, v), first_escape(v, u)
        if forward is not None:
            expected = (1 << forward, "forward")
        elif backward is not None:
            expected = (1 << backward, "backward")
        else:
            expected = None
        assert verdict.counterexample == expected

    @given(reflexive_pairs(closed=True), st.booleans())
    def test_verdict_matches_hyper_containment(self, pair, equal):
        # With `equal`, v is a separately built relation with u's rows, so the
        # two hyper_h matrices are equal but not the same object.
        u, v = pair
        if equal:
            v = Relation(u.ground, tuple(u.rows))
        hu, hv = hyper_h(u), hyper_h(v)
        forward, backward = reference_le(hu, hv), reference_le(hv, hu)
        if not forward:
            expected = (next(m for m in range(hu.size) if hu.rows[m] & ~hv.rows[m]), "forward")
        elif not backward:
            expected = (next(m for m in range(hv.size) if hv.rows[m] & ~hu.rows[m]), "backward")
        else:
            expected = None
        verdict = qh_equivalent(FiniteQuasiUniformity(u), FiniteQuasiUniformity(v))
        assert (verdict.finer_forward, verdict.finer_backward, verdict.counterexample) == (forward, backward, expected)


class TestEnumerate:
    def test_counts_against_naive_filter(self):
        for n, expected in ((1, 1), (2, 4), (3, 29), (4, 355)):
            g = GroundSet(tuple(f"x{i}" for i in range(n)))
            fast = enumerate_preorders(n)
            assert len(fast) == expected
            slow = naive_preorders(g)
            assert len(slow) == expected
            assert {r.rows for r in fast} == {r.rows for r in slow}

    def test_deterministic_order(self):
        assert [r.rows for r in enumerate_preorders(2)] == [
            r.rows for r in enumerate_preorders(2)
        ]

    def test_guard(self):
        with pytest.raises(ValueError, match="capped"):
            enumerate_preorders(6)


class TestScan:
    def test_n2(self):
        assert qh_singular_scan(2) == {"n": 2, "preorders": 4, "pairs": 6, "collisions": []}

    def test_n3(self):
        report = qh_singular_scan(3)
        assert report["pairs"] == 406 and report["collisions"] == []

    def test_guard(self):
        with pytest.raises(ValueError, match="capped"):
            qh_singular_scan(5)


class TestHausdorff:
    def test_discrete_lifts_to_discrete(self):
        q = FiniteQuasiUniformity.discrete(G2)
        hq = hausdorff_of(q)
        assert hq.min_entourage == Relation.identity(powerset_ground(G2))

    def test_indiscrete_rows(self):
        q = FiniteQuasiUniformity.indiscrete(G2)
        hq = hausdorff_of(q)
        assert hq.min_entourage.rows == (0b0001, 0b1110, 0b1110, 0b1110)

    def test_iterated_well_formed_n3(self):
        for r in enumerate_preorders(3)[:5]:
            q = FiniteQuasiUniformity(r)
            hh = hausdorff_of(hausdorff_of(q))
            assert hh.ground.size == 256

    def test_powerset_labels(self):
        pg = powerset_ground(G2)
        assert pg.labels == ("{}", "{a}", "{b}", "{a,b}")

    def test_powerset_labels_stay_distinct(self):
        assert powerset_ground(ground("a", "b", "a,b")).labels[3:5] == ("{a,b}", '{"a,b"}')
        assert powerset_ground(ground("", "{x}")).labels == ("{}", '{""}', '{"{x}"}', '{"","{x}"}')
        hq = hausdorff_of(FiniteQuasiUniformity.discrete(ground("a", "b", "a,b")))
        assert hq.min_entourage == Relation.identity(hq.ground)
