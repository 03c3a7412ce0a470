import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qusp.metrize import random_normal_sequence
from qusp.relcore import (
    GroundSet,
    NormalSequence,
    Relation,
    compose,
    ground,
    image,
    inverse,
    is_preorder,
    iter_bits,
)

G3 = ground("a", "b", "c")
DELTA3 = Relation.identity(G3)
FULL3 = Relation.full(G3)


def rel3(pairs):
    return Relation.from_pairs(G3, pairs, reflexive=True)


@st.composite
def relations(draw, n_min=1, n_max=4, reflexive=False):
    n = draw(st.integers(n_min, n_max))
    g = GroundSet(tuple(f"x{i}" for i in range(n)))
    rows = []
    for i in range(n):
        row = draw(st.integers(0, (1 << n) - 1))
        if reflexive:
            row |= 1 << i
        rows.append(row)
    return Relation(g, tuple(rows))


@st.composite
def relation_triples(draw, n_min=1, n_max=4):
    n = draw(st.integers(n_min, n_max))
    g = GroundSet(tuple(f"x{i}" for i in range(n)))

    def one():
        return Relation(g, tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n)))

    return one(), one(), one()


def reference_compose(r, s):
    """Composition walking each row with `iter_bits`, the loop `compose` replaced."""
    rows = []
    for row in r.rows:
        acc = 0
        for y in iter_bits(row):
            acc |= s.rows[y]
        rows.append(acc)
    return Relation(r.ground, tuple(rows))


@st.composite
def relation_pairs_with_edge_rows(draw, n_max=16):
    # Each row is drawn free, empty, full or a single high bit, so empty and
    # full rows and the top index occur often.
    n = draw(st.integers(1, n_max))
    g = GroundSet(tuple(f"x{i}" for i in range(n)))
    full = (1 << n) - 1
    row = st.one_of(st.integers(0, full), st.sampled_from((0, full, 1 << (n - 1))))
    return tuple(Relation(g, tuple(draw(row) for _ in range(n))) for _ in range(2))


class TestCompose:
    def test_identity_is_unit(self):
        r = rel3([("a", "b"), ("c", "a")])
        assert compose(DELTA3, r) == r
        assert compose(r, DELTA3) == r

    def test_hand_expansion(self):
        r = rel3([("a", "b")])
        s = rel3([("b", "c")])
        assert compose(r, s) == rel3([("a", "b"), ("b", "c"), ("a", "c")])

    def test_preorder_idempotent(self):
        r = rel3([("a", "b"), ("b", "c"), ("a", "c")])
        assert is_preorder(r)
        assert compose(r, r) == r

    @given(relation_triples())
    def test_associative(self, triple):
        r, s, t = triple
        assert compose(compose(r, s), t) == compose(r, compose(s, t))

    @given(relation_triples())
    def test_inverse_reverses(self, triple):
        r, s, _ = triple
        assert inverse(compose(r, s)) == compose(inverse(s), inverse(r))

    def test_ground_mismatch(self):
        with pytest.raises(ValueError):
            compose(DELTA3, Relation.identity(ground("a", "b")))

    @given(relation_pairs_with_edge_rows())
    @settings(max_examples=300)
    def test_matches_iter_bits_reference(self, pair):
        r, s = pair
        assert compose(r, s) == reference_compose(r, s)
        assert compose(r, r) == reference_compose(r, r)


class TestTrustedRelations:
    @given(relation_pairs_with_edge_rows())
    @settings(max_examples=300)
    def test_derived_relations_equal_the_validating_construction(self, pair):
        # `compose`, `|` and `&` build through `Relation._trusted`; each result must
        # equal, hash and print like the relation `Relation(...)` validates from the same rows.
        r, s = pair
        g = r.ground
        expected = (
            reference_compose(r, s),
            Relation(g, [a | b for a, b in zip(r.rows, s.rows)]),
            Relation(g, [a & b for a, b in zip(r.rows, s.rows)]),
        )
        for got, want in zip((compose(r, s), r | s, r & s), expected):
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            assert type(got.rows) is tuple
            assert Relation(g, got.rows) == got


class TestInverse:
    def test_diagonal(self):
        assert inverse(DELTA3) == DELTA3

    def test_single_pair(self):
        assert inverse(rel3([("a", "b")])) == rel3([("b", "a")])

    def test_full(self):
        assert inverse(FULL3) == FULL3

    @given(relations())
    def test_involution(self, r):
        assert inverse(inverse(r)) == r


class TestImage:
    def test_identity(self):
        for mask in range(8):
            assert image(DELTA3, mask) == mask

    def test_single_pair(self):
        assert image(rel3([("a", "b")]), G3.mask_of(["a"])) == G3.mask_of(["a", "b"])

    def test_empty(self):
        assert image(FULL3, 0) == 0

    @given(relation_triples(n_max=4))
    def test_image_of_composition(self, triple):
        # exhaustive over all subsets for each drawn pair
        r, s, _ = triple
        n = r.ground.size
        for a in range(1 << n):
            assert image(compose(r, s), a) == image(s, image(r, a))

    def test_image_of_composition_exhaustive_n2(self):
        g = ground("a", "b")
        rels = [Relation(g, (p, q)) for p in range(4) for q in range(4)]
        for r in rels:
            for s in rels:
                for a in range(4):
                    assert image(compose(r, s), a) == image(s, image(r, a))


class TestIsPreorder:
    def test_examples(self):
        assert is_preorder(DELTA3)
        assert is_preorder(FULL3)
        assert not is_preorder(rel3([("a", "b"), ("b", "c")]))


class TestNormalSequence:
    def test_levels_must_square_down(self):
        lvl1 = rel3([("a", "b"), ("b", "c")])
        with pytest.raises(ValueError, match="not a normal sequence"):
            NormalSequence((lvl1, lvl1))
        wide = compose(lvl1, lvl1) | lvl1
        seq = NormalSequence((wide, lvl1))
        assert seq.depth == 2

    def test_levels_must_be_reflexive(self):
        bare = Relation.from_pairs(G3, [("a", "b")])
        with pytest.raises(ValueError, match="not reflexive"):
            NormalSequence((bare,))

    def test_trusted_record_stays_out_of_equality_hash_and_repr(self):
        wide = compose(rel3([("a", "b"), ("b", "c")]), rel3([("a", "b"), ("b", "c")]))
        levels = (FULL3, wide, DELTA3)
        trusted = NormalSequence._trusted(levels, quadruple=True)
        checked = NormalSequence(levels)
        assert trusted._quadruple and not checked._quadruple
        assert trusted == checked and hash(trusted) == hash(checked)
        assert repr(trusted) == repr(checked) and "_quadruple" not in repr(trusted)
        for twin in (copy.copy(trusted), copy.deepcopy(trusted), pickle.loads(pickle.dumps(trusted))):
            assert twin == trusted and twin._quadruple

    def test_record_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            NormalSequence((DELTA3,), _quadruple=True)

    def test_perturbed_trusted_levels_still_raise(self):
        # Drop from level k one off-diagonal pair of level k + 1: level k + 1
        # squared then escapes level k, and rebuilding by hand must notice.
        perturbed = 0
        for seed in range(20):
            ladder = random_normal_sequence(seed, 6, 5)
            for k in range(ladder.depth - 1):
                pair = next(((i, j) for i, j in ladder.levels[k + 1].pairs() if i != j), None)
                if pair is None:
                    continue
                i, j = pair
                level = ladder.levels[k]
                rows = list(level.rows)
                rows[i] &= ~(1 << j)
                levels = list(ladder.levels)
                levels[k] = Relation(level.ground, tuple(rows))
                with pytest.raises(ValueError, match=f"level {k + 1} squared escapes level {k}"):
                    NormalSequence(tuple(levels))
                perturbed += 1
        assert perturbed > 20

    @given(relations(reflexive=True))
    def test_image_contraction(self, bottom):
        top = compose(bottom, bottom)
        seq = NormalSequence((top, bottom))
        n = bottom.ground.size
        for a in range(1 << n):
            twice = image(seq.levels[1], image(seq.levels[1], a))
            assert twice & ~image(seq.levels[0], a) == 0


class TestSerialization:
    def test_shape(self):
        r = rel3([("a", "b")])
        data = r.to_json()
        assert data == {"n": 3, "labels": ["a", "b", "c"], "rows": ["110", "010", "001"]}

    @given(relations())
    def test_round_trip(self, r):
        assert Relation.from_json(r.to_json()) == r

    def test_bad_rows(self):
        with pytest.raises(ValueError):
            Relation.from_json({"n": 2, "labels": ["a", "b"], "rows": ["10", "2x"]})


class TestRelabel:
    @given(relations(), st.randoms(use_true_random=False))
    def test_pairs_keep_their_labels(self, r, rnd):
        labels = list(r.ground.labels)
        rnd.shuffle(labels)
        moved = r.relabel(GroundSet(tuple(labels)))
        named = {(r.ground.labels[i], r.ground.labels[j]) for i, j in r.pairs()}
        assert {(labels[i], labels[j]) for i, j in moved.pairs()} == named
        assert moved.relabel(r.ground) == r

    @pytest.mark.parametrize("labels", [("a", "b", "d"), ("a", "b"), ("a", "b", "c", "d")])
    def test_other_label_set_refused(self, labels):
        with pytest.raises(ValueError, match="differ as sets"):
            DELTA3.relabel(GroundSet(labels))


class TestGroundSet:
    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            GroundSet(("a", "a"))

    def test_mask_round_trip(self):
        mask = G3.mask_of(["c", "a"])
        assert G3.labels_of(mask) == ("a", "c")
